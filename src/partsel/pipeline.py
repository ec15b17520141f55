"""Streaming (user, partition) ingestion and the private release modes.

Ingestion keeps one unique-user count per partition. Every per-partition
decision draws on one 53-bit uniform integer: the top 53 bits of the
partition key's BLAKE2b-64 digest (the key's UTF-8 bytes, keyed by the seed
as 8 little-endian bytes and personalised by the mode: ``select``,
``release`` or ``dual``). This is seed-derivation version 2. A decision
therefore depends only on the seed, the mode, the key and its count, never
on row order, shard layout or the other keys. Strict ingestion's counts do
not depend on row order either, but first-wins keeps each user's earliest
partitions in input order, so its counts, and the outputs drawn from them,
can change with row order (ROADMAP item 4).

Every mode decides its keys in one loop, ``_hits``, in plain Python on exact
integers: each key's digest is compared, in the pass that makes it, with one
integer per distinct count (the keep threshold, or in the count modes the
least uniform whose noise clears the bound). Only the released keys are
kept, and only they have their noise inverted from the integer CDF bounds.

Every value of a release but the conflict policy is checked once, in
``_plan``, before any histogram exists: the mode, dual mode's public
configuration, kappa (by splitting the nominal budget), the seed, the budget
(by building its primitive or noise, then against the grid), and dual mode's
public threshold and keys. ``_plan`` also builds the mode's keyed hash, once.
The mode functions are their plan applied to a histogram, so they raise
:func:`release`'s messages. :func:`release` is the plan, then :func:`ingest`,
which checks its policy and bound before it reads a row.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import os
from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, TextIO

# hashlib.blake2b is this same constructor; importing it from here keeps
# hashlib, and the OpenSSL module it loads, out of a run.
from _blake2 import blake2b

from .params import RELEASE_MODES, ConfigurationError, IngestMode, InputFormatError, PrivacyParams, StrictViolationError, is_int
from .primitive import GRID, GRID_BITS, OptPrimitive, keep_threshold
from .truncated_geometric import TsgdParams, tsgd_cutoff, tsgd_inverse, tsgd_params

# The widths of seed-derivation version 2.
_SEED_BYTES = 8
_DIGEST_BYTES = 8
_SHIFT = 8 * _DIGEST_BYTES - GRID_BITS


class PartitionHistogram:
    """Unique-user counts per partition key: every count is an integer >= 1.

    Deduplication happens in :func:`ingest`, which builds the counts; a
    histogram only stores them.
    """

    __slots__ = ("_counts",)

    def __init__(self):
        self._counts: dict[str, int] = {}

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> PartitionHistogram:
        """Histogram with known counts."""
        hist = cls()
        for key, n in counts.items():
            if not isinstance(key, str) or not key:
                raise ConfigurationError(f"partition keys must be nonempty strings, got {key!r}")
            if not is_int(n) or n < 1:
                raise ConfigurationError(f"count for {key!r} must be an integer >= 1, got {n!r}")
            hist._counts[key] = n
        return hist

    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    def keys(self):
        return self._counts.keys()

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return f"PartitionHistogram(partitions={len(self._counts)})"


def ingest(
    rows: Iterable[tuple[str, str]],
    mode: IngestMode | str = IngestMode.STRICT,
    max_partitions_per_user: int = 1,
) -> PartitionHistogram:
    """Count unique users per partition.

    ``mode`` is an :class:`IngestMode` or its value; it and the bound are
    checked before the first row is read. STRICT raises when a user appears
    with more distinct partitions than ``max_partitions_per_user``;
    FIRST_WINS silently keeps each user's earliest distinct partitions in
    input order (a non-private preprocessing convention). Each (user,
    partition) pair is counted at most once.

    Slot i maps each user to their i-th distinct partition, and is added only
    when some user first needs it, so work and memory follow the data, not the
    bound. Every slot holds each partition string as it was read, and
    compares it with a row's partition by value. The counts list slot 1's
    partitions first, then those first met in slot 2, and so on.

    Given the rows of :func:`read_rows`, ingest reads the CSV in the same
    pass: a field of a csv row is always a string, so each row is checked
    only for two fields, both nonempty, and an error names its line. Rows
    from any other iterable are checked, and numbered for their errors, in
    front of the same loop. Either way the first offending row raises,
    whether it is malformed or breaks the strict bound.
    """
    if not is_int(max_partitions_per_user) or max_partitions_per_user < 1:
        raise ConfigurationError(
            f"max_partitions_per_user must be >= 1, got {max_partitions_per_user!r}"
        )
    strict = IngestMode(mode) is IngestMode.STRICT
    further = max_partitions_per_user - 1
    first: dict[str, str] = {}  # slot 1
    more: list[dict[str, str]] = []  # slots 2, 3, ...
    first_of = first.setdefault
    from_csv = isinstance(rows, _CsvRows)
    with rows.reader() if from_csv else contextlib.nullcontext(_checked(rows)) as pairs:
        for row in pairs:
            # Only a csv row can fail here: _checked yields nonempty string pairs.
            try:
                user_id, partition = row
            except ValueError:
                if not row:  # a blank line
                    continue
                raise _line_error(pairs) from None
            if not (user_id and partition):
                raise _line_error(pairs)
            if first_of(user_id, partition) == partition:
                continue
            for slot in more:  # holding the user's partition, or free for it
                if slot.setdefault(user_id, partition) == partition:
                    break
            else:
                if len(more) < further:
                    more.append({user_id: partition})
                elif strict:
                    raise StrictViolationError(
                        f"user {user_id!r} contributes more than "
                        f"{max_partitions_per_user} partition(s)"
                    )
    counts = Counter(itertools.chain(first.values(), *(slot.values() for slot in more)))
    hist = PartitionHistogram()
    hist._counts = counts
    return hist


def _checked(rows: Iterable[tuple[str, str]]) -> Iterator[tuple[str, str]]:
    """The rows of a non-CSV source as (user_id, partition) pairs of nonempty strings.

    Each row is checked as it is handed on, so an error names its row and is
    raised only once every row before it has been ingested.
    """
    for i, row in enumerate(rows, start=1):
        # Any other iterable would unpack: a string by character, a set in hash order.
        if not isinstance(row, (tuple, list)) or len(row) != 2:
            raise InputFormatError(f"row {i}: expected (user_id, partition), got {row!r}")
        user_id, partition = row
        if not (isinstance(user_id, str) and isinstance(partition, str) and user_id and partition):
            raise InputFormatError(f"row {i}: user_id and partition must be nonempty strings")
        yield user_id, partition


def _line_error(reader) -> InputFormatError:
    return InputFormatError(
        f"line {reader.line_num}: expected 'user_id,partition' with nonempty fields"
    )


class _CsvRows:
    """The rows of a ``user_id,partition`` CSV, as (user_id, partition) tuples.

    Each iteration reads a path again from its start; a stream is read once,
    and a second iteration raises :class:`InputFormatError`.
    """

    __slots__ = ("_source",)

    def __init__(self, source: str | os.PathLike | TextIO):
        self._source = source

    def __iter__(self) -> Iterator[tuple[str, str]]:
        with self.reader() as reader:
            for row in reader:
                if len(row) == 2 and row[0] and row[1]:
                    yield row[0], row[1]
                elif row:  # not a blank line
                    raise _line_error(reader)

    @contextlib.contextmanager
    def reader(self) -> Iterator:
        """A csv reader past the checked header.

        A CSV or decoding error raised in the block becomes an
        :class:`InputFormatError` naming the line.
        """
        source = self._source
        if source is None:
            raise InputFormatError("the input stream was already read; a stream can be read once")
        is_path = isinstance(source, (str, os.PathLike))
        if not is_path:
            self._source = None  # a stream is read once
        with open(source, newline="", encoding="utf-8") if is_path else contextlib.nullcontext(source) as f:
            reader = csv.reader(f, strict=True)
            try:
                header = next(reader, None)
                if header is None:
                    raise InputFormatError("line 1: missing header 'user_id,partition'")
                if header != ["user_id", "partition"]:
                    raise InputFormatError(f"line 1: expected header 'user_id,partition', got {header!r}")
                yield reader
            except csv.Error as exc:
                # csv counts a line once it has checked that the line is
                # text, so a count of 0 means the first line was not text.
                raise InputFormatError(f"line {reader.line_num or 1}: {exc}") from None
            except UnicodeDecodeError as exc:
                if is_path:
                    raise _not_utf8(source, exc) from None
                raise InputFormatError(f"input is not valid UTF-8: {exc.reason}") from None


def read_rows(source: str | os.PathLike | TextIO) -> Iterable[tuple[str, str]]:
    """Rows from a ``user_id,partition`` CSV (RFC 4180, UTF-8, header required).

    The result reads a path again from its start each time it is iterated,
    and a stream once. :func:`ingest` reads it in one pass.
    """
    return _CsvRows(source)


def read_keys(path: str | os.PathLike) -> list[str]:
    """The nonempty lines of a UTF-8 text file, one partition key each.

    A file that starts with a byte-order mark is refused: the mark would
    become part of the first key, which then names no partition of the input.
    """
    try:
        with open(path, encoding="utf-8") as f:
            first = f.readline()
            if first.startswith("\ufeff"):
                raise InputFormatError(
                    f"line 1: file {os.fsdecode(path)!r} starts with a UTF-8 byte-order mark"
                )
            return [line.rstrip("\n") for line in itertools.chain((first,), f) if line.strip()]
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _not_utf8(path: str | os.PathLike, exc: UnicodeDecodeError) -> InputFormatError:
    """The error for a file that failed to decode, naming it and its first line that is not UTF-8.

    A text stream reports only a byte offset into its current chunk, so the
    file is read again to find the line. Latin-1 maps each byte to one
    character, so it splits lines where the readers do (at LF, CR and CRLF)
    and gives each line's bytes back unchanged.
    """
    with open(path, encoding="latin-1", newline="") as f:
        for line_num, line in enumerate(f, start=1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as bad:
                return InputFormatError(
                    f"line {line_num}: file {os.fsdecode(path)!r} is not valid UTF-8: {bad.reason}"
                )
    return InputFormatError(f"file {os.fsdecode(path)!r} is not valid UTF-8: {exc.reason}")


def _hits(pairs: Iterable[tuple[str, int]], cut: Callable[[int], int], below: bool, mac) -> list[tuple[str, int, int]]:
    """(key, count, u) for each (key, count) pair whose uniform ``u`` is a hit.

    ``u`` is the top 53 bits of the key's digest under ``mac``, the mode's
    keyed BLAKE2b-64 from :func:`_plan`. A hit is ``u < cut(n)`` when
    ``below`` is true and ``u >= cut(n)`` otherwise, where ``cut`` is called
    once per distinct count. Only the hits are kept.
    """
    copy, from_bytes, shift = mac.copy, int.from_bytes, _SHIFT
    # The digest read as a little-endian integer has u in its top GRID_BITS
    # bits, so comparing it with c << shift compares u with c.
    cuts: dict[int, int] = {}
    hits = []
    for key, n in pairs:
        try:
            word_cut = cuts[n]
        except KeyError:
            word_cut = cuts[n] = cut(n) << shift
        h = copy()
        h.update(key.encode("utf-8"))
        word = from_bytes(h.digest(), "little")
        if (word < word_cut) is below:
            hits.append((key, n, word >> shift))
    return hits


def _noisy_above(noise: TsgdParams, pairs: Iterable[tuple[str, int]], bound: int, mac) -> dict[str, int]:
    """Key to noisy count of each (key, count) pair whose noised count exceeds ``bound``."""
    # n + X > bound exactly when u >= tsgd_cutoff(noise, bound - n + 1): one
    # comparison per key, and only the released keys are inverted.
    hits = _hits(pairs, lambda n: tsgd_cutoff(noise, bound - n + 1), False, mac)
    shifts = tsgd_inverse(noise, [u for _, _, u in hits])
    return {key: n + x for (key, n, _), x in zip(hits, shifts)}


def _plan(
    mode: str, params: PrivacyParams, seed: int,
    public_keys: Iterable[str] | None = None, public_threshold: int | None = None, kappa: int = 1,
) -> Callable[[PartitionHistogram], set[str] | dict[str, int]]:
    """The decision of ``mode`` as a function of the histogram, every value it runs with checked.

    ``params`` is the nominal budget, and each partition's decision spends
    ``params.split(kappa)``. The checks run in this order: the mode; public
    keys and a threshold given in dual mode and only there; kappa; the seed;
    the budget; the grid floor; the threshold; the keys.
    """
    if mode not in RELEASE_MODES:
        raise ConfigurationError(f"mode must be one of {', '.join(RELEASE_MODES)}, got {mode!r}")
    if mode != "dual" and (public_keys is not None or public_threshold is not None):
        raise ConfigurationError("public keys and a public threshold apply only to dual mode")
    if mode == "dual" and (public_keys is None or public_threshold is None):
        raise ConfigurationError("dual mode requires public keys and a public threshold")
    budget = params.split(kappa)
    if not is_int(seed) or not 0 <= seed < 1 << 8 * _SEED_BYTES:
        raise ConfigurationError(f"seed must be an integer in [0, 2^{8 * _SEED_BYTES}), got {seed!r}")
    person = mode.split("-")[0].encode()  # select, release or dual
    mac = blake2b(digest_size=_DIGEST_BYTES, key=seed.to_bytes(_SEED_BYTES, "little"), person=person)
    if mode == "select":
        prim = OptPrimitive(budget)
    else:
        noise = tsgd_params(budget)
        k = noise.k
    # A table that leaves 0 at some count spends at least one grid step of delta.
    delta = budget.effective_delta
    if delta * GRID < 1:
        raise ConfigurationError(f"effective delta {delta} too small: below 2^-{GRID_BITS}, one step of the uniform grid")
    if mode == "select":
        keep = lambda n: keep_threshold(prim, n)
        return lambda hist: {key for key, _, _ in _hits(hist._counts.items(), keep, True, mac)}
    if mode == "release-counts":
        return lambda hist: _noisy_above(noise, hist._counts.items(), k, mac)
    if not is_int(public_threshold) or not -k <= public_threshold <= k:
        raise ConfigurationError(
            f"public threshold must be an integer in [-k, k] = [{-k}, {k}], got {public_threshold!r}"
        )
    if isinstance(public_keys, str):  # a set of it would hold its characters
        raise ConfigurationError(f"public keys must be an iterable of keys, not a string, got {public_keys!r}")
    public = set(public_keys)
    for key in public:
        if not isinstance(key, str) or not key:
            raise ConfigurationError(f"public keys must be nonempty strings, got {key!r}")

    def dual(hist: PartitionHistogram) -> dict[str, int]:
        counts = hist._counts
        private = ((key, n) for key, n in counts.items() if key not in public)
        # The private and public keys are disjoint, so one dict holds both releases.
        released = _noisy_above(noise, private, k, mac)
        public_ns = ((key, counts.get(key, 0)) for key in public)
        released.update(_noisy_above(noise, public_ns, public_threshold, mac))
        return released

    return dual


def select_partitions(hist: PartitionHistogram, prim: OptPrimitive, seed: int) -> set[str]:
    """Independently keep each present partition with its optimal probability.

    A key is kept when its uniform lies below T(n) = floor(pi(n) * 2^53), so
    its realised keep probability never exceeds ``pi(n)``.
    """
    return _plan("select", prim.params, seed)(hist)


def thresholded_release(hist: PartitionHistogram, params: PrivacyParams, seed: int) -> dict[str, int]:
    """Noise every present count; release key and noisy count when it exceeds k."""
    return _plan("release-counts", params, seed)(hist)


def dual_threshold_release(
    hist: PartitionHistogram,
    public_keys: Iterable[str],
    params: PrivacyParams,
    public_threshold: int,
    seed: int,
) -> dict[str, int]:
    """Noise public keys (absent ones at zero) and present private keys.

    Private keys must clear the privacy bound k; public keys clear the chosen
    ``public_threshold`` in [-k, k]. The extremes trade error directions:
    -k releases every public key present in the data (but lets almost every
    absent public key through), while k admits only keys actually present.
    """
    return _plan("dual", params, seed, public_keys, public_threshold)(hist)


def release(
    rows: Iterable[tuple[str, str]], params: PrivacyParams, mode: str = "select", *,
    kappa: int = 1, conflict: IngestMode | str = IngestMode.STRICT, seed: int = 0,
    public_keys: Iterable[str] | None = None, public_threshold: int | None = None,
) -> set[str] | dict[str, int]:
    """One private release over ``rows``: the kept keys, or {key: noisy count}.

    ``params`` is the nominal budget. Ingest bounds each user at ``kappa``
    partitions, by the ``conflict`` policy (an :class:`IngestMode` or its
    value), and each partition's decision spends ``params.split(kappa)``: the
    bound and the split come from the same ``kappa``. ``mode`` is ``"select"``
    (:func:`select_partitions`), ``"release-counts"``
    (:func:`thresholded_release`) or ``"dual"`` (:func:`dual_threshold_release`),
    which alone takes ``public_keys`` and ``public_threshold``, and needs both.

    Every argument is checked before the first row is read, so a bad one
    raises on any input: all but ``conflict`` by the mode's plan, which the
    mode functions run too, and ``conflict`` by :func:`ingest`.
    """
    plan = _plan(mode, params, seed, public_keys, public_threshold, kappa)
    return plan(ingest(rows, conflict, kappa))


def write_selection(kept: Iterable[str], out: TextIO) -> None:
    """Selection-mode output: a one-column CSV of the kept keys, sorted, with no header."""
    keys = sorted(kept)
    _csv_writer(out, keys).writerows(zip(keys))  # one-field rows


def write_release(released: Mapping[str, int], out: TextIO) -> None:
    """Count-mode output: 'partition,noisy_count' CSV sorted by key."""
    writer = _csv_writer(out, released)
    writer.writerow(["partition", "noisy_count"])
    writer.writerows(sorted(released.items()))


def _csv_writer(out: TextIO, keys: Iterable[str]):
    """The CSV writer of every release mode, for output that holds ``keys``.

    Minimal quoting quotes a key holding LF but not one holding a lone CR,
    at which a CSV reader splits the row; when any key holds a CR, every
    string field is written quoted.
    """
    quoting = csv.QUOTE_NONNUMERIC if any("\r" in key for key in keys) else csv.QUOTE_MINIMAL
    return csv.writer(out, lineterminator="\n", quoting=quoting)
