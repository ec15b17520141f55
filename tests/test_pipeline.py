import csv
import hashlib
import io
import math
import os
import re
import sys
import tempfile
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partsel import (
    ConfigurationError,
    IngestMode,
    InputFormatError,
    Neighboring,
    OptPrimitive,
    PartitionHistogram,
    PrivacyParams,
    StrictViolationError,
    dual_threshold_release,
    ingest,
    pi_opt,
    read_rows,
    release,
    select_partitions,
    thresholded_release,
    tsgd_params,
    write_release,
    write_selection,
)
from partsel import pipeline
from partsel.primitive import keep_threshold
from partsel.truncated_geometric import tsgd_inverse, tsgd_tail

from oracles import delta_for_exact_threshold

PARAMS = PrivacyParams(1.0, 1e-5)


class TestHistogram:
    def test_deduplicates_users(self):
        hist = ingest([("u1", "a"), ("u1", "a"), ("u2", "a")])
        assert hist.counts() == {"a": 2}

    def test_from_counts_rejects_zero_count(self):
        with pytest.raises(ConfigurationError):
            PartitionHistogram.from_counts({"a": 0})


class TestIngest:
    def test_strict_violation_names_user(self):
        with pytest.raises(StrictViolationError, match="u1"):
            ingest([("u1", "a"), ("u1", "b")])

    def test_first_wins_keeps_earliest_partition(self):
        hist = ingest([("u1", "a"), ("u1", "b")], mode=IngestMode.FIRST_WINS)
        assert hist.counts() == {"a": 1}

    def test_mode_value_strings_are_the_modes(self):
        with pytest.raises(StrictViolationError, match="u1"):
            ingest([("u1", "a"), ("u1", "b")], "strict")
        assert ingest([("u1", "a"), ("u1", "b")], "first-wins").counts() == {"a": 1}

    def test_unknown_mode_raises_before_a_row_is_read(self):
        with pytest.raises(ValueError, match="^'last-wins' is not a valid IngestMode$"):
            ingest(_Unread(), "last-wins")

    def test_relaxed_bound_for_multiple_contributions(self):
        rows = [("u1", "a"), ("u1", "b"), ("u2", "a")]
        hist = ingest(rows, max_partitions_per_user=2)
        assert hist.counts() == {"a": 2, "b": 1}
        with pytest.raises(StrictViolationError):
            ingest(rows + [("u1", "c")], max_partitions_per_user=2)

    def test_malformed_rows_carry_position(self):
        with pytest.raises(InputFormatError, match="row 2"):
            ingest([("u1", "a"), ("u2",)])
        with pytest.raises(InputFormatError, match="row 1"):
            ingest([("", "a")])

    @pytest.mark.parametrize(
        "bad, message",
        [
            (5, "expected (user_id, partition), got 5"),
            (("u9", "a", "b"), "expected (user_id, partition), got ('u9', 'a', 'b')"),
            ((7, "a"), "user_id and partition must be nonempty strings"),
            (("u9", ""), "user_id and partition must be nonempty strings"),
            # Two characters would unpack as a pair.
            ("ua", "expected (user_id, partition), got 'ua'"),
            # A set would unpack in hash order, a dict as its two keys; the
            # set's repr follows hash order too.
            ({"u9", "a"}, f"expected (user_id, partition), got {repr({'u9', 'a'})}"),
            ({"u9": 0, "a": 0}, "expected (user_id, partition), got {'u9': 0, 'a': 0}"),
        ],
        ids=["not-iterable", "three-fields", "int-user", "empty-partition", "string", "set", "dict"],
    )
    def test_first_offending_row_raises(self, bad, message):
        # A row that is not a pair of nonempty strings raises with its row
        # number, unless a strict violation on an earlier row raised first.
        def raises(error, match, rows, **kwargs):
            with pytest.raises(error, match=match):
                ingest(iter(rows), **kwargs)

        def at_row(i):
            return f"^row {i}: {re.escape(message)}$"

        raises(InputFormatError, at_row(1), [bad, ("u1", "a"), ("u1", "b")])
        raises(InputFormatError, at_row(3), [("u1", "a"), ("u2", "a"), bad, ("u1", "b")])
        raises(StrictViolationError, "u1", [("u1", "a"), ("u1", "b"), bad])
        # A dropped row (first-wins) does not stop the check of the next one.
        rows = [("u1", "a"), ("u1", "b"), bad]
        raises(InputFormatError, at_row(3), rows, mode=IngestMode.FIRST_WINS)
        assert ingest(rows[:2], mode=IngestMode.FIRST_WINS).counts() == {"a": 1}

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([f"u{i}" for i in range(30)]),
                st.sampled_from(["a", "b", "c", "d", "e"]),
            ),
            max_size=150,
        ),
        kappa=st.integers(min_value=1, max_value=3),
        mode=st.sampled_from(list(IngestMode)),
    )
    # Equal partitions of two or more characters held as distinct string
    # objects, met by slots 2 and 3: each slot compares them by value.
    @example(
        rows=[("u1", "a"), *(("u1", "".join(p)) for p in ("bb", "ccc", "ccc", "bb"))],
        kappa=3,
        mode=IngestMode.STRICT,
    )
    def test_ingest_equals_pair_replay(self, rows, kappa, mode):
        _assert_ingest_replays(rows, rows, kappa, mode)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([f"u{i}" for i in range(8)]),
                st.sampled_from(["a", "b", "ab", "bb", "a,b", 'b"a']),
            ),
            max_size=120,
        ),
        kappa=st.integers(min_value=1, max_value=5),
        mode=st.sampled_from(list(IngestMode)),
    )
    @example(rows=[("u1", "a"), ("u1", "bb"), ("u1", "bb")], kappa=2, mode=IngestMode.STRICT)
    def test_csv_ingest_equals_pair_replay(self, rows, kappa, mode):
        # Read back from a file, equal partitions of two or more characters
        # are distinct string objects; CPython shares one-character strings.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.csv")
            with open(path, "w", encoding="utf-8", newline="") as f:
                csv.writer(f).writerows([("user_id", "partition"), *rows])
            _assert_ingest_replays(read_rows(path), rows, kappa, mode)

    @pytest.mark.parametrize("mode", list(IngestMode))
    def test_slots_follow_the_data_not_the_bound(self, mode):
        # One slot per partition a user has, not per partition allowed: slots
        # made up front for this bound would take about 64 MB.
        rows = [("u1", "a"), ("u1", "bb"), ("u2", "bb"), ("u1", "ccc"), ("u2", "a"), ("u1", "bb")]
        tracemalloc.start()
        try:
            hist = ingest(rows, mode=mode, max_partitions_per_user=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.counts() == _pair_replay(rows, 10**6)[0] == {"a": 2, "bb": 2, "ccc": 1}
        assert peak < 2**20

    @settings(max_examples=40, deadline=None)
    @given(
        kappa=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        data=st.data(),
    )
    def test_strict_outputs_do_not_depend_on_row_order(self, kappa, seed, data):
        # Rows that strict mode accepts: each user on at most kappa distinct
        # partitions, some pairs repeated. A permutation also stands for
        # shards concatenated in any order.
        partitions = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=kappa, unique=True)
        users = data.draw(st.dictionaries(st.sampled_from([f"u{i}" for i in range(25)]), partitions))
        rows = [(user, part) for user, parts in users.items() for part in parts]
        if rows:
            rows += data.draw(st.lists(st.sampled_from(rows), max_size=10))
        params = PrivacyParams(1.0, 0.05).split(kappa)
        prim = OptPrimitive.from_params(params)

        def outputs(rows):
            hist = ingest(rows, max_partitions_per_user=kappa)
            selection, release, dual = io.StringIO(), io.StringIO(), io.StringIO()
            write_selection(select_partitions(hist, prim, seed), selection)
            write_release(thresholded_release(hist, params, seed), release)
            write_release(dual_threshold_release(hist, ["a", "c", "absent"], params, 0, seed), dual)
            return selection.getvalue(), release.getvalue(), dual.getvalue()

        assert outputs(data.draw(st.permutations(rows))) == outputs(rows)


def _pair_replay(rows, kappa: int) -> tuple[Counter, bool]:
    """Oracle: the counts of the (user, partition) pairs kept in a replay of
    ``rows``, and whether some user went past ``kappa`` partitions."""
    kept: set[tuple[str, str]] = set()
    over_bound = False
    for user, part in rows:
        if (user, part) in kept:
            continue
        if sum(u == user for u, _ in kept) >= kappa:
            over_bound = True
            continue
        kept.add((user, part))
    return Counter(part for _, part in kept), over_bound


def _assert_ingest_replays(source, rows, kappa: int, mode: IngestMode) -> None:
    """``ingest(source)`` counts what the replay of ``rows`` keeps, or raises for strict."""
    counts, over_bound = _pair_replay(rows, kappa)
    if mode is IngestMode.STRICT and over_bound:
        with pytest.raises(StrictViolationError):
            ingest(source, mode=mode, max_partitions_per_user=kappa)
        return
    assert ingest(source, mode=mode, max_partitions_per_user=kappa).counts() == counts


class TestCsvReader:
    def test_round_trips_quoted_fields(self):
        text = 'user_id,partition\nu1,"model, with comma"\nu2,"quote""inside"\n'
        rows = list(read_rows(io.StringIO(text)))
        assert rows == [("u1", "model, with comma"), ("u2", 'quote"inside')]

    def test_rejects_wrong_header(self):
        with pytest.raises(InputFormatError, match="line 1"):
            list(read_rows(io.StringIO("uid,part\nu1,a\n")))

    def test_rejects_short_row_with_line_number(self):
        for body, line in (
            ("u1,a\nu2\n", 3),
            ('u1,a\nu2,"unterminated', 3),
            ('u1,"a"b\n', 2),
            ("u1," + "x" * 131_073 + "\n", 2),
        ):
            with pytest.raises(InputFormatError, match=f"line {line}:"):
                list(read_rows(io.StringIO("user_id,partition\n" + body)))

    def test_a_binary_stream_fails_at_line_1(self):
        for source in (io.BytesIO(b"user_id,partition\nu,a\n"), iter([b"user_id,partition\n", b"u,a\n"])):
            with pytest.raises(InputFormatError, match=r"^line 1: .*\(the file should be opened in text mode\)$"):
                ingest(read_rows(source))

    def test_rejects_non_utf8_stream(self):
        raw = io.BytesIO(b"user_id,partition\nu1,\xff\n")
        with pytest.raises(InputFormatError, match="not valid UTF-8"):
            list(read_rows(io.TextIOWrapper(raw, encoding="utf-8", newline="")))


# CSV inputs for the path that ingest reads straight from the csv reader. A
# strict violation comes after any malformed row or undecodable byte here,
# so that reading the rows first raises the same error.
CSV_INPUTS = {
    "header-only": b"user_id,partition\n",
    "empty-file": b"",
    "wrong-header": b"uid,part\nu1,a\n",
    "blank-lines": b"user_id,partition\n\nu1,a\n\n\nu2,a\nu1,b\nu3,c\n\nu1,c\n\n",
    "crlf": b"user_id,partition\r\nu1,a\r\nu2,b\r\nu1,a\r\nu2,c\r\n",
    "lone-cr": b"user_id,partition\ru1,a\ru2,b\ru2,a\r",
    "quoted": b'user_id,partition\nu1,"a,b"\nu2,"say ""hi"""\nu3,"two\nlines"\nu1,"a,b"\nu1,"say ""hi"""\n',
    "one-field": b"user_id,partition\nu1,a\nu2\nu1,b\n",
    "three-fields": b"user_id,partition\nu1,a\nu2,b,c\n",
    "empty-field": b"user_id,partition\nu1,a\n,b\n",
    "unterminated-quote": b'user_id,partition\nu1,a\nu2,"open\n',
    "quote-then-text": b'user_id,partition\nu1,a\nu2,"a"b\n',
    # Python 3.10's csv rejects NUL; 3.11 reads it as data.
    "nul": b"user_id,partition\nu1,a\x00b\nu2,c\nu1,c\n",
    "long-field": b"user_id,partition\nu1,a\nu2," + b"x" * 131_073 + b"\n",
    "not-utf8": b"user_id,partition\nu1,a\nu2,\xff\n",
}


def _csv_source(tmp_path, data: bytes, kind: str):
    if kind == "path":
        path = tmp_path / "rows.csv"
        path.write_bytes(data)
        return path
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def _ingest_outcome(rows, mode: IngestMode, kappa: int):
    """The counts ``ingest`` returns for ``rows()``, or the type and message of what is raised."""
    try:
        return ingest(rows(), mode=mode, max_partitions_per_user=kappa).counts()
    except ValueError as exc:
        return type(exc), str(exc)


# CSV bodies for the row rule: one to three fields, empty ones among them (a
# lone empty field is a blank line), quoted commas, CRs and LFs, and LF or CRLF
# line endings.
_CSV_LINES = st.lists(
    st.lists(st.sampled_from(["", "u1", "u2", "a", '""', '"a,b"', '"x\ny"', '"x\ry"', '"x\r\ny"']), min_size=1, max_size=3)
    .map(",".join),
    max_size=8,
)


class TestCsvIngest:
    """ingest(read_rows(src)) reads the CSV in one pass; it must agree with the rows read first."""

    @pytest.mark.parametrize("kind", ["path", "stream"])
    @pytest.mark.parametrize("mode", list(IngestMode))
    @pytest.mark.parametrize("kappa", [1, 2])
    @pytest.mark.parametrize("name", CSV_INPUTS)
    def test_csv_path_equals_list_path(self, tmp_path, name, kappa, mode, kind):
        data = CSV_INPUTS[name]
        fused = _ingest_outcome(lambda: read_rows(_csv_source(tmp_path, data, kind)), mode, kappa)
        listed = _ingest_outcome(lambda: list(read_rows(_csv_source(tmp_path, data, kind))), mode, kappa)
        assert fused == listed

    @settings(max_examples=200, deadline=None)
    @given(lines=_CSV_LINES, eol=st.sampled_from(["\n", "\r\n"]))
    @example(lines=["u1,a", 'u2,"x\r\ny"', "", "u1,b"], eol="\r\n")
    @example(lines=["u1,a", "u2,"], eol="\n")
    def test_reading_and_ingest_apply_one_row_rule(self, lines, eol):
        # Both raise the same InputFormatError, or the rows read first ingest to the same counts.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.csv")
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(eol.join(["user_id,partition", *lines]) + eol)
            listed = _ingest_outcome(lambda: list(read_rows(path)), IngestMode.FIRST_WINS, 10**6)
            fused = _ingest_outcome(lambda: read_rows(path), IngestMode.FIRST_WINS, 10**6)
        assert listed == fused

    @pytest.mark.parametrize("kind", ["path", "stream"])
    @pytest.mark.parametrize("later", [b"u9", b"u9,\xff"], ids=["malformed-row", "non-utf8"])
    def test_strict_violation_on_an_earlier_line_wins(self, tmp_path, kind, later):
        # Line 5000 lies past the first chunk the text layer decodes.
        lines = [b"user_id,partition", b"u1,a", b"u1,b", *(b"u%d,p" % i for i in range(4, 5000)), later]
        source = _csv_source(tmp_path, b"\n".join(lines) + b"\n", kind)
        with pytest.raises(StrictViolationError, match="u1"):
            ingest(read_rows(source))

    def test_path_rows_can_be_read_again(self, tmp_path):
        rows = read_rows(_csv_source(tmp_path, CSV_INPUTS["quoted"], "path"))
        assert list(rows) == list(rows) == [
            ("u1", "a,b"), ("u2", 'say "hi"'), ("u3", "two\nlines"), ("u1", "a,b"), ("u1", 'say "hi"'),
        ]

    def test_stream_rows_read_again_say_so(self):
        rows = read_rows(io.StringIO("user_id,partition\nu1,a\n", newline=""))
        assert list(rows) == [("u1", "a")]
        for read_again in (list, ingest):
            with pytest.raises(InputFormatError, match="^the input stream was already read"):
                read_again(rows)
        with pytest.raises(InputFormatError, match="^line 1: missing header"):
            list(read_rows(io.StringIO("", newline="")))


class TestSelect:
    def test_saturated_partition_always_kept_absent_never(self):
        prim = OptPrimitive.from_params(PARAMS)
        hist = PartitionHistogram.from_counts({"big": prim.n2 + 1})
        for seed in range(25):
            kept = select_partitions(hist, prim, seed=seed)
            assert kept == {"big"}  # and nothing else can ever appear

    def test_keep_rate_matches_probability(self):
        prim = OptPrimitive.from_params(PARAMS)
        hist = PartitionHistogram.from_counts({f"p{i:05d}": prim.n1 for i in range(30_000)})
        kept = select_partitions(hist, prim, seed=99)
        p = pi_opt(prim, prim.n1)
        sigma = math.sqrt(p * (1.0 - p) / 30_000)
        assert abs(len(kept) / 30_000 - p) < 3.0 * sigma

    def test_deterministic_per_seed(self):
        prim = OptPrimitive.from_params(PrivacyParams(1.0, 0.05))
        hist = PartitionHistogram.from_counts({f"p{i}": 1 + i % 7 for i in range(500)})
        base = select_partitions(hist, prim, seed=4)
        assert select_partitions(hist, prim, seed=4) == base
        assert select_partitions(hist, prim, seed=5) != base

    def test_seed_validation(self):
        prim = OptPrimitive.from_params(PARAMS)
        hist = PartitionHistogram.from_counts({"a": 1})
        with pytest.raises(ConfigurationError):
            select_partitions(hist, prim, seed=-1)


class TestThresholdedRelease:
    def test_saturated_count_always_released_within_noise_bounds(self):
        noise = tsgd_params(PARAMS)
        n = 2 * noise.k + 1
        hist = PartitionHistogram.from_counts({"big": n})
        for seed in range(40):
            released = thresholded_release(hist, PARAMS, seed=seed)
            assert released.keys() == {"big"}
            assert noise.k + 1 <= released["big"] <= n + noise.k

    def test_released_counts_exceed_bound(self):
        hist = PartitionHistogram.from_counts({f"p{i}": 1 + i % 30 for i in range(2000)})
        noise = tsgd_params(PARAMS)
        released = thresholded_release(hist, PARAMS, seed=8)
        assert all(noisy > noise.k for noisy in released.values())
        assert released.keys() <= hist.keys()

    @pytest.mark.parametrize("count", [1, 6, 11])
    def test_release_rate_matches_optimal_curve(self, count):
        # at a budget whose noise bound is the integer 5, thresholding the
        # noisy count reproduces the optimal keep probability exactly
        delta = delta_for_exact_threshold(1.0, 5)
        params = PrivacyParams(1.0, delta)
        prim = OptPrimitive.from_params(params)
        keys = 30_000
        hist = PartitionHistogram.from_counts({f"p{i:05d}": count for i in range(keys)})
        released = thresholded_release(hist, params, seed=31)
        p = pi_opt(prim, count)
        sigma = math.sqrt(p * (1.0 - p) / keys)
        assert abs(len(released) / keys - p) <= 3.0 * sigma + 1e-12


class TestDualThresholdRelease:
    def test_highest_threshold_admits_only_present_keys(self):
        noise = tsgd_params(PARAMS)
        hist = PartitionHistogram.from_counts({"present": 3})
        public = [f"absent{i}" for i in range(3000)] + ["present"]
        released = dual_threshold_release(hist, public, PARAMS, noise.k, seed=5)
        assert released.keys() <= {"present"}

    def test_lowest_threshold_releases_every_present_public_key(self):
        noise = tsgd_params(PARAMS)
        hist = PartitionHistogram.from_counts({f"pub{i}": 1 + i % 4 for i in range(3000)})
        released = dual_threshold_release(hist, list(hist.keys()), PARAMS, -noise.k, seed=6)
        assert released.keys() == hist.keys()

    def test_absent_public_keys_release_at_pure_noise_rate(self):
        noise = tsgd_params(PARAMS)
        keys = 30_000
        public = [f"ghost{i:05d}" for i in range(keys)]
        released = dual_threshold_release(PartitionHistogram(), public, PARAMS, 0, seed=7)
        p = tsgd_tail(noise, 0, 1)
        sigma = math.sqrt(p * (1.0 - p) / keys)
        assert abs(len(released) / keys - p) <= 3.0 * sigma

    def test_output_keys_bounded_by_present_and_public(self):
        hist = PartitionHistogram.from_counts({"a": 2, "b": 40})
        released = dual_threshold_release(hist, ["c"], PARAMS, 0, seed=8)
        assert released.keys() <= {"a", "b", "c"}

    def test_threshold_range_enforced(self):
        noise = tsgd_params(PARAMS)
        hist = PartitionHistogram.from_counts({"a": 2})
        for bad in (noise.k + 1, -noise.k - 1):
            with pytest.raises(ConfigurationError):
                dual_threshold_release(hist, ["a"], PARAMS, bad, seed=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: PartitionHistogram.from_counts({"a": True}),
        lambda: ingest([("u1", "a")], max_partitions_per_user=True),
        lambda: dual_threshold_release(
            PartitionHistogram.from_counts({"a": 2}), ["a"], PARAMS, True, seed=0
        ),
    ],
    ids=["histogram-count", "partition-bound", "public-threshold"],
)
def test_bool_is_not_an_integer(call):
    with pytest.raises(ConfigurationError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: PartitionHistogram.from_counts({"": 1}),
        lambda: PartitionHistogram.from_counts({1: 2}),
        lambda: dual_threshold_release(PartitionHistogram(), [""], PARAMS, 0, seed=0),
        lambda: dual_threshold_release(PartitionHistogram(), [7], PARAMS, 0, seed=0),
    ],
    ids=["empty-key", "int-key", "empty-public-key", "int-public-key"],
)
def test_keys_must_be_nonempty_strings(call):
    with pytest.raises(ConfigurationError, match="nonempty strings"):
        call()


def _plain_uniform(seed: int, purpose: bytes, key: str) -> int:
    mac = hashlib.blake2b(
        key.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little"), person=purpose
    )
    return int.from_bytes(mac.digest(), "little") >> 11


class TestPerKeyDecisions:
    def test_keyed_hash_is_hashlib_blake2b(self):
        # The pipeline takes the constructor from _blake2, where hashlib takes
        # it from too, so that a run need not load OpenSSL.
        assert pipeline.blake2b is hashlib.blake2b

    def test_decisions_follow_the_plain_per_key_rule(self):
        # Each key decided on its own uniform u, the top 53 bits of its plain
        # keyed digest: kept when u < T(n); noised to n + tsgd_inverse(u) and
        # released above its bound. The release functions compare digests with
        # shifted thresholds and invert only the released keys; they must agree
        # with this rule on every key, whatever its characters and length.
        params = PrivacyParams(1.0, 0.05)
        prim = OptPrimitive.from_params(params)
        noise = tsgd_params(params)
        keys = [f"p{i:04d}" for i in range(3000)] + ["a", "Zürich", "東京", "🙂 key", "x" * 300]
        counts = {key: 1 + i % (2 * noise.k + 3) for i, key in enumerate(keys)}
        hist = PartitionHistogram.from_counts(counts)
        public = set(keys[::3]) | {f"ghost{i}" for i in range(600)} | {"Genève", "🙃" * 80}

        for seed in (0, 11, 12345, 2**64 - 1):

            def noisy(purpose: bytes, keys: list[str]) -> dict[str, int]:
                shifts = tsgd_inverse(noise, [_plain_uniform(seed, purpose, key) for key in keys])
                return {key: counts.get(key, 0) + x for key, x in zip(keys, shifts)}

            kept = {
                key
                for key, n in counts.items()
                if _plain_uniform(seed, b"select", key) < keep_threshold(prim, n)
            }
            assert select_partitions(hist, prim, seed) == kept
            assert 0 < len(kept) < len(counts)

            release = noisy(b"release", keys)
            expected = {key: m for key, m in release.items() if m > noise.k}
            assert thresholded_release(hist, params, seed) == expected

            dual = noisy(b"dual", sorted(set(counts) | public))
            for threshold in (-noise.k, 0, noise.k):
                bound = {key: threshold if key in public else noise.k for key in dual}
                expected = {key: m for key, m in dual.items() if m > bound[key]}
                assert dual_threshold_release(hist, public, params, threshold, seed) == expected

    def test_decision_memory_grows_with_the_released_keys_not_all_keys(self):
        # 100k keys of one or two users, almost none of which clears a threshold
        # at (1, 1e-5): a decision that held a digest per key would peak past 10 MB.
        counts = {f"k{i:06d}": 1 + i % 2 for i in range(100_000)}
        hist = PartitionHistogram.from_counts(counts)
        prim = OptPrimitive.from_params(PARAMS)
        public = list(counts)[:100] + ["ghost"]
        for decide in (
            lambda: select_partitions(hist, prim, 5),
            lambda: thresholded_release(hist, PARAMS, 5),
            lambda: dual_threshold_release(hist, public, PARAMS, 0, 5),
        ):
            tracemalloc.start()
            try:
                released = decide()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(released) < 200
            assert peak < 2 * 2**20

    @settings(max_examples=40, deadline=None)
    @given(
        counts=st.dictionaries(st.text(min_size=1, max_size=5), st.integers(1, 12), max_size=20),
        absent_public=st.lists(st.text(min_size=1, max_size=5), max_size=8),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        data=st.data(),
    )
    def test_decision_depends_only_on_key_and_count(self, counts, absent_public, seed, data):
        params = PrivacyParams(1.0, 0.05)
        prim = OptPrimitive.from_params(params)
        threshold = data.draw(st.integers(-tsgd_params(params).k, tsgd_params(params).k))
        public = data.draw(st.lists(st.sampled_from(sorted(counts)), unique=True)) if counts else []
        public += absent_public
        hist = PartitionHistogram.from_counts(counts)
        kept = select_partitions(hist, prim, seed)
        released = thresholded_release(hist, params, seed)
        dual = dual_threshold_release(hist, public, params, threshold, seed)
        # the same keys inserted, and the public keys listed, in another order
        shuffled = PartitionHistogram.from_counts(
            dict(data.draw(st.permutations(list(counts.items()))))
        )
        assert select_partitions(shuffled, prim, seed) == kept
        assert thresholded_release(shuffled, params, seed) == released
        assert dual_threshold_release(shuffled, public[::-1], params, threshold, seed) == dual
        # every key decided on its own, outside the larger histogram and list
        for key in set(counts) | set(public):
            alone = PartitionHistogram.from_counts({key: counts[key]} if key in counts else {})
            mine = [key] if key in public else []
            assert select_partitions(alone, prim, seed) == kept & {key}
            assert thresholded_release(alone, params, seed) == {
                k: v for k, v in released.items() if k == key
            }
            assert dual_threshold_release(alone, mine, params, threshold, seed) == {
                k: v for k, v in dual.items() if k == key
            }

    def test_high_k_release_inverts_per_key(self):
        params = PrivacyParams(1e-6, 1e-10)
        noise = tsgd_params(params)
        assert noise.k == 8_517_394 > 10**6
        sizes = [1, noise.k, noise.k + 1, 2 * noise.k + 1]
        counts = {f"p{i:02d}": sizes[i % 4] for i in range(40)}
        hist = PartitionHistogram.from_counts(counts)
        released = thresholded_release(hist, params, seed=3)
        assert thresholded_release(hist, params, seed=3) == released
        reversed_hist = PartitionHistogram.from_counts(dict(reversed(counts.items())))
        assert thresholded_release(reversed_hist, params, seed=3) == released
        assert {key for key, n in counts.items() if n == 2 * noise.k + 1} <= set(released)
        shifts = [noisy - counts[key] for key, noisy in released.items()]
        assert all(abs(shift) <= noise.k for shift in shifts)
        assert all(noisy > noise.k for noisy in released.values())
        assert len(set(shifts)) == len(shifts)  # every key draws its own noise


def _spread_rows(bound: int) -> list[tuple[str, str]]:
    """600 users, user i on 1 + i % ``bound`` of 50 partitions of skewed popularity,
    one row in five given twice."""
    rows = []
    for i in range(600):
        first = int(50 * ((i * 7919 % 997) / 997) ** 3)
        for j in range(1 + i % bound):
            rows += [(f"u{i}", f"p{(first + 7 * j) % 50}")] * (2 if (i + j) % 5 == 0 else 1)
    return rows


def _written(mode: str, result) -> str:
    out = io.StringIO()
    (write_selection if mode == "select" else write_release)(result, out)
    return out.getvalue()


_HIST = PartitionHistogram.from_counts({"k1": 3, "k2": 40})


class _Unread:
    """A row source that fails the test when it is iterated."""

    def __iter__(self):
        pytest.fail("release read a row before it had checked its arguments")


class TestRelease:
    @pytest.mark.parametrize("conflict", list(IngestMode))
    @pytest.mark.parametrize("kappa", [1, 3])
    @pytest.mark.parametrize("mode", ["select", "release-counts", "dual"])
    def test_equals_the_hand_built_path(self, mode, kappa, conflict):
        # Strict ingest gets users within the bound; first-wins drops the
        # partitions of users past it.
        rows = _spread_rows(kappa if conflict is IngestMode.STRICT else kappa + 2)
        params, seed, public = PrivacyParams(1.0, 1e-4), 11, ["p3", "p7", "absent"]
        hist = ingest(rows, conflict, kappa)
        share = params.split(kappa)
        if mode == "select":
            expected = select_partitions(hist, OptPrimitive(share), seed)
        elif mode == "release-counts":
            expected = thresholded_release(hist, share, seed)
        else:
            expected = dual_threshold_release(hist, public, share, 0, seed)
        assert 0 < len(expected) < len(hist) + (mode == "dual")
        dual = {"public_keys": public, "public_threshold": 0} if mode == "dual" else {}
        for policy in (conflict, conflict.value):
            got = release(rows, params, mode, kappa=kappa, conflict=policy, seed=seed, **dual)
            assert _written(mode, got) == _written(mode, expected)

    @pytest.mark.parametrize(
        ("arguments", "message"),
        [
            ({"seed": -1}, "seed must be an integer in [0, 2^64), got -1"),
            ({"seed": 2**64}, f"seed must be an integer in [0, 2^64), got {2**64}"),
            ({"mode": "dual", "public_keys": ["k1"], "public_threshold": 99},
             "public threshold must be an integer in [-k, k] = [-11, 11], got 99"),
            ({"mode": "release-counts", "params": PrivacyParams(1.0, 1.0)},
             "effective delta must be in (0, 1), got 1.0"),
            ({"mode": "release-counts", "params": PrivacyParams(1e-17, 1e-5)},
             "effective epsilon 1e-17 too small to represent the noise distribution in binary64"),
            ({"mode": "dual", "params": PrivacyParams(3e-17, 1e-5), "kappa": 3,
              "public_keys": ["k1"], "public_threshold": 0},
             "effective epsilon 9.999999999999999e-18 too small to represent the noise "
             "distribution in binary64"),
            ({"params": PrivacyParams(5e-324, 5e-324)},
             "effective budget (epsilon 5e-324, delta 5e-324) too small: the crossover counts "
             "of the optimal primitive overflow binary64"),
            # Below one step of the uniform grid, 2^-53 (about 1.11e-16), in every mode.
            ({"params": PrivacyParams(1.0, 1e-17)},
             "effective delta 1e-17 too small: below 2^-53, one step of the uniform grid"),
            ({"params": PrivacyParams(1.0, 0.0)},
             "effective delta 0.0 too small: below 2^-53, one step of the uniform grid"),
            ({"mode": "release-counts", "params": PrivacyParams(1.0, 1e-16)},
             "effective delta 1e-16 too small: below 2^-53, one step of the uniform grid"),
            ({"mode": "dual", "params": PrivacyParams(1.0, 4e-16, Neighboring.REPLACE), "kappa": 2,
              "public_keys": ["k1"], "public_threshold": 0},
             "effective delta 1e-16 too small: below 2^-53, one step of the uniform grid"),
            ({"mode": "dual", "public_threshold": 0},
             "dual mode requires public keys and a public threshold"),
            ({"mode": "release-counts", "public_keys": ["k1"]},
             "public keys and a public threshold apply only to dual mode"),
            ({"mode": "dual", "public_keys": ["k1", ""], "public_threshold": 0},
             "public keys must be nonempty strings, got ''"),
            ({"mode": "dual", "public_keys": "p1", "public_threshold": 0},
             "public keys must be an iterable of keys, not a string, got 'p1'"),
            ({"kappa": 0}, "kappa must be a positive integer, got 0"),
            # The public configuration is checked before kappa.
            ({"mode": "select", "public_threshold": 0, "kappa": 0},
             "public keys and a public threshold apply only to dual mode"),
            ({"mode": "counts"}, "mode must be one of select, release-counts, dual, got 'counts'"),
            ({"conflict": "last-wins"}, "'last-wins' is not a valid IngestMode"),
        ],
        ids=["negative-seed", "seed-2^64", "public-threshold-past-k", "count-mode-delta-1",
             "count-mode-epsilon-1e-17", "dual-epsilon-3e-17-kappa-3", "select-subnormal-budget",
             "select-delta-1e-17", "select-delta-0", "count-mode-delta-1e-16",
             "dual-replace-delta-4e-16-kappa-2", "dual-without-keys", "keys-outside-dual", "empty-public-key",
             "string-public-keys", "kappa-0", "public-threshold-outside-dual-and-kappa-0", "unknown-mode",
             "unknown-conflict"],
    )
    def test_arguments_are_checked_before_the_first_row_is_read(self, arguments, message):
        with pytest.raises(ValueError) as info:
            release(_Unread(), **{"params": PARAMS, **arguments})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        ("arguments", "call"),
        [
            ({"seed": -1}, lambda: select_partitions(_HIST, OptPrimitive(PARAMS), -1)),
            ({"seed": 2**64}, lambda: select_partitions(_HIST, OptPrimitive(PARAMS), 2**64)),
            ({"mode": "release-counts", "seed": -1}, lambda: thresholded_release(_HIST, PARAMS, -1)),
            ({"mode": "dual", "public_keys": ["k1"], "public_threshold": 0, "seed": 2**64},
             lambda: dual_threshold_release(_HIST, ["k1"], PARAMS, 0, 2**64)),
            ({"mode": "dual", "public_keys": ["k1"], "public_threshold": 99},
             lambda: dual_threshold_release(_HIST, ["k1"], PARAMS, 99, 0)),
            ({"mode": "release-counts", "params": PrivacyParams(1.0, 1.0)},
             lambda: thresholded_release(_HIST, PrivacyParams(1.0, 1.0), 0)),
            ({"mode": "release-counts", "params": PrivacyParams(1e-17, 1e-5)},
             lambda: thresholded_release(_HIST, PrivacyParams(1e-17, 1e-5), 0)),
            ({"mode": "dual", "params": PrivacyParams(3e-17, 1e-5), "kappa": 3,
              "public_keys": ["k1"], "public_threshold": 0},
             lambda: dual_threshold_release(_HIST, ["k1"], PrivacyParams(3e-17, 1e-5).split(3), 0, 0)),
            # select_partitions takes a built primitive, so the budget is refused as it is built.
            ({"params": PrivacyParams(5e-324, 5e-324)},
             lambda: select_partitions(_HIST, OptPrimitive(PrivacyParams(5e-324, 5e-324)), 0)),
            ({"params": PrivacyParams(1.0, 1e-17)},
             lambda: select_partitions(_HIST, OptPrimitive(PrivacyParams(1.0, 1e-17)), 0)),
            ({"params": PrivacyParams(1.0, 0.0)},
             lambda: select_partitions(_HIST, OptPrimitive(PrivacyParams(1.0, 0.0)), 0)),
            ({"mode": "release-counts", "params": PrivacyParams(1.0, 1e-16)},
             lambda: thresholded_release(_HIST, PrivacyParams(1.0, 1e-16), 0)),
            ({"mode": "dual", "params": PrivacyParams(1.0, 4e-16, Neighboring.REPLACE), "kappa": 2,
              "public_keys": ["k1"], "public_threshold": 0},
             lambda: dual_threshold_release(
                 _HIST, ["k1"], PrivacyParams(1.0, 4e-16, Neighboring.REPLACE).split(2), 0, 0)),
            ({"mode": "dual", "public_keys": ["k1", ""], "public_threshold": 0},
             lambda: dual_threshold_release(_HIST, ["k1", ""], PARAMS, 0, 0)),
            ({"mode": "dual", "public_keys": "p1", "public_threshold": 0},
             lambda: dual_threshold_release(_HIST, "p1", PARAMS, 0, 0)),
            ({"mode": "dual", "public_threshold": 0},
             lambda: dual_threshold_release(_HIST, None, PARAMS, 0, 0)),
        ],
        ids=["negative-seed", "seed-2^64", "count-mode-negative-seed", "dual-seed-2^64",
             "public-threshold-past-k", "count-mode-delta-1", "count-mode-epsilon-1e-17",
             "dual-epsilon-3e-17-kappa-3", "select-subnormal-budget", "select-delta-1e-17",
             "select-delta-0", "count-mode-delta-1e-16", "dual-replace-delta-4e-16-kappa-2",
             "empty-public-key", "string-public-keys", "dual-without-keys"],
    )
    def test_mode_functions_raise_the_release_messages(self, arguments, call):
        def raised(run):
            try:
                run()
            except ValueError as exc:
                return type(exc), str(exc)
            return None

        expected = raised(lambda: release(_Unread(), **{"params": PARAMS, **arguments}))
        assert expected is not None
        assert raised(call) == expected

    def test_a_row_source_is_read_once_the_arguments_pass(self):
        with pytest.raises(pytest.fail.Exception, match="before it had checked"):
            release(_Unread(), PARAMS)

    @pytest.mark.parametrize("key", ["a\nb", "a\r\nb", "a\rb"])
    def test_select_keeps_a_present_key_with_a_line_break(self, key):
        # 40 users put the key past every threshold at (5, 0.1); one user's row
        # with a line break is released over, not refused.
        rows = [(f"u{i}", key) for i in range(40)]
        assert release(rows, PrivacyParams(5.0, 0.1)) == {key}
        assert release([("u1", key), ("u2", "a"), ("u3", "a")], PARAMS) <= {key, "a"}


# csv.reader reads NUL only from Python 3.11 on.
_NUL = ["\x00"] if sys.version_info >= (3, 11) else []
# Sets of nonempty keys, built from pieces that a CSV writer must quote or
# that a reader could split a row at, and from any other text.
_CSV_KEYS = st.sets(
    st.lists(st.sampled_from([",", '"', "\r", "\n", "\r\n", "\u2028", *_NUL]) | st.text(max_size=3), min_size=1)
    .map("".join)
    .filter(lambda key: key and (_NUL or "\x00" not in key)),
    max_size=8,
)


class TestWriters:
    def test_selection_lines_sorted(self):
        out = io.StringIO()
        write_selection({"b", "a", "c"}, out)
        assert out.getvalue() == "a\nb\nc\n"

    @given(keys=_CSV_KEYS)
    @example(keys={"x,y", 'q"2', "a\nb"})
    @example(keys={"plain", "a\rb"})  # one CR: every key is quoted
    def test_selection_csv_round_trips(self, keys):
        out = io.StringIO()
        write_selection(keys, out)
        rows = list(csv.reader(io.StringIO(out.getvalue(), newline="")))
        assert rows == [[key] for key in sorted(keys)]

    def test_selection_writes_plain_keys_byte_for_byte(self):
        # No comma, quote, CR or LF: nothing is quoted, whatever else a key holds.
        keys = ["a b", " lead", "trail ", "tab\tx", "\u2028", "\x85", "é"]
        out = io.StringIO()
        write_selection(keys, out)
        assert out.getvalue() == "".join(key + "\n" for key in sorted(keys))

    def test_both_writers_quote_every_key_when_one_holds_a_cr(self):
        keys = ["plain", "a\rb", "x,y"]
        selection, counts = io.StringIO(), io.StringIO()
        write_selection(keys, selection)
        write_release(dict.fromkeys(keys, 1), counts)
        assert selection.getvalue() == '"a\rb"\n"plain"\n"x,y"\n'
        assert counts.getvalue() == '"partition","noisy_count"\n"a\rb",1\n"plain",1\n"x,y",1\n'

    def test_release_csv_round_trips(self):
        import csv

        out = io.StringIO()
        write_release({"x,y": 12, "plain": 13}, out)
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert rows == [["partition", "noisy_count"], ["plain", "13"], ["x,y", "12"]]
