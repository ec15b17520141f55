"""Streaming (user, partition) ingestion and the private release modes.

Ingestion keeps one unique-user count per partition. Randomness for every
per-partition decision is derived from a master seed and a keyed hash of the
partition, so outputs are identical regardless of row order during ingestion
or shard layout.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, TextIO

import numpy as np

from .params import PrivacyParams
from .primitive import OptPrimitive, pi_opt
from .truncated_geometric import tsgd_params, tsgd_sample


class ConfigurationError(ValueError):
    """Invalid combination of pipeline options. CLI exit code 2."""


class StrictViolationError(ValueError):
    """A user contributed more distinct partitions than allowed. CLI exit code 3."""


class InputFormatError(ValueError):
    """Malformed input row; the message carries the offending line number."""


class IngestMode(enum.Enum):
    STRICT = "strict"
    FIRST_WINS = "first-wins"


class PartitionHistogram:
    """Unique-user counts per partition key: every count is an integer >= 1.

    Deduplication happens in :func:`ingest`, which builds the counts; a
    histogram only stores them and adds up user-disjoint shards.
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
            if not isinstance(n, int) or n < 1:
                raise ConfigurationError(f"count for {key!r} must be an integer >= 1, got {n!r}")
            hist._counts[key] = n
        return hist

    def merge(self, other: PartitionHistogram) -> None:
        """Fold a shard histogram in. Shards must not share users (route rows by user)."""
        for key, n in other._counts.items():
            self._counts[key] = self._counts.get(key, 0) + n

    def count(self, partition: str) -> int:
        return self._counts.get(partition, 0)

    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    def keys(self):
        return self._counts.keys()

    def __contains__(self, partition: str) -> bool:
        return partition in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionHistogram):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        return f"PartitionHistogram(partitions={len(self._counts)})"


@dataclass(frozen=True, order=True)
class ReleaseRecord:
    """A released partition, with its noisy count in the count-publishing modes."""

    partition: str
    noisy_count: int | None = None


def ingest(
    rows: Iterable[tuple[str, str]],
    mode: IngestMode = IngestMode.STRICT,
    max_partitions_per_user: int = 1,
) -> PartitionHistogram:
    """Count unique users per partition.

    STRICT raises when a user appears with more distinct partitions than
    ``max_partitions_per_user``; FIRST_WINS silently keeps each user's
    earliest distinct partitions in input order (a non-private preprocessing
    convention). Each (user, partition) pair is counted at most once.
    """
    if not isinstance(max_partitions_per_user, int) or max_partitions_per_user < 1:
        raise ConfigurationError(
            f"max_partitions_per_user must be >= 1, got {max_partitions_per_user!r}"
        )
    hist = PartitionHistogram()
    counts = hist._counts
    seen: dict[str, tuple[str, ...]] = {}
    for i, row in enumerate(rows, start=1):
        try:
            user_id, partition = row
        except (TypeError, ValueError):
            raise InputFormatError(f"row {i}: expected (user_id, partition), got {row!r}") from None
        if not isinstance(user_id, str) or not user_id or not isinstance(partition, str) or not partition:
            raise InputFormatError(f"row {i}: user_id and partition must be nonempty strings")
        parts = seen.get(user_id, ())
        if partition in parts:
            continue
        if len(parts) >= max_partitions_per_user:
            if mode is IngestMode.STRICT:
                raise StrictViolationError(
                    f"user {user_id!r} contributes more than "
                    f"{max_partitions_per_user} partition(s)"
                )
            continue
        seen[user_id] = parts + (partition,)
        counts[partition] = counts.get(partition, 0) + 1
    return hist


def read_rows(source: str | os.PathLike | TextIO) -> Iterator[tuple[str, str]]:
    """Rows from a ``user_id,partition`` CSV (RFC 4180, UTF-8, header required)."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, newline="", encoding="utf-8") as f:
            yield from _read_csv(f)
    else:
        yield from _read_csv(source)


def _read_csv(f: TextIO) -> Iterator[tuple[str, str]]:
    reader = csv.reader(f, strict=True)
    try:
        header = next(reader, None)
        if header is None:
            raise InputFormatError("line 1: missing header 'user_id,partition'")
        if header != ["user_id", "partition"]:
            raise InputFormatError(f"line 1: expected header 'user_id,partition', got {header!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != 2 or not row[0] or not row[1]:
                raise InputFormatError(
                    f"line {reader.line_num}: expected 'user_id,partition' with nonempty fields"
                )
            yield row[0], row[1]
    except csv.Error as exc:
        raise InputFormatError(f"line {reader.line_num}: {exc}") from None


def _check_seed(seed: int) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ConfigurationError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def _partition_rng(seed: int, purpose: bytes, key: str) -> np.random.Generator:
    mac = hashlib.blake2b(
        key.encode("utf-8"), digest_size=16, key=seed.to_bytes(8, "little"), person=purpose
    )
    return np.random.default_rng(int.from_bytes(mac.digest(), "little"))


def select_partitions(hist: PartitionHistogram, prim: OptPrimitive, seed: int) -> set[str]:
    """Independently keep each present partition with its optimal probability."""
    _check_seed(seed)
    return {
        key
        for key, n in hist._counts.items()
        if _partition_rng(seed, b"select", key).random() < pi_opt(prim, n)
    }


def thresholded_release(
    hist: PartitionHistogram, params: PrivacyParams, seed: int
) -> list[ReleaseRecord]:
    """Noise every present count; release key and noisy count when it exceeds k."""
    _check_seed(seed)
    noise = tsgd_params(params)
    counts = hist._counts
    records = []
    for key in sorted(counts):
        noisy = counts[key] + tsgd_sample(noise, _partition_rng(seed, b"release", key))
        if noisy > noise.k:
            records.append(ReleaseRecord(key, noisy))
    return records


def dual_threshold_release(
    hist: PartitionHistogram,
    public_keys: Iterable[str],
    params: PrivacyParams,
    public_threshold: int,
    seed: int,
) -> list[ReleaseRecord]:
    """Noise public keys (absent ones at zero) and present private keys.

    Private keys must clear the privacy bound k; public keys clear the chosen
    ``public_threshold`` in [-k, k]. The extremes trade error directions:
    -k releases every public key present in the data (but lets almost every
    absent public key through), while k admits only keys actually present.
    """
    _check_seed(seed)
    noise = tsgd_params(params)
    if not isinstance(public_threshold, int) or not -noise.k <= public_threshold <= noise.k:
        raise ConfigurationError(
            f"public threshold must be an integer in [-k, k] = "
            f"[{-noise.k}, {noise.k}], got {public_threshold!r}"
        )
    public = set(public_keys)
    for key in public:
        if not isinstance(key, str) or not key:
            raise ConfigurationError(f"public keys must be nonempty strings, got {key!r}")
    counts = hist._counts
    records = []
    for key in sorted(set(counts) | public):
        noisy = counts.get(key, 0) + tsgd_sample(noise, _partition_rng(seed, b"dual", key))
        bound = public_threshold if key in public else noise.k
        if noisy > bound:
            records.append(ReleaseRecord(key, noisy))
    return records


def write_selection(kept: Iterable[str], out: TextIO) -> None:
    """Selection-mode output: one partition key per line, lexicographically sorted."""
    for key in sorted(kept):
        out.write(key + "\n")


def write_release(records: Iterable[ReleaseRecord], out: TextIO) -> None:
    """Count-mode output: 'partition,noisy_count' CSV sorted by key."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["partition", "noisy_count"])
    for record in sorted(records):
        writer.writerow([record.partition, record.noisy_count])
