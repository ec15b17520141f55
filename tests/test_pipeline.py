import hashlib
import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partsel import (
    ConfigurationError,
    IngestMode,
    InputFormatError,
    OptPrimitive,
    PartitionHistogram,
    PrivacyParams,
    ReleaseRecord,
    StrictViolationError,
    dual_threshold_release,
    ingest,
    pi_opt,
    read_rows,
    select_partitions,
    thresholded_release,
    tsgd_params,
    write_release,
    write_selection,
)
from partsel.truncated_geometric import delta_for_exact_threshold, tsgd_tail

PARAMS = PrivacyParams(1.0, 1e-5)


class TestHistogram:
    def test_deduplicates_users(self):
        hist = ingest([("u1", "a"), ("u1", "a"), ("u2", "a")])
        assert hist.counts() == {"a": 2}

    def test_from_counts_is_frozen(self):
        with pytest.raises(ConfigurationError):
            PartitionHistogram.from_counts({"a": 0})


class TestIngest:
    def test_strict_violation_names_user(self):
        with pytest.raises(StrictViolationError, match="u1"):
            ingest([("u1", "a"), ("u1", "b")])

    def test_first_wins_keeps_earliest_partition(self):
        hist = ingest([("u1", "a"), ("u1", "b")], mode=IngestMode.FIRST_WINS)
        assert hist.counts() == {"a": 1}

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

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([f"u{i}" for i in range(30)]),
                st.sampled_from(["a", "b", "c", "d", "e"]),
            ),
            max_size=150,
        ),
        shards=st.integers(min_value=1, max_value=5),
        kappa=st.integers(min_value=1, max_value=3),
        mode=st.sampled_from(list(IngestMode)),
    )
    def test_sharded_ingest_equals_single_pass(self, rows, shards, kappa, mode):
        # oracle: replay the rows into a set of kept (user, partition) pairs
        kept: set[tuple[str, str]] = set()
        over_bound = False
        for user, part in rows:
            if (user, part) in kept:
                continue
            if sum(u == user for u, _ in kept) >= kappa:
                over_bound = True
                continue
            kept.add((user, part))
        if mode is IngestMode.STRICT and over_bound:
            with pytest.raises(StrictViolationError):
                ingest(rows, mode=mode, max_partitions_per_user=kappa)
            return
        single = ingest(rows, mode=mode, max_partitions_per_user=kappa)
        assert single.counts() == Counter(part for _, part in kept)
        # routing rows by user keeps each user's stream intact per shard
        buckets = [[] for _ in range(shards)]
        for user, part in rows:
            idx = hashlib.blake2b(user.encode(), digest_size=2).digest()[0] % shards
            buckets[idx].append((user, part))
        merged = PartitionHistogram()
        for bucket in buckets:
            merged.merge(ingest(bucket, mode=mode, max_partitions_per_user=kappa))
        assert merged == single


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

    def test_deterministic_and_thread_invariant(self):
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
            (record,) = thresholded_release(hist, PARAMS, seed=seed)
            assert record.partition == "big"
            assert noise.k + 1 <= record.noisy_count <= n + noise.k

    def test_released_counts_exceed_bound(self):
        hist = PartitionHistogram.from_counts({f"p{i}": 1 + i % 30 for i in range(2000)})
        noise = tsgd_params(PARAMS)
        records = thresholded_release(hist, PARAMS, seed=8)
        assert all(r.noisy_count > noise.k for r in records)
        assert {r.partition for r in records} <= set(hist.keys())

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
        records = dual_threshold_release(hist, public, PARAMS, noise.k, seed=5)
        assert {r.partition for r in records} <= {"present"}

    def test_lowest_threshold_releases_every_present_public_key(self):
        noise = tsgd_params(PARAMS)
        hist = PartitionHistogram.from_counts({f"pub{i}": 1 + i % 4 for i in range(3000)})
        records = dual_threshold_release(hist, list(hist.keys()), PARAMS, -noise.k, seed=6)
        assert {r.partition for r in records} == set(hist.keys())

    def test_absent_public_keys_release_at_pure_noise_rate(self):
        noise = tsgd_params(PARAMS)
        keys = 30_000
        public = [f"ghost{i:05d}" for i in range(keys)]
        records = dual_threshold_release(PartitionHistogram(), public, PARAMS, 0, seed=7)
        p = tsgd_tail(noise, 0, 1)
        sigma = math.sqrt(p * (1.0 - p) / keys)
        assert abs(len(records) / keys - p) <= 3.0 * sigma

    def test_output_keys_bounded_by_present_and_public(self):
        hist = PartitionHistogram.from_counts({"a": 2, "b": 40})
        records = dual_threshold_release(hist, ["c"], PARAMS, 0, seed=8)
        assert {r.partition for r in records} <= {"a", "b", "c"}

    def test_threshold_range_enforced(self):
        noise = tsgd_params(PARAMS)
        hist = PartitionHistogram.from_counts({"a": 2})
        for bad in (noise.k + 1, -noise.k - 1):
            with pytest.raises(ConfigurationError):
                dual_threshold_release(hist, ["a"], PARAMS, bad, seed=0)


class TestWriters:
    def test_selection_lines_sorted(self):
        out = io.StringIO()
        write_selection({"b", "a", "c"}, out)
        assert out.getvalue() == "a\nb\nc\n"

    def test_release_csv_round_trips(self):
        import csv

        out = io.StringIO()
        write_release([ReleaseRecord("x,y", 12), ReleaseRecord("plain", 13)], out)
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert rows == [["partition", "noisy_count"], ["plain", "13"], ["x,y", "12"]]
