"""Tests of the benchmark's generator and output checks.

Run with the package sources on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import io
import os

import pytest

import checks
import workloads
from partsel import (
    OptPrimitive,
    PartitionHistogram,
    PrivacyParams,
    dual_threshold_release,
    select_partitions,
    thresholded_release,
    tsgd_params,
    write_release,
    write_selection,
)

PARAMS = PrivacyParams(1.0, 1e-5)
# 300 small partitions that are rarely kept, and 20 that are always kept.
COUNTS = {f"k{i:03d}": 1 + i % 5 for i in range(300)} | {f"z{i:02d}": 50 for i in range(20)}


def _files(directory) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = f.read()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_bytes(tmp_path, name):
    w = dataclasses.replace(workloads.WORKLOADS[name], rows=3000, universe=500)
    w = dataclasses.replace(w, public_keys=min(w.public_keys, 400))
    workloads.generate(w, 7, tmp_path / "a")
    workloads.generate(w, 7, tmp_path / "b")
    workloads.generate(w, 8, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first["rows.csv"] != _files(tmp_path / "c")["rows.csv"]
    assert first["rows.csv"].count(b"\n") == w.rows + 1


def test_reference_counts_hand_checked():
    rows = [
        ("a", "x"),
        ("a", "x"),  # duplicate pair
        ("b", "x"),
        ("a", "y"),
        ("c", "y"),
        ("c", "z"),
        ("c", "w"),  # c's third distinct partition: dropped at kappa 2
        ("d", "z"),
    ]
    counts, stats = workloads.reference_counts(rows, kappa=2, first_wins=True)
    assert counts == {"x": 2, "y": 2, "z": 2}
    assert stats == {"rows": 8, "users": 4, "partitions": 3, "duplicate_rows": 1, "dropped_rows": 1}
    with pytest.raises(ValueError):
        workloads.reference_counts(rows, kappa=2, first_wins=False)
    counts, stats = workloads.reference_counts(rows, kappa=1, first_wins=True)
    assert counts == {"x": 2, "y": 1, "z": 1}
    assert stats["dropped_rows"] == 3


def test_generated_reference_matches_a_replay_of_the_file(tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS["kappa3-dual"], rows=3000, universe=300, public_keys=200)
    workloads.generate(w, 3, tmp_path)
    with open(tmp_path / "rows.csv", encoding="utf-8") as f:
        rows = [tuple(line.rstrip("\n").split(",")) for line in f][1:]
    counts, _ = workloads.reference_counts(rows, kappa=3, first_wins=True)
    assert workloads.read_reference(tmp_path) == counts


def _selection_text() -> tuple[str, OptPrimitive]:
    prim = OptPrimitive.from_params(PARAMS)
    out = io.StringIO()
    write_selection(select_partitions(PartitionHistogram.from_counts(COUNTS), prim, seed=1), out)
    return out.getvalue(), prim


def _release_text(public: list[str] | None = None) -> str:
    hist = PartitionHistogram.from_counts(COUNTS)
    if public is None:
        records = thresholded_release(hist, PARAMS, seed=1)
    else:
        records = dual_threshold_release(hist, public, PARAMS, 0, seed=1)
    out = io.StringIO()
    write_release(records, out)
    return out.getvalue()


def test_genuine_outputs_pass():
    text, prim = _selection_text()
    assert checks.check_selection(text, COUNTS, prim) == []
    noise = tsgd_params(PARAMS)
    assert checks.check_release(_release_text(), COUNTS, noise) == []
    public = ["z00", "k001"] + [f"absent{i}" for i in range(50)]
    assert checks.check_release(_release_text(public), COUNTS, noise, set(public), 0) == []
    assert checks.counts_match(dict(COUNTS), COUNTS) == []
    assert checks.same_bytes("out", b"abc", b"abc") == []


def test_tampered_bytes_and_counts_fail():
    assert checks.same_bytes("out", b"abc", b"abd")
    assert checks.counts_match(dict(COUNTS, k000=2), COUNTS)
    assert checks.counts_match({k: n for k, n in COUNTS.items() if k != "k000"}, COUNTS)


@pytest.mark.parametrize(
    ("tamper", "message"),
    [
        (lambda keys: keys[::-1], "not sorted"),
        (lambda keys: sorted(keys + keys[:1]), "not unique"),
        (lambda keys: sorted(keys + ["nope"]), "not candidates"),
        (lambda keys: [k for k in keys if k != "z05"], "n > n2"),
        (lambda keys: sorted(COUNTS), "expected"),
    ],
    ids=["unsorted", "duplicate", "unknown-key", "dropped-n-above-n2", "implausibly-many"],
)
def test_tampered_selection_fails(tamper, message):
    text, prim = _selection_text()
    keys = text.splitlines()
    assert "z05" in keys
    failures = checks.check_selection("".join(k + "\n" for k in tamper(keys)), COUNTS, prim)
    assert any(message in f for f in failures), failures


def _records_text(records) -> str:
    return "partition,noisy_count\n" + "".join(f"{k},{v}\n" for k, v in records)


def _replace(records, key, value):
    return sorted([r for r in records if r[0] != key] + [(key, value)])


@pytest.mark.parametrize(
    ("tamper", "message"),
    [
        (lambda recs: recs[::-1], "not sorted"),
        (lambda recs: sorted(recs + recs[:1]), "not unique"),
        (lambda recs: sorted(recs + [("nope", 40)]), "not candidates"),
        (lambda recs: [r for r in recs if r[0] != "z05"], "n >= 2k+1"),
        (lambda recs: _replace(recs, "z05", 70), "more than k"),
        (lambda recs: _replace(recs, "k004", 3), "do not exceed"),
        (lambda recs: sorted(set(recs) | {(k, 12) for k in COUNTS if k.startswith("k0")}), "expected"),
    ],
    ids=["unsorted", "duplicate", "unknown-key", "dropped-n-2k+1", "noise-beyond-k",
         "below-threshold", "implausibly-many"],
)
def test_tampered_release_fails(tamper, message):
    records = checks.parse_release(_release_text())
    assert any(k == "z05" for k, _ in records)
    failures = checks.check_release(_records_text(tamper(records)), COUNTS, tsgd_params(PARAMS))
    assert any(message in f for f in failures), failures


def test_tampered_dual_release_fails():
    noise = tsgd_params(PARAMS)
    public = ["z00", "k001"] + [f"absent{i}" for i in range(50)]
    records = checks.parse_release(_release_text(public))
    # An absent public key released at the public threshold, which it must exceed.
    tampered = _replace(records, "absent0", 0)
    failures = checks.check_release(_records_text(tampered), COUNTS, noise, set(public), 0)
    assert any("do not exceed" in f for f in failures), failures
    # A key neither in the data nor in the public list.
    tampered = _replace(records, "zz-unlisted", 5)
    failures = checks.check_release(_records_text(tampered), COUNTS, noise, set(public), 0)
    assert any("not candidates" in f for f in failures), failures


def test_tampered_sweep_tables_fail():
    header = ["kappa", "opt_mid", "lap_mid", "gauss_mid"]
    good = "kappa,opt_mid,lap_mid,gauss_mid\n1,12,12,19\n2,23,25,27\n"
    assert checks.check_sweep_table(good, header, 2) == []
    assert checks.check_sweep_table(good.replace("opt_mid", "opt"), header, 2)
    assert checks.check_sweep_table(good, header, 3)
    assert checks.check_sweep_table(good.replace("2,23,25", "2,26,25"), header, 2)
    header = ["eps", "opt05", "opt50", "opt95", "lap05", "lap50", "lap95"]
    good = "eps,opt05,opt50,opt95,lap05,lap50,lap95\n0.01,394,623,851,853,1083,1314\n"
    assert checks.check_sweep_table(good, header, 1) == []
    assert checks.check_sweep_table(good.replace("394,623", "700,623"), header, 1)
