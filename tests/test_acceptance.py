"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.
"""

import csv
import io
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

from partsel import (
    LaplacePrimitive,
    OptPrimitive,
    PartitionHistogram,
    PrivacyParams,
    gaussian_primitive,
    midpoint,
    pi_gaussian,
    pi_laplace,
    pi_opt,
    pi_opt_many,
    pi_opt_recursive_sequence,
    select_partitions,
    selection_prob_via_threshold,
    thresholded_release,
    tsgd_params,
    tsgd_pmf,
    tsgd_sample_many,
)
from partsel.cli import main as cli_main
from partsel.truncated_geometric import delta_for_exact_threshold

GRID = [
    PrivacyParams(eps, delta)
    for eps in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
    for delta in (1e-12, 1e-10, 1e-5, 1e-2)
]

DP_PAIRS = [
    PrivacyParams(eps, delta)
    for eps in (0.1, 0.5, 1.0, 2.0)
    for delta in (1e-8, 1e-5, 1e-2)
]


def _opt_midpoint(params: PrivacyParams) -> int:
    prim = OptPrimitive.from_params(params)
    return midpoint(lambda n: pi_opt(prim, n), upper=prim.n2 + 1)


def _lap_midpoint(params: PrivacyParams) -> int:
    lap = LaplacePrimitive.from_params(params)
    return midpoint(lambda n: pi_laplace(lap, n))


def test_c01_closed_form_matches_recursive_oracle():
    """Closed form equals the O(n) recurrence within 1e-9 over the whole grid, in < 5 s."""
    start = time.perf_counter()
    for params in GRID:
        prim = OptPrimitive.from_params(params)
        seq = np.asarray(pi_opt_recursive_sequence(params, prim.n2 + 5))
        closed = pi_opt_many(prim, np.arange(prim.n2 + 6))
        assert float(np.max(np.abs(closed - seq))) <= 1e-9, params
    assert time.perf_counter() - start < 5.0


def test_c02_neighboring_inequalities_and_tightness():
    """The four neighboring-count inequalities hold with slack >= -1e-12; each
    value is the recurrence minimum within 1e-9 up to saturation."""
    for params in GRID:
        eps, delta = params.effective_epsilon, params.effective_delta
        prim = OptPrimitive.from_params(params)
        probs = pi_opt_many(prim, np.arange(prim.n2 + 6))
        lo, hi = probs[:-1], probs[1:]
        grow = math.exp(eps)
        shrink = math.exp(-eps)
        assert float(np.min(grow * lo + delta - hi)) >= -1e-12
        assert float(np.min(grow * hi + delta - lo)) >= -1e-12
        assert float(np.min(grow * (1.0 - lo) + delta - (1.0 - hi))) >= -1e-12
        assert float(np.min(grow * (1.0 - hi) + delta - (1.0 - lo))) >= -1e-12
        for n in range(prim.n2 + 1):
            best = min(grow * probs[n] + delta, 1.0 - shrink * (1.0 - probs[n] - delta), 1.0)
            assert abs(probs[n + 1] - best) <= 1e-9, (params, n)


def test_c03_degenerate_budgets():
    """delta=0 keeps nothing; eps=0 keeps with probability min(1, n*delta), exactly."""
    for eps in (0.0, 0.5, 1.0, 3.0):
        prim = OptPrimitive.from_params(PrivacyParams(eps, 0.0))
        assert all(pi_opt(prim, n) == 0.0 for n in range(300))
    for delta in (1e-3, 0.1, 0.3, 1.0):
        prim = OptPrimitive.from_params(PrivacyParams(0.0, delta))
        top = math.ceil(1.0 / delta) + 5
        assert all(pi_opt(prim, n) == min(1.0, n * delta) for n in range(top))


def test_c04_crossover_formulas_match_oracle_indices():
    """n1/n2 equal the recurrence's branch-switch and saturation indices on the
    grid; spot values: (1, 1e-5) -> n1=11 and (0.1, 1e-10) -> n1=201."""
    assert OptPrimitive.from_params(PrivacyParams(1.0, 1e-5)).n1 == 11
    assert OptPrimitive.from_params(PrivacyParams(0.1, 1e-10)).n1 == 201
    for params in GRID:
        prim = OptPrimitive.from_params(params)
        eps, delta = params.effective_epsilon, params.effective_delta
        seq = pi_opt_recursive_sequence(params, prim.n2 + 5)
        saturation = next(n for n, v in enumerate(seq) if v == 1.0)
        assert saturation == prim.n2 + 1, params
        growth = lambda n: delta * math.expm1(n * eps) / math.expm1(eps)
        assert all(abs(seq[n] - growth(n)) <= 1e-9 for n in range(prim.n1 + 1)), params
        assert abs(seq[prim.n1 + 1] - growth(prim.n1 + 1)) > 1e-9, params


def test_c05_thresholding_equivalence_at_integral_bound():
    """When the noise bound is an exact integer k, noisy thresholding equals the
    optimal curve within 1e-9 for n <= 2k+2, and n2 = 2k+1 exactly."""
    for eps, k in ((1.0, 5), (0.5, 8), (2.0, 3)):
        delta = delta_for_exact_threshold(eps, k)
        params = PrivacyParams(eps, delta)
        prim = OptPrimitive.from_params(params)
        assert tsgd_params(params).k == k
        assert prim.n1 == k + 1
        assert prim.n2 == 2 * k + 1
        for n in range(2 * k + 3):
            assert abs(selection_prob_via_threshold(params, n) - pi_opt(prim, n)) <= 1e-9


def test_c06_mechanism_privacy_enumeration():
    """Exhaustive singleton check of the shifted-count inequality over the full
    noise support for 12 budgets; boundary mass P(X=k) <= delta in every case."""
    for params in DP_PAIRS:
        eps, delta = params.effective_epsilon, params.effective_delta
        t = tsgd_params(params)
        assert t.delta_effective <= delta * (1.0 + 1e-12)
        grow = math.exp(eps)
        mu = 0
        for y in range(mu - t.k - 2, mu + t.k + 4):
            p_base = tsgd_pmf(t, y - mu)
            p_shift = tsgd_pmf(t, y - mu - 1)  # true count mu+1
            bonus_hi = delta if y == mu + t.k + 1 else 0.0
            bonus_lo = delta if y == mu - t.k else 0.0
            assert p_shift <= grow * p_base + bonus_hi + 1e-15
            assert p_base <= grow * p_shift + bonus_lo + 1e-15


def test_c07_sampler_fidelity():
    """1e6 seeded draws pass a chi-square test against the pmf at the 0.1%
    level, stay inside [-k, k], and finish in < 10 s."""
    start = time.perf_counter()
    t = tsgd_params(PrivacyParams(1.0, 1e-5))
    rng = np.random.default_rng(20260810)
    draws = tsgd_sample_many(t, rng, 10**6)
    assert draws.min() >= -t.k and draws.max() <= t.k
    observed = np.bincount((draws + t.k).astype(np.int64), minlength=2 * t.k + 1)
    expected = np.array([tsgd_pmf(t, int(x)) for x in range(-t.k, t.k + 1)]) * draws.size
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < float(stats.chi2.ppf(0.999, df=2 * t.k))
    assert time.perf_counter() - start < 10.0


def test_c08_dominance_and_midpoint_gaps():
    """The optimal curve dominates Laplace pointwise; the midpoint gap grows as
    epsilon shrinks and is constant (+-1) in delta at fixed epsilon."""
    for eps, delta in ((1.0, 1e-5), (0.1, 1e-10)):
        params = PrivacyParams(eps, delta)
        prim = OptPrimitive.from_params(params)
        lap = LaplacePrimitive.from_params(params)
        top = max(prim.n2 + 10, math.ceil(lap.threshold) + 10)
        lap_probs = np.array([pi_laplace(lap, n) for n in range(top)])
        opt_probs = pi_opt_many(prim, np.arange(top))
        assert float(np.min(opt_probs - lap_probs)) >= -1e-12
    gap_small = _lap_midpoint(PrivacyParams(0.1, 1e-5)) - _opt_midpoint(PrivacyParams(0.1, 1e-5))
    gap_unit = _lap_midpoint(PrivacyParams(1.0, 1e-5)) - _opt_midpoint(PrivacyParams(1.0, 1e-5))
    assert gap_small > gap_unit
    for eps in (0.1, 1.0):
        gaps = []
        for delta in np.geomspace(1e-12, 1e-3, 12):
            params = PrivacyParams(eps, float(delta))
            gaps.append(_lap_midpoint(params) - _opt_midpoint(params))
        assert max(gaps) - min(gaps) <= 1


def test_c09_gaussian_crossing():
    """With the budget divided per contribution, the optimal strategy wins at
    kappa <= 2 and scaled Gaussian thresholding wins at kappa >= 4."""
    params = PrivacyParams(1.0, 1e-5)
    opt_mids, gauss_mids = {}, {}
    for kappa in range(1, 8):
        opt_mids[kappa] = _opt_midpoint(params.split(kappa))
        gauss = gaussian_primitive(params, kappa)
        gauss_mids[kappa] = midpoint(
            lambda n: pi_gaussian(gauss, n),
            upper=math.ceil(gauss.threshold) + math.ceil(64.0 / gauss.epsilon),
        )
    for kappa in (1, 2):
        assert opt_mids[kappa] < gauss_mids[kappa]
    for kappa in (4, 5, 6, 7):
        assert gauss_mids[kappa] < opt_mids[kappa]
    crossing = next(k for k in range(1, 8) if gauss_mids[k] <= opt_mids[k])
    assert crossing in (3, 4)


def test_c10_pipeline_end_to_end():
    """Selection keeps the expected fraction of 1e5 equal-count partitions, and
    empty partitions never clear the release bound across 1e6 noise draws."""
    params = PrivacyParams(1.0, 1e-5)
    prim = OptPrimitive.from_params(params)
    keys = 10**5
    hist = PartitionHistogram.from_counts({f"p{i:06d}": prim.n1 for i in range(keys)})
    kept = select_partitions(hist, prim, seed=2026)
    p = pi_opt(prim, prim.n1)
    sigma = math.sqrt(p * (1.0 - p) / keys)
    assert abs(len(kept) / keys - p) <= 3.0 * sigma
    # noise added to an absent (zero) count can never exceed the bound
    t = tsgd_params(params)
    draws = tsgd_sample_many(t, np.random.default_rng(7), 10**6)
    assert int(draws.max()) <= t.k
    assert thresholded_release(PartitionHistogram(), params, seed=0) == []


def test_c11_performance_and_memory():
    """1e6 closed-form keep decisions in < 1 s."""
    prim = OptPrimitive.from_params(PrivacyParams(1.0, 1e-5))
    rng = np.random.default_rng(0)
    ns = rng.integers(0, prim.n2 + 50, size=10**6)
    start = time.perf_counter()
    kept = rng.random(ns.size) < pi_opt_many(prim, ns)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert kept.size == ns.size


def test_c12_determinism(tmp_path):
    """Identical seeds and inputs give byte-identical outputs across repeated
    runs."""
    data = tmp_path / "rows.csv"
    with open(data, "w", encoding="utf-8") as f:
        f.write("user_id,partition\n")
        for i in range(1200):
            f.write(f"u{i},p{i % 37}\n")
    runner = CliRunner()
    for mode, extra in (("select", ["--delta", "0.03"]), ("release-counts", ["--delta", "0.01"])):
        blobs = []
        for run in (1, 2, 3):
            out = tmp_path / f"{mode}-{run}.out"
            result = runner.invoke(
                cli_main,
                ["select", "--input", str(data), "--mode", mode, "--epsilon", "1",
                 *extra, "--seed", "77", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
