import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from partsel import (
    ConfigurationError,
    Neighboring,
    OptPrimitive,
    PrivacyParams,
    TsgdParams,
    pi_opt,
    tsgd_params,
    tsgd_sample,
    tsgd_sample_many,
    tsgd_tail,
)
from partsel.truncated_geometric import tsgd_cutoff, tsgd_inverse

from oracles import delta_effective, delta_for_exact_threshold, selection_prob_via_threshold, tsgd_pmf

DP_PAIRS = [
    (eps, delta)
    for eps in (0.1, 0.5, 1.0, 2.0)
    for delta in (1e-8, 1e-5, 1e-2)
]


def _brute_tail(t: TsgdParams, mu: int, y: int) -> float:
    return sum(tsgd_pmf(t, x) for x in range(y - mu, t.k + 1))


def _cdf_at(t: TsgdParams, x: int) -> float:
    """The float CDF at outcome ``x`` in [-k, k]: the closed-form partial sum,
    with P(X = k) rounded down to the 2^-53 grid below delta.

    Evaluated with ``math`` like the integer bounds, so the two differ only in
    how a uniform is compared with them, not by an ulp of ``exp``.
    """
    k, eps, ratio = t.k, t.eps, t.c / t.p
    if x == k:
        return 1.0
    if x < 0:
        return ratio * math.exp(x * eps) * -math.expm1(-(k + 1.0 + x) * eps)
    cdf = 1.0 + ratio * math.exp(-(x + 1.0) * eps) * math.expm1(-(k - x) * eps)
    if x == k - 1:
        cdf = max(cdf, 1.0 - math.floor(t.delta * 2.0**53) * 2.0**-53)
    return cdf


def _float_cdf(t: TsgdParams) -> np.ndarray:
    """The float CDF table of the outcomes -k..k."""
    return np.array([_cdf_at(t, x) for x in range(-t.k, t.k + 1)])


class _Replay:
    """Stands in for a generator: ``random()`` returns the given 53-bit integers over 2^53."""

    def __init__(self, u53s):
        self._draws = np.asarray(u53s, dtype=np.float64) * 2.0**-53
        self._next = 0

    def random(self, size=None):
        start, self._next = self._next, self._next + (1 if size is None else size)
        return float(self._draws[start]) if size is None else self._draws[start : self._next]


# (epsilon, k) pairs at budgets whose truncation bound is exactly k
EXACT_BOUNDS = [(2.0, 1), (1.0, 11), (0.5, 33), (0.01, 1000)]


class TestParams:
    def test_derivation_spot_values(self):
        t = tsgd_params(PrivacyParams(1.0, 1e-5))
        assert t.k == 11
        assert t.p == pytest.approx(0.6321205588285577, rel=1e-12)
        assert t.c == pytest.approx(t.p / (1.0 + (1.0 - t.p) - 2.0 * (1.0 - t.p) ** 12), rel=1e-12)

    def test_exact_threshold_budget(self):
        delta = delta_for_exact_threshold(1.0, 5)
        assert delta == pytest.approx(0.003125046789079252, rel=1e-12)
        assert tsgd_params(PrivacyParams(1.0, delta)).k == 5

    @pytest.mark.parametrize(("eps", "delta"), DP_PAIRS)
    def test_truncation_mass_within_budget(self, eps, delta):
        t = tsgd_params(PrivacyParams(eps, delta))
        assert delta_effective(t) <= delta * (1.0 + 1e-12)

    def test_rejects_unusable_budgets(self):
        with pytest.raises(ValueError):
            tsgd_params(PrivacyParams(0.0, 1e-5))
        with pytest.raises(ValueError):
            tsgd_params(PrivacyParams(1.0, 0.0))
        with pytest.raises(ValueError):
            tsgd_params(PrivacyParams(1.0, 1.0))
        with pytest.raises(ValueError, match="too large"):
            tsgd_params(PrivacyParams(50.0, 1e-5))  # p would round to exactly 1

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            TsgdParams(p=0.0, k=3)
        with pytest.raises(ValueError):
            TsgdParams(p=0.5, k=0)
        for p in (1e-17, 2.0**-54):  # 1 - p rounds to 1: not a ZeroDivisionError
            with pytest.raises(ValueError, match=rf"got {p}$"):
                TsgdParams(p=p, k=3)

    def test_budget_whose_one_minus_p_rounds_to_one_is_refused(self):
        # eps <= 2^-54 rounds 1 - p to exactly 1, which would zero the pmf's
        # normaliser; the next float up is the least epsilon with noise.
        for eps in (1e-17, 5e-17, 2.0**-54):
            with pytest.raises(ConfigurationError, match=rf"^effective epsilon {eps} too small"):
                tsgd_params(PrivacyParams(eps, 1e-5))
        with pytest.raises(ConfigurationError, match=r"^effective epsilon 1e-17 too small"):
            tsgd_params(PrivacyParams(2e-17, 1e-5, Neighboring.REPLACE))
        t = tsgd_params(PrivacyParams(math.nextafter(2.0**-54, 1.0), 1e-5))
        assert 0.0 < t.c and delta_effective(t) <= 1e-5


class TestPmf:
    def test_outside_support_is_zero(self):
        t = tsgd_params(PrivacyParams(1.0, 1e-5))
        assert tsgd_pmf(t, t.k + 1) == 0.0
        assert tsgd_pmf(t, -t.k - 1) == 0.0

    def test_center_mass_is_normalizer(self):
        t = tsgd_params(PrivacyParams(1.0, 1e-5))
        assert tsgd_pmf(t, 0) == t.c

    @pytest.mark.parametrize(("eps", "delta"), DP_PAIRS)
    def test_normalized_and_symmetric(self, eps, delta):
        t = tsgd_params(PrivacyParams(eps, delta))
        total = sum(tsgd_pmf(t, x) for x in range(-t.k, t.k + 1))
        assert abs(total - 1.0) <= 1e-12
        assert all(tsgd_pmf(t, x) == tsgd_pmf(t, -x) for x in range(t.k + 1))


class TestTail:
    def test_boundary_cases(self):
        t = tsgd_params(PrivacyParams(1.0, 1e-5))
        mu = 7
        assert tsgd_tail(t, mu, mu - t.k) == 1.0
        assert tsgd_tail(t, mu, mu - t.k - 3) == 1.0
        assert tsgd_tail(t, mu, mu + t.k + 1) == 0.0

    def test_matches_mass_summation(self):
        t = tsgd_params(PrivacyParams(1.0, 1e-5))
        assert tsgd_tail(t, 0, 1) == pytest.approx(_brute_tail(t, 0, 1), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        eps=st.floats(min_value=0.05, max_value=4.0),
        log_delta=st.floats(min_value=-9.0, max_value=-0.5),
        mu=st.integers(min_value=-5, max_value=250),
        offset=st.integers(min_value=-260, max_value=260),
    )
    def test_closed_form_equals_summation(self, eps, log_delta, mu, offset):
        t = tsgd_params(PrivacyParams(eps, 10.0**log_delta))
        y = mu + max(-t.k - 3, min(t.k + 3, offset))
        assert tsgd_tail(t, mu, y) == pytest.approx(_brute_tail(t, mu, y), abs=1e-12)

    def test_monotone_in_count_and_threshold(self):
        t = tsgd_params(PrivacyParams(0.7, 1e-6))
        y = 4
        tails = [tsgd_tail(t, mu, y) for mu in range(y - t.k - 2, y + t.k + 3)]
        assert all(b >= a for a, b in zip(tails, tails[1:]))
        mu = 4
        tails = [tsgd_tail(t, mu, y) for y in range(mu - t.k - 2, mu + t.k + 3)]
        assert all(b <= a for a, b in zip(tails, tails[1:]))


class TestSampling:
    def test_support_and_moments(self):
        t = tsgd_params(PrivacyParams(1.0, 1e-5))
        rng = np.random.default_rng(11)
        draws = tsgd_sample_many(t, rng, 10**5)
        assert draws.min() >= -t.k and draws.max() <= t.k
        var = sum(x * x * tsgd_pmf(t, x) for x in range(-t.k, t.k + 1))
        assert abs(draws.mean()) <= 4.0 * math.sqrt(var / draws.size)

    def test_per_outcome_frequencies(self):
        t = tsgd_params(PrivacyParams(1.0, 1e-5))
        rng = np.random.default_rng(13)
        draws = tsgd_sample_many(t, rng, 10**6)
        counts = np.bincount((draws + t.k).astype(np.int64), minlength=2 * t.k + 1)
        probs = np.array([tsgd_pmf(t, int(x)) for x in range(-t.k, t.k + 1)])
        expected = probs * draws.size
        sigma = np.sqrt(draws.size * probs * (1.0 - probs))
        assert np.all(np.abs(counts - expected) <= 4.0 * sigma)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < float(stats.chi2.ppf(0.999, df=2 * t.k))

    def test_scalar_draws_reproducible(self):
        t = tsgd_params(PrivacyParams(1.0, 1e-3))
        a = [tsgd_sample(t, np.random.default_rng(3)) for _ in range(20)]
        b = [tsgd_sample(t, np.random.default_rng(3)) for _ in range(20)]
        assert a == b

    def test_inversion_for_huge_bounds(self):
        t = TsgdParams(p=1e-6, k=2_000_000)
        rng = np.random.default_rng(17)
        draws = [tsgd_sample(t, rng) for _ in range(200)]
        assert all(abs(d) <= t.k for d in draws)
        assert len(set(draws)) > 100  # spread out, not degenerate


class TestIntegerBounds:
    @pytest.mark.parametrize(("eps", "k"), EXACT_BOUNDS)
    def test_inversion_matches_float_table(self, eps, k):
        t = tsgd_params(PrivacyParams(eps, delta_for_exact_threshold(eps, k)))
        assert t.k == k
        cdf = _float_cdf(t)

        def reference(u53s):
            u = np.asarray(u53s, dtype=np.uint64) * 2.0**-53
            return (np.searchsorted(cdf, u, side="right") - k).tolist()

        # both sides of every bucket edge, where an off-by-one would show
        edges = {math.ceil(c * 2.0**53) for c in cdf.tolist()}
        near = sorted(u for e in edges for u in (e - 1, e) if 0 <= u < 2**53)
        expected = reference(near)
        assert tsgd_inverse(t, near) == expected
        assert tsgd_sample_many(t, _Replay(near), len(near)).tolist() == expected
        replay = _Replay(near)
        assert [tsgd_sample(t, replay) for _ in near] == expected
        # random draws, through both samplers, which consume the generator alike
        draws = (np.random.default_rng(k).random(5000) * 2.0**53).astype(np.uint64).tolist()
        expected = reference(draws)
        assert tsgd_inverse(t, draws) == expected
        assert tsgd_sample_many(t, np.random.default_rng(k), 5000).tolist() == expected
        rng = np.random.default_rng(k)
        assert [tsgd_sample(t, rng) for _ in range(200)] == expected[:200]

    @pytest.mark.parametrize(("eps", "k"), EXACT_BOUNDS[:3])
    def test_cutoff_is_least_uniform_reaching_outcome(self, eps, k):
        t = tsgd_params(PrivacyParams(eps, delta_for_exact_threshold(eps, k)))
        for m in range(-k - 1, k + 3):
            cut = tsgd_cutoff(t, m)
            assert 0 <= cut <= 2**53
            if cut < 2**53:
                assert tsgd_inverse(t, [cut])[0] >= m
            if cut > 0:
                assert tsgd_inverse(t, [cut - 1])[0] < m

    def test_single_user_release_within_delta(self, budget_grid):
        # Exact arithmetic on the realised probabilities: a count of one is
        # released when X = k, which uniforms at or above tsgd_cutoff(t, k) hit.
        epsilons = sorted({p.epsilon for p in budget_grid})
        exact = [
            PrivacyParams(eps, delta_for_exact_threshold(eps, k))
            for eps in epsilons
            for k in range(1, 59)
        ]
        tiny = [PrivacyParams(eps, d) for eps in epsilons for d in (1e-17, 1e-30)]
        # noise bounds k of 8.5 and 108 million
        huge = [PrivacyParams(1e-6, 1e-10), PrivacyParams(1e-7, 1e-12)]
        for params in budget_grid + exact + tiny + huge:
            t = tsgd_params(params)
            released = Fraction(2**53 - tsgd_cutoff(t, t.k), 2**53)
            assert released <= Fraction(params.effective_delta), params
            assert selection_prob_via_threshold(params, 1) == pytest.approx(
                float(released), rel=1e-9, abs=2.0**-53
            )

    def test_lazy_bounds_above_a_million(self):
        t = tsgd_params(PrivacyParams(1e-6, 1e-10))
        k = t.k
        assert k == 8_517_394
        bounds = t._bounds
        rng = np.random.default_rng(23)
        edges = [1, 2, k - 1, k, k + 1, 2 * k - 2, 2 * k - 1]
        indices = edges + rng.integers(1, 2 * k - 1, size=200).tolist()
        inner = 0
        for i in indices:
            assert bounds[i] == math.ceil(_cdf_at(t, i - k) * 2.0**53), i
            assert bounds[i] <= bounds[i + 1], i
            assert tsgd_cutoff(t, i - k + 1) == bounds[i]
            if bounds[i - 1] < bounds[i] < bounds[i + 1]:
                inner += 1
                assert tsgd_inverse(t, [bounds[i] - 1, bounds[i]]) == [i - k, i - k + 1]
        assert inner >= 200
        assert len(bounds) < 100 * len(indices)  # the probed entries, not the 2k+1 of a table


class TestThresholdingView:
    def test_zero_count_never_clears_threshold(self):
        assert selection_prob_via_threshold(PrivacyParams(1.0, 1e-5), 0) == 0.0

    def test_exact_budget_reproduces_optimal_curve(self):
        delta = delta_for_exact_threshold(1.0, 5)
        params = PrivacyParams(1.0, delta)
        prim = OptPrimitive.from_params(params)
        for n in range(0, 2 * 5 + 3):
            assert selection_prob_via_threshold(params, n) == pytest.approx(
                pi_opt(prim, n), abs=1e-9
            )

    def test_generic_budget_never_exceeds_optimal_curve(self):
        params = PrivacyParams(1.0, 1e-5)
        prim = OptPrimitive.from_params(params)
        for n in range(0, prim.n2 + 3):
            assert selection_prob_via_threshold(params, n) <= pi_opt(prim, n) + 1e-12

    def test_reflection_symmetry_at_exact_budget(self):
        delta = delta_for_exact_threshold(1.0, 5)
        prim = OptPrimitive.from_params(PrivacyParams(1.0, delta))
        for n in range(prim.n1 + 1, prim.n2 + 1):
            assert pi_opt(prim, n) == pytest.approx(
                1.0 - pi_opt(prim, 2 * prim.n1 - 1 - n), abs=1e-12
            )


class TestMechanismPrivacy:
    @pytest.mark.parametrize(("eps", "delta"), DP_PAIRS)
    def test_singleton_outputs_respect_budget(self, eps, delta):
        # shifting the true count by one changes each singleton output mass by
        # at most e^eps, except the newly reachable point, which gets delta
        t = tsgd_params(PrivacyParams(eps, delta))
        mu = 0
        grow = math.exp(eps)
        for y in range(mu - t.k - 2, mu + t.k + 4):
            p_base = tsgd_pmf(t, y - mu)
            p_shift = tsgd_pmf(t, y - mu - 1)
            bonus_hi = delta if y == mu + t.k + 1 else 0.0
            bonus_lo = delta if y == mu - t.k else 0.0
            assert p_shift <= grow * p_base + bonus_hi + 1e-15
            assert p_base <= grow * p_shift + bonus_lo + 1e-15
