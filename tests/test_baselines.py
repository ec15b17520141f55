import math
import re
import sys
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from partsel import (
    LaplacePrimitive,
    OptPrimitive,
    PrivacyParams,
    calibrate_gaussian_sigma,
    gaussian_primitive,
    midpoint,
    percentile_n,
    pi_gaussian,
    pi_laplace,
    pi_opt,
)
from partsel import baselines
from partsel.baselines import _brentq, _log_delta_gaussian, _log_ndtr, _ndtr
from partsel.truncated_geometric import delta_for_exact_threshold

LAP_T_EPS1_DELTA1E5 = 11.819778284410283
PI_LAP_11 = 0.22026465794806713


class TestLaplace:
    def test_threshold_value(self):
        lap = LaplacePrimitive(1.0, 1e-5)
        assert lap.threshold == pytest.approx(LAP_T_EPS1_DELTA1E5, rel=1e-12)
        assert lap.threshold > 1.0

    @pytest.mark.parametrize(("eps", "delta"), [(0.05, 0.49), (1.0, 0.3), (3.0, 1e-9)])
    def test_threshold_above_one_below_half_delta(self, eps, delta):
        assert LaplacePrimitive(eps, delta).threshold > 1.0

    def test_probability_at_threshold_is_half(self):
        lap = LaplacePrimitive(0.7, 1e-4)
        assert pi_laplace(lap, lap.threshold) == pytest.approx(0.5, rel=1e-12)

    def test_spot_value(self):
        lap = LaplacePrimitive(1.0, 1e-5)
        assert pi_laplace(lap, 11) == pytest.approx(PI_LAP_11, rel=1e-12)
        assert pi_laplace(lap, 11) == pytest.approx(0.2202, abs=1e-4)

    def test_absent_partition_never_released(self):
        lap = LaplacePrimitive(1.0, 1e-5)
        assert pi_laplace(lap, 0) == 0.0

    def test_single_user_probability_equals_delta(self):
        # the threshold is placed so that a single user is released w.p. delta
        for eps, delta in ((0.1, 1e-8), (1.0, 1e-5), (2.0, 1e-3)):
            lap = LaplacePrimitive(eps, delta)
            assert pi_laplace(lap, 1) == pytest.approx(delta, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LaplacePrimitive(0.0, 1e-5)
        with pytest.raises(ValueError):
            LaplacePrimitive(1.0, 0.0)
        with pytest.raises(ValueError):
            pi_laplace(LaplacePrimitive(1.0, 1e-5), -1)

    def test_sampled_rate_matches_tail(self):
        lap = LaplacePrimitive(1.0, 1e-5)
        rng = np.random.default_rng(2)
        n = lap.threshold - 1.0
        noisy = n + rng.laplace(0.0, 1.0, 10**6)
        rate = float((noisy >= lap.threshold).mean())
        p = 0.5 * math.exp(-1.0)
        assert abs(rate - p) < 3.0 * math.sqrt(p * (1.0 - p) / 10**6)


class TestGaussian:
    def test_calibration_inverts_privacy_profile(self):
        sigma = calibrate_gaussian_sigma(1.0, 5e-6, 1.0)
        assert _log_delta_gaussian(sigma, 1.0, 1.0) == pytest.approx(math.log(5e-6), abs=1e-9)

    @pytest.mark.parametrize("kappa", [1, 3, 10])
    def test_profile_inlines_log_ndtr_exactly(self, kappa):
        # _log_delta_gaussian inlines a branch of _log_ndtr for speed; it must
        # change no bit. Epsilon is chosen so that a - b runs over [-25, 3],
        # across every branch of _log_ndtr.
        sensitivity = math.sqrt(kappa)
        for sigma in (0.05 * sensitivity, sensitivity, 20.0 * sensitivity):
            a = sensitivity / (2.0 * sigma)
            for d in np.linspace(-25.0, min(3.0, a), 2801)[:-1]:
                eps = (a - float(d)) * sigma / sensitivity
                b = eps * sigma / sensitivity
                x = _log_ndtr(a - b)
                y = eps + _log_ndtr(-a - b)
                expected = -math.inf if y >= x else x + math.log1p(-math.exp(y - x))
                assert _log_delta_gaussian(sigma, eps, sensitivity) == expected

    def test_sigma_decreases_with_looser_delta(self):
        sigmas = [calibrate_gaussian_sigma(1.0, d, 1.0) for d in (1e-8, 1e-6, 1e-4, 1e-2)]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))

    def test_sigma_scales_with_sensitivity(self):
        s1 = calibrate_gaussian_sigma(1.0, 1e-6, 1.0)
        s2 = calibrate_gaussian_sigma(1.0, 1e-6, 2.0)
        assert s2 == pytest.approx(2.0 * s1, rel=1e-9)

    def test_calibration_validation(self):
        with pytest.raises(ValueError):
            calibrate_gaussian_sigma(0.0, 1e-5, 1.0)
        with pytest.raises(ValueError):
            calibrate_gaussian_sigma(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("kappa", [1, 2, 4])
    def test_primitive_shape(self, kappa):
        prim = gaussian_primitive(PrivacyParams(1.0, 1e-5), kappa)
        assert prim.threshold > 1.0 and math.isfinite(prim.threshold)
        assert prim.sigma > 0.0
        assert prim.delta_noise + prim.delta_threshold == pytest.approx(1e-5, rel=1e-12)
        assert prim.delta_noise > 0.0 and prim.delta_threshold > 0.0

    @pytest.mark.parametrize("kappa", range(1, 8))
    def test_primitive_evaluates_each_sigma_once(self, kappa):
        # Its two calibrations and its search share one memoized profile: the
        # bracket points sqrt(kappa) * 2^j recur in both calibrations.
        with mock.patch.object(
            baselines, "_log_delta_gaussian", wraps=baselines._log_delta_gaussian
        ) as profile:
            gaussian_primitive(PrivacyParams(1.0, 1e-5), kappa)
        sigmas = [c.args[0] for c in profile.call_args_list]
        assert sigmas and len(set(sigmas)) == len(sigmas)

    @pytest.mark.parametrize("kappa", range(1, 8))
    def test_primitive_noise_delta_is_the_profile_at_its_sigma(self, budget_grid, kappa):
        # The noise share is read off the privacy profile at the returned
        # sigma, not solved for, so the mechanism spends exactly what it
        # stores, and the two shares stay within delta.
        for params in budget_grid:
            prim = gaussian_primitive(params, kappa)
            realised = math.exp(_log_delta_gaussian(prim.sigma, prim.epsilon, math.sqrt(kappa)))
            assert prim.delta_noise == realised
            assert prim.delta_noise + prim.delta_threshold <= params.effective_delta

    def test_primitive_matches_split_space_search(self):
        # The search over log sigma is the search over the log split fraction
        # under a monotone change of variable: same threshold to 1e-11
        # relative, same midpoint, over eps 0.01-10, delta 1e-30-0.1, kappa 1-10.
        ndtri = NormalDist().inv_cdf

        def split_space_primitive(params, kappa):
            eps, delta = params.effective_epsilon, params.effective_delta
            sensitivity = math.sqrt(kappa)

            def split(log_fraction):
                delta_noise = math.exp(log_fraction) * delta
                delta_threshold = delta - delta_noise
                sigma = calibrate_gaussian_sigma(eps, delta_noise, sensitivity)
                tail = -math.expm1(math.log1p(-delta_threshold) / kappa)
                return delta_noise, delta_threshold, sigma, 1.0 + sigma * -ndtri(tail)

            invphi = (math.sqrt(5.0) - 1.0) / 2.0
            a, b = math.log(1e-9), math.log1p(-1e-9)
            c1, c2 = b - invphi * (b - a), a + invphi * (b - a)
            f1, f2 = split(c1)[3], split(c2)[3]
            for _ in range(64):
                if f1 <= f2:
                    b, c2, f2 = c2, c1, f1
                    c1 = b - invphi * (b - a)
                    f1 = split(c1)[3]
                else:
                    a, c1, f1 = c1, c2, f2
                    c2 = a + invphi * (b - a)
                    f2 = split(c2)[3]
            return baselines.GaussianPrimitive(eps, *split((a + b) / 2.0), kappa)

        def gauss_midpoint(prim):
            upper = math.ceil(prim.threshold) + math.ceil(64.0 / prim.epsilon)
            return midpoint(lambda n: pi_gaussian(prim, n), upper=upper)

        for eps in np.geomspace(0.01, 10.0, 7):
            for delta in (1e-30, 1e-20, 1e-12, 1e-8, 1e-4, 0.1):
                params = PrivacyParams(float(eps), delta)
                for kappa in (1, 2, 3, 4, 5, 7, 8, 10):
                    prim = gaussian_primitive(params, kappa)
                    oracle = split_space_primitive(params, kappa)
                    assert prim.threshold == pytest.approx(oracle.threshold, rel=1e-11, abs=0.0)
                    assert gauss_midpoint(prim) == gauss_midpoint(oracle)

    @pytest.mark.parametrize("kappa", range(1, 8))
    def test_primitive_takes_one_profile_evaluation_per_step(self, kappa):
        # Two calibrations bracket the search, then each of its 66 steps
        # evaluates the profile once: about 83 evaluations, not about 408.
        with mock.patch.object(
            baselines, "_log_delta_gaussian", wraps=baselines._log_delta_gaussian
        ) as profile:
            gaussian_primitive(PrivacyParams(1.0, 1e-5), kappa)
        assert profile.call_count <= 100

    def test_curve_values(self):
        prim = gaussian_primitive(PrivacyParams(1.0, 1e-5), 1)
        assert pi_gaussian(prim, 0) == 0.0
        assert pi_gaussian(prim, prim.threshold) == pytest.approx(0.5, rel=1e-12)
        assert pi_gaussian(prim, prim.threshold + prim.sigma) == pytest.approx(0.8413, abs=1e-4)

    def test_crossing_against_budget_split(self):
        # with one contribution per user, splitting the budget wins; with four,
        # scaled Gaussian noise wins
        params = PrivacyParams(1.0, 1e-5)
        for kappa, gauss_wins in ((1, False), (4, True)):
            divided = OptPrimitive.from_params(params.split(kappa))
            opt_mid = midpoint(lambda n: pi_opt(divided, n), upper=divided.n2 + 1)
            gauss = gaussian_primitive(params, kappa)
            gauss_mid = midpoint(lambda n: pi_gaussian(gauss, n))
            assert (gauss_mid < opt_mid) == gauss_wins


class TestScipyOracle:
    """The Gaussian baseline runs on ports of scipy.special's ``log_ndtr``,
    ``ndtr`` and ``ndtri`` onto the standard library, and on an in-module
    Brent solver; scipy is the reference. The solver must reproduce
    scipy.optimize.brentq exactly, the normal functions within the stated,
    measured tolerances."""

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(-40.0, 10.0), log_q=st.floats(-300.0, math.log10(0.49)))
    def test_normal_ports_match_scipy_special(self, x, log_q):
        # Worst cases over 1.6M random draws: log_ndtr 4.3e-15 relative;
        # ndtr 1.8e-15 relative above x = -5, but 5.7e-14 below it, where
        # CPython's erfc is less accurate than Cephes'; ndtri 8 ulp.
        assert _log_ndtr(x) == pytest.approx(float(special.log_ndtr(x)), rel=1e-14, abs=0.0)
        expected = float(special.ndtr(x))
        if expected >= sys.float_info.min:
            rel = 4e-15 if x > -5.0 else 1.2e-13
            assert _ndtr(x) == pytest.approx(expected, rel=rel, abs=0.0)
        else:
            # Cephes' erfc underflows to 0 below x = -37.68; math.erfc
            # returns subnormals there. Neither is a normal float.
            assert _ndtr(x) < sys.float_info.min
        q = 10.0**log_q
        expected = float(special.ndtri(q))
        assert abs(NormalDist().inv_cdf(q) - expected) <= 16 * math.ulp(expected)

    @settings(max_examples=300, deadline=None)
    @given(
        eps=st.floats(0.01, 10.0),
        log_delta=st.floats(-30.0, -1.0),
        kappa=st.integers(1, 10),
    )
    def test_calibration_matches_scipy_brentq(self, eps, log_delta, kappa):
        with mock.patch.object(baselines, "_brentq", wraps=baselines._brentq) as solver:
            sigma = calibrate_gaussian_sigma(eps, 10.0**log_delta, math.sqrt(kappa))
        (objective, lo, hi), tolerances = solver.call_args
        assert sigma == optimize.brentq(objective, lo, hi, **tolerances)

    @settings(max_examples=300, deadline=None)
    @given(
        eps=st.floats(0.01, 10.0),
        log_delta=st.floats(-30.0, -1.0),
        lo=st.floats(0.01, 1.0),
        hi=st.floats(1.0, 100.0),
        xtol=st.sampled_from([1e-12, 1e-6, 5e-324]),
    )
    def test_brent_port_matches_scipy_on_any_bracket(self, eps, log_delta, lo, hi, xtol):
        def objective(sigma):
            return _log_delta_gaussian(sigma, eps, 1.0) - log_delta * math.log(10.0)

        assume((objective(lo) < 0.0) != (objective(hi) < 0.0))
        expected = optimize.brentq(objective, lo, hi, xtol=xtol, rtol=8.9e-16)
        assert _brentq(objective, lo, hi, xtol=xtol, rtol=8.9e-16) == expected

    @pytest.mark.parametrize(
        ("objective", "lo", "hi"),
        [
            (lambda x: 1e-300 * (x**3 - 0.2), 0.0, 1.0),
            (lambda x: 1e-200 * (math.exp(x) - 3.0), 0.0, 4.0),
            (lambda x: 1e-170 * (x * x - 2.0), 0.0, 3.0),
        ],
    )
    def test_brent_port_matches_scipy_when_a_step_divides_by_zero(self, objective, lo, hi):
        # The extrapolation's denominator underflows to 0: scipy's C code gets
        # an infinity or NaN there and bisects, where Python would raise.
        expected = optimize.brentq(objective, lo, hi, xtol=1e-12, rtol=8.9e-16)
        assert _brentq(objective, lo, hi, xtol=1e-12, rtol=8.9e-16) == expected

    def test_brent_port_raises_where_scipy_does(self):
        def nan_inside(x):
            return math.nan if 0.2 < x < 0.9 else x - 0.5

        def step(x):
            return -1.0 if x < 0.3 else 1.0

        for solve in (_brentq, optimize.brentq):
            with pytest.raises(ValueError, match="NaN"):
                solve(nan_inside, 0.0, 1.0, xtol=1e-12, rtol=8.9e-16)
            with pytest.raises(ValueError, match="different signs"):
                solve(lambda x: x + 1.0, 0.0, 1.0, xtol=1e-12, rtol=8.9e-16)
            # Brent bisects a step function, which needs ~1000 halvings here.
            with pytest.raises(RuntimeError, match="converge"):
                solve(step, -1e300, 1e300, xtol=5e-324, rtol=8.9e-16)

    @pytest.mark.parametrize("sensitivity", [1.0, math.sqrt(3.0), math.sqrt(10.0)])
    def test_profile_matches_scipy_stats(self, sensitivity):
        # Within 1e-11 relative wherever scipy's log delta is above log(5e-324)
        # (5.2e-12 measured, at eps = 0.01, where the profile cancels). Below
        # it no delta is representable, and the sides may differ (-inf
        # against finite); both must stay there.
        log_tiny = math.log(5e-324)
        for eps in (0.01, 0.1, 1.0, 3.0, 10.0):
            for sigma in np.geomspace(0.01, 1e4, 40) * sensitivity:
                a = sensitivity / (2.0 * sigma)
                b = eps * sigma / sensitivity
                x = float(special.log_ndtr(a - b))
                y = eps + float(special.log_ndtr(-a - b))
                expected = -math.inf if y >= x else x + math.log1p(-math.exp(y - x))
                got = _log_delta_gaussian(float(sigma), eps, sensitivity)
                if expected > log_tiny:
                    assert got == pytest.approx(expected, rel=1e-11, abs=0.0)
                else:
                    assert got < log_tiny

    @pytest.mark.parametrize(
        ("eps", "delta", "kappa"), [(1.0, 1e-5, 3), (0.5, 1e-12, 1), (2.0, 1e-20, 5)]
    )
    def test_threshold_and_curve_match_scipy_stats(self, eps, delta, kappa):
        # The threshold within 2 ulp (1 ulp measured at these budgets, 2 at
        # (0.01, 1e-8, 4)); the curve within 1e-14 relative (3.3e-15 measured).
        prim = gaussian_primitive(PrivacyParams(eps, delta), kappa)
        tail = -math.expm1(math.log1p(-prim.delta_threshold) / kappa)
        expected = 1.0 + prim.sigma * -float(special.ndtri(tail))
        assert abs(prim.threshold - expected) <= 2 * math.ulp(expected)
        for n in range(1, math.ceil(prim.threshold + 8.0 * prim.sigma)):
            z = (prim.threshold - n) / prim.sigma
            assert pi_gaussian(prim, n) == pytest.approx(float(special.ndtr(-z)), rel=1e-14, abs=0.0)


class TestSummaries:
    def test_midpoint_of_laplace(self):
        lap = LaplacePrimitive(1.0, 1e-5)
        assert midpoint(lambda n: pi_laplace(lap, n)) == 12

    def test_midpoint_at_exact_truncation_budget(self):
        delta = delta_for_exact_threshold(1.0, 5)
        prim = OptPrimitive.from_params(PrivacyParams(1.0, delta))
        assert midpoint(lambda n: pi_opt(prim, n), upper=prim.n2 + 1) == prim.n1 == 6

    def test_constant_one_past_saturation(self):
        cutoff = 50
        step = lambda n: 1.0 if n > cutoff else 0.0
        assert midpoint(step) == cutoff + 1

    def test_midpoint_within_saturation_bound(self, budget_grid):
        for params in budget_grid:
            prim = OptPrimitive.from_params(params)
            assert midpoint(lambda n: pi_opt(prim, n), upper=prim.n2 + 1) <= prim.n2

    def test_quantile_zero_is_first_count(self):
        lap = LaplacePrimitive(1.0, 1e-5)
        assert percentile_n(lambda n: pi_laplace(lap, n), 0.0) == 1

    def test_median_quantile_equals_midpoint(self):
        prim = OptPrimitive.from_params(PrivacyParams(0.3, 1e-6))
        pi = lambda n: pi_opt(prim, n)
        assert percentile_n(pi, 0.5, upper=prim.n2 + 1) == midpoint(pi, upper=prim.n2 + 1)

    def test_quantiles_bracket_midpoint(self):
        prim = OptPrimitive.from_params(PrivacyParams(0.1, 1e-10))
        pi = lambda n: pi_opt(prim, n)
        lo, mid, hi = (percentile_n(pi, q, upper=prim.n2 + 1) for q in (0.05, 0.5, 0.95))
        assert 1 <= lo <= mid <= hi <= prim.n2 + 1

    def test_unreachable_quantile_raises(self):
        with pytest.raises(ValueError):
            percentile_n(lambda n: 0.3, 0.9, upper=128)

    def test_unreachable_quantile_without_upper_stops_at_the_bound(self):
        # The doubling reaches the bound 2^62 and checks it before bisecting:
        # pi(1), 61 doublings and the bound, 63 evaluations in all.
        counted = []
        pi = lambda n: counted.append(n) or 0.3
        with pytest.raises(ValueError, match=re.escape(f"within the search bound {2**62}") + "$"):
            percentile_n(pi, 0.9)
        assert len(counted) == 63

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, 1e-9, 0.05, 0.3, 0.5, 0.5, 0.95, 1.0]), min_size=1, max_size=300
        ).map(sorted),
        q=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]) | st.floats(0.0, 1.0),
    )
    def test_bounded_search_agrees_with_doubling_and_scan(self, values, q):
        # A nondecreasing step function on [1, U], and 1 past U.
        upper = len(values)
        pi = lambda n: values[n - 1] if n <= upper else 1.0
        scan = next((n for n in range(1, upper + 1) if pi(n) >= q), None)
        if scan is None:
            message = f"pi never reaches {q} within the search bound {upper}"
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                percentile_n(pi, q, upper=upper)
            assert percentile_n(pi, q) == upper + 1
        else:
            assert percentile_n(pi, q, upper=upper) == scan
            assert percentile_n(pi, q) == scan

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile_n(lambda n: 1.0, 1.5)
        with pytest.raises(ValueError):
            percentile_n(lambda n: 1.0, 0.5, upper=0)


class TestStrategyComparison:
    @pytest.mark.parametrize(("eps", "delta"), [(1.0, 1e-5), (0.1, 1e-10)])
    def test_optimal_dominates_laplace(self, eps, delta):
        params = PrivacyParams(eps, delta)
        prim = OptPrimitive.from_params(params)
        lap = LaplacePrimitive.from_params(params)
        top = max(prim.n2 + 10, math.ceil(lap.threshold) + 10)
        for n in range(0, top):
            assert pi_opt(prim, n) >= pi_laplace(lap, n) - 1e-12

    def test_midpoint_gap_grows_as_budget_shrinks(self):
        def gap(eps):
            params = PrivacyParams(eps, 1e-5)
            prim = OptPrimitive.from_params(params)
            lap = LaplacePrimitive.from_params(params)
            return midpoint(lambda n: pi_laplace(lap, n)) - midpoint(
                lambda n: pi_opt(prim, n), upper=prim.n2 + 1
            )

        assert gap(0.1) > gap(1.0)

    @pytest.mark.parametrize("eps", [0.1, 1.0])
    def test_midpoint_gap_constant_in_delta(self, eps):
        gaps = []
        for delta in np.geomspace(1e-12, 1e-3, 10):
            params = PrivacyParams(eps, float(delta))
            prim = OptPrimitive.from_params(params)
            lap = LaplacePrimitive.from_params(params)
            gaps.append(
                midpoint(lambda n: pi_laplace(lap, n))
                - midpoint(lambda n: pi_opt(prim, n), upper=prim.n2 + 1)
            )
        assert max(gaps) - min(gaps) <= 1
