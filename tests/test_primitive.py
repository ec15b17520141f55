import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from partsel import (
    Neighboring,
    OptPrimitive,
    PrivacyParams,
    compute_n1,
    compute_n2,
    expected_output_size,
    pi_opt,
    pi_opt_many,
    pi_opt_recursive,
    pi_opt_recursive_sequence,
)
from partsel.primitive import _exp, _expm1, _snap, keep_threshold
from partsel.truncated_geometric import delta_for_exact_threshold

# Spot values computed with the recurrence oracle at these budgets.
PI_11_EPS1_DELTA1E5 = 0.3484477384533131
N1_EPS1_DELTA1E5 = 11
N2_EPS1_DELTA1E5 = 22
N1_EPS01_DELTA1E10 = 201


def _prim(eps, delta, neighboring=Neighboring.ADD_REMOVE):
    return OptPrimitive.from_params(PrivacyParams(eps, delta, neighboring))


class TestCrossovers:
    def test_first_crossover_spot_values(self):
        assert compute_n1(PrivacyParams(1.0, 1e-5)) == N1_EPS1_DELTA1E5
        assert compute_n1(PrivacyParams(0.1, 1e-10)) == N1_EPS01_DELTA1E10

    @pytest.mark.parametrize("eps", [0.3, 1.0, 4.0])
    def test_delta_one_collapses_first_crossover(self, eps):
        # the log argument is exactly 1, so the crossover sits at the first count
        assert compute_n1(PrivacyParams(eps, 1.0)) == 1

    def test_rejects_degenerate_budgets(self):
        with pytest.raises(ValueError):
            compute_n1(PrivacyParams(0.0, 1e-5))
        with pytest.raises(ValueError):
            compute_n1(PrivacyParams(1.0, 0.0))
        with pytest.raises(ValueError):
            compute_n2(PrivacyParams(0.0, 1e-5), 1, 0.5)

    def test_second_crossover_at_exact_truncation_budget(self):
        # when the noise bound lands exactly on k, the second crossover is 2k+1
        k = 5
        delta = delta_for_exact_threshold(1.0, k)
        prim = _prim(1.0, delta)
        assert prim.n1 == k + 1
        assert prim.n2 == 2 * k + 1

    def test_crossover_ordering(self, budget_grid):
        for params in budget_grid:
            prim = OptPrimitive.from_params(params)
            assert 0 < prim.n1 <= prim.n2

    def test_from_params_builds_the_public_crossovers(self, budget_grid):
        # from_params runs the bodies of compute_n1 and compute_n2 on one
        # read of the budget; it must build exactly what they give.
        for params in budget_grid:
            for neighboring in Neighboring:
                p = dataclasses.replace(params, neighboring=neighboring)
                eps, delta = p.effective_epsilon, p.effective_delta
                n1 = compute_n1(p)
                pi_n1 = min(1.0, delta * math.expm1(n1 * eps) / math.expm1(eps))
                assert OptPrimitive.from_params(p) == OptPrimitive(p, n1, compute_n2(p, n1, pi_n1), pi_n1)

    def test_snap_equals_its_plain_expression(self):
        # _snap skips math.ulp for values far from an integer; that must not
        # change what it returns.
        def reference(x):
            r = float(round(x))
            if abs(x - r) <= max(1e-12, 8.0 * math.ulp(max(1.0, abs(x)))):
                return r
            return x

        values = [1e15, 1e15 + 0.5, 1e15 + 1.0, 2.0**53 + 2.0, 1e16, 1e300, 0.5, 2.5]
        for base in (0.0, 1.0, 3.0, 1e3, 2.0**20, 1e6 + 1.0, 1e9, 1e12, 1e15):
            ulp = math.ulp(max(1.0, base))
            for gap in (1e-12, 7.0 * ulp, 8.0 * ulp, 9.0 * ulp, 0.3):
                for near in (base + gap, base - gap):
                    values += [near, math.nextafter(near, math.inf), math.nextafter(near, -math.inf)]
        for x in values + [-x for x in values]:
            assert _snap(x).hex() == reference(x).hex(), x

    def test_crossovers_match_recursive_branch_switch(self):
        # the first crossover is the last count still explained by the
        # geometric-growth form; the recursion saturates right after n2
        for params in (PrivacyParams(1.0, 1e-5), PrivacyParams(0.1, 1e-10)):
            prim = OptPrimitive.from_params(params)
            eps, delta = params.effective_epsilon, params.effective_delta
            seq = pi_opt_recursive_sequence(params, prim.n2 + 3)
            growth = lambda n: delta * math.expm1(n * eps) / math.expm1(eps)
            assert all(abs(seq[n] - growth(n)) <= 1e-9 for n in range(prim.n1 + 1))
            assert abs(seq[prim.n1 + 1] - growth(prim.n1 + 1)) > 1e-9
            assert seq[prim.n2] < 1.0
            assert seq[prim.n2 + 1] == 1.0


class TestClosedForm:
    def test_zero_count_never_released(self, budget_grid):
        for params in budget_grid:
            assert pi_opt(OptPrimitive.from_params(params), 0) == 0.0

    def test_single_user_probability_is_delta(self):
        assert pi_opt(_prim(1.0, 1e-5), 1) == pytest.approx(1e-5, rel=1e-12)
        # replace-model budgets are halved before use
        prim = _prim(1.0, 2e-5, Neighboring.REPLACE)
        assert pi_opt(prim, 1) == pytest.approx(1e-5, rel=1e-12)

    def test_spot_value_at_first_crossover(self):
        assert pi_opt(_prim(1.0, 1e-5), 11) == pytest.approx(PI_11_EPS1_DELTA1E5, abs=1e-12)
        assert pi_opt(_prim(1.0, 1e-5), 11) == pytest.approx(0.34845, abs=1e-5)

    def test_delta_zero_is_identically_zero(self):
        prim = _prim(1.0, 0.0)
        assert all(pi_opt(prim, n) == 0.0 for n in range(200))

    def test_eps_zero_is_linear_in_count(self):
        prim = _prim(0.0, 0.1)
        for n in range(0, 25):
            assert pi_opt(prim, n) == min(1.0, n * 0.1)
        assert pi_opt(prim, 7) == pytest.approx(0.7, rel=1e-12)

    def test_both_zero_is_identically_zero(self):
        prim = _prim(0.0, 0.0)
        assert all(pi_opt(prim, n) == 0.0 for n in range(50))

    def test_saturates_exactly_past_second_crossover(self, budget_grid):
        for params in budget_grid:
            prim = OptPrimitive.from_params(params)
            assert all(pi_opt(prim, prim.n2 + j) == 1.0 for j in range(1, 6))

    def test_monotone_nondecreasing(self, budget_grid):
        for params in budget_grid:
            prim = OptPrimitive.from_params(params)
            probs = pi_opt_many(prim, np.arange(prim.n2 + 6))
            assert np.all(np.diff(probs) >= 0.0)

    def test_step_lower_bound(self, budget_grid):
        # increments up to saturation are at least e^-eps * delta
        for params in budget_grid:
            prim = OptPrimitive.from_params(params)
            eps, delta = params.effective_epsilon, params.effective_delta
            probs = pi_opt_many(prim, np.arange(prim.n2 + 1))
            floor = math.exp(-eps) * delta
            assert np.all(np.diff(probs) >= floor - 1e-12)

    def test_vectorized_matches_scalar(self):
        prim = _prim(0.5, 1e-7)
        ns = np.arange(prim.n2 + 4)
        assert pi_opt_many(prim, ns).tolist() == [pi_opt(prim, int(n)) for n in ns]

    def test_direct_construction_keeps_the_four_fields(self, budget_grid):
        # pi_opt reads constants that the primitive derives from its params.
        # One built from the four fields must evaluate as from_params does,
        # and repr, == and hash must see those four fields only.
        extremes = [PrivacyParams(0.0, 1e-5), PrivacyParams(1.0, 0.0), PrivacyParams(800.0, 1e-5)]
        for params in [*budget_grid, *extremes]:
            ref = OptPrimitive.from_params(params)
            prim = OptPrimitive(params=params, n1=ref.n1, n2=ref.n2, pi_n1=ref.pi_n1)
            ns = range(ref.n2 + 4)
            assert [pi_opt(prim, n) for n in ns] == [pi_opt(ref, n) for n in ns]
            assert prim == ref and hash(prim) == hash(ref)
            assert dataclasses.replace(prim, n2=prim.n2 + 1) != ref
            assert repr(prim) == (
                f"OptPrimitive(params={params!r}, n1={ref.n1}, n2={ref.n2}, pi_n1={ref.pi_n1!r})"
            )
        assert [f.name for f in dataclasses.fields(OptPrimitive)] == ["params", "n1", "n2", "pi_n1"]

    def test_negative_count_rejected(self):
        prim = _prim(1.0, 1e-5)
        with pytest.raises(ValueError):
            pi_opt(prim, -1)
        with pytest.raises(ValueError):
            pi_opt_many(prim, [3, -2])

    def test_huge_crossovers_evaluate_in_closed_form(self):
        # tiny budgets push the crossovers past 1e9 but evaluation stays O(1)
        prim = _prim(1e-9, 1e-10)
        assert prim.n2 > 10**9
        assert 0.0 < pi_opt(prim, prim.n1) < 1.0
        assert pi_opt(prim, prim.n2 + 1) == 1.0

    def test_overflowing_epsilon_stays_finite(self):
        # e^eps overflows binary64 past ~709; the curve must not go nan
        prim = _prim(800.0, 1e-5)
        assert prim.n1 == 1
        assert pi_opt(prim, 0) == 0.0
        assert pi_opt(prim, 1) == pytest.approx(1e-5, rel=1e-12)
        assert pi_opt(prim, prim.n2 + 1) == 1.0
        probs = pi_opt_many(prim, np.arange(prim.n2 + 3))
        assert not np.any(np.isnan(probs))
        assert probs[0] == 0.0 and probs[1] == pytest.approx(1e-5, rel=1e-12)

    def test_clamps_equal_min(self, budget_grid):
        # Both branches clamp with a comparison, not min(); the values must
        # equal the min() expressions bit for bit. eps 710 and 800 make e^eps
        # overflow, so the growth branch works in logs there.
        extremes = [(710.0, 5e-324), (800.0, 1e-5)]
        for params in [*budget_grid, *(PrivacyParams(e, d) for e, d in extremes)]:
            prim = OptPrimitive.from_params(params)
            eps, delta = params.effective_epsilon, params.effective_delta
            em1 = _expm1(eps)
            for n in range(1, prim.n1 + 1):
                if math.isinf(em1):
                    expected = min(1.0, _exp(math.log(delta) + (n - 1.0) * eps))
                else:
                    expected = min(1.0, delta * _expm1(n * eps) / em1)
                assert pi_opt(prim, n) == expected
            for m in range(1, prim.n2 - prim.n1 + 1):
                grown = -math.expm1(-m * eps) * (1.0 + delta / em1)
                expected = min(1.0, grown + math.exp(-m * eps) * prim.pi_n1)
                assert pi_opt(prim, prim.n1 + m) == expected
        assert _prim(710.0, 5e-324).n1 == 2 and math.isinf(_expm1(710.0))

    def test_subnormal_delta_crossover(self):
        # the log argument overflows for delta near the subnormal range;
        # exponent = ln((e-1)/(e+1)) + 310*ln(10) = 713.03
        assert compute_n1(PrivacyParams(1.0, 1e-310)) == 714


class TestRecurrence:
    def test_base_and_one_step(self):
        params = PrivacyParams(1.0, 1e-5)
        assert pi_opt_recursive(params, 0) == 0.0
        assert pi_opt_recursive(params, 2) == pytest.approx((math.e + 1.0) * 1e-5, rel=1e-12)

    def test_saturates_after_second_crossover(self):
        params = PrivacyParams(1.0, 1e-5)
        prim = OptPrimitive.from_params(params)
        assert pi_opt_recursive(params, prim.n2 + 1) == 1.0

    def test_refuses_oversized_counts(self):
        with pytest.raises(ValueError):
            pi_opt_recursive(PrivacyParams(1.0, 1e-5), 10**7 + 1)

    @settings(max_examples=25, deadline=None)
    @given(
        eps=st.floats(min_value=0.02, max_value=6.0),
        log_delta=st.floats(min_value=-12.0, max_value=-0.05),
    )
    def test_closed_form_matches_recurrence(self, eps, log_delta):
        params = PrivacyParams(eps, 10.0**log_delta)
        prim = OptPrimitive.from_params(params)
        assume(prim.n2 <= 20_000)
        seq = pi_opt_recursive_sequence(params, prim.n2 + 5)
        closed = pi_opt_many(prim, np.arange(prim.n2 + 6))
        assert float(np.max(np.abs(closed - np.asarray(seq)))) <= 1e-9


class TestKeepDecisions:
    def test_integer_thresholds_stay_within_budget(self, budget_grid):
        # Exact arithmetic on the realised probabilities T(n) / 2^53: one user
        # is kept with at most delta, and every count past n2 is always kept.
        epsilons = sorted({p.epsilon for p in budget_grid})
        tiny = [PrivacyParams(eps, d) for eps in epsilons for d in (1e-17, 1e-30)]
        for params in budget_grid + tiny:
            prim = OptPrimitive.from_params(params)
            thresholds = [keep_threshold(prim, n) for n in range(prim.n2 + 6)]
            assert thresholds[0] == 0
            assert Fraction(thresholds[1], 2**53) <= Fraction(params.effective_delta), params
            assert thresholds[prim.n2 + 1 :] == [2**53] * 5, params


class TestExpectedOutputSize:
    def test_empty_histogram(self):
        assert expected_output_size({}, _prim(1.0, 1e-5)) == 0.0

    def test_two_single_user_partitions(self):
        prim = _prim(1.0, 1e-5)
        assert expected_output_size({"a": 1, "b": 1}, prim) == pytest.approx(2e-5, rel=1e-12)

    def test_saturated_partitions(self):
        prim = _prim(1.0, 1e-5)
        hist = {"a": prim.n2 + 1, "b": prim.n2 + 5}
        assert expected_output_size(hist, prim) == 2.0

    def test_accepts_real_histogram(self):
        from partsel import ingest

        prim = _prim(1.0, 1e-5)
        hist = ingest([("u1", "a"), ("u2", "a"), ("u3", "b")])
        expected = pi_opt(prim, 2) + pi_opt(prim, 1)
        assert expected_output_size(hist, prim) == pytest.approx(expected, rel=1e-12)
