"""Reference oracles the tests check the package against.

The O(n) recurrence that the closed-form keep probability is derived from,
the truncated-geometric pmf and its mass at the bound k, the keep probability
of thresholding a noisy count, and the budgets at which that thresholding is
exact. No command or pipeline function calls them, so they live here rather
than in ``partsel``.
"""

from __future__ import annotations

import math

from partsel.params import PrivacyParams
from partsel.truncated_geometric import TsgdParams, tsgd_params, tsgd_tail

# The recurrence is a test oracle, not a production path; refuse silly sizes.
RECURSION_LIMIT = 10**7


def pi_opt_recursive(params: PrivacyParams, n: int) -> float:
    """O(n) reference recurrence for the keep probability (test oracle).

    pi(0) = 0 and pi(n+1) is the largest value the neighboring-database
    inequalities allow given pi(n): min(e^eps*pi(n) + delta,
    1 - e^-eps*(1 - pi(n) - delta), 1).
    """
    return pi_opt_recursive_sequence(params, n)[-1]


def pi_opt_recursive_sequence(params: PrivacyParams, n_max: int) -> list[float]:
    """All recurrence values pi(0..n_max) in one pass."""
    if n_max < 0:
        raise ValueError(f"count must be >= 0, got {n_max}")
    if n_max > RECURSION_LIMIT:
        raise ValueError(f"recursive oracle refuses n > {RECURSION_LIMIT}")
    eps, delta = params.effective_epsilon, params.effective_delta
    if eps > 709.0:
        raise ValueError(f"epsilon {eps} exceeds the oracle's float range")
    e_pos, e_neg = math.exp(eps), math.exp(-eps)
    pi = 0.0
    out = [0.0]
    for _ in range(n_max):
        pi = min(e_pos * pi + delta, 1.0 - e_neg * (1.0 - pi - delta), 1.0)
        out.append(pi)
    return out


def delta_for_exact_threshold(epsilon: float, k: int) -> float:
    """The delta at which the truncation bound for ``epsilon`` is exactly ``k``.

    At such budgets, thresholding the noisy count reproduces the optimal
    primitive with no slack.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if (k + 1) * epsilon > 700.0:
        # e^(k*eps) would overflow; (e^eps - 1)/(e^eps + 1) is safe in logs
        half = math.exp(-epsilon)
        return math.exp(math.log1p(-2.0 * half / (1.0 + half)) - k * epsilon)
    denom = math.exp(k * epsilon) * (math.exp(epsilon) + 1.0) - 2.0
    return math.expm1(epsilon) / denom


def tsgd_pmf(t: TsgdParams, x: int) -> float:
    """P(X = x): c * (1-p)^|x| on [-k, k], zero outside."""
    if abs(x) > t.k:
        return 0.0
    return t.c * (1.0 - t.p) ** abs(x)


def delta_effective(t: TsgdParams) -> float:
    """P(X = k) under the pmf: the delta left spent once k is rounded up to an integer.

    This is the real-valued pmf's mass, not what sampling realises: the realised
    P(X = k) is set by the top integer CDF bound, which is capped at ``t.delta``.
    """
    return tsgd_pmf(t, t.k)


def selection_prob_via_threshold(params: PrivacyParams, n: int) -> float:
    """Keep probability realized by noising count ``n`` and thresholding at k."""
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    t = tsgd_params(params)
    return tsgd_tail(t, n, t.k + 1)
