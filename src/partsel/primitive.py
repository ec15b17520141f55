"""Optimal partition selection primitive.

The keep probability for a partition with ``n`` unique users follows a
three-piece closed form: geometric growth up to a first crossover count
``n1``, exponential approach to one up to a second crossover ``n2``, and
exactly one beyond that. The O(n) recurrence the pieces are derived from is
kept as a reference oracle for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .params import PrivacyParams

if TYPE_CHECKING:
    import numpy as np

# The recurrence is a test oracle, not a production path; refuse silly sizes.
RECURSION_LIMIT = 10**7


def _exp(x: float) -> float:
    """math.exp that overflows to inf instead of raising."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _expm1(x: float) -> float:
    """math.expm1 that overflows to inf instead of raising."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def _snap(x: float) -> float:
    """Snap ``x`` to the nearest integer when it is within float error of one.

    The crossover formulas floor/ceil expressions that land exactly on
    integers for specially chosen budgets; a few ulps of rounding noise must
    not push the result across the integer boundary.
    """
    r = float(round(x))
    gap = abs(x - r)
    # 8 ulps of max(1, |x|) are at most |x| * 2^-49 when |x| >= 1, and below
    # 1e-12 otherwise, so a gap above both bounds is rejected without math.ulp.
    if gap <= 1e-12 or (gap <= abs(x) * 2.0**-49 and gap <= 8.0 * math.ulp(abs(x))):
        return r
    return x


def crossover_exponent(epsilon: float, delta: float) -> float:
    """(1/eps) * ln((e^eps + 2*delta - 1) / ((e^eps + 1) * delta)).

    Written with expm1/log1p so the small-epsilon regime keeps full
    precision. Nonnegative for delta <= 1, and zero exactly at delta = 1.
    """
    em1 = _expm1(epsilon)
    if math.isinf(em1):
        # e^eps dwarfs every other term in the ratio (correction ~ e^-eps)
        return -math.log(delta) / epsilon
    arg = em1 * (1.0 - delta) / ((em1 + 2.0) * delta)
    if math.isinf(arg):
        return (math.log(em1 / (em1 + 2.0)) + math.log1p(-delta) - math.log(delta)) / epsilon
    return math.log1p(arg) / epsilon


def _check_crossover_budget(epsilon: float, delta: float) -> None:
    if epsilon <= 0.0:
        raise ValueError("effective epsilon must be > 0; the eps=0 budget has no crossover points")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"effective delta must be in (0, 1], got {delta}")


def compute_n1(params: PrivacyParams) -> int:
    """First crossover: the last count whose keep probability still grows geometrically."""
    eps, delta = params.effective_epsilon, params.effective_delta
    _check_crossover_budget(eps, delta)
    return _n1(eps, delta)


def compute_n2(params: PrivacyParams, n1: int, pi_n1: float) -> int:
    """Second crossover: the last count before the keep probability saturates at 1."""
    eps, delta = params.effective_epsilon, params.effective_delta
    _check_crossover_budget(eps, delta)
    return _n2(eps, delta, _expm1(eps), n1, pi_n1)


def _n1(eps: float, delta: float) -> int:
    """:func:`compute_n1` on a checked budget."""
    return 1 + math.floor(_snap(crossover_exponent(eps, delta)))


def _n2(eps: float, delta: float, em1: float, n1: int, pi_n1: float) -> int:
    """:func:`compute_n2` on a checked budget; ``em1`` is ``_expm1(eps)``."""
    if pi_n1 >= 1.0:
        return n1
    ratio = em1 / delta
    if math.isinf(ratio):
        # ratio overflowed, so the +1 inside log1p is negligible anyway
        log_em1 = eps + math.log1p(-math.exp(-eps)) if math.isinf(em1) else math.log(em1)
        grow = (log_em1 - math.log(delta) + math.log1p(-pi_n1)) / eps
    else:
        grow = math.log1p(ratio * (1.0 - pi_n1)) / eps
    return n1 + math.floor(_snap(grow))


def _growth_value(eps: float, delta: float, em1: float, n: float) -> float:
    """First-branch value delta * (e^(n*eps) - 1) / (e^eps - 1), clamped to 1.

    ``em1`` is ``_expm1(eps)``, which callers compute once per budget.
    """
    if math.isinf(em1):
        # work in logs once e^eps overflows; exact at n = 1 where the value is delta
        value = _exp(math.log(delta) + (n - 1.0) * eps)
    else:
        value = delta * _expm1(n * eps) / em1
    return value if value < 1.0 else 1.0  # min(1.0, value), NaN included, without the call


@dataclass(frozen=True)
class OptPrimitive:
    """Precomputed crossover state for O(1) evaluation of the keep probability.

    ``n1``, ``n2`` and ``pi_n1`` are meaningful only for a positive budget
    (effective epsilon > 0 and delta > 0); the degenerate budgets
    short-circuit inside :func:`pi_opt` and store zeros here.
    """

    params: PrivacyParams
    n1: int
    n2: int
    pi_n1: float

    def __post_init__(self) -> None:
        # Constants of the budget that pi_opt reads on every evaluation. They
        # are plain attributes, not fields, so the constructor, repr, == and
        # hash see only the four fields above.
        eps = self.params.effective_epsilon
        object.__setattr__(self, "_eps", eps)
        object.__setattr__(self, "_delta", self.params.effective_delta)
        object.__setattr__(self, "_em1", _expm1(eps))

    @classmethod
    def from_params(cls, params: PrivacyParams) -> OptPrimitive:
        eps, delta = params.effective_epsilon, params.effective_delta
        if delta == 0.0 or eps == 0.0:
            return cls(params=params, n1=0, n2=0, pi_n1=0.0)
        _check_crossover_budget(eps, delta)
        em1 = _expm1(eps)
        n1 = _n1(eps, delta)
        pi_n1 = _growth_value(eps, delta, em1, n1)
        return cls(params=params, n1=n1, n2=_n2(eps, delta, em1, n1, pi_n1), pi_n1=pi_n1)


def pi_opt(prim: OptPrimitive, n: int) -> float:
    """Probability of keeping a partition with ``n`` unique users."""
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    eps = prim._eps
    delta = prim._delta
    if n == 0 or delta == 0.0:
        return 0.0
    if eps == 0.0:
        return min(1.0, n * delta)
    if n <= prim.n1:
        return _growth_value(eps, delta, prim._em1, n)
    if n <= prim.n2:
        m = n - prim.n1
        grown = -math.expm1(-m * eps) * (1.0 + delta / prim._em1)
        value = grown + math.exp(-m * eps) * prim.pi_n1
        return value if value < 1.0 else 1.0
    return 1.0


def pi_opt_many(prim: OptPrimitive, ns) -> np.ndarray:
    """:func:`pi_opt` over an array of counts, evaluated once per distinct count."""
    import numpy as np

    ns = np.asarray(ns)
    distinct, index = np.unique(ns, return_inverse=True)
    probs = np.array([pi_opt(prim, n) for n in distinct.tolist()], dtype=np.float64)
    return probs[index].reshape(ns.shape)


def keep_threshold(prim: OptPrimitive, n: int) -> int:
    """Integer keep threshold T(n) = floor(pi(n) * 2^53) for a count ``n``.

    A partition whose 53-bit uniform integer ``u`` satisfies ``u < T(n)`` is
    kept, so the realised keep probability T(n) / 2^53 is ``pi(n)`` rounded
    down to the 2^-53 grid and never exceeds it.
    """
    return math.floor(pi_opt(prim, n) * 2.0**53)


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


def expected_output_size(hist, prim: OptPrimitive) -> float:
    """Expected number of released partitions: the sum of keep probabilities.

    ``hist`` may be a :class:`~partsel.pipeline.PartitionHistogram` or any
    mapping from partition key to count.
    """
    counts = hist.counts() if hasattr(hist, "counts") else hist
    return float(sum(pi_opt(prim, n) for n in counts.values()))
