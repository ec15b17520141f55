"""Optimal partition selection primitive.

The keep probability for a partition with ``n`` unique users follows a
three-piece closed form: geometric growth up to a first crossover count
``n1``, exponential approach to one up to a second crossover ``n2``, and
exactly one beyond that. The O(n) recurrence the pieces are derived from is
not part of the package: it is the tests' reference oracle, in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .params import ConfigurationError, PrivacyParams, _Record, _set

if TYPE_CHECKING:
    import numpy as np


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


def _floor_count(x: float, eps: float, delta: float) -> int:
    """``floor(_snap(x))`` for a crossover term ``x`` of the budget (eps, delta).

    Both epsilon and delta at or below about 1e-308 put an infinite term in
    binary64, which has no count; that budget is refused.
    """
    if math.isinf(x):
        raise ConfigurationError(
            f"effective budget (epsilon {eps}, delta {delta}) too small: the crossover "
            "counts of the optimal primitive overflow binary64"
        )
    return math.floor(_snap(x))


def _n1(eps: float, delta: float) -> int:
    """First crossover: the last count whose keep probability still grows geometrically.

    For a positive budget (0 < eps, 0 < delta <= 1), as :class:`OptPrimitive` derives it.
    """
    return 1 + _floor_count(crossover_exponent(eps, delta), eps, delta)


def _n2(eps: float, delta: float, em1: float, n1: int, pi_n1: float) -> int:
    """Second crossover: the last count before the keep probability saturates at 1.

    For a positive budget, from the first crossover ``n1`` and its value
    ``pi_n1``; ``em1`` is ``_expm1(eps)``.
    """
    if pi_n1 >= 1.0:
        return n1
    ratio = em1 / delta
    if math.isinf(ratio):
        # ratio overflowed, so the +1 inside log1p is negligible anyway
        log_em1 = eps + math.log1p(-math.exp(-eps)) if math.isinf(em1) else math.log(em1)
        grow = (log_em1 - math.log(delta) + math.log1p(-pi_n1)) / eps
    else:
        grow = math.log1p(ratio * (1.0 - pi_n1)) / eps
    return n1 + _floor_count(grow, eps, delta)


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


class OptPrimitive(_Record):
    """The optimal primitive of a budget, with its crossovers precomputed for O(1) evaluation.

    Built from ``params`` alone: ``n1``, ``n2`` and ``pi_n1`` follow from the
    budget and cannot be set. They are meaningful only for a positive budget
    (effective epsilon > 0 and delta > 0); the degenerate budgets
    short-circuit inside :func:`pi_opt` and store zeros here. A budget whose
    crossovers binary64 cannot hold raises :class:`ConfigurationError`.
    """

    _args = ("params",)
    _fields = (*_args, "n1", "n2", "pi_n1")
    __slots__ = (*_fields, "_eps", "_delta", "_em1")

    def __init__(self, params: PrivacyParams) -> None:
        # One read of the budget gives the three fields and the constants that
        # pi_opt reads on every evaluation. The constants are not fields, so
        # repr, == and hash see only the four fields above.
        eps, delta = params.effective_epsilon, params.effective_delta
        em1 = _expm1(eps)
        n1 = n2 = 0
        pi_n1 = 0.0
        if delta and eps:
            n1 = _n1(eps, delta)
            pi_n1 = _growth_value(eps, delta, em1, n1)
            n2 = _n2(eps, delta, em1, n1, pi_n1)
        _set(self, "params", params)
        _set(self, "n1", n1)
        _set(self, "n2", n2)
        _set(self, "pi_n1", pi_n1)
        _set(self, "_eps", eps)
        _set(self, "_delta", delta)
        _set(self, "_em1", em1)

    @classmethod
    def from_params(cls, params: PrivacyParams) -> OptPrimitive:
        """The primitive of ``params``: the same as ``OptPrimitive(params)``."""
        return cls(params)


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
    """:func:`pi_opt` over an array of counts, evaluated once per distinct count.

    Needs numpy, which the package does not declare as a dependency.
    """
    import numpy as np

    ns = np.asarray(ns)
    distinct, index = np.unique(ns, return_inverse=True)
    probs = np.array([pi_opt(prim, n) for n in distinct.tolist()], dtype=np.float64)
    return probs[index].reshape(ns.shape)


GRID_BITS = 53
GRID = 1 << GRID_BITS  # each decision draws one uniform integer in [0, GRID)


def keep_threshold(prim: OptPrimitive, n: int) -> int:
    """Integer keep threshold T(n) = floor(pi(n) * 2^53) for a count ``n``.

    A partition whose 53-bit uniform integer ``u`` satisfies ``u < T(n)`` is
    kept, so the realised keep probability T(n) / 2^53 is ``pi(n)`` rounded
    down to the 2^-53 grid and never exceeds it.
    """
    return math.floor(pi_opt(prim, n) * GRID)
