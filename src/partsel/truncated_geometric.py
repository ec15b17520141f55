"""Two-sided geometric noise conditioned on [-k, k], and count thresholding with it.

Adding this noise to a sensitivity-1 integer count and releasing the count
only when the noisy value exceeds k reproduces the optimal selection
primitive exactly whenever the budget makes the truncation bound an integer;
otherwise the integer ceiling spends slightly less delta and the release
probability is marginally lower.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import TYPE_CHECKING, Iterable

from .params import ConfigurationError, PrivacyParams, _Record, _set, is_int
from .primitive import GRID, _snap, crossover_exponent

if TYPE_CHECKING:
    import numpy as np


class TsgdParams(_Record):
    """Success probability ``p`` and truncation bound ``k``; ``c`` normalizes the pmf.

    ``delta`` caps the realised probability of the outcome +k, the only one a
    count of one user can be released on: :func:`tsgd_params` sets it to the
    budget's effective delta, and the default 1 caps nothing.
    """

    _args = ("p", "k", "delta")
    _fields = (*_args, "c")
    __slots__ = (*_fields, "_bounds")

    def __init__(self, p: float, k: int, delta: float = 1.0) -> None:
        if not 0.0 < 1.0 - p < 1.0:  # 1 - p == 1 would zero the normaliser
            raise ValueError(f"p must be in (0, 1) with 1 - p < 1 in binary64, got {p}")
        if not is_int(k) or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {delta}")
        q = 1.0 - p
        _set(self, "p", p)
        _set(self, "k", k)
        _set(self, "delta", delta)
        _set(self, "c", p / (1.0 + q - 2.0 * q ** (k + 1)))
        _set(self, "_bounds", _Bounds(self))

    @property
    def eps(self) -> float:
        """The epsilon this noise corresponds to: p = 1 - e^-eps."""
        return -math.log1p(-self.p)


class _Bounds(dict):
    """The integer CDF bounds B[i] = ceil(cdf(i - k) * 2^53) for i in [0, 2k].

    For a 53-bit integer u, cdf(i - k) <= u / 2^53 exactly when B[i] <= u: u
    falls on the outcome i - k for the least i with B[i] > u, the bucket
    u / 2^53 falls in on the float CDF. Each entry is computed on first use
    and kept, so a repeated probe is a plain dict lookup and no k ever needs
    the whole table.
    """

    def __init__(self, t: TsgdParams) -> None:
        super().__init__({2 * t.k: GRID})
        self._k, self._eps, self._ratio = t.k, t.eps, t.c / t.p
        # The float CDF rounds 1 - P(X = k) to the nearest multiple of 2^-53,
        # which can realise more than delta; round that mass down instead.
        top = 2 * t.k - 1
        self[top] = max(self[top], GRID - math.floor(t.delta * GRID))

    def __missing__(self, i: int) -> int:
        k, eps, ratio = self._k, self._eps, self._ratio
        if not 0 <= i < 2 * k:
            raise KeyError(i)
        # P(X <= i - k) is P(X >= k - i) by symmetry below the middle outcome,
        # and 1 - P(X >= i - k + 1) from it up.
        if i < k:
            cdf = _tail_from_below(ratio, eps, k, i + 1)
        else:
            cdf = 1.0 - _tail_from_below(ratio, eps, k, 2 * k - i)
        self[i] = bound = math.ceil(cdf * GRID)
        return bound


def tsgd_params(params: PrivacyParams) -> TsgdParams:
    """Noise parameters for a sensitivity-1 count under the given budget.

    The truncation bound is the integer ceiling of the crossover exponent, so
    the pmf's mass c * (1 - p)^k at +-k never exceeds the delta budget; the
    leftover shows up as a mass slightly below delta. What sampling realises
    is set by the integer CDF bounds instead: the budget's delta caps their
    P(X = k), which float rounding could otherwise push past it.
    """
    eps, delta = params.effective_epsilon, params.effective_delta
    if eps <= 0.0:
        raise ValueError("effective epsilon must be > 0 to derive noise parameters")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"effective delta must be in (0, 1), got {delta}")
    p = -math.expm1(-eps)
    if not 0.0 < 1.0 - p < 1.0:  # eps >= ~37.4 rounds p to 1, and eps <= 2^-54 rounds 1 - p to 1
        size = "large" if p >= 1.0 else "small"
        raise ConfigurationError(f"effective epsilon {eps} too {size} to represent the noise distribution in binary64")
    k = max(1, math.ceil(_snap(crossover_exponent(eps, delta))))
    return TsgdParams(p=p, k=k, delta=delta)


def _tail_from_below(ratio: float, eps: float, k: int, a: int) -> float:
    # P(X >= k + 1 - a) for 0 < a <= k + 1 and ratio = c/p:
    # c * (1-p)^k * (e^(a*eps) - 1) / (e^eps - 1), rearranged so every
    # factor stays in [0, 1] and no intermediate can overflow whatever k * eps
    # is: (c/p) * e^(-(k+1-a)*eps) * (1 - e^(-a*eps)).
    return ratio * math.exp(-(k + 1.0 - a) * eps) * -math.expm1(-a * eps)


def tsgd_tail(t: TsgdParams, mu: int, y: int) -> float:
    """P(mu + X >= y): tail CDF of a noisy count, in closed form."""
    if mu < y - t.k:
        return 0.0
    if mu >= y + t.k:
        return 1.0
    ratio, eps = t.c / t.p, t.eps
    if mu <= y:
        return min(1.0, _tail_from_below(ratio, eps, t.k, mu + t.k + 1 - y))
    return max(0.0, 1.0 - _tail_from_below(ratio, eps, t.k, t.k + y - mu))


def tsgd_inverse(t: TsgdParams, u53s: Iterable[int]) -> list[int]:
    """Inverse transform: for each 53-bit uniform integer, the outcome in [-k, k] it falls on."""
    indices, probe, k = range(2 * t.k + 1), t._bounds.__getitem__, t.k
    return [bisect_right(indices, u, key=probe) - k for u in u53s]


def tsgd_cutoff(t: TsgdParams, m: int) -> int:
    """The least 53-bit uniform integer whose outcome is at least ``m``.

    A uniform ``u`` falls on an outcome >= m exactly when ``u >= tsgd_cutoff(t, m)``,
    so the realised P(X >= m) is (2^53 - cutoff) / 2^53: 0 is reached by every
    uniform (m <= -k) and 2^53 by none (m > k).
    """
    i = m + t.k - 1
    return 0 if i < 0 else t._bounds[min(i, 2 * t.k)]


def tsgd_sample(t: TsgdParams, rng: np.random.Generator) -> int:
    """One draw, by inverse transform over the 2k+1 outcomes.

    ``rng`` is a numpy Generator, so this needs numpy, which the package does
    not declare as a dependency.
    """
    # rng.random() is a multiple of 2^-53, so this is an exact 53-bit integer
    return tsgd_inverse(t, (int(rng.random() * GRID),))[0]


def tsgd_sample_many(t: TsgdParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draws sharing one generator, inverted like :func:`tsgd_sample`, as an int64 array.

    Needs numpy, which the package does not declare as a dependency.
    """
    import numpy as np

    u53s = (rng.random(size) * GRID).astype(np.uint64).tolist()
    return np.array(tsgd_inverse(t, u53s), dtype=np.int64)
