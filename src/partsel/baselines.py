"""Laplace and Gaussian noisy-threshold baselines, plus utility summaries.

The midpoint (smallest count kept with probability at least one half) is the
headline utility number used to compare strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .params import PrivacyParams, is_int


# The Gaussian baseline needs three normal-distribution functions. They are
# ported from scipy.special onto the math module (scipy stays the test oracle):
# importing scipy.special costs a CLI run about 0.5 s for a few scalar calls.
_SQRT1_2 = math.sqrt(0.5)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _ndtr(x: float) -> float:
    """Standard normal CDF: a port of Cephes ``ndtr``, as in ``scipy.special.ndtr``."""
    t = x * _SQRT1_2
    z = abs(t)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(t)
    y = 0.5 * math.erfc(z)
    return 1.0 - y if t > 0.0 else y


def _log_ndtr(x: float) -> float:
    """log of the standard normal CDF, after ``scipy.special.log_ndtr``.

    Unlike Cephes, which returns ``-ndtr(-x)`` above x = 6, every x > 0 goes
    through ``log1p``: the cut-over errs by 3e-8 relative near x = 6.
    """
    if x > 0.0:
        return math.log1p(-_ndtr(-x))
    if x > -20.0:
        return math.log(_ndtr(x))
    # Asymptotic series of the Mills ratio, summed until it stops changing.
    log_lhs = -0.5 * x * x - math.log(-x) - _HALF_LOG_2PI
    last, rhs = 0.0, 1.0
    numerator = denom_factor = 1.0
    denom_cons = 1.0 / (x * x)
    sign, i = 1, 0
    while abs(last - rhs) > 2.0**-52:  # DBL_EPSILON
        i += 1
        last = rhs
        sign = -sign
        denom_factor *= denom_cons
        numerator *= 2 * i - 1
        rhs += sign * numerator * denom_factor
    return log_lhs + math.log(rhs)


_BRENT_MAXITER = 100
_BRENT_NAN = "The function value at x={} is NaN; solver cannot continue."


def _brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in the bracket [xa, xb] by Brent's method.

    A step-for-step port of scipy's ``optimize/Zeros/brentq.c``, so it returns
    what ``scipy.optimize.brentq`` returns, bit for bit, without importing
    ``scipy.optimize``. Like scipy it raises ``ValueError`` when ``f(xa)`` and
    ``f(xb)`` have the same sign or ``f`` returns NaN, and ``RuntimeError``
    after 100 iterations without convergence.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    if math.isnan(fpre):
        raise ValueError(_BRENT_NAN.format(xpre))
    fcur = f(xcur)
    if math.isnan(fcur):
        raise ValueError(_BRENT_NAN.format(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to an infinity or NaN, which fails the test below
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(_BRENT_NAN.format(xcur))
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}")


@dataclass(frozen=True)
class LaplacePrimitive:
    """Keep a partition when its Laplace-noised count clears a fixed threshold."""

    epsilon: float
    delta: float
    threshold: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        object.__setattr__(self, "threshold", 1.0 - math.log(2.0 * self.delta) / self.epsilon)

    @classmethod
    def from_params(cls, params: PrivacyParams) -> LaplacePrimitive:
        return cls(params.effective_epsilon, params.effective_delta)


def pi_laplace(prim: LaplacePrimitive, n: float) -> float:
    """Keep probability for count ``n``; zero at n = 0 (absent partitions never appear)."""
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    if n == 0:
        return 0.0
    gap = prim.threshold - n
    if gap >= 0.0:
        return 0.5 * math.exp(-prim.epsilon * gap)
    return 1.0 - 0.5 * math.exp(prim.epsilon * gap)


@dataclass(frozen=True)
class GaussianPrimitive:
    """Gaussian-noise thresholding sized for a user touching ``kappa`` partitions."""

    epsilon: float
    delta_noise: float
    delta_threshold: float
    sigma: float
    threshold: float
    kappa: int


def _log_delta_gaussian(sigma: float, epsilon: float, sensitivity: float) -> float:
    """log of the privacy profile delta(sigma) of the Gaussian mechanism."""
    a = sensitivity / (2.0 * sigma)
    b = epsilon * sigma / sensitivity
    hi, lo = a - b, -a - b
    # _log_ndtr with its common branch inlined, as a calibration makes about a
    # dozen calls here. For x < 0, x <= -1 holds exactly when Cephes' test
    # |x * sqrt(1/2)| >= sqrt(1/2) does.
    x = math.log(0.5 * math.erfc(-hi * _SQRT1_2)) if -20.0 < hi <= -1.0 else _log_ndtr(hi)
    y = epsilon + (math.log(0.5 * math.erfc(-lo * _SQRT1_2)) if -20.0 < lo <= -1.0 else _log_ndtr(lo))
    if y >= x:
        return -math.inf
    return x + math.log1p(-math.exp(y - x))


# Absolute tolerance of the sigma root find.
_SIGMA_TOL = 1e-12


def _gaussian_profile(epsilon: float, sensitivity: float) -> Callable[[float], float]:
    """:func:`_log_delta_gaussian` at this epsilon and sensitivity, memoized by sigma.

    Every calibration at one epsilon and sensitivity brackets from the same
    points sensitivity * 2^j, whatever delta it solves for, so a search that
    shares one profile across its calibrations evaluates each of them once.
    """
    memo: dict[float, float] = {}

    def profile(sigma: float) -> float:
        value = memo.get(sigma)
        if value is None:
            value = memo[sigma] = _log_delta_gaussian(sigma, epsilon, sensitivity)
        return value

    return profile


def _solve_sigma(
    profile: Callable[[float], float], sensitivity: float, delta: float, tol: float
) -> float:
    """The sigma at which ``profile`` (log delta, decreasing in sigma) equals log(delta)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    target = math.log(delta)
    # The profile is decreasing in sigma: expand until the target is bracketed.
    # Both directions start from one evaluation at sigma = sensitivity.
    lo = hi = float(sensitivity)
    at_start = at_lo = profile(lo)
    for _ in range(200):
        if at_lo > target:
            break
        lo /= 2.0
        at_lo = profile(lo)
    else:
        raise ValueError("gaussian calibration failed: could not bracket sigma from below")
    at_hi = at_start
    for _ in range(200):
        if at_hi < target:
            break
        hi *= 2.0
        at_hi = profile(hi)
    else:
        raise ValueError("gaussian calibration failed: could not bracket sigma from above")
    return _brentq(lambda s: profile(s) - target, lo, hi, xtol=tol, rtol=8.9e-16)


def calibrate_gaussian_sigma(
    epsilon: float, delta: float, sensitivity: float, tol: float = _SIGMA_TOL
) -> float:
    """Smallest Gaussian noise scale that is (epsilon, delta)-DP at this L2 sensitivity.

    Args:
        epsilon: privacy parameter, > 0.
        delta: privacy parameter, in (0, 1).
        sensitivity: L2 sensitivity of the noised statistic, > 0.
        tol: absolute tolerance of the root find.

    Returns:
        The calibrated standard deviation.

    Raises:
        ValueError: if the parameters are invalid or the privacy-profile
            equation cannot be bracketed.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not sensitivity > 0.0:
        raise ValueError(f"sensitivity must be > 0, got {sensitivity}")
    return _solve_sigma(_gaussian_profile(epsilon, sensitivity), sensitivity, delta, tol)


def gaussian_primitive(params: PrivacyParams, kappa: int) -> GaussianPrimitive:
    """Split delta between noise and thresholding to minimize the threshold.

    The noise covers ``kappa`` simultaneous unit count changes (L2 sensitivity
    sqrt(kappa)); the threshold is placed so the chance that any of the kappa
    noised empty counts clears it stays within the thresholding share of
    delta. Calibrations at noise shares 1 - 1e-9 and 1e-9 bracket a
    golden-section search over log sigma (the objective is empirically
    unimodal) whose steps read ``delta_noise`` off the privacy profile.
    """
    eps, delta = params.effective_epsilon, params.effective_delta
    if not eps > 0.0:
        raise ValueError("effective epsilon must be > 0")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"effective delta must be in (0, 1), got {delta}")
    if not is_int(kappa) or kappa < 1:
        raise ValueError(f"kappa must be a positive integer, got {kappa!r}")
    sensitivity = math.sqrt(kappa)
    profile = _gaussian_profile(eps, sensitivity)
    # statistics (about 5 ms to import) is loaded here to keep it off the
    # start-up of every other command. Its inv_cdf is Wichura's AS241.
    from statistics import NormalDist

    ndtri = NormalDist().inv_cdf

    def split(log_sigma: float) -> tuple[float, float, float, float]:
        """delta_noise, delta_threshold, sigma and threshold at this log sigma."""
        sigma = math.exp(log_sigma)
        delta_noise = math.exp(profile(sigma))
        delta_threshold = delta - delta_noise
        # per-count tail bound: 1 - (1 - delta_threshold)^(1/kappa)
        tail = -math.expm1(math.log1p(-delta_threshold) / kappa)
        return delta_noise, delta_threshold, sigma, 1.0 + sigma * -ndtri(tail)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = math.log(_solve_sigma(profile, sensitivity, delta * (1.0 - 1e-9), _SIGMA_TOL))
    b = math.log(_solve_sigma(profile, sensitivity, delta * 1e-9, _SIGMA_TOL))
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1 = split(c1)[3]
    f2 = split(c2)[3]
    for _ in range(64):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = split(c1)[3]
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = split(c2)[3]
    return GaussianPrimitive(eps, *split((a + b) / 2.0), kappa)


def pi_gaussian(prim: GaussianPrimitive, n: float) -> float:
    """Keep probability for count ``n``; zero at n = 0."""
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    if n == 0:
        return 0.0
    return _ndtr(-((prim.threshold - n) / prim.sigma))


def percentile_n(pi: Callable[[int], float], q: float, *, upper: int | None = None) -> int:
    """Smallest count n >= 1 with pi(n) >= q, for nondecreasing pi.

    With ``upper`` the search bisects [1, upper] directly, and raises
    ``ValueError`` when pi(upper) < q; ``upper`` bounds the search for
    primitives that approach 1 only asymptotically. Without it the search
    doubles from 1 until it brackets the answer, then bisects. For a
    nondecreasing pi the least such n is unique, so both find the same count.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    hard = int(upper) if upper is not None else 2**62
    if hard < 1:
        raise ValueError(f"upper must be >= 1, got {upper}")
    if pi(1) >= q:
        return 1
    # Invariant: pi(lo) < q, and the answer, if any, lies in (lo, hi].
    lo, hi = 1, hard
    if upper is None:
        hi = 2
        while pi(hi) < q:  # doubling lands on the bound 2^62 and checks it
            if hi == hard:
                raise ValueError(f"pi never reaches {q} within the search bound {hard}")
            lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pi(mid) >= q:
            hi = mid
        else:
            lo = mid
    if hi == hard and pi(hard) < q:
        raise ValueError(f"pi never reaches {q} within the search bound {hard}")
    return hi


def midpoint(pi: Callable[[int], float], *, upper: int | None = None) -> int:
    """Smallest count kept with probability at least one half."""
    return percentile_n(pi, 0.5, upper=upper)
