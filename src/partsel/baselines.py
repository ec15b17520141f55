"""Laplace and Gaussian noisy-threshold baselines, plus utility summaries.

The midpoint (smallest count kept with probability at least one half) is the
headline utility number used to compare strategies.
"""

from __future__ import annotations

import math
from typing import Callable

from .params import PrivacyParams, _Record, _set, is_int


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


_FMIN_MAXFUN = 500
_SQRT_EPS = math.sqrt(2.2e-16)  # scipy's constant, a little below sqrt(sys.float_info.epsilon)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _fminbound(f: Callable[[float], float], a: float, b: float, xatol: float) -> float:
    """Minimiser of ``f`` on [a, b] by Brent's bounded method.

    A step-for-step port of scipy's ``_minimize_scalar_bounded``, so it
    returns the ``x`` of ``scipy.optimize.minimize_scalar(f, bounds=(a, b),
    method="bounded", options={"xatol": xatol})`` bit for bit. Like scipy it
    stops after 500 evaluations and returns the best point found.
    """
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _FMIN_MAXFUN:
            break
    return xf


class LaplacePrimitive(_Record):
    """Keep a partition when its Laplace-noised count clears a fixed threshold."""

    _args = ("epsilon", "delta")
    __slots__ = _fields = (*_args, "threshold")

    def __init__(self, epsilon: float, delta: float) -> None:
        if not epsilon > 0.0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        threshold = 1.0 - math.log(2.0 * delta) / epsilon
        if math.isinf(threshold):
            raise ValueError(f"epsilon {epsilon} too small: the Laplace threshold at delta {delta} overflows binary64")
        _set(self, "epsilon", epsilon)
        _set(self, "delta", delta)
        _set(self, "threshold", threshold)

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


class GaussianPrimitive(_Record):
    """Gaussian-noise thresholding sized for a user touching ``kappa`` partitions."""

    __slots__ = _args = _fields = ("epsilon", "delta_noise", "delta_threshold", "sigma", "threshold", "kappa")

    def __init__(
        self, epsilon: float, delta_noise: float, delta_threshold: float, sigma: float, threshold: float, kappa: int
    ) -> None:
        _set(self, "epsilon", epsilon)
        _set(self, "delta_noise", delta_noise)
        _set(self, "delta_threshold", delta_threshold)
        _set(self, "sigma", sigma)
        _set(self, "threshold", threshold)
        _set(self, "kappa", kappa)


def _log_delta_gaussian(sigma: float, epsilon: float, sensitivity: float) -> float:
    """log of the privacy profile delta(sigma) of the Gaussian mechanism."""
    a = sensitivity / (2.0 * sigma)
    b = epsilon * sigma / sensitivity
    hi, lo = a - b, -a - b
    x = _log_ndtr(hi)
    y = epsilon + _log_ndtr(lo)
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


def _solve_sigma(profile: Callable[[float], float], sensitivity: float, delta: float) -> float:
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
    return _brentq(lambda s: profile(s) - target, lo, hi, xtol=_SIGMA_TOL, rtol=8.9e-16)


def calibrate_gaussian_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """Smallest Gaussian noise scale that is (epsilon, delta)-DP at this L2 sensitivity.

    Args:
        epsilon: privacy parameter, > 0.
        delta: privacy parameter, in (0, 1).
        sensitivity: L2 sensitivity of the noised statistic, > 0.

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
    return _solve_sigma(_gaussian_profile(epsilon, sensitivity), sensitivity, delta)


def gaussian_primitive(params: PrivacyParams, kappa: int) -> GaussianPrimitive:
    """Split delta between noise and thresholding to minimize the threshold.

    The noise covers ``kappa`` simultaneous unit count changes (L2 sensitivity
    sqrt(kappa)); the threshold is placed so the chance that any of the kappa
    noised empty counts clears it stays within the thresholding share of
    delta. Calibrations at noise shares 1 - 1e-9 and 1e-9 bracket Brent's
    bounded minimisation over log sigma (the objective is empirically
    unimodal), whose steps read ``delta_noise`` off the privacy profile.
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

    lo = math.log(_solve_sigma(profile, sensitivity, delta * (1.0 - 1e-9)))
    hi = math.log(_solve_sigma(profile, sensitivity, delta * 1e-9))
    # Brent stops within about 1.5e-8 * |log sigma|, scipy's relative term;
    # xatol sets the stop only for sigma near 1.
    log_sigma = _fminbound(lambda s: split(s)[3], lo, hi, xatol=1e-10)
    return GaussianPrimitive(eps, *split(log_sigma), kappa)


def pi_gaussian(prim: GaussianPrimitive, n: float) -> float:
    """Keep probability for count ``n``; zero at n = 0."""
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    if n == 0:
        return 0.0
    return _ndtr(-((prim.threshold - n) / prim.sigma))


def percentile_n(pi: Callable[[int], float], q: float, *, upper: int) -> int:
    """Smallest count n in [1, upper] with pi(n) >= q, for nondecreasing pi.

    Bisects (0, upper] in at most ceil(log2(upper)) + 1 evaluations, and
    raises ``ValueError`` when pi(upper) < q. The bound makes the search
    finite for primitives that approach 1 only asymptotically.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    top = int(upper)
    if top < 1:
        raise ValueError(f"upper must be >= 1, got {upper}")
    # Invariant: the answer, if any, lies in (lo, hi], and pi(lo) < q when lo >= 1.
    lo, hi = 0, top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pi(mid) >= q:
            hi = mid
        else:
            lo = mid
    if hi == top and pi(top) < q:
        raise ValueError(f"pi never reaches {q} within the search bound {top}")
    return hi


def midpoint(pi: Callable[[int], float], *, upper: int) -> int:
    """Smallest count in [1, upper] kept with probability at least one half."""
    return percentile_n(pi, 0.5, upper=upper)
