"""Privacy budget handling, and the errors, shared by all selection strategies."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class ConfigurationError(ValueError):
    """Invalid combination of pipeline options. CLI exit code 2."""


class StrictViolationError(ValueError):
    """A user contributed more distinct partitions than allowed. CLI exit code 3."""


class InputFormatError(ValueError):
    """Malformed input row; the message carries the offending line number."""


def is_int(x: object) -> bool:
    """Whether ``x`` is an ``int`` and not a ``bool``, which Python counts as one."""
    return isinstance(x, int) and not isinstance(x, bool)


class Neighboring(enum.Enum):
    """How two neighboring databases differ: one user added/removed, or replaced."""

    ADD_REMOVE = "add-remove"
    REPLACE = "replace"


# A module constant: reading it skips the enum class's attribute lookup,
# which the effective-budget properties would otherwise pay on every read.
_REPLACE = Neighboring.REPLACE


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) differential privacy budget.

    Replacing one user is equivalent to removing them and adding another, so
    under the ``REPLACE`` model the effective budget handed to the mechanisms
    is half the nominal one.
    """

    epsilon: float
    delta: float
    neighboring: Neighboring = Neighboring.ADD_REMOVE

    def __post_init__(self) -> None:
        if math.isnan(self.epsilon) or math.isinf(self.epsilon) or self.epsilon < 0.0:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if math.isnan(self.delta) or not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if not isinstance(self.neighboring, Neighboring):
            raise ValueError(f"neighboring must be a Neighboring value, got {self.neighboring!r}")

    @property
    def effective_epsilon(self) -> float:
        if self.neighboring is _REPLACE:
            return self.epsilon / 2.0
        return self.epsilon

    @property
    def effective_delta(self) -> float:
        if self.neighboring is _REPLACE:
            return self.delta / 2.0
        return self.delta

    def split(self, kappa: int) -> PrivacyParams:
        """Budget left per partition when one user may touch ``kappa`` of them."""
        if not is_int(kappa) or kappa < 1:
            raise ValueError(f"kappa must be a positive integer, got {kappa!r}")
        return PrivacyParams(_share(self.epsilon, kappa), _share(self.delta, kappa), self.neighboring)


def _share(x: float, kappa: int) -> float:
    """The largest float near ``x / kappa`` whose ``kappa`` copies add up to at most ``x``.

    ``x / kappa`` is rounded to nearest and can lie one ulp above the exact
    quotient, which would overspend the budget; it is rounded down until the
    exact rational sum ``kappa * share <= x`` holds.
    """
    share = x / kappa
    x_num, x_den = x.as_integer_ratio()
    while True:
        num, den = share.as_integer_ratio()
        if kappa * num * x_den <= x_num * den:
            return share
        share = math.nextafter(share, 0.0)
