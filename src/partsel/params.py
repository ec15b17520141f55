"""Privacy budget handling, and the errors, shared by all selection strategies."""

from __future__ import annotations

import enum
import math


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


class IngestMode(enum.Enum):
    STRICT = "strict"
    FIRST_WINS = "first-wins"


# The release modes, the default first: the kept keys, noisy counts, or noisy counts with public keys.
RELEASE_MODES = ("select", "release-counts", "dual")

# A module constant: reading it skips the enum class's attribute lookup,
# which the effective-budget properties would otherwise pay on every read.
_REPLACE = Neighboring.REPLACE


# Sets an attribute of a _Record, whose own __setattr__ refuses.
_set = object.__setattr__


class _Record:
    """Base of the package's immutable value classes: ``==``, ``hash`` and ``repr`` by field.

    A subclass names its constructor's arguments in ``_args`` and every value
    ``==``, ``hash`` and ``repr`` see in ``_fields``, the arguments first. Its
    ``__init__`` checks the arguments and sets each slot with :data:`_set`:
    assigning or deleting an attribute afterwards raises ``AttributeError``.
    Pickle and copy rebuild through the constructor, so every copy is checked
    again. The repr is a frozen dataclass's.
    """

    __slots__ = ()
    _args: tuple[str, ...] = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._args)


class PrivacyParams(_Record):
    """An (epsilon, delta) differential privacy budget.

    Replacing one user is equivalent to removing them and adding another, so
    under the ``REPLACE`` model the effective budget handed to the mechanisms
    is half the nominal one.
    """

    __slots__ = _args = _fields = ("epsilon", "delta", "neighboring")

    def __init__(self, epsilon: float, delta: float, neighboring: Neighboring = Neighboring.ADD_REMOVE) -> None:
        if math.isnan(epsilon) or math.isinf(epsilon) or epsilon < 0.0:
            raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
        if math.isnan(delta) or not 0.0 <= delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {delta}")
        if not isinstance(neighboring, Neighboring):
            raise ValueError(f"neighboring must be a Neighboring value, got {neighboring!r}")
        _set(self, "epsilon", epsilon)
        _set(self, "delta", delta)
        _set(self, "neighboring", neighboring)

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
