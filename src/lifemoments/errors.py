"""Exception hierarchy shared across the package, and the integer and
index-set rules.

The CLI maps these onto its exit-code contract: validation problems exit
with 2, capacity limits with 3, numeric failures with 4.
"""

import operator


class LifemomentsError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(LifemomentsError, ValueError):
    """An argument, parameter set, or configuration is invalid."""


class UnsupportedModelError(ValidationError):
    """The operation is not defined for this model kind.

    Raised e.g. when an exact finite-support evaluation is requested for a
    model with infinite support; the message names the alternative entry
    point.
    """


class CapacityError(LifemomentsError):
    """The problem size exceeds a documented combinatorial cap."""


class NumericError(LifemomentsError):
    """A numeric failure: threshold underflow, infinite moment, instability."""


class ConvergenceError(NumericError):
    """An iterative search did not converge within its iteration cap."""


def _as_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int if it is an integer (``operator.index``), and at
    least ``minimum`` when one is given; a float such as 1.5 or 2.0 is
    refused, never truncated."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what}={value!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise ValidationError(f"{what}={value} must be >= {minimum}")
    return value


def _as_index_set(values, what: str, n: int, nonempty: bool = False) -> frozenset[int]:
    """``values`` as a set of 1-based indices within 1..n, each member an
    integer by the rule of ``_as_int``; a value that is not iterable is
    refused like a member that is not an integer."""
    label = f"{what} index"
    try:
        members = frozenset(_as_int(i, label) for i in values)
    except TypeError:
        raise ValidationError(f"{what} {values!r} is not a set of integers") from None
    if nonempty and not members:
        raise ValidationError(f"{what} is empty")
    if not all(1 <= i <= n for i in members):
        raise ValidationError(f"{what} {sorted(members)} is not within 1..{n}")
    return members


def _as_order(p) -> int:
    """A moment order: an integer of at least 1."""
    return _as_int(p, "moment order p", 1)
