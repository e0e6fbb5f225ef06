"""Exception types shared across the package, and the one check of each kind of number.

A real is a finite numbers.Real that is not a bool, so numpy scalars are
reals and strings are not; a count is a numbers.Integral that is not a
bool.  A bound that a check does not take, such as a strict (0, 1) for a
cut position, stays with its caller.
"""

import math
import numbers


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DegenerateCellError(ValueError):
    """A polygon cell has (numerically) zero area or too few distinct vertices."""


class InvalidPerturbationError(ValueError):
    """A line perturbation makes two lines cross inside the open unit square."""


def check_real(value, name: str, minimum: float = -math.inf) -> float:
    """`value` as a float if it is a finite real (not a bool) of at least `minimum`, else DomainError."""
    # float and int come first: the abstract-class test is 25x slower.
    if not isinstance(value, float) and (isinstance(value, bool) or not isinstance(value, (int, numbers.Real))):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise DomainError(f"{name} must be finite, got {value!r}") from None
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    if x < minimum:
        raise DomainError(f"{name} must be >= {minimum:g}, got {x!r}")
    return x


def check_count(value, name: str, minimum: int = 0) -> int:
    """`value` as an int if it is an integer (not a bool) of at least `minimum`, else DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)
