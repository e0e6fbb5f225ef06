"""Exception types, the one check of each kind of number, and the one memory budget.

A real is a finite numbers.Real that is not a bool, so numpy scalars are
reals and strings are not; a count is a numbers.Integral that is not a
bool.  A bound that a check does not take, such as a strict (0, 1) for a
cut position, stays with its caller.

A number is checked once, at each public entry.  Functions whose names
start with `_` take checked floats and check nothing; a public function
is its checks followed by a call of such a core.

Every batched pass takes its items in the chunks that _chunks gives, so
that its largest work array takes MEMORY_BUDGET bytes at most (or one item).
"""

import math
import numbers

# Most bytes of a batched pass's largest work array (_chunks).
MEMORY_BUDGET = 1 << 19


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


def _chunks(count: int, item_bytes: int) -> list[tuple[int, int]]:
    """Consecutive bounds (lo, hi) over range(count), each holding as many
    items of item_bytes as MEMORY_BUDGET holds, and one item at least."""
    step = max(1, MEMORY_BUDGET // max(1, item_bytes))
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]
