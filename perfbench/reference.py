"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports `tripwire`: every value is derived again from the
geometry so that a check never compares the program with itself.

Floating-point care: p^2 - 1 is formed as (p - 1)(p + 1) and p n - 1 as
(p - 1) n + (n - 1), so that no subtraction of nearly equal values
occurs for any 1 <= n < p (see Goldberg, "What Every Computer Scientist
Should Know About Floating-Point Arithmetic", 1991).
"""

from __future__ import annotations

import math

PLATEAU = "horizontal-plateau"
VERTICAL = "vertical"
DIAGONAL = "diagonal"


def curve(n: float, p: float) -> tuple[float, str]:
    """Inscribing curve C_n(p) and the branch that attains it.

    C_n(p) = 1 for p <= n, otherwise
    max(n/p, hypot((p n - 1)/(p^2 - 1), (p - n)/(p^2 - 1))),
    the larger of the long-side-pinned and the corner-contact placements.
    A tie between the two goes to the vertical branch.
    """
    if p <= n:
        return 1.0, PLATEAU
    denom = (p - 1.0) * (p + 1.0)
    a1 = ((p - 1.0) * n + (n - 1.0)) / denom
    a2 = (p - n) / denom
    diagonal = math.hypot(a1, a2)
    vertical = n / p
    if vertical >= diagonal:
        return vertical, VERTICAL
    return diagonal, DIAGONAL


def curve_branch_gap(n: float, p: float) -> float:
    """Relative gap between the vertical and diagonal candidates (inf for p <= n).

    A branch label is only well defined where this gap exceeds the
    rounding error of the program's own candidates.
    """
    if p <= n:
        return math.inf
    denom = (p - 1.0) * (p + 1.0)
    diagonal = math.hypot(((p - 1.0) * n + (n - 1.0)) / denom, (p - n) / denom)
    vertical = n / p
    return abs(diagonal - vertical) / max(diagonal, vertical)


def crossover_w(n: float) -> float:
    """w_n: the largest real root of p^4 - 4n p^3 + (3n^2 + 1) p^2 - n^2.

    The quartic factors as (p - n)(p^3 - 3n p^2 + p + n), and w_n > n is
    the largest root of the cubic.  Writing p = 3n + d turns the cubic
    into phi(d) = (3n + d)^2 d + 4n + d, whose root d lies in (-n, 0)
    and is small next to 3n, so Newton's method on d from d = 0 keeps
    every digit of w_n even at n = 1e9 (numpy.roots on the quartic is
    already 5e-10 relative off at n = 1000).
    """
    if not (math.isfinite(n) and n >= 1.0):
        raise ValueError(f"n must be finite and >= 1, got {n!r}")
    d = 0.0
    for _ in range(200):
        q = 3.0 * n + d
        phi = q * q * d + 4.0 * n + d
        dphi = q * q + 2.0 * q * d + 1.0
        step = phi / dphi
        d -= step
        if abs(step) <= 1e-17 * q:
            break
    return 3.0 * n + d


def quartic(n: float, p: float) -> float:
    """The w_n quartic itself, for checking a root: p^4 - 4n p^3 + (3n^2+1) p^2 - n^2."""
    return p**4 - 4.0 * n * p**3 + (3.0 * n * n + 1.0) * p * p - n * n


def hole_scale(w: float, h: float, p: float) -> float:
    """Largest scale of a 1 x p intruder inside a w x h hole."""
    short, long_ = min(w, h), max(w, h)
    return short * curve(long_ / short, p)[0]


def gaps(cuts) -> list[float]:
    """Widths of the intervals that sorted cuts in (0, 1) leave in [0, 1]."""
    bounds = [0.0, *cuts, 1.0]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def net_scale_factor(vertical, horizontal, p: float) -> float:
    """Scale factor of an axis-aligned net from its widest column and tallest row.

    A larger hole contains a smaller one, so the hole that admits the
    largest intruder is the widest column crossed with the tallest row.
    """
    return hole_scale(max(gaps(vertical)), max(gaps(horizontal)), p)


def evenly_spaced_cuts(count: int) -> list[float]:
    """Cut positions of `count` evenly spaced lines across (0, 1)."""
    return [i / (count + 1) for i in range(1, count + 1)]


def crossover_aspect(k: int) -> float:
    """Aspect where k parallel lines and the near-square grid tie: (k+1)/(k//2+1)."""
    return (k + 1) / (k // 2 + 1)


def odd_crossover_line_count(k: int) -> float:
    """The line-count variant for odd k: (k+1) floor(k/2) / ceil(k/2)^2."""
    lo, hi = k // 2, (k + 1) // 2
    return (k + 1) * lo / (hi * hi)


def optimal_split(k: int, p: float) -> tuple[int, int]:
    """(vertical, horizontal) line counts of the paper's optimal k-line net at p."""
    if k == 1 or p <= crossover_aspect(k):
        return k, 0
    return k - k // 2, k // 2


def base_curve(k: int, p: float) -> tuple[float, float]:
    """(parallel, grid) scale factors whose minimum is the k-line base curve."""
    parallel = curve(k + 1, p)[0] / (k + 1)
    v, h = k - k // 2, k // 2
    grid = net_scale_factor(evenly_spaced_cuts(v), evenly_spaced_cuts(h), p)
    return parallel, grid


def perturbation_upper_bound(k: int, epsilon: float) -> float:
    """No cell of a shift/pivot perturbation of k lines holds a larger square.

    Every line moves by at most epsilon (shift) plus tan(epsilon) (pivot
    about a point inside the square), so each cell's horizontal chord,
    which bounds any inscribed square's side, is at most
    1/(k+1) + epsilon + tan(epsilon).
    """
    return 1.0 / (k + 1) + epsilon + math.tan(epsilon)


# Largest inscribed squares of cells with a known answer.


def square_in_rectangle(a: float, b: float) -> float:
    return min(a, b)


def square_in_right_triangle(a: float, b: float) -> float:
    """The corner square a b / (a + b); the square on the hypotenuse is smaller."""
    return a * b / (a + b)


def square_in_equilateral_triangle(side: float) -> float:
    """side * (2 sqrt 3 - 3): a square standing on one side."""
    return side * (2.0 * math.sqrt(3.0) - 3.0)


def square_in_regular_hexagon(side: float) -> float:
    """side * (3 - sqrt 3)."""
    return side * (3.0 - math.sqrt(3.0))


def rectangle(a: float, b: float) -> list[tuple[float, float]]:
    return [(0.0, 0.0), (a, 0.0), (a, b), (0.0, b)]


def right_triangle(a: float, b: float) -> list[tuple[float, float]]:
    return [(0.0, 0.0), (a, 0.0), (0.0, b)]


def equilateral_triangle(side: float) -> list[tuple[float, float]]:
    return [(0.0, 0.0), (side, 0.0), (0.5 * side, 0.5 * math.sqrt(3.0) * side)]


def regular_hexagon(side: float) -> list[tuple[float, float]]:
    return [
        (side * math.cos(i * math.pi / 3.0), side * math.sin(i * math.pi / 3.0))
        for i in range(6)
    ]


def moved(points, angle: float, dx: float, dy: float) -> list[tuple[float, float]]:
    """Rotate points by `angle` about the origin, then translate by (dx, dy)."""
    c, s = math.cos(angle), math.sin(angle)
    return [(c * x - s * y + dx, s * x + c * y + dy) for x, y in points]


def printed_match(printed: float, exact: float, precision: int) -> bool:
    """Whether `printed` is `exact` rounded to `precision` significant digits.

    Allows the exact value to sit on either side of a rounding boundary
    by a relative 1e-12, so that last-ulp differences in the program's
    arithmetic never flip a printed digit into a false failure.
    """
    if exact == 0.0:
        return printed == 0.0
    exponent = math.floor(math.log10(abs(exact)))
    half_unit = 0.5 * 10.0 ** (exponent - precision + 1)
    return abs(printed - exact) <= half_unit * (1.0 + 1e-9) + 1e-12 * abs(exact)
