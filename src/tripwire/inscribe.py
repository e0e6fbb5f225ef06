"""Largest scaled rectangle inscribed in a rectangular hole, rotation allowed.

A hole with aspect ratio 1 x n (n >= 1) is laid out in the frame
[0,1] x [0,n], short side horizontal.  An intruder with aspect ratio
1 x p (p >= 1) fits inside the hole at scale c when the rectangle
c x c*p admits a rigid placement (translation + rotation) inside the
hole.  The optimal scale, as a function of p, is a piecewise curve with
three branches:

  horizontal-plateau   c = 1        while the intruder fits axis-aligned
                                    with its long side horizontal (p <= n)
  vertical             c = n / p    long side pinned to the hole's long
                                    side, axis-aligned
  diagonal             corner-contact placement with one corner on each
                                    of the four hole sides

The diagonal placement is fixed by three conditions: similar corner
triangles, and the Pythagorean relations for the short and long sides,

    a1 / a2 = (n - a2) / (1 - a1)
    a1^2 + a2^2 = c^2
    (1 - a1)^2 + (n - a2)^2 = (c p)^2

which solve in closed form as

    a1 = (p n - 1) / (p^2 - 1),   a2 = (p - n) / (p^2 - 1),   c = hypot(a1, a2).

`curve_value` evaluates the curve as a max over the feasible candidate
placements rather than dispatching on precomputed branch boundaries, so
it is robust exactly at the boundaries; the value is the largest
candidate's, and the label names the larger one, decided exactly where
rounding could decide it (`curve_sample`).  The boundary between the
vertical and diagonal branches is exposed separately as `crossover_w`,
the largest root of the cubic p^3 - 3n p^2 + p + n.

Each public function checks its numbers once and then calls one
unchecked core (`_sample`, `_diagonal`) that takes checked floats.
`_samples` is `_sample` over a whole p-grid in one numpy pass, bit for
bit: the p-grid callers (the CLI tables, nets._base_curve and
nets._hole_scales, the theorem scans, the curve-oracle suite) use it,
and so does nets.base_curve, the one-point case of nets._base_curve.
The other one-point callers keep `_sample`.  Both take the legs from
`_legs`, or from `_huge_legs` from p = 2**512 on, where (p - 1)(p + 1)
overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, check_real

BRANCH_PLATEAU = "horizontal-plateau"
BRANCH_VERTICAL = "vertical"
BRANCH_DIAGONAL = "diagonal"
_LABELS = np.array((BRANCH_PLATEAU, BRANCH_VERTICAL, BRANCH_DIAGONAL), dtype=object)

# Two values within this share of each other tie: branch labels and net
# scores alike.  Relative, because both fall like 1/p and an absolute
# margin would tie everything at large p.
TIE_RTOL = 1e-12

# Most samples a p range may ask for (p_grid).
MAX_P_SAMPLES = 10**6

# (p - 1)(p + 1) is finite exactly for p below 2**512 (_legs).
HUGE_P = 2.0**512


def check_aspect(value: float, name: str = "aspect ratio") -> float:
    """Validate an aspect ratio: a finite real >= 1 (long side over short side)."""
    return check_real(value, name, 1.0)


def p_grid(p_min: float, p_max: float, step: float) -> list[float]:
    """Aspects p_min + i * step up to p_max, for 1 <= p_min < p_max and step > 0.

    A point within 1e-9 of a step above p_max becomes p_max.  A range of
    MAX_P_SAMPLES steps or more is a DomainError.
    """
    step = check_real(step, "step")
    if step <= 0.0:
        raise DomainError(f"step must be positive and finite, got {step!r}")
    p_min = check_real(p_min, "p_min")
    p_max = check_real(p_max, "p_max")
    if not (1.0 <= p_min < p_max):
        raise DomainError(f"need 1 <= p_min < p_max, got p_min={p_min!r}, p_max={p_max!r}")
    if (p_max - p_min) / step >= MAX_P_SAMPLES:
        raise DomainError(f"p range [{p_min!r}, {p_max!r}] at step {step!r} exceeds {MAX_P_SAMPLES} samples")
    # The points rise with i, so the ones past the limit are a tail.  A
    # limit that overflows is the largest float, past which a point is inf.
    limit = min(p_max + 1e-9 * step, math.nextafter(math.inf, 0.0))
    # Rounding puts a point at most two ulps of the limit below its exact
    # value (and a step shorter than an ulp moves some points not at all), so
    # no point after the first step past limit + 2 ulps is at or below it.
    count = int((limit - p_min) / step + 2.0 * math.ulp(limit) / step) + 2
    points = [p_min + i * step for i in range(count)]
    while points[-1] > limit:
        points.pop()
    points[-1] = min(points[-1], p_max)
    return points


def ties(value: float, best: float) -> bool:
    """True when `value` is at most TIE_RTOL * |best| above `best`: it ties or beats a minimum `best`.

    Elementwise on numpy arrays."""
    return value <= best + abs(best) * TIE_RTOL


@dataclass(frozen=True)
class DiagonalSolution:
    """Corner-contact placement of a 1 x p intruder in the [0,1] x [0,n] hole.

    a1 and a2 are the legs of the corner triangle under the short side;
    corners lists the four rectangle corners in counter-clockwise order,
    one on each hole side: (a1, 0), (1, n-a2), (1-a1, n), (0, a2).
    """

    a1: float
    a2: float
    c: float
    corners: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class CurveSample:
    """One point (p, c) of an inscribing curve, tagged with its branch."""

    p: float
    c: float
    branch: str


@dataclass(frozen=True)
class Placement:
    """Explicit corners (counter-clockwise) of one optimal placement."""

    corners: tuple[tuple[float, float], ...]
    branch: str
    c: float


def _legs(n, p):
    """(a1, a2) of the corner-contact placement for checked aspects p > n,
    p below HUGE_P; floats or arrays of p alike."""
    # Written so that nothing cancels: p - n, p - 1 and n - 1 are exact
    # wherever their operands are close (Sterbenz), q is a product rather
    # than p^2 - 1, and p n - 1 = (p - 1) n + (n - 1) adds like-signed terms.
    q = (p - 1.0) * (p + 1.0)
    return ((p - 1.0) * n + (n - 1.0)) / q, (p - n) / q


def _huge_legs(n, p):
    """_legs for p from HUGE_P up, where q overflows: divide by its factors in
    turn, with a1 = (n + (n - 1) / (p - 1)) / (p + 1)."""
    return (n + (n - 1.0) / (p - 1.0)) / (p + 1.0), (p - n) / (p - 1.0) / (p + 1.0)


def _diagonal(n: float, p: float) -> tuple[float, float, float]:
    """(a1, a2, c) of the corner-contact placement, for checked aspects p > n."""
    a1, a2 = _legs(n, p) if p < HUGE_P else _huge_legs(n, p)
    return a1, a2, math.hypot(a1, a2)


def _corners(n: float, a1: float, a2: float) -> tuple[tuple[float, float], ...]:
    return ((a1, 0.0), (1.0, n - a2), (1.0 - a1, n), (0.0, a2))


def _cubic(n: float, p: float) -> Fraction:
    """f(p) = p^3 - 3n p^2 + p + n, exactly: for p > n it has the sign of diagonal - n/p."""
    fp, fn = Fraction(p), Fraction(n)
    return fp * fp * (fp - 3 * fn) + fp + fn


def _sample(n: float, p: float) -> tuple[float, str]:
    """(c, branch) of the curve at checked aspects n and p (curve_sample)."""
    if p <= n:
        return 1.0, BRANCH_PLATEAU
    vertical, diagonal = n / p, _diagonal(n, p)[2]
    if ties(diagonal, vertical) and ties(vertical, diagonal):
        # Rounding could order the two either way: the exact cubic decides.
        diagonal_wins = _cubic(n, p) > 0
    else:
        diagonal_wins = diagonal > vertical
    return max(vertical, diagonal), BRANCH_DIAGONAL if diagonal_wins else BRANCH_VERTICAL


def _samples(n: float, ps) -> tuple[np.ndarray, list[str]]:
    """_sample at a checked n and each checked p in ps, in one numpy pass:
    (c array, branch list), bit for bit _sample's.

    numpy's elementwise + - * / and maximum round as Python floats do, the
    diagonal's c is math.hypot (np.hypot can differ in the last bit), and
    the tie band's labels take the exact cubic point by point.
    """
    p = np.array(ps, dtype=float)
    c = np.ones_like(p)
    code = np.zeros(len(p), dtype=np.intp)  # index into _LABELS
    (above,) = np.nonzero(p > n)
    p = p[above]
    a1, a2 = np.empty_like(p), np.empty_like(p)
    small = p < HUGE_P
    a1[small], a2[small] = _legs(n, p[small])
    a1[~small], a2[~small] = _huge_legs(n, p[~small])
    vertical, diagonal = n / p, np.array(list(map(math.hypot, a1.tolist(), a2.tolist())))
    c[above] = np.maximum(vertical, diagonal)
    diagonal_wins = diagonal > vertical
    for i in np.flatnonzero(ties(diagonal, vertical) & ties(vertical, diagonal)).tolist():
        diagonal_wins[i] = _cubic(n, float(p[i])) > 0
    code[above] = 1 + diagonal_wins
    return c, _LABELS[code].tolist()


def diagonal_branch(n: float, p: float) -> DiagonalSolution:
    """Solve the corner-contact placement for p > n >= 1.

    Raises DomainError for p <= n, where the constraints 0 < a1 < 1 and
    0 < a2 < n degenerate (the limit p -> n+ collapses the contact points
    into hole corners with a2 -> 0, a1 -> 1, c -> 1).
    """
    n = check_aspect(n, "hole aspect n")
    p = check_aspect(p, "intruder aspect p")
    if p <= n:
        raise DomainError(f"diagonal placement needs p > n, got n={n}, p={p}")
    a1, a2, c = _diagonal(n, p)
    return DiagonalSolution(a1=a1, a2=a2, c=c, corners=_corners(n, a1, a2))


def curve_sample(n: float, p: float) -> CurveSample:
    """Optimal scale and branch label for a 1 x p intruder in a 1 x n hole.

    The scale is the largest candidate's.  The label is the larger
    branch's: by the float values where they lie more than TIE_RTOL
    apart (`ties`), and by the exact sign of the cubic f (crossover_w)
    inside that band, where rounding could flip the float comparison.
    An exact tie goes to the earlier branch in (plateau, vertical,
    diagonal) order, so p = n is labelled plateau.
    """
    n = check_aspect(n, "hole aspect n")
    p = check_aspect(p, "intruder aspect p")
    c, branch = _sample(n, p)
    return CurveSample(p=p, c=c, branch=branch)


def curve_value(n: float, p: float) -> float:
    """The inscribing curve: max scale of a 1 x p intruder inside a 1 x n hole."""
    n = check_aspect(n, "hole aspect n")
    p = check_aspect(p, "intruder aspect p")
    return _sample(n, p)[0]


def crossover_w(n: float) -> float:
    """The intruder aspect w_n > n where the vertical and diagonal branches meet.

    diagonal(n, p).c = n/p reduces to the quartic
    p^4 - 4n p^3 + (3n^2+1) p^2 - n^2 = (p - n) f(p), and w_n is the
    largest root of f(p) = p^3 - 3n p^2 + p + n.  With p = 3n + d,
    f = (3n+d)^2 d + 4n + d is positive at d = 0 and convex for d > -2n,
    so Newton's method from d = 0 descends onto the root; it stops once
    a step is below an ulp of p.  The exact sign of f then settles the
    last ulp: the result's two float neighbours bracket w_n.  Raises
    DomainError where the iteration overflows (n above about 4e307).
    """
    n = check_aspect(n, "hole aspect n")
    d = 0.0
    while True:
        q = 3.0 * n + d
        # q * (q * d) rather than q * q * d: for huge n, q * q overflows
        # while q * d is still 0 on the first step.
        step = (q * (q * d) + 4.0 * n + d) / (q * (q + 2.0 * d) + 1.0)
        d -= step
        if not step > math.ulp(q):
            break
    w = 3.0 * n + d
    if not math.isfinite(w):
        raise DomainError(f"w_n exceeds the float range for n={n!r}")

    while True:  # f increases through its largest root
        below, above = math.nextafter(w, 0.0), math.nextafter(w, math.inf)
        if _cubic(n, below) > 0:
            w = below
        elif _cubic(n, above) < 0:
            w = above
        else:
            return w


def placement(n: float, p: float) -> Placement:
    """One optimal placement of the scaled intruder, as explicit corners.

    Axis-aligned at the origin for the plateau and vertical branches
    (short side c along x, long side c*p along y), the corner-contact
    quadrilateral for the diagonal branch.  c is the labelled branch's own
    scale (curve_sample).
    """
    n = check_aspect(n, "hole aspect n")
    p = check_aspect(p, "intruder aspect p")
    branch = _sample(n, p)[1]
    if branch == BRANCH_DIAGONAL:
        a1, a2, c = _diagonal(n, p)
        return Placement(corners=_corners(n, a1, a2), branch=branch, c=c)
    c = 1.0 if branch == BRANCH_PLATEAU else n / p
    corners = ((0.0, 0.0), (c, 0.0), (c, c * p), (0.0, c * p))
    return Placement(corners=corners, branch=branch, c=c)
