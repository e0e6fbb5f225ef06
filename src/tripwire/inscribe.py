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
unchecked core that takes checked floats: `_sample`, the value and its
label (curve_sample, curve_value, placement, and nets._hole_scale for
one hole at one p), and `_diagonal`.  Over arrays of n and p, broadcast
against each other, one numpy pass (`_curve`) gives the values bit for
bit.  `_values` returns them alone: for nets._hole_scales (the theorem
scans' (class, p) table, the irregular check's (p, trial) table,
base-curve overlays), nets._base_curve (base-curve tables and
nets.base_curve) and the curve-oracle suite.
`_samples` adds the branch labels, for the `curve` table alone.  In that
pass math.hypot runs only where the diagonal can reach the value, and
np.hypot bounds it elsewhere.  All take the legs from `_legs`, or from
`_huge_legs` from p = 2**512 on, where (p - 1)(p + 1) overflows.
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

# np.hypot lies within a few ulps of math.hypot: a point whose np.hypot
# times 1 + HYPOT_MARGIN is below n/p keeps n/p (_curve).  Thousands of
# ulps, and above TIE_RTOL, so no such point is in the label tie band.
HYPOT_MARGIN = 2 * TIE_RTOL

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


def _curve(n, ps):
    """The core of _values and _samples: the curve at checked aspects n and
    p broadcast against each other (n a float or an array, ps an array or a
    list), in one numpy pass.  Returns (c, above, n, p, vertical, diagonal):
    c bit for bit _sample's at each point, above the mask p > n, and at the
    points above, n, p and the two branches' scales.

    numpy's elementwise + - * /, maximum and comparisons round as Python
    floats do.  The diagonal's scale is math.hypot, as in _sample, wherever
    it can reach c.  np.hypot (the platform libm's) can differ from
    math.hypot in the last bit, so it serves only as a bound: both lie
    within an ulp of the exact value, so where np.hypot * (1 + HYPOT_MARGIN)
    is below n/p, math.hypot is below n/p too, c = n/p with the same bits,
    and the diagonal is left 0.  Every other point (the diagonal wins or
    nearly ties, or NaN) takes math.hypot.  So the values carry the bits of
    this interpreter's math.hypot, which CPython 3.12 changed near rounding
    midpoints.
    """
    n, p = np.broadcast_arrays(np.asarray(n, dtype=float), np.asarray(ps, dtype=float))
    above = p > n
    n, p = n[above], p[above]
    a1, a2 = np.empty_like(p), np.empty_like(p)
    small = p < HUGE_P
    a1[small], a2[small] = _legs(n[small], p[small])
    a1[~small], a2[~small] = _huge_legs(n[~small], p[~small])
    vertical, diagonal = n / p, np.zeros_like(p)
    unsettled = np.flatnonzero(~(np.hypot(a1, a2) * (1.0 + HYPOT_MARGIN) < vertical))
    hypots = map(math.hypot, a1[unsettled].tolist(), a2[unsettled].tolist())
    diagonal[unsettled] = np.fromiter(hypots, float, unsettled.size)
    c = np.ones(above.shape)
    c[above] = np.maximum(vertical, diagonal)
    return c, above, n, p, vertical, diagonal


def _values(n, ps) -> np.ndarray:
    """_sample's c at checked aspects n and p broadcast against each other
    (_curve), bit for bit: no branch labels and no exact tie test."""
    return _curve(n, ps)[0]


def _samples(n, ps) -> tuple[np.ndarray, list]:
    """_sample at checked aspects n and p broadcast against each other
    (_curve; a float p has no label list to return): (c array, branch
    labels as nested lists of the same shape), bit for bit _sample's at
    each point.  A point whose diagonal _curve left 0 is vertical, outside
    the tie band; the tie band's labels take the exact cubic point by point.
    """
    c, above, n, p, vertical, diagonal = _curve(n, ps)
    diagonal_wins = diagonal > vertical
    for i in np.flatnonzero(ties(diagonal, vertical) & ties(vertical, diagonal)).tolist():
        diagonal_wins[i] = _cubic(float(n[i]), float(p[i])) > 0
    code = np.zeros(c.shape, dtype=np.intp)  # index into _LABELS
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
