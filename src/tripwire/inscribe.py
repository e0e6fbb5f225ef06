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
candidate's, and the label goes to the earliest candidate that it ties
(`ties`).  The boundary between the vertical and diagonal
branches is exposed separately as `crossover_w`, the largest root of
the cubic p^3 - 3n p^2 + p + n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, check_real

BRANCH_PLATEAU = "horizontal-plateau"
BRANCH_VERTICAL = "vertical"
BRANCH_DIAGONAL = "diagonal"

# Two values within this share of each other tie: branch labels and net
# scores alike.  Relative, because both fall like 1/p and an absolute
# margin would tie everything at large p.
TIE_RTOL = 1e-12

# Most samples a p range may ask for (p_grid).
MAX_P_SAMPLES = 10**6


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
    points = (p_min + i * step for i in itertools.count())
    return [min(p, p_max) for p in itertools.takewhile(lambda p: p <= p_max + 1e-9 * step, points)]


def ties(value: float, best: float) -> bool:
    """True when `value` is at most TIE_RTOL * |best| above `best`: it ties or beats a minimum `best`."""
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
    # Written so that nothing cancels: p - n, p - 1 and n - 1 are exact
    # wherever their operands are close (Sterbenz), q is a product rather
    # than p^2 - 1, and p n - 1 = (p - 1) n + (n - 1) adds like-signed terms.
    q = (p - 1.0) * (p + 1.0)
    if math.isfinite(q):
        a1 = ((p - 1.0) * n + (n - 1.0)) / q
        a2 = (p - n) / q
    else:
        # q overflows for p above about 1.34e154: divide by its factors in
        # turn, with a1 = (n + (n - 1) / (p - 1)) / (p + 1).
        a1 = (n + (n - 1.0) / (p - 1.0)) / (p + 1.0)
        a2 = (p - n) / (p - 1.0) / (p + 1.0)
    c = math.hypot(a1, a2)
    corners = ((a1, 0.0), (1.0, n - a2), (1.0 - a1, n), (0.0, a2))
    return DiagonalSolution(a1=a1, a2=a2, c=c, corners=corners)


def curve_sample(n: float, p: float) -> CurveSample:
    """Optimal scale and branch label for a 1 x p intruder in a 1 x n hole.

    The scale is the largest candidate's; the label is the earliest branch,
    in (plateau, vertical, diagonal) order, whose value the largest ties
    (`ties(largest, value)`), so labels are deterministic at the
    boundaries p = n and p = w_n.
    """
    n = check_aspect(n, "hole aspect n")
    p = check_aspect(p, "intruder aspect p")
    if p <= n:
        return CurveSample(p=p, c=1.0, branch=BRANCH_PLATEAU)
    vertical, diagonal = n / p, diagonal_branch(n, p).c
    branch = BRANCH_VERTICAL if ties(diagonal, vertical) else BRANCH_DIAGONAL
    return CurveSample(p=p, c=max(vertical, diagonal), branch=branch)


def curve_value(n: float, p: float) -> float:
    """The inscribing curve: max scale of a 1 x p intruder inside a 1 x n hole."""
    return curve_sample(n, p).c


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

    def f(p: float) -> Fraction:
        fp, fn = Fraction(p), Fraction(n)
        return fp * fp * (fp - 3 * fn) + fp + fn

    while True:  # f increases through its largest root
        below, above = math.nextafter(w, 0.0), math.nextafter(w, math.inf)
        if f(below) > 0:
            w = below
        elif f(above) < 0:
            w = above
        else:
            return w


def placement(n: float, p: float) -> Placement:
    """One optimal placement of the scaled intruder, as explicit corners.

    Axis-aligned at the origin for the plateau and vertical branches
    (short side c along x, long side c*p along y), the corner-contact
    quadrilateral for the diagonal branch.  c is the labelled branch's own
    scale, which a tie (`ties`) leaves up to TIE_RTOL below curve_value.
    """
    branch = curve_sample(n, p).branch
    if branch == BRANCH_DIAGONAL:
        solution = diagonal_branch(n, p)
        return Placement(corners=solution.corners, branch=branch, c=solution.c)
    c = 1.0 if branch == BRANCH_PLATEAU else n / p
    corners = ((0.0, 0.0), (c, 0.0), (c, c * p), (0.0, c * p))
    return Placement(corners=corners, branch=branch, c=c)
