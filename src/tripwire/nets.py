"""Axis-aligned tripwire nets over the unit square and their scale factors.

A net is a set of axis-aligned lines ("tripwires") cutting the open unit
square; it partitions the square into a grid of rectangular holes.  The
scale factor of a net against a 1 x p intruder is the largest scaled
copy of the intruder that fits inside some hole: any strictly smaller
copy can hide there, while at or above that scale every placement
touches a line.  A larger hole holds whatever a smaller one holds, so
the hole where the widest column meets the tallest row decides it.

The two candidate families of evenly spaced nets are k parallel lines
(holes 1 x 1/(k+1)) and a near-square grid (holes
1/(ceil(k/2)+1) x 1/(floor(k/2)+1)).  Their pointwise minimum over p is
the base curve (`base_curve`, which also names the family that attains
it); the aspect ratio where the two families exchange the lead is the
crossover aspect, and the optimal net for a given (k, p) is whichever
family is ahead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, _chunks, check_count, check_real
from .inscribe import _value, _values, check_aspect, ties


@dataclass(frozen=True)
class Net:
    """Sorted vertical and horizontal cut positions, strictly inside (0, 1).

    Boundary-coincident lines are rejected: they add no holes and would
    make the line count ambiguous.
    """

    vertical: tuple[float, ...]
    horizontal: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertical", _validated_cuts(self.vertical, "vertical cut positions"))
        object.__setattr__(self, "horizontal", _validated_cuts(self.horizontal, "horizontal cut positions"))

    @property
    def k(self) -> int:
        return len(self.vertical) + len(self.horizontal)

    def describe(self) -> str:
        return f"N({len(self.vertical)},{len(self.horizontal)})"

    @cached_property
    def widest_hole(self) -> tuple[float, float]:
        """(width, height) of the hole where the widest column meets the tallest row."""
        return max(_gaps(self.vertical)), max(_gaps(self.horizontal))


@dataclass(frozen=True)
class HoleGrid:
    """Column widths and row heights of a net's holes; each list sums to 1."""

    widths: tuple[float, ...]
    heights: tuple[float, ...]


def _validated_cuts(positions, name: str) -> tuple[float, ...]:
    cuts = tuple(check_real(x, name) for x in positions)
    for x in cuts:
        if not 0.0 < x < 1.0:
            raise DomainError(f"{name} must lie strictly inside (0, 1), got {x!r}")
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            raise DomainError(f"{name} must be strictly increasing, got {a!r} then {b!r}")
    return cuts


def evenly_spaced(v: int, h: int) -> Net:
    """The net with v evenly spaced vertical and h evenly spaced horizontal lines."""
    v = check_count(v, "vertical line count")
    h = check_count(h, "horizontal line count")
    vertical, horizontal = (tuple(_even_cuts(n)[1:-1].tolist()) for n in (v, h))
    return Net(vertical=vertical, horizontal=horizontal)


def _even_cuts(counts) -> np.ndarray:
    """i / (n + 1) for i = 0 .. max(counts) + 1, one row per line count n in
    counts (an int or an int array): the n evenly spaced cuts at i = 1 .. n,
    between the sides 0 and 1 at i = 0 and i = n + 1.  Each is one division;
    (i + 1) * (1 / (n + 1)) rounds differently."""
    counts = np.asarray(counts)
    return np.arange(counts.max() + 2) / (counts[..., None] + 1)


def _widest_even_gaps(counts) -> np.ndarray:
    """The widest gap of n evenly spaced cuts for each line count n in
    counts (an int array), in its shape: evenly_spaced(v, h).widest_hole,
    bit for bit, is the pair for v and h.  Every count's gaps come from one
    _even_cuts division, in the chunks of counts that errors._chunks gives
    for rows of max(counts) + 2 float cuts."""
    flat = np.ravel(counts)
    widest = np.empty(flat.shape)
    for lo, hi in _chunks(flat.size, 8 * (int(flat.max()) + 2)):
        chunk = flat[lo:hi]
        gaps = np.diff(_even_cuts(chunk), axis=1)
        # the row of n cuts has n + 1 gaps; past them its cuts run beyond 1
        widest[lo:hi] = np.where(np.arange(gaps.shape[1]) <= chunk[:, None], gaps, 0.0).max(axis=1)
    return widest.reshape(np.shape(counts))


def holes(net: Net) -> HoleGrid:
    """Hole dimensions of a net: consecutive gaps of {0} | cuts | {1} per axis."""
    return HoleGrid(widths=_gaps(net.vertical), heights=_gaps(net.horizontal))


def _gaps(cuts: tuple[float, ...]) -> tuple[float, ...]:
    bounds = (0.0, *cuts, 1.0)
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def hole_scale(w: float, h: float, p: float) -> float:
    """Largest scale of a 1 x p intruder inside a w x h hole.

    Normalizes the hole to aspect n' = max(w, h)/min(w, h) and rescales:
    the answer is min(w, h) times the inscribing-curve value at (n', p).
    """
    w = check_real(w, "hole width")
    h = check_real(h, "hole height")
    if not (w > 0.0 and h > 0.0):
        raise DomainError(f"hole dimensions must be positive, got {w!r} x {h!r}")
    check_aspect(max(w, h) / min(w, h), "hole aspect n")
    p = check_aspect(p, "intruder aspect p")
    return _hole_scale(w, h, p)


def _hole_scale(w: float, h: float, p: float) -> float:
    """hole_scale for positive hole sides of a finite aspect and a checked p."""
    s = min(w, h)
    return s * _value(max(w, h) / s, p)


def _hole_scales(w, h, ps) -> np.ndarray:
    """_hole_scale with the hole sides w and h and the checked aspects ps
    broadcast against each other (w and h floats or arrays, ps an array or
    a list, as inscribe._values takes), in one pass: values only, with no
    branch labels, and math.hypot only where the diagonal can win."""
    s = np.minimum(w, h)
    return s * _values(np.maximum(w, h) / s, ps)


def net_scale_factor(net: Net, p: float) -> float:
    """Scale factor of a net: the largest intruder scale over its holes.

    A larger hole contains a smaller one, so hole_scale is monotone in
    both sides and the maximum over all (V+1)(H+1) holes is attained by
    the widest column crossed with the tallest row (Net.widest_hole): one
    hole scored instead of one per hole.
    """
    p = check_aspect(p, "intruder aspect p")
    return _hole_scale(*net.widest_hole, p)


def maximizing_hole(net: Net, p: float) -> tuple[int, int]:
    """(column, row) of the first hole, row-major, whose score ties the scale factor (ties).

    Not simply the widest gaps: those of an evenly spaced net differ only
    by rounding, so there every hole ties and the answer is (0, 0).
    """
    p = check_aspect(p, "intruder aspect p")
    scale = _hole_scale(*net.widest_hole, p)
    grid = holes(net)
    return next(
        (i, j)
        for i, w in enumerate(grid.widths)
        for j, h in enumerate(grid.heights)
        if ties(scale, _hole_scale(w, h, p))
    )


def base_curve(k: int, p: float) -> tuple[float, str]:
    """(value, family) of the k-line base curve: the lower of the two net families.

    Parallel N(k,0) gives (1/(k+1)) C_{k+1}(p).  The grid gives
    (1/(k/2+1)) C_1(p) for even k (square holes) and, for odd k, the
    scale factor of N(ceil(k/2), floor(k/2)), whose hole sides follow
    from the hole count per axis.  "parallel" wins when it ties the
    grid (ties); the value returned is the winning family's own.
    """
    values, families = _base_curve(_line_count(k), [check_aspect(p, "intruder aspect p")])
    return values.tolist()[0], families[0]


def _line_count(k: int) -> int:
    """A base curve's k as an int: at least 1, with a finite hole aspect k + 1."""
    k = check_count(k, "line count k", minimum=1)
    check_aspect(k + 1, "hole aspect n")
    return k


def _base_curve(k: int, ps) -> tuple[np.ndarray, list[str]]:
    """base_curve for a checked line count k at each checked p in ps, in one
    values-only pass per family (inscribe._values, or _hole_scales for the
    odd-k grid): (value array, family list)."""
    parallel = _values(float(k + 1), ps) / (k + 1)
    if k % 2:
        grid = _hole_scales(*evenly_spaced(k - k // 2, k // 2).widest_hole, ps)
    else:
        grid = _values(1.0, ps) / (k // 2 + 1)
    wins = ties(parallel, grid)
    return np.where(wins, parallel, grid), np.where(wins, "parallel", "grid").tolist()


def crossover_aspect(k: int) -> float:
    """Intruder aspect where the optimal net switches from parallel lines to a grid.

    Even k: (k+1)/(k/2+1).  Odd k: (k+1)/(floor(k/2)+1), the equality
    point of the two base-curve arguments with hole dimensions counted
    per axis (always exactly 2 for odd k).
    """
    k = check_count(k, "line count k", minimum=2)
    # floor(k/2) == k/2 for even k, so one expression covers both parities.
    return (k + 1) / (k // 2 + 1)


def odd_crossover_line_count(k: int) -> float:
    """Variant odd-k crossover computed from line counts instead of hole counts.

    Divides through by hole dimensions 1/ceil(k/2) x 1/floor(k/2), as if
    each axis had as many holes as lines, giving
    (k+1) floor(k/2) / ceil(k/2)^2.  Enumeration contradicts this value
    (at k=3 it gives 1 while the observed switch is at 2); it is kept
    only for side-by-side reporting.
    """
    k = check_count(k, "line count k", minimum=3)
    if k % 2 != 1:
        raise DomainError(f"odd_crossover_line_count needs odd k, got {k}")
    lo = k // 2
    hi = k - lo
    return (k + 1) * lo / (hi * hi)


def optimal_net(k: int, p: float) -> Net:
    """The optimal axis-aligned net with k lines against a 1 x p intruder.

    Parallel lines N(k,0) up to the crossover aspect, the near-square
    grid N(ceil(k/2), floor(k/2)) beyond it.  At the crossover both nets
    tie and the parallel net is returned.
    """
    k = check_count(k, "line count k", minimum=1)
    p = check_aspect(p, "intruder aspect p")
    if k == 1:
        return evenly_spaced(1, 0)
    if p <= crossover_aspect(k):
        return evenly_spaced(k, 0)
    return evenly_spaced(k - k // 2, k // 2)


def net_to_dict(net: Net) -> dict:
    """JSON-ready mapping {"vertical": [...], "horizontal": [...]}."""
    return {"vertical": list(net.vertical), "horizontal": list(net.horizontal)}


def net_from_dict(data: dict) -> Net:
    """Load a net from its JSON mapping, enforcing the Net invariants."""
    if not isinstance(data, dict):
        raise DomainError(f"net JSON must be an object, got {type(data).__name__}")
    extra = set(data) - {"vertical", "horizontal"}
    if extra:
        raise DomainError(f"unexpected net JSON keys: {sorted(extra)}")
    missing = {"vertical", "horizontal"} - set(data)
    if missing:
        raise DomainError(f"missing net JSON keys: {sorted(missing)}")
    for key in ("vertical", "horizontal"):
        if not isinstance(data[key], (list, tuple)):
            raise DomainError(f"net JSON field {key!r} must be a list")
    return Net(vertical=tuple(data["vertical"]), horizontal=tuple(data["horizontal"]))
