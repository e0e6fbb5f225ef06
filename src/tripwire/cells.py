"""Convex cells, near-vertical line arrangements, and inscribed rectangles.

The inscribed-rectangle primitive works on any convex polygon cell
{x : n_i . x <= b_i} with unit outward normals n_i.  A c x cp rectangle
(p >= 1) centred at x, with unit orthogonal edge directions d1 (along
the side c) and d2 at angle theta, fits exactly when every constraint
holds for its farthest corner:

    n_i . x + c * u_i(theta) <= b_i,
    u_i(theta) = (|n_i . d1| + p |n_i . d2|) / 2.

At a fixed theta the largest rectangle is therefore the 3-variable
linear program  max c  over (x, c)  subject to those constraints: the
Chebyshev-centre LP with a polyhedral norm (Boyd & Vandenberghe,
Convex Optimization, section 8.5).  The cell is bounded, so the
optimum sits at a vertex where three constraints are tight.  Each
constraint triple's 3x3 system is solved by Cramer's rule, vertices
that break one of the other constraints by more than the rounding of
that constraint's own terms are dropped, and the largest remaining c is
the exact optimum.  No search over theta is needed (u_i has period pi, and
pi/2 for a square, p = 1): a best orientation lies in a finite set read
off the cell's edges (see largest_rectangles), the breakpoints where an
edge normal is parallel to d1 or d2 and, on each piece between them,
the angles where four constraints are tight at once, kept only if they
lie in that piece.  The LP is solved there, all triples and orientations
at once and batched over cells with the same edge count, in chunks of
bounded size, so large perturbation sweeps stay cheap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateCellError, DomainError, InvalidPerturbationError

# Slack of the LP vertex test, per unit of |n_x x| + |n_y y| + |s u| + |b|
# of the constraint checked: admits the rounding error of a vertex that is
# tight on more than three constraints, and no more, so a vertex outside
# a thin cell's short width is dropped however long the cell is.
GEO_TOL = 1e-15

# Most elements in one of the kernel's work arrays: the (orientation,
# triple, m) vertex check, and the quadruple angles of a chunk of cells.
CHECK_BUDGET = 1 << 20

_QUARTER = math.pi / 2


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _turn(poly: np.ndarray, k: int) -> np.ndarray:
    """Row i holds vertex i + k (cyclic); np.roll(poly, -k, axis=-2) at less call cost."""
    return np.concatenate((poly[..., k:, :], poly[..., :k, :]), axis=-2)


def convex_cell(points) -> np.ndarray:
    """Validate and normalize a convex polygon: CCW (m, 2) array, m >= 3.

    Consecutive duplicate and collinear vertices are dropped.  Raises
    DegenerateCellError for (numerically) zero area and DomainError for
    a non-convex vertex sequence.  Zero area and collinearity are judged
    against the rounding of the quantities tested, so a valid cell stays
    valid however thin it is.
    """
    poly = np.asarray(points, dtype=float)
    if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
        raise DegenerateCellError(f"cell needs at least 3 planar points, got shape {poly.shape}")
    if not np.all(np.isfinite(poly)):
        raise DomainError("cell vertices must be finite")

    # Tolerances follow the cell's size along each axis, not its distance
    # from the origin.
    centred = poly - poly.mean(axis=0)
    extent = np.maximum(1.0, np.abs(centred).max(axis=0))
    scale = float(extent.max())

    # Drop consecutive duplicates (closed polygon).
    duplicate = np.all(np.abs(poly - _turn(poly, 1)) <= 1e-15 * extent, axis=1)
    poly = poly[~duplicate]
    centred = centred[~duplicate]
    if len(poly) < 3:
        raise DegenerateCellError("cell collapses to fewer than 3 distinct vertices")

    # Twice the signed area, against the size of the products it sums.
    after = _turn(centred, 1)
    area2 = float(_cross2(centred, after).sum())
    if abs(area2) <= 2e-15 * float(np.abs(centred * after[:, ::-1]).sum()):
        raise DegenerateCellError(f"cell has zero area (2A = {area2!r})")
    if area2 < 0.0:
        poly = poly[::-1].copy()

    # Convexity and collinear-vertex removal on the CCW polygon: a vertex
    # is straight when its turn is below 1e-12 rad, and a reflex turn
    # within 1e-12 of the cell's size squared is taken as rounding.
    while True:
        back = poly - _turn(poly, -1)
        ahead = _turn(poly, 1) - poly
        cross = _cross2(back, ahead)
        if np.any(cross < -1e-12 * scale * scale):
            raise DomainError("cell must be convex")
        straight = cross <= 1e-12 * np.hypot(*back.T) * np.hypot(*ahead.T)
        if not np.any(straight):
            break
        poly = poly[~straight]
        if len(poly) < 3:
            raise DegenerateCellError("cell has zero area after collinear-vertex removal")
    return poly


def _halfplanes(poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals (..., m, 2) and offsets (..., m) of CCW cells
    (..., m, 2), so that each cell is {x : N x <= b}."""
    edges = _turn(poly, 1) - poly
    lengths = np.hypot(edges[..., 0], edges[..., 1])
    normals = np.stack((edges[..., 1], -edges[..., 0]), axis=-1) / lengths[..., None]
    offsets = np.einsum("...ij,...ij->...i", normals, poly)
    return normals, offsets


def _cross3(a, b) -> tuple:
    """Cross product of 3-vectors given as component triples: det[a b c] = c . (a x b)."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot3(a, b) -> np.ndarray:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _columns(a: np.ndarray, triples: np.ndarray) -> tuple:
    """a[..., i], a[..., j], a[..., k] for every triple (i, j, k): three (..., R) arrays."""
    return tuple(a[..., rows] for rows in triples.T)


@lru_cache(maxsize=32)
def _subsets(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constraint triples (R, 3) and quadruples (Q, 4) of an m-gon, in
    itertools.combinations order, for each quadruple (a, b, c, d) the
    rows in the triple array of (b, c, d), (a, c, d), (a, b, d), (a, b, c),
    and an (R, m) mask of the constraints in each triple.  Read-only,
    since every caller shares them."""
    triples = list(itertools.combinations(range(m), 3))
    row = {t: i for i, t in enumerate(triples)}
    quads = list(itertools.combinations(range(m), 4))
    minors = [[row[q[:pos] + q[pos + 1 :]] for pos in range(4)] for q in quads]
    triples = np.array(triples, dtype=np.intp).reshape(-1, 3)
    tables = (
        triples,
        np.array(quads, dtype=np.intp).reshape(-1, 4),
        np.array(minors, dtype=np.intp).reshape(-1, 4),
        (triples[:, :, None] == np.arange(m)).any(axis=1),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _cramer_parts(normals: np.ndarray, offsets: np.ndarray) -> tuple:
    """The parts of Cramer's rule on each triple's columns (nx, ny, u) that
    do not depend on the orientation: nx x ny, b x ny, nx x b (component
    triples of (G, R) arrays) and det[nx ny b] (G, R)."""
    triples = _subsets(normals.shape[1])[0]
    cx, cy, cb = (_columns(a, triples) for a in (normals[..., 0], normals[..., 1], offsets))
    xy = _cross3(cx, cy)
    return xy, _cross3(cb, cy), _cross3(cx, cb), _dot3(cb, xy)


def _max_sides_at_angles(
    normals: np.ndarray,
    offsets: np.ndarray,
    parts: tuple,
    owner: np.ndarray,
    theta: np.ndarray,
    q: float,
    bases: np.ndarray,
) -> np.ndarray:
    """Largest long side over the given constraint triples at each orientation.

    normals: (G, m, 2); offsets: (G, m); parts: the cells' _cramer_parts.
    Orientation j belongs to cell owner[j], has angle theta[j] and solves
    the triples in rows bases[j] of _subsets(m)[0]; q = 1/p.  All of them
    are solved at once, in chunks of orientations that keep the
    (orientation, triple, m) vertex check within CHECK_BUDGET elements.
    With every triple this is the exact LP optimum.  Returns (P,); -inf
    where no vertex is feasible.
    """
    m = normals.shape[1]
    triples, _, _, members = _subsets(m)
    nx, ny = normals[..., 0], normals[..., 1]
    xy, by, xb, top = parts
    step = max(1, CHECK_BUDGET // (bases.shape[1] * m))
    best = np.empty(len(theta))
    for lo in range(0, len(theta), step):
        rows = owner[lo : lo + step]
        basis = bases[lo : lo + step]
        pick = (rows[:, None], basis)
        cos = np.cos(theta[lo : lo + step])[:, None]
        sin = np.sin(theta[lo : lo + step])[:, None]
        rx, ry, rb = nx[rows], ny[rows], offsets[rows]
        support = 0.5 * (q * np.abs(rx * cos + ry * sin) + np.abs(ry * cos - rx * sin))
        corners = triples[basis]
        cu = [support[np.arange(len(rows))[:, None], corners[..., k]] for k in range(3)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det = _dot3(cu, [c[pick] for c in xy])
            s = top[pick] / det
            x = _dot3(cu, [c[pick] for c in by]) / det
            y = _dot3(cu, [c[pick] for c in xb]) / det
            # Each constraint's residual n . v + s u - b, and the sum of its
            # terms' magnitudes, which bounds the residual's rounding.  A
            # vertex meets its own three constraints by construction.
            residual = np.repeat(-rb[:, None, :], s.shape[1], axis=1)
            size = np.abs(residual)
            for coef, value in ((rx, x), (ry, y), (support, s)):
                term = coef[:, None, :] * value[..., None]
                residual += term
                size += np.abs(term, out=term)
            finite = np.isfinite(x) & np.isfinite(y) & np.isfinite(s)
            ok = np.all((residual <= GEO_TOL * size) | members[basis], axis=2) & finite
        best[lo : lo + step] = np.where(ok, s, -np.inf).max(axis=1)
    return best


def _candidate_angles(normals: np.ndarray, offsets: np.ndarray, parts: tuple, q: float):
    """Orientations that hold each cell's best one (see largest_rectangles).

    normals: (G, m, 2); offsets: (G, m); parts: the cells' _cramer_parts;
    q = 1/p.  Returns the sorted breakpoints (G, pieces) and, for each
    quadruple angle inside its piece, its cell row, angle and the rows of
    its four sub-triples.
    """
    triples, quads, minors, _ = _subsets(normals.shape[1])
    xy, by, xb, top = parts
    nx = normals[:, None, :, 0]
    ny = normals[:, None, :, 1]
    breaks = np.arctan2(normals[..., 1], normals[..., 0]) % _QUARTER
    period = _QUARTER
    if q != 1.0:
        breaks = np.concatenate((breaks, breaks + _QUARTER), axis=1)
        period = math.pi
    breaks = np.sort(breaks, axis=1)
    ends = np.concatenate((breaks[:, 1:], breaks[:, :1] + period), axis=1)
    width = ends - breaks
    mid = 0.5 * (breaks + ends)
    cos, sin = np.cos(mid)[..., None], np.sin(mid)[..., None]
    # On the piece after each breakpoint u_i / p = alpha_i cos(theta) + beta_i sin(theta).
    sign1 = q * np.sign(nx * cos + ny * sin)
    sign2 = np.sign(ny * cos - nx * sin)
    alpha_beta = 0.5 * np.stack((sign1 * nx + sign2 * ny, sign1 * ny - sign2 * nx))

    # Every triple's det[nx ny alpha] and det[nx ny beta]: (2, G, pieces, R).
    dets = _dot3(_columns(alpha_beta, triples), [c[:, None, :] for c in xy])
    # det[nx ny alpha b] and det[nx ny beta b] of every quadruple, expanded
    # along the b column: (2, G, pieces, Q).
    b = offsets[:, None, quads.T]
    det4 = (
        -b[..., 0, :] * dets[..., minors[:, 0]]
        + b[..., 1, :] * dets[..., minors[:, 1]]
        - b[..., 2, :] * dets[..., minors[:, 2]]
        + b[..., 3, :] * dets[..., minors[:, 3]]
    )
    # A quadruple's angle counts only on the piece whose alpha, beta gave
    # it, and is taken as the piece's start plus its offset into the piece.
    offset = (np.arctan2(-det4[0], det4[1]) - breaks[..., None]) % math.pi
    inside = offset <= width[..., None]
    cell, piece, quad = np.nonzero(inside)
    theta = breaks[cell, piece] + offset[inside]

    # det4 vanishes there only up to its rounding, about eps times the
    # cell's size, while a rectangle of long side s moves its corners by
    # s/2 per radian.  So one Newton step follows, on det4(theta) = D r:
    # D = det[nx ny u] of the quadruple's last three rows and r the first
    # row's residual at their vertex, whose terms are no larger than the
    # first row's own.  The slope comes from det4's coefficients, which
    # are accurate relative to their size.
    cos, sin = np.cos(theta), np.sin(theta)
    u = alpha_beta[0, cell, piece] * cos[:, None] + alpha_beta[1, cell, piece] * sin[:, None]
    row, first = minors[quad, 0], quads[quad, 0]
    each = np.arange(len(theta))
    u3 = [u[each, k] for k in triples[row].T]
    value = (
        normals[cell, first, 0] * _dot3(u3, [c[cell, row] for c in by])
        + normals[cell, first, 1] * _dot3(u3, [c[cell, row] for c in xb])
        + u[each, first] * top[cell, row]
        - offsets[cell, first] * _dot3(u3, [c[cell, row] for c in xy])
    )
    slope = det4[1][inside] * cos - det4[0][inside] * sin
    with np.errstate(divide="ignore", invalid="ignore"):
        step = value / slope
    theta = np.where(np.isfinite(step), theta - step, theta)
    return breaks, cell, theta % period, minors[quad]


def largest_rectangles(cells, p) -> np.ndarray:
    """Largest short side c of a c x cp rectangle in each convex cell in `cells`.

    The side is the exact fixed-angle LP optimum (module docstring),
    maximised over a finite set of orientations that holds a best one.
    Each n_i gives breakpoints where it is parallel to d1 or d2:
    atan2(n_i) mod pi/2, and for p != 1 those plus pi/2, two in [0, pi).
    Between breakpoints u_i = alpha_i cos(theta) + beta_i sin(theta),
    where alpha_i and beta_i carry the factor p.  There the side is the
    largest basis side det[n b] / det[n u] over the feasible constraint
    triples.  A basis side is D / (R cos(theta - phi)), convex wherever it
    is positive, so it peaks at an end of an interval where its triple is
    feasible: a breakpoint, or an angle where a fourth constraint is tight
    too (det[n u b] = 0: one angle per quadruple and piece, kept only if
    it lies in that piece, ((theta - break_j) mod pi) <= the piece's
    width).  The full LP is solved at each breakpoint.  At such an end
    inside a piece the best vertex is the one the quadruple's four
    constraints share, so only its four triples are solved there (any
    nonsingular one gives that vertex), each vertex checked against every
    other constraint; this keeps the work near m^5 where the full LP at every
    quadruple angle took m^8.  Each quadruple angle gets one Newton step
    first, since a long rectangle's side is sensitive to the angle's
    rounding.  Extra angles do no harm, since every vertex kept is a
    feasible placement.  p must be a finite real >= 1 (DomainError
    otherwise); at p = 1 this is largest_squares.  Raises
    DegenerateCellError, naming the cell, where a breakpoint's LP has no
    feasible vertex with a positive side (a cell with interior always has
    one).
    """
    if isinstance(p, bool):
        raise DomainError(f"rectangle aspect p must be a real number, got {p!r}")
    p = float(p)
    if not (math.isfinite(p) and p >= 1.0):
        raise DomainError(f"rectangle aspect p must be finite and >= 1, got {p!r}")
    polys = [convex_cell(c) for c in cells]
    result = np.zeros(len(polys))

    by_edge_count: dict[int, list[int]] = {}
    for idx, poly in enumerate(polys):
        by_edge_count.setdefault(len(poly), []).append(idx)

    for m, idxs in by_edge_count.items():
        G = len(idxs)
        # The side does not depend on where a cell sits; centring it keeps
        # Cramer's rule at the cell's own scale.
        block = np.stack([polys[idx] for idx in idxs])
        normals, offsets = _halfplanes(block - block.mean(axis=1, keepdims=True))

        # Solved for the long side cp, with support u_i / p, so that no
        # product overflows at any finite p; cells go in chunks that keep the
        # quadruple angles within the budget.
        q = 1.0 / p
        pieces = m if p == 1.0 else 2 * m
        step = max(1, CHECK_BUDGET // (2 * pieces * max(math.comb(m, 3), math.comb(m, 4))))
        everywhere = np.arange(math.comb(m, 3))
        for lo in range(0, G, step):
            rows = slice(lo, lo + step)
            parts = _cramer_parts(normals[rows], offsets[rows])
            args = (normals[rows], offsets[rows], parts)
            breaks, cell, theta, bases = _candidate_angles(normals[rows], offsets[rows], parts, q)
            owner = np.repeat(np.arange(len(breaks)), breaks.shape[1])
            all_triples = np.broadcast_to(everywhere, (len(owner), len(everywhere)))
            sides = _max_sides_at_angles(*args, owner, breaks.ravel(), q, all_triples) / p
            bad = np.flatnonzero(~(sides > 0.0))
            if len(bad):
                idx = idxs[lo + owner[bad[0]]]
                raise DegenerateCellError(
                    f"cell {idx} has no feasible LP vertex with a positive side at "
                    f"angle {float(breaks.flat[bad[0]])!r} (best {float(sides[bad[0]])!r}): "
                    f"{polys[idx].tolist()}"
                )
            best = sides.reshape(breaks.shape).max(axis=1)
            # Where four constraints are tight at once, their common vertex.
            np.maximum.at(best, cell, _max_sides_at_angles(*args, cell, theta, q, bases) / p)
            result[idxs[rows]] = best
    return result


def largest_squares(cells) -> np.ndarray:
    """Largest inscribed square side for each convex cell: largest_rectangles at p = 1."""
    return largest_rectangles(cells, 1.0)


def largest_square_in_cell(cell) -> float:
    """Side of the largest square (any orientation) inside one convex cell."""
    return float(largest_squares([cell])[0])


@dataclass(frozen=True)
class GeneralLine:
    """A line through `anchor` (inside the closed unit square) at `angle`
    radians from vertical; direction (sin angle, cos angle)."""

    anchor: tuple[float, float]
    angle: float

    def __post_init__(self) -> None:
        ax, ay = (float(self.anchor[0]), float(self.anchor[1]))
        if not (math.isfinite(ax) and math.isfinite(ay) and math.isfinite(self.angle)):
            raise DomainError("line anchor and angle must be finite")
        if not (0.0 <= ax <= 1.0 and 0.0 <= ay <= 1.0):
            raise DomainError(f"line anchor must lie in the closed unit square, got {(ax, ay)!r}")
        object.__setattr__(self, "anchor", (ax, ay))
        object.__setattr__(self, "angle", float(self.angle))

    def x_at(self, y: float) -> float:
        """x coordinate of the line at height y (needs a non-horizontal line)."""
        if abs(math.cos(self.angle)) < 1e-12:
            raise DomainError("x_at is undefined for a horizontal line")
        return self.anchor[0] + (y - self.anchor[1]) * math.tan(self.angle)

    def right_halfplane(self) -> tuple[float, float, float]:
        """(nx, ny, b) with n unit normal pointing right; right side is n.x >= b."""
        nx = math.cos(self.angle)
        ny = -math.sin(self.angle)
        return nx, ny, nx * self.anchor[0] + ny * self.anchor[1]


@dataclass(frozen=True)
class PerturbationSpec:
    """Shift and pivot amounts for k near-vertical lines, each in [0, epsilon].

    Whether epsilon is small enough that no two perturbed lines cross
    inside the open unit square is checked when the arrangement is
    built, not assumed here.
    """

    shifts: tuple[float, ...]
    pivots: tuple[float, ...]
    epsilon: float

    def __post_init__(self) -> None:
        shifts = tuple(float(s) for s in self.shifts)
        pivots = tuple(float(p) for p in self.pivots)
        eps = float(self.epsilon)
        if not math.isfinite(eps) or eps < 0.0:
            raise DomainError(f"epsilon must be finite and >= 0, got {eps!r}")
        if len(shifts) != len(pivots):
            raise DomainError(
                f"shifts and pivots must have equal length, got {len(shifts)} and {len(pivots)}"
            )
        for name, values in (("shift", shifts), ("pivot", pivots)):
            for value in values:
                if not math.isfinite(value) or not 0.0 <= value <= eps:
                    raise DomainError(f"{name} values must lie in [0, epsilon], got {value!r}")
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "epsilon", eps)

    @property
    def k(self) -> int:
        return len(self.shifts)


def perturbed_vertical_lines(
    k: int, spec: PerturbationSpec, pivot_height: float = 0.5
) -> list[GeneralLine]:
    """Apply a PerturbationSpec to k evenly spaced vertical lines.

    Line i (1-based position i/(k+1)) is shifted right by shifts[i] and
    pivoted by pivots[i] radians about the point at height pivot_height
    on the shifted line.
    """
    if spec.k != k:
        raise DomainError(f"spec describes {spec.k} lines, expected {k}")
    if not 0.0 <= pivot_height <= 1.0:
        raise DomainError(f"pivot_height must lie in [0, 1], got {pivot_height!r}")
    lines = []
    for i in range(k):
        x = (i + 1) / (k + 1) + spec.shifts[i]
        if x >= 1.0:
            raise InvalidPerturbationError(f"shifted line {i} leaves the unit square (x={x!r})")
        lines.append(GeneralLine(anchor=(x, pivot_height), angle=spec.pivots[i]))
    return lines


def _clip_halfplane(poly: list[tuple[float, float]], nx: float, ny: float, b: float):
    """Sutherland-Hodgman clip of a convex polygon by {x : n.x <= b}."""
    out: list[tuple[float, float]] = []
    count = len(poly)
    for i in range(count):
        cur = poly[i]
        nxt = poly[(i + 1) % count]
        d_cur = nx * cur[0] + ny * cur[1] - b
        d_nxt = nx * nxt[0] + ny * nxt[1] - b
        if d_cur <= 0.0:
            out.append(cur)
            if d_nxt > 0.0:
                t = d_cur / (d_cur - d_nxt)
                out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
        elif d_nxt <= 0.0:
            t = d_cur / (d_cur - d_nxt)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out


def arrangement_cells(lines: list[GeneralLine]) -> list[np.ndarray]:
    """The k+1 cells the unit square is cut into by near-vertical lines.

    Lines must be ordered left to right and pairwise non-crossing inside
    the open unit square (touching on the boundary is allowed); both
    conditions are checked and violations raise InvalidPerturbationError.
    Cells are clipped counter-clockwise (m, 2) arrays, not normalised (a
    vertex may repeat, an area may be zero); largest_squares does that.
    """
    for line in lines:
        if math.cos(line.angle) <= 1e-9:
            raise DomainError(f"arrangement lines must be near-vertical, got angle {line.angle!r}")
    x_bottom = [line.x_at(0.0) for line in lines]
    x_top = [line.x_at(1.0) for line in lines]
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            d0 = x_bottom[j] - x_bottom[i]
            d1 = x_top[j] - x_top[i]
            if d0 < 0.0 and d1 < 0.0:
                raise InvalidPerturbationError(
                    f"lines {i} and {j} are out of left-to-right order"
                )
            if d0 * d1 < 0.0:
                raise InvalidPerturbationError(
                    f"lines {i} and {j} cross inside the open unit square"
                )

    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    cells = []
    for j in range(len(lines) + 1):
        poly = square
        if j > 0:
            nx, ny, b = lines[j - 1].right_halfplane()
            poly = _clip_halfplane(poly, -nx, -ny, -b)
        if j < len(lines):
            nx, ny, b = lines[j].right_halfplane()
            poly = _clip_halfplane(poly, nx, ny, b)
        cells.append(np.asarray(poly, dtype=float))
    return cells
