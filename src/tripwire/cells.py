"""Convex cells, near-vertical line arrangements, and inscribed squares.

The inscribed-square primitive works on any convex polygon cell
{x : n_i . x <= b_i} with unit outward normals n_i.  A square of side s
centred at x, with unit orthogonal edge directions d1, d2 at angle
theta, fits exactly when every constraint holds for its farthest
corner:

    n_i . x + s * u_i(theta) <= b_i,
    u_i(theta) = (|n_i . d1| + |n_i . d2|) / 2.

At a fixed theta the largest square is therefore the 3-variable linear
program  max s  over (x, s)  subject to those constraints: the
Chebyshev-centre LP with a polyhedral norm (Boyd & Vandenberghe,
Convex Optimization, section 8.5).  The cell is bounded, so the
optimum sits at a vertex where three constraints are tight.  Each
constraint triple's 3x3 system is solved by Cramer's rule, vertices
that break a constraint by more than a slack scaled to the cell's
coordinates are dropped, and the largest remaining s is the exact
optimum.  No search over theta (period pi/2, the square's symmetry) is
needed: a best orientation lies in a finite set read off the cell's
edges (see largest_squares), and the LP is solved at each member of it,
vectorized over orientations and batched over cells with the same edge
count, so large perturbation sweeps stay cheap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCellError, DomainError, InvalidPerturbationError

# Slack, per unit of a cell's coordinate scale, for the LP vertex test;
# admits the rounding error of a vertex that is tight on more than three
# constraints.
GEO_TOL = 1e-12

_QUARTER = math.pi / 2


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _turn(poly: np.ndarray, k: int) -> np.ndarray:
    """Row i holds vertex i + k (cyclic); np.roll(poly, -k, axis=0) at less call cost."""
    return np.concatenate((poly[k:], poly[:k]))


def convex_cell(points) -> np.ndarray:
    """Validate and normalize a convex polygon: CCW (m, 2) array, m >= 3.

    Consecutive duplicate and collinear vertices are dropped.  Raises
    DegenerateCellError for (numerically) zero area and DomainError for
    a non-convex vertex sequence.
    """
    poly = np.asarray(points, dtype=float)
    if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
        raise DegenerateCellError(f"cell needs at least 3 planar points, got shape {poly.shape}")
    if not np.all(np.isfinite(poly)):
        raise DomainError("cell vertices must be finite")

    # Tolerances follow the cell's size, not its distance from the origin.
    centred = poly - poly.mean(axis=0)
    scale = max(1.0, float(np.max(np.abs(centred))))
    eps = 1e-12 * scale * scale

    # Drop consecutive duplicates (closed polygon).
    duplicate = np.all(np.abs(poly - _turn(poly, 1)) <= 1e-15 * scale, axis=1)
    poly = poly[~duplicate]
    centred = centred[~duplicate]
    if len(poly) < 3:
        raise DegenerateCellError("cell collapses to fewer than 3 distinct vertices")

    area2 = float(_cross2(centred, _turn(centred, 1)).sum())
    if abs(area2) <= 2e-15 * scale * scale:
        raise DegenerateCellError(f"cell has zero area (2A = {area2!r})")
    if area2 < 0.0:
        poly = poly[::-1].copy()

    # Convexity and collinear-vertex removal on the CCW polygon.
    while True:
        prev = _turn(poly, -1)
        nxt = _turn(poly, 1)
        cross = _cross2(poly - prev, nxt - poly)
        if np.any(cross < -eps):
            raise DomainError("cell must be convex")
        straight = cross <= eps
        if not np.any(straight):
            break
        poly = poly[~straight]
        if len(poly) < 3:
            raise DegenerateCellError("cell has zero area after collinear-vertex removal")
    return poly


def cell_area(points) -> float:
    poly = np.asarray(points, dtype=float)
    return 0.5 * abs(float(_cross2(poly, _turn(poly, 1)).sum()))


def _halfplanes(poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals and offsets so the cell is {x : N x <= b}."""
    edges = _turn(poly, 1) - poly
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    normals = np.stack((edges[:, 1], -edges[:, 0]), axis=1) / lengths[:, None]
    offsets = np.einsum("ij,ij->i", normals, poly)
    return normals, offsets


def _det3(a, b, c) -> np.ndarray:
    """Determinants of the 3x3 matrices with columns a, b, c (each a row triple)."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _max_sides_at_angles(
    normals: np.ndarray, offsets: np.ndarray, slack: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Exact largest square side per (cell, orientation); returns (G, T).

    normals: (G, m, 2); offsets: (G, m); slack: (G,); theta: (G, T).
    Entries with no feasible LP vertex are -inf.
    """
    d1 = np.stack((np.cos(theta), np.sin(theta)), axis=-1)
    d2 = np.stack((-d1[..., 1], d1[..., 0]), axis=-1)
    nd1 = np.einsum("gmc,gtc->gmt", normals, d1)
    nd2 = np.einsum("gmc,gtc->gmt", normals, d2)
    support = 0.5 * (np.abs(nd1) + np.abs(nd2))
    nx = normals[:, :, 0, None]
    ny = normals[:, :, 1, None]
    b = offsets[:, :, None]
    limit = b + slack[:, None, None]

    best = np.full(theta.shape, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in itertools.combinations(range(normals.shape[1]), 3):
            cols_x = [nx[:, r] for r in rows]
            cols_y = [ny[:, r] for r in rows]
            cols_u = [support[:, r] for r in rows]
            cols_b = [b[:, r] for r in rows]
            det = _det3(cols_x, cols_y, cols_u)
            s = _det3(cols_x, cols_y, cols_b) / det
            x = _det3(cols_b, cols_y, cols_u) / det
            y = _det3(cols_x, cols_b, cols_u) / det
            lhs = nx * x[:, None, :] + ny * y[:, None, :] + support * s[:, None, :]
            ok = np.all(lhs <= limit, axis=1)
            best = np.where(ok & (s > best), s, best)
    return best


def _candidate_angles(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Orientations in [0, pi/2) that hold each cell's best one (see largest_squares).

    normals: (G, m, 2); offsets: (G, m); returns (G, m (1 + C(m, 4))).
    """
    m = normals.shape[1]
    nx = normals[:, None, :, 0]
    ny = normals[:, None, :, 1]
    breaks = np.sort(np.arctan2(normals[..., 1], normals[..., 0]) % _QUARTER, axis=1)
    mid = 0.5 * (breaks + np.concatenate((breaks[:, 1:], breaks[:, :1] + _QUARTER), axis=1))
    cos, sin = np.cos(mid)[..., None], np.sin(mid)[..., None]
    # On the piece after each breakpoint u_i = alpha_i cos(theta) + beta_i sin(theta).
    sign1 = np.sign(nx * cos + ny * sin)
    sign2 = np.sign(ny * cos - nx * sin)
    alpha_beta = 0.5 * np.stack((sign1 * nx + sign2 * ny, sign1 * ny - sign2 * nx))

    dets = {
        rows: _det3(*([a[..., r] for r in rows] for a in (nx, ny, alpha_beta)))
        for rows in itertools.combinations(range(m), 3)
    }
    candidates = [breaks]
    for rows in itertools.combinations(range(m), 4):
        # det[nx ny alpha b] and det[nx ny beta b], expanded along the b column.
        det4 = sum(
            (-1) ** (pos + 1) * offsets[:, None, r] * dets[rows[:pos] + rows[pos + 1 :]]
            for pos, r in enumerate(rows)
        )
        candidates.append(np.arctan2(-det4[0], det4[1]))
    return np.concatenate(candidates, axis=1) % _QUARTER


def largest_squares(cells) -> np.ndarray:
    """Largest inscribed square side for each convex cell in `cells`.

    The side is the exact fixed-angle LP optimum (module docstring),
    maximised over a finite set of orientations that holds a best one.
    Between the m breakpoints atan2(n_i) mod pi/2, where some n_i is
    parallel to d1 or d2, u_i = alpha_i cos(theta) + beta_i sin(theta).
    There the side is the largest basis side det[n b] / det[n u] over the
    feasible constraint triples.  A basis side is D / (R cos(theta - phi)),
    convex wherever it is positive, so it peaks at an end of an interval
    where its triple is feasible: a breakpoint, or an angle where a fourth
    constraint is tight too (det[n u b] = 0, one angle per quadruple).
    Extra angles do no harm, since the LP is exact at each.  Raises
    DegenerateCellError, naming the cell, where an orientation's LP has
    no feasible vertex with a positive side (a cell with interior always
    has one).
    """
    polys = [convex_cell(c) for c in cells]
    result = np.zeros(len(polys))

    by_edge_count: dict[int, list[int]] = {}
    for idx, poly in enumerate(polys):
        by_edge_count.setdefault(len(poly), []).append(idx)

    for m, idxs in by_edge_count.items():
        G = len(idxs)
        normals = np.empty((G, m, 2))
        offsets = np.empty((G, m))
        slack = np.empty(G)
        for row, idx in enumerate(idxs):
            # The side does not depend on where the cell sits; centring it
            # keeps Cramer's rule and the slack at the cell's own scale.
            centred = polys[idx] - polys[idx].mean(axis=0)
            normals[row], offsets[row] = _halfplanes(centred)
            slack[row] = GEO_TOL * max(1.0, float(np.max(np.abs(centred))))

        theta = _candidate_angles(normals, offsets)
        s = _max_sides_at_angles(normals, offsets, slack, theta)
        bad = np.argwhere(~(s > 0.0))
        if len(bad):
            row, col = bad[0]
            raise DegenerateCellError(
                f"cell {idxs[row]} has no feasible LP vertex with a positive side at "
                f"angle {float(theta[row, col])!r} (best {float(s[row, col])!r}): "
                f"{polys[idxs[row]].tolist()}"
            )
        result[idxs] = s.max(axis=1)
    return result


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

    @staticmethod
    def zero(k: int, epsilon: float = 0.0) -> "PerturbationSpec":
        return PerturbationSpec(shifts=(0.0,) * k, pivots=(0.0,) * k, epsilon=epsilon)


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
