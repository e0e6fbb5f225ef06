"""Convex cells, line arrangements in the unit square, and inscribed rectangles.

The inscribed-rectangle primitive works on any convex polygon cell
{x : n_i . x <= b_i} with unit outward normals n_i.  A c x cp rectangle
(p >= 1) centred at x, with unit orthogonal edge directions d1 (along
the side c) and d2 at angle theta, fits exactly when every constraint
holds for its farthest corner:

    n_i . x + c * u_i(theta) <= b_i,
    u_i(theta) = (|n_i . d1| + p |n_i . d2|) / 2.

u_i has period pi (pi/2 for a square, p = 1) and changes form only where
n_i is parallel to d1 or d2.  Between two such breakpoints u_i / p =
alpha_i cos(theta) + beta_i sin(theta), so with A = cp cos(theta) and
B = cp sin(theta) the rectangles of that piece are a polytope in
(x, A, B).  The long side |(A, B)| is convex, so its maximum there is at
a vertex (Rockafellar, Convex Analysis, section 32): largest_rectangles
enumerates every vertex of every piece of non-zero width, batched over
cells with the same edge count, in chunks of bounded size.

Cells are normalised the same way: one numpy pass per block of cells with
the same vertex count checks them and turns them counter-clockwise, and a
cell that drops vertices is normalised again in a block of its new count.
Every product of coordinates, in the area and turn tests as in the LP, is
taken on the cell scaled by a power of two (exact) to a size below 1, so
that none overflows.  convex_cell is the one-cell case of that pass.  A
batch raises the error of its failing cell of lowest index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateCellError, DomainError, InvalidPerturbationError, check_count, check_real

# Slack of the LP vertex test, per unit of the row's |n_x x| + |n_y y| +
# |alpha A| + |beta B| + |b|: admits the rounding of a vertex tight on more
# than four rows, and no more, so a vertex outside a thin cell's short width
# is dropped however long the cell is.  Also the share of its 24 products'
# magnitudes below which a quadruple's determinant counts as zero, and
# arrangement_cells' bound on the rounding of n.x - b in the unit square.
GEO_TOL = 1e-15

# Most elements in one of the kernel's work arrays: the (piece, quadruple,
# row) vertex check of a chunk of pieces, or its 4 x 6 Laplace terms per
# (piece, quadruple), whichever is larger.
CHECK_BUDGET = 1 << 20

# Height on each shifted line about which perturbed_vertical_lines pivots it.
PIVOT_HEIGHT = 0.5

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
    a coordinate that is not a finite real or a non-convex vertex
    sequence.  Zero area and collinearity are judged against the
    rounding of the quantities tested, so a valid cell stays valid
    however thin it is.  This is the one-cell case of the block
    normalisation that largest_rectangles runs on its cells.
    """
    blocks, failures = _convex_blocks([points])
    if failures:
        raise failures[0]
    ((_, poly),) = blocks
    return poly[0]


def _convex_blocks(cells) -> tuple[list[tuple[np.ndarray, np.ndarray]], dict[int, ValueError]]:
    """Normalise cells as convex_cell does, one numpy pass per block of cells
    with the same vertex count.

    Returns a list of blocks (indices, (G, m, 2) cells), indices ascending
    within a block, and {index: error} for the cells that fail.  A cell
    that drops vertices goes on in a new block of its new count, with the
    size, and so the tolerances and the power-of-two frame, of the cell it
    was given; two blocks may share a count.
    """
    failures: dict[int, ValueError] = {}
    shapes: dict[tuple, tuple[list, list]] = {}
    for idx, points in enumerate(cells):
        if isinstance(points, np.ndarray) and points.dtype == float:
            poly = points
        else:
            try:
                raw = np.asarray(points, dtype=object)
                poly = np.array([check_real(x, "cell vertex coordinates") for x in raw.flat]).reshape(raw.shape)
            except DomainError as exc:
                failures[idx] = exc
                continue
        group = shapes.setdefault(poly.shape, ([], []))
        group[0].append(idx)
        group[1].append(poly)

    done: list[tuple[np.ndarray, np.ndarray]] = []
    for shape, (idxs, polys) in shapes.items():
        idx, poly = np.array(idxs), np.array(polys)
        finite = np.isfinite(poly).all(axis=tuple(range(1, poly.ndim)))
        if not finite.all():
            _fail(failures, idx[~finite], DomainError("cell vertex coordinates must be finite"))
            idx, poly = idx[finite], poly[finite]
        if len(shape) != 2 or shape[1] != 2 or shape[0] < 3:
            _fail(failures, idx, DegenerateCellError(f"cell needs at least 3 planar points, got shape {shape}"))
            continue

        # Tolerances follow each cell's own size along each axis, however
        # small, not its distance from the origin.  Drop consecutive
        # duplicates (closed polygon).
        centred = poly - _centre(poly)
        extent = np.abs(centred).max(axis=1)
        scale = extent.max(axis=1)
        distinct = ~(np.abs(poly - _turn(poly, 1)) <= 1e-15 * extent[:, None, :]).all(axis=2)
        for m, rows, keep in _vertex_counts(distinct):
            if m < 3:
                _fail(failures, idx[rows], DegenerateCellError("cell collapses to fewer than 3 distinct vertices"))
            else:
                _orient(idx[rows], _cut(poly, rows, keep), _cut(centred, rows, keep), scale[rows], failures, done)
    return done, failures


def _fail(failures: dict[int, ValueError], idx: np.ndarray, exc: ValueError) -> None:
    """Record exc as the error of each cell in idx."""
    for i in idx.tolist():
        failures[i] = exc


def _vertex_counts(keep: np.ndarray) -> list:
    """Split a block by how many vertices each cell keeps: (m, rows, keep)
    per count m, keep None where no cell drops a vertex."""
    if not len(keep):
        return []
    if keep.all():
        return [(keep.shape[1], slice(None), None)]
    counts = keep.sum(axis=1)
    return [(m, counts == m, keep) for m in np.unique(counts).tolist()]


def _cut(block: np.ndarray, rows, keep) -> np.ndarray:
    """The cells `rows` of a block with only the vertices that `keep` keeps."""
    if keep is None:
        return block
    block = block[rows]
    return block[keep[rows]].reshape(len(block), -1, 2)


def _orient(idx, poly, centred, scale, failures, done) -> None:
    """Reject zero-area cells of a block and turn the others counter-clockwise."""
    # The frame of every test: each cell scaled by 2**-e (exact) to the
    # size `unit` < 1.  Here twice the signed area, against the size of the
    # products it sums, in units of 4**e.
    unit, e = np.frexp(scale)
    shrunk = np.ldexp(centred, -e[:, None, None])
    after = _turn(shrunk, 1)
    area2 = _cross2(shrunk, after).sum(axis=1)
    flat = np.abs(area2) <= 2e-15 * np.abs(shrunk * after[..., ::-1]).sum(axis=(1, 2))
    if flat.any():
        for i in np.flatnonzero(flat).tolist():
            failures[int(idx[i])] = DegenerateCellError(f"cell has zero area (2A = {float(area2[i])!r} * 4**{int(e[i])})")
        idx, poly, unit, e, area2 = idx[~flat], poly[~flat], unit[~flat], e[~flat], area2[~flat]
    clockwise = area2 < 0.0
    if clockwise.any():
        poly = np.where(clockwise[:, None, None], poly[:, ::-1], poly)
    _convexity(idx, poly, unit, e, failures, done)


def _convexity(idx, poly, unit, e, failures, done) -> None:
    """Reject non-convex CCW cells of a block and drop their collinear vertices.

    Turns are taken on each cell scaled by 2**-e, whose size is then unit.
    A vertex is straight when its turn is below 1e-12 rad, and a reflex turn
    within 1e-12 of the cell's size squared is taken as rounding.  A pass
    drops only the first vertex of each run of straight ones: the turn of
    the next is taken again on its new edge, so of two vertices closer than
    the rounding of a turn, whose short edge turns both of them by noise,
    one goes and the corner they make stays.
    """
    shrunk = np.ldexp(poly, -e[:, None, None])
    back = shrunk - _turn(shrunk, -1)
    ahead = _turn(shrunk, 1) - shrunk
    cross = _cross2(back, ahead)
    reflex = (cross < (-1e-12 * unit * unit)[:, None]).any(axis=1)
    straight = cross <= 1e-12 * np.hypot(back[..., 0], back[..., 1]) * np.hypot(ahead[..., 0], ahead[..., 1])
    if straight.any():
        straight &= ~np.roll(straight, 1, axis=1) | straight.all(axis=1)[:, None]
    if reflex.any():
        _fail(failures, idx[reflex], DomainError("cell must be convex"))
        idx, poly, unit, e, straight = idx[~reflex], poly[~reflex], unit[~reflex], e[~reflex], straight[~reflex]
    for m, rows, keep in _vertex_counts(~straight):
        if m == poly.shape[1]:
            done.append((idx[rows], poly[rows]))
        elif m < 3:
            _fail(failures, idx[rows], DegenerateCellError("cell has zero area after collinear-vertex removal"))
        else:
            _convexity(idx[rows], _cut(poly, rows, keep), unit[rows], e[rows], failures, done)


def _halfplanes(poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals (..., m, 2) and offsets (..., m) of CCW cells
    (..., m, 2), so that each cell is {x : N x <= b}."""
    edges = _turn(poly, 1) - poly
    lengths = np.hypot(edges[..., 0], edges[..., 1])
    normals = np.stack((edges[..., 1], -edges[..., 0]), axis=-1) / lengths[..., None]
    offsets = np.einsum("...ij,...ij->...i", normals, poly)
    return normals, offsets


@lru_cache(maxsize=32)
def _quadruples(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tables for a piece's LP on an m-gon, read-only: the pairs (2, P) of rows
    0..m (cell rows, then the start wedge), those with i < j first, then
    swapped; for each quadruple of rows (itertools.combinations order) and
    split (0 1|2 3) (0 2|1 3) (0 3|1 2) (1 2|0 3) (1 3|0 2) (2 3|0 1), the
    pair rows of the leading pair, swapped where the Laplace sign is minus,
    and of the rest (i < j), both (6, Q); and a (Q, m + 2) row mask."""
    pairs = np.array(list(itertools.combinations(range(m + 1), 2)), dtype=np.intp).T
    pairs = np.concatenate((pairs, pairs[::-1]), axis=1)
    quads = np.array(list(itertools.combinations(range(m + 1), 4)), dtype=np.intp).reshape(-1, 4)
    row = np.zeros((m + 1, m + 1), dtype=np.intp)
    row[pairs[0], pairs[1]] = np.arange(pairs.shape[1])
    lead = np.ascontiguousarray(row[quads[:, [0, 2, 0, 1, 3, 2]], quads[:, [1, 0, 3, 2, 1, 3]]].T)
    rest = np.ascontiguousarray(row[quads[:, [2, 1, 1, 0, 0, 0]], quads[:, [3, 3, 2, 3, 2, 1]]].T)
    members = (quads[:, :, None] == np.arange(m + 2)).any(axis=1)
    for table in (pairs, lead, rest, members):
        table.setflags(write=False)
    return pairs, lead, rest, members


def _minors(u: np.ndarray, v: np.ndarray, b: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """(4, ..., P): for each pair (i, j) of rows, the 2x2 minor u_i v_j - u_j v_i
    of the columns u, v (..., rows), the sum |u_i v_j| + |u_j v_i| that
    bounds its rounding, and the minors of the columns (b, v) and (u, b)."""
    ui, uj, vi, vj, bi, bj = (c[..., k] for c in (u, v, b) for k in pairs)
    left, right = ui * vj, uj * vi
    return np.array((left - right, abs(left) + abs(right), bi * vj - bj * vi, ui * bj - uj * bi))


def _vertices(cell_minors, cell, alpha, beta, offsets, m: int) -> tuple:
    """The vertex (x, y, A, B) of every row quadruple of a chunk of K pieces:
    four (K, Q) arrays, NaN where the quadruple is singular (GEO_TOL).

    cell_minors (4, G, P): _minors of the cells' columns (n_x, n_y, b);
    cell (K,): each piece's cell; alpha, beta, offsets (K, m + 2): each
    piece's rows.  Cramer's rule, each determinant expanded along its
    (n_x, n_y) columns: the six terms of every expansion are gathered at
    once and summed in a fixed order, so that chunking does not change a
    bit.
    """
    pairs, lead, rest, _ = _quadruples(m)
    piece_minors = _minors(alpha, beta, offsets, pairs[:, : pairs.shape[1] // 2])
    xy, xy_size, by, xb = cell_minors[:, cell[:, None], lead[:, None, :]]
    ab, ab_size, b_beta, alpha_b = piece_minors[:, np.arange(len(cell))[:, None], rest[:, None, :]]
    det, size, x, y, big_a, big_b = (
        np.add.reduce(u * v, axis=0)
        for u, v in ((xy, ab), (xy_size, ab_size), (by, ab), (xb, ab), (xy, b_beta), (xy, alpha_b))
    )
    det[~(np.abs(det) > GEO_TOL * size)] = np.nan
    return x / det, y / det, big_a / det, big_b / det


def _centre(poly: np.ndarray) -> np.ndarray:
    """Vertex mean (..., 1, 2) of cells (..., m, 2), summed at 2**-k > 1/m: no overflow."""
    m = poly.shape[-2]
    k = m.bit_length()
    return np.ldexp(np.add.reduce(np.ldexp(poly, -k), axis=-2, keepdims=True) / m, k)


def largest_rectangles(cells, p) -> np.ndarray:
    """Largest short side c of a c x cp rectangle in each convex cell in `cells`.

    Each cell is centred and scaled by a power of two (exact), so that no
    product overflows.  Each n_i gives breakpoints atan2(n_i) mod pi/2, and
    for p != 1 those plus pi/2.  On the piece [t0, t1] after a breakpoint
    (alpha_i, beta_i carry q = 1/p and the signs at its midpoint) the LP in
    (x, y, A, B) has the m cell rows (n_i, alpha_i, beta_i | b_i) and the
    wedge rows (0, 0, sin t0, -cos t0 | 0) and (0, 0, -sin t1, cos t1 | 0).
    A piece of zero width (a repeated breakpoint) is skipped: its
    rectangles are feasible at the next piece's start.  On every other
    piece, every quadruple of rows but the end wedge's gives a vertex (one
    at t1 is one at the next piece's start), kept where its quadruple is
    not singular (a square's inscribed squares form a continuum), it meets
    every row outside its quadruple within GEO_TOL of that row's terms (its
    own rows only up to Cramer's rounding, larger on a thin cell), and
    A cos + B sin at the midpoint is >= 0 (on a piece narrower than that
    rounding the wedge rows admit the opposite direction too).
    The largest |(A, B)| kept is cp.  p must be a finite real >= 1
    (DomainError otherwise); at p = 1 this is largest_squares.  The errors
    of convex_cell, and then a DegenerateCellError where no vertex has a
    positive side (a cell with interior always has one), are raised for
    the failing cell of lowest index and name it by its index in `cells`.
    """
    p = check_real(p, "rectangle aspect p", 1.0)
    blocks, failures = _convex_blocks(cells)
    if failures:
        idx = min(failures)
        raise type(failures[idx])(f"cell {idx}: {failures[idx]}") from failures[idx]
    result = np.zeros(sum(len(idxs) for idxs, _ in blocks))
    q = 1.0 / p

    for idxs, polys in blocks:
        m = polys.shape[1]
        block = polys - _centre(polys)
        _, exponent = np.frexp(np.abs(block).max(axis=(1, 2)))
        normals, cell_offsets = _halfplanes(np.ldexp(block, -exponent[:, None, None]))
        n1, n2 = normals[:, None, :, 0], normals[:, None, :, 1]

        breaks = np.arctan2(normals[..., 1], normals[..., 0]) % _QUARTER
        period = _QUARTER
        if p != 1.0:
            breaks = np.concatenate((breaks, breaks + _QUARTER), axis=1)
            period = math.pi
        breaks = np.sort(breaks, axis=1)
        ends = np.concatenate((breaks[:, 1:], breaks[:, :1] + period), axis=1)
        pieces = breaks.shape[1]
        mid = 0.5 * (breaks + ends)
        cos, sin = np.cos(mid)[..., None], np.sin(mid)[..., None]
        sign1 = q * np.sign(n1 * cos + n2 * sin)
        sign2 = np.sign(n2 * cos - n1 * sin)
        # Every piece's m + 2 rows (n_x, n_y, alpha, beta | b): the cell's,
        # then the start and end wedges, whose n and b are 0.
        nx, ny, offsets = np.zeros((3, len(idxs), m + 2))
        nx[:, :m], ny[:, :m], offsets[:, :m] = normals[..., 0], normals[..., 1], cell_offsets
        alpha, beta = np.empty((2, len(idxs), pieces, m + 2))
        alpha[..., :m] = 0.5 * (sign1 * n1 + sign2 * n2)
        beta[..., :m] = 0.5 * (sign1 * n2 - sign2 * n1)
        alpha[..., m], beta[..., m] = np.sin(breaks), -np.cos(breaks)
        alpha[..., m + 1], beta[..., m + 1] = -np.sin(ends), np.cos(ends)
        alpha, beta = alpha.reshape(-1, m + 2), beta.reshape(-1, m + 2)

        pairs, _, _, members = _quadruples(m)
        cell_minors = _minors(nx, ny, offsets, pairs)
        owner = np.repeat(np.arange(len(idxs)), pieces)
        # A zero-width piece (a repeated breakpoint) starts where the next
        # one does, so only the others are solved.
        wide = np.flatnonzero(ends > breaks)
        best = np.full(len(owner), -np.inf)
        step = max(1, CHECK_BUDGET // (len(members) * max(m + 2, 24)))
        for lo in range(0, len(wide), step):
            chunk = wide[lo : lo + step]
            cell, a, b = owner[chunk], alpha[chunk], beta[chunk]
            rb = offsets[cell]
            x, y, big_a, big_b = _vertices(cell_minors, cell, a, b, rb, m)
            # Each row's residual n . v + alpha A + beta B - b, and GEO_TOL
            # times its terms' magnitudes, which bound its rounding.
            residual = np.repeat(-rb[:, None, :], x.shape[1], axis=1)
            slack = np.abs(residual)
            term = np.empty_like(residual)
            for coef, value in ((nx[cell], x), (ny[cell], y), (a, big_a), (b, big_b)):
                np.multiply(coef[:, None, :], value[..., None], out=term)
                residual += term
                slack += np.abs(term, out=term)
            slack *= GEO_TOL
            ahead = big_a * cos.ravel()[chunk, None] + big_b * sin.ravel()[chunk, None]
            ok = np.all((residual <= slack) | members, axis=2) & (ahead >= 0.0)
            ok &= np.isfinite(x) & np.isfinite(y) & np.isfinite(big_a) & np.isfinite(big_b)
            best[chunk] = np.where(ok, np.hypot(big_a, big_b), -np.inf).max(axis=1)

        sides = np.ldexp(best.reshape(-1, pieces).max(axis=1), exponent) / p
        bad = np.flatnonzero(~(sides > 0.0))
        if len(bad):
            i = bad[0]
            failures[int(idxs[i])] = DegenerateCellError(
                f"cell {idxs[i]} has no feasible LP vertex with a positive side "
                f"(best {float(sides[i])!r}): {polys[i].tolist()}"
            )
        result[idxs] = sides
    if failures:
        raise failures[min(failures)]
    return result


def largest_squares(cells) -> np.ndarray:
    """Largest inscribed square side for each convex cell: largest_rectangles at p = 1."""
    return largest_rectangles(cells, 1.0)


def largest_square_in_cell(cell) -> float:
    """Side of the largest square (any orientation) inside one convex cell."""
    return float(largest_squares([cell])[0])


@dataclass(frozen=True)
class PerturbationSpec:
    """Shift and pivot amounts for k near-vertical lines, each in [0, epsilon].

    Amounts and epsilon are finite reals (check_real), stored as floats.
    Whether the lines they make cross is for perturbed_vertical_lines.
    """

    shifts: tuple[float, ...]
    pivots: tuple[float, ...]
    epsilon: float

    def __post_init__(self) -> None:
        shifts = tuple(check_real(s, "shift values") for s in self.shifts)
        pivots = tuple(check_real(p, "pivot values") for p in self.pivots)
        eps = check_real(self.epsilon, "epsilon", 0.0)
        if len(shifts) != len(pivots):
            raise DomainError(
                f"shifts and pivots must have equal length, got {len(shifts)} and {len(pivots)}"
            )
        for name, values in (("shift", shifts), ("pivot", pivots)):
            for value in values:
                if not 0.0 <= value <= eps:
                    raise DomainError(f"{name} values must lie in [0, epsilon], got {value!r}")
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "epsilon", eps)

    @property
    def k(self) -> int:
        return len(self.shifts)


def perturbed_vertical_lines(k: int, spec: PerturbationSpec) -> list[tuple[float, float, float]]:
    """The k lines of a PerturbationSpec as half-planes (nx, ny, b), left to right.

    Line i starts vertical at x = (i + 1)/(k + 1), is shifted right by
    shifts[i] and pivoted by pivots[i] radians about the point at height
    PIVOT_HEIGHT on the shifted line; its unit normal n points right, so
    that the first side {x : n.x <= b} is its left.  This checks the
    spec: a shifted line that leaves the unit square, or two lines out of
    left-to-right order or crossing inside the open unit square (touching
    on its boundary is allowed), raise InvalidPerturbationError; a pivot
    that is not near-vertical raises DomainError.
    """
    k = check_count(k, "line count k")
    if spec.k != k:
        raise DomainError(f"spec describes {spec.k} lines, expected {k}")
    xs = [(i + 1) / (k + 1) + shift for i, shift in enumerate(spec.shifts)]
    for i, x in enumerate(xs):
        if x >= 1.0:
            raise InvalidPerturbationError(f"shifted line {i} leaves the unit square (x={x!r})")
    for angle in spec.pivots:
        if math.cos(angle) <= 1e-9:
            raise DomainError(f"arrangement lines must be near-vertical, got angle {angle!r}")
    # Each line's x at the bottom and the top of the square.
    slopes = [math.tan(angle) for angle in spec.pivots]
    ends = [(x - PIVOT_HEIGHT * t, x + (1.0 - PIVOT_HEIGHT) * t) for x, t in zip(xs, slopes)]
    for i, j in itertools.combinations(range(k), 2):
        d0 = ends[j][0] - ends[i][0]
        d1 = ends[j][1] - ends[i][1]
        if d0 < 0.0 and d1 < 0.0:
            raise InvalidPerturbationError(f"lines {i} and {j} are out of left-to-right order")
        if d0 * d1 < 0.0:
            raise InvalidPerturbationError(f"lines {i} and {j} cross inside the open unit square")
    return [
        (math.cos(angle), -math.sin(angle), math.cos(angle) * x - math.sin(angle) * PIVOT_HEIGHT)
        for x, angle in zip(xs, spec.pivots)
    ]


def _clip_halfplane(poly: list[tuple[float, float]], nx: float, ny: float, b: float):
    """Sutherland-Hodgman clip of a convex polygon (a list of points) by {x : n.x <= b}."""
    out: list[tuple[float, float]] = []
    for cur, nxt in zip(poly, poly[1:] + poly[:1]):
        d_cur = nx * cur[0] + ny * cur[1] - b
        d_nxt = nx * nxt[0] + ny * nxt[1] - b
        if d_cur <= 0.0:
            out.append(cur)
        if (d_cur <= 0.0) != (d_nxt <= 0.0):
            t = d_cur / (d_cur - d_nxt)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out


def arrangement_cells(lines: list[tuple[float, float, float]]) -> list[np.ndarray]:
    """The faces that lines (nx, ny, b) cut the unit square into.

    Each line in turn splits every face with a vertex more than
    GEO_TOL * (|nx| + |ny| + |b|), the rounding of n.x - b in the unit
    square, on each side of it into its halves, {n.x <= b} first, in
    place.  So a line that misses the open square or repeats another
    cuts nothing, and non-crossing lines listed left to right, left sides
    first, give their faces left to right.  Faces are counter-clockwise
    (m, 2) arrays, not normalised (a vertex may repeat); largest_rectangles
    normalises them, as convex_cell does, in one pass per block.  Three or
    more lines through one interior point can leave a face of zero area,
    which the kernel rejects (DegenerateCellError).  A line that is not
    three finite reals with (nx, ny) != 0 raises DomainError.
    """
    faces = [[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]]
    for idx, line in enumerate(lines):
        try:
            nx, ny, b = line
        except (TypeError, ValueError):
            raise DomainError(f"line {idx} must be a triple (nx, ny, b), got {line!r}") from None
        name = f"line {idx} coefficients"
        nx, ny, b = check_real(nx, name), check_real(ny, name), check_real(b, name)
        if nx == 0.0 and ny == 0.0:
            raise DomainError(f"line {idx} has the zero normal (nx, ny) = (0, 0)")
        tol = GEO_TOL * (abs(nx) + abs(ny) + abs(b))
        split = []
        for face in faces:
            sides = [nx * x + ny * y - b for x, y in face]
            if min(sides) < -tol and max(sides) > tol:
                split.append(_clip_halfplane(face, nx, ny, b))
                split.append(_clip_halfplane(face, -nx, -ny, -b))
            else:
                split.append(face)
        faces = split
    return [np.asarray(face, dtype=float) for face in faces]
