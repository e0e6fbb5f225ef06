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
cells with the same edge count, in slices of cells and chunks of pieces
whose largest work arrays take at most errors.MEMORY_BUDGET bytes
(errors._chunks), and tests each vertex against only the m - 2 rows
outside its quadruple.  A chunk's vertices, residuals and slacks each
take one stacked product and one sum in a fixed order, so that neither
the slices nor the chunks change a bit.

Cells reach the kernel as stacked (G, m, 2) blocks, one per vertex
count: largest_rectangles stacks the cells it is given (_stack), and the
perturbation experiments cut their trials' padded faces into one block
per count (_padded_blocks), so that no padding reaches the kernel.
Cells are normalised the same way: one numpy pass per block
checks them and turns them counter-clockwise, and a cell that drops
vertices is normalised again in a block of its new count.  Every product
of coordinates, in the area and turn tests as in the LP, is taken on the
cell scaled by a power of two (exact) to a size below 1, so that none
overflows.  The LP's frame, each cell centred and so scaled (_frame), is
the one that the area test computed, handed on with its block where
normalisation moved no vertex, and computed again only for a block that
it reversed or cut.  convex_cell is the one-cell case of that pass.  A
batch raises the error of its failing cell of lowest index.

arrangement_cells splits each face that a line cuts into both halves in
one pass over the face's vertices.  The perturbation experiments build
the lines of many specs in one array pass (_perturbed_lines, whose
one-spec case is perturbed_vertical_lines) and cut their faces in one
pass per line into one padded array with vertex counts
(_perturbation_faces): in the usual case a line splits only the
rightmost face, and a trial outside it goes through _arrangement_faces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateCellError, DomainError, InvalidPerturbationError, _chunks, check_count, check_real

# Slack of the LP vertex test, per unit of the row's |n_x x| + |n_y y| +
# |alpha A| + |beta B| + |b|: admits the rounding of a vertex tight on more
# than four rows, and no more, so a vertex outside a thin cell's short width
# is dropped however long the cell is.  Also the share of its 24 products'
# magnitudes below which a quadruple's determinant counts as zero, and
# arrangement_cells' bound on the rounding of n.x - b in the unit square.
GEO_TOL = 1e-15

# Height on each shifted line about which perturbed_vertical_lines pivots it.
PIVOT_HEIGHT = 0.5

_QUARTER = math.pi / 2
# Index tables.  _minors' factors (factor, side, term) of the terms
# (u_i v_j, b_i v_j, u_i b_j) - (u_j v_i, b_j v_i, u_j b_i): their column of
# (u, v, b) and their row, 0 for i and 1 for j (see _minor_index).
_MINOR_COLS = np.array([[[0, 2, 0]] * 2, [[1, 1, 2]] * 2])[..., None]
_MINOR_ROWS = np.array([[[0] * 3, [1] * 3], [[1] * 3, [0] * 3]])
# The piece minors of _vertices' expansions (size, det, x, y, A, B).
_PIECE_TERMS = np.array([0, 1, 1, 1, 2, 3])[:, None, None]
# The rows' (b, n_x, n_y, alpha, beta): the order of _vertices' factors.
_RESIDUAL_ORDER = np.array([4, 0, 1, 2, 3])[:, None, None]


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _turn(poly: np.ndarray, k: int) -> np.ndarray:
    """Row i holds vertex i + k (cyclic): np.roll(poly, -k, axis=-2) as one
    gather through an index cached per (m, k), at less call cost."""
    return poly.take(_cyclic(poly.shape[-2], k), axis=-2)


@lru_cache(maxsize=128)
def _cyclic(m: int, k: int) -> np.ndarray:
    """(i + k) mod m for i = 0..m - 1, read-only."""
    index = (np.arange(m) + k) % m
    index.setflags(write=False)
    return index


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
    stacked, failures = _stack([points])
    blocks = _convex_blocks(stacked, failures)
    if failures:
        raise failures[0]
    ((_, poly, _),) = blocks
    return poly[0]


def _stack(cells) -> tuple[list[tuple[np.ndarray, np.ndarray]], dict[int, ValueError]]:
    """Cells as float arrays stacked by shape: a list of blocks (indices,
    (G,) + shape array), indices ascending, and {index: DomainError} for
    the cells with a coordinate that is not a real."""
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
    return [(np.array(idxs), np.array(polys)) for idxs, polys in shapes.values()], failures


def _convex_blocks(blocks, failures: dict[int, ValueError]) -> list[tuple[np.ndarray, np.ndarray, tuple | None]]:
    """Normalise stacked cells as convex_cell does, one numpy pass per block
    of cells with the same vertex count.

    blocks are (indices, (G,) + shape float array), indices ascending
    within a block.  Returns the normalised blocks (indices, (G, m, 2)
    cells, frame), and adds {index: error} for the cells that fail to
    `failures`.  A block's frame is its cells' _frame (shrunk, e) where
    normalisation left every vertex of every cell in its block where it
    was given, and None where it dropped or reversed any.  A cell that
    drops vertices goes on in a new block of its new count, with the
    size, and so the tolerances and the power-of-two frame of the tests,
    of the cell it was given; two blocks may share a count.
    """
    done: list[tuple[np.ndarray, np.ndarray, tuple | None]] = []
    for idx, poly in blocks:
        shape = poly.shape[1:]
        if not np.isfinite(poly).all():
            finite = np.isfinite(poly).all(axis=tuple(range(1, poly.ndim)))
            _fail(failures, idx[~finite], DomainError("cell vertex coordinates must be finite"))
            idx, poly = idx[finite], poly[finite]
        if len(shape) != 2 or shape[1] != 2 or shape[0] < 3:
            _fail(failures, idx, DegenerateCellError(f"cell needs at least 3 planar points, got shape {shape}"))
            continue

        # Tolerances follow each cell's own size along each axis, however
        # small, not its distance from the origin.  Drop consecutive
        # duplicates (closed polygon).
        extent, shrunk, unit, e = _frame(poly)
        distinct = ~np.logical_and.reduce(np.abs(poly - _turn(poly, 1)) <= 1e-15 * extent[:, None, :], axis=2)
        for m, rows, keep in _vertex_counts(distinct):
            if m < 3:
                _fail(failures, idx[rows], DegenerateCellError("cell collapses to fewer than 3 distinct vertices"))
            else:
                cut = _cut(poly, rows, keep), _cut(shrunk, rows, keep)
                _orient(idx[rows], *cut, unit[rows], e[rows], m == shape[0], failures, done)
    return done


def _frame(poly: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The frame of every product of coordinates: cells (G, m, 2) centred
    on their vertex mean and scaled by 2**-e (exact) to the size unit < 1.
    Returns (extent (G, 2) of the centred cells along each axis, the
    scaled cells, unit, e)."""
    centred = poly - _centre(poly)
    extent = np.abs(centred).max(axis=1)
    unit, e = np.frexp(extent.max(axis=1))
    return extent, np.ldexp(centred, -e[:, None, None]), unit, e


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


def _orient(idx, poly, shrunk, unit, e, whole, failures, done) -> None:
    """Reject zero-area cells of a block and turn the others counter-clockwise.

    shrunk is the frame of every test, the block's cells as given centred
    and scaled by 2**-e to the size unit (_frame), and `whole` says that
    they dropped no vertex, so that it frames poly too.
    """
    # Twice the signed area, against the size of the products it sums, in
    # units of 4**e.
    after = _turn(shrunk, 1)
    area2 = _cross2(shrunk, after).sum(axis=1)
    flat = np.abs(area2) <= 2e-15 * np.abs(shrunk * after[..., ::-1]).sum(axis=(1, 2))
    if flat.any():
        for i in flat.nonzero()[0].tolist():
            failures[int(idx[i])] = DegenerateCellError(f"cell has zero area (2A = {float(area2[i])!r} * 4**{int(e[i])})")
        ok = ~flat
        idx, poly, shrunk, unit, e, area2 = idx[ok], poly[ok], shrunk[ok], unit[ok], e[ok], area2[ok]
    clockwise = area2 < 0.0
    if clockwise.any():
        poly, whole = np.where(clockwise[:, None, None], poly[:, ::-1], poly), False
    _convexity(idx, poly, unit, e, shrunk if whole else None, failures, done)


def _convexity(idx, poly, unit, e, framed, failures, done) -> None:
    """Reject non-convex CCW cells of a block and drop their collinear vertices.

    Turns are taken on each cell scaled by 2**-e, whose size is then unit.
    A vertex is straight when its turn is below 1e-12 rad, and a reflex turn
    within 1e-12 of the cell's size squared is taken as rounding.  A pass
    drops only the first vertex of each run of straight ones: the turn of
    the next is taken again on its new edge, so of two vertices closer than
    the rounding of a turn, whose short edge turns both of them by noise,
    one goes and the corner they make stays.  framed is poly's _frame
    cells, or None; a cell that keeps every vertex leaves with its frame.
    """
    shrunk = np.ldexp(poly, -e[:, None, None])
    back = shrunk - _turn(shrunk, -1)
    ahead = _turn(back, 1)
    cross = _cross2(back, ahead)
    reflex = (cross < (-1e-12 * unit * unit)[:, None]).any(axis=1)
    lengths = np.hypot(back[..., :1], back[..., 1:])
    straight = cross <= (1e-12 * lengths * _turn(lengths, 1))[..., 0]
    if straight.any():
        straight &= ~np.roll(straight, 1, axis=1) | straight.all(axis=1)[:, None]
    if reflex.any():
        _fail(failures, idx[reflex], DomainError("cell must be convex"))
        ok = ~reflex
        idx, poly, unit, e, straight = idx[ok], poly[ok], unit[ok], e[ok], straight[ok]
        framed = None if framed is None else framed[ok]
    for m, rows, keep in _vertex_counts(~straight):
        if m == poly.shape[1]:
            done.append((idx[rows], poly[rows], None if framed is None else (framed[rows], e[rows])))
        elif m < 3:
            _fail(failures, idx[rows], DegenerateCellError("cell has zero area after collinear-vertex removal"))
        else:
            _convexity(idx[rows], _cut(poly, rows, keep), unit[rows], e[rows], None, failures, done)


def _halfplanes(poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals (..., m, 2) and offsets (..., m) of CCW cells
    (..., m, 2), so that each cell is {x : N x <= b}."""
    edges = _turn(poly, 1) - poly
    normals = edges[..., ::-1] / np.hypot(edges[..., :1], edges[..., 1:])
    normals[..., 1] *= -1.0
    return normals, normals[..., 0] * poly[..., 0] + normals[..., 1] * poly[..., 1]


@lru_cache(maxsize=32)
def _quadruples(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tables for a piece's LP on an m-gon, read-only: the pairs (2, P) of rows
    0..m (cell rows, then the start wedge), those with i < j first, then
    swapped; for each quadruple of rows (itertools.combinations order) and
    split (0 1|2 3) (0 2|1 3) (0 3|1 2) (1 2|0 3) (1 3|0 2) (2 3|0 1), the
    pair rows of the leading pair, swapped where the Laplace sign is minus,
    and of the rest (i < j), both (6, Q); and the (Q, m - 2) rows of
    0..m + 1 outside each quadruple, ascending."""
    pairs = np.array(list(itertools.combinations(range(m + 1), 2)), dtype=np.intp).T
    pairs = np.concatenate((pairs, pairs[::-1]), axis=1)
    quads = np.array(list(itertools.combinations(range(m + 1), 4)), dtype=np.intp).reshape(-1, 4)
    row = np.zeros((m + 1, m + 1), dtype=np.intp)
    row[pairs[0], pairs[1]] = np.arange(pairs.shape[1])
    lead = np.ascontiguousarray(row[quads[:, [0, 2, 0, 1, 3, 2]], quads[:, [1, 0, 3, 2, 1, 3]]].T)
    rest = np.ascontiguousarray(row[quads[:, [2, 1, 1, 0, 0, 0]], quads[:, [3, 3, 2, 3, 2, 1]]].T)
    outside = np.array([[i for i in range(m + 2) if i not in quad] for quad in quads.tolist()], dtype=np.intp)
    for table in (pairs, lead, rest, outside):
        table.setflags(write=False)
    return pairs, lead, rest, outside


@lru_cache(maxsize=32)
def _minor_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """_minors' gathers on an m-gon, read-only: for all the pairs of
    _quadruples(m), then for those with i < j, the (factor, side, term,
    pair) rows of the m + 2 rows' columns (u, v, b), flattened column by
    column, that _MINOR_COLS and _MINOR_ROWS name."""
    pairs = _quadruples(m)[0]
    tables = tuple(_MINOR_COLS * (m + 2) + some[_MINOR_ROWS] for some in (pairs, pairs[:, : pairs.shape[1] // 2]))
    for table in tables:
        table.setflags(write=False)
    return tables


def _minors(cols: np.ndarray, index: np.ndarray) -> np.ndarray:
    """(4, P, ...): for each pair (i, j) of rows of the columns (u, v, b),
    stacked (3, m + 2, ...), |u_i v_j| + |u_j v_i|, which bounds the
    rounding of the 2x2 minor u_i v_j - u_j v_i, then that minor and those
    of (b, v) and (u, b), all three from one product.  index is a table of
    _minor_index(m), so that its factors take one gather."""
    factors = cols.reshape(-1, *cols.shape[2:]).take(index, axis=0)
    products = factors[0] * factors[1]
    minors = np.empty((4,) + products.shape[2:])
    np.subtract(products[0], products[1], out=minors[1:])
    np.add(abs(products[0, 0]), abs(products[1, 0]), out=minors[0])
    return minors


def _vertices(cell_minors, cell, piece_cols, m: int) -> np.ndarray:
    """The vertex of every row quadruple of a chunk of K pieces as the
    factors (-1, x, y, A, B) of a row's (b, n_x, n_y, alpha, beta), whose
    products summed in that order are the row's residual: a (5, Q, K)
    array, NaN where the quadruple is singular (GEO_TOL).

    cell_minors (4, P, G): _minors of the cells' columns (n_x, n_y, b);
    cell (K,): each piece's cell; piece_cols (3, m + 2, K): each piece's
    columns (alpha, beta, b).  Cramer's rule, each determinant expanded
    along its (n_x, n_y) columns: the six terms of the expansions of det's
    size, det, x, y, A and B, (expansion, term, Q, K), take two products
    and one sum in a fixed order, so that chunking does not change a bit.
    """
    _, lead, rest, _ = _quadruples(m)
    # Each split's other pair's piece minors times its leading pair's cell
    # minors: the size, det, (b, v) and (u, b), then det for A and B.
    terms = _minors(piece_cols, _minor_index(m)[1])[_PIECE_TERMS, rest]
    cell_terms = cell_minors[:, lead].take(cell, axis=-1)
    terms[:4] *= cell_terms
    terms[4:] *= cell_terms[1]
    sums = np.add.reduce(terms, axis=1)
    det = sums[1]
    det[~(np.abs(det) > GEO_TOL * sums[0])] = np.nan
    vertices = sums[1:] / det
    vertices[0] *= -1.0  # det / det is 1 exactly
    return vertices


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
    each of the m - 2 rows outside its quadruple within GEO_TOL of that
    row's terms (its own rows hold only up to Cramer's rounding, larger
    on a thin cell, so they are not read), and
    A cos + B sin at the midpoint is >= 0 (on a piece narrower than that
    rounding the wedge rows admit the opposite direction too).
    The largest |(A, B)| kept is cp.  p must be a finite real >= 1
    (DomainError otherwise); at p = 1 this is largest_squares.  The errors
    of convex_cell, and then a DegenerateCellError where no vertex has a
    positive side (a cell with interior always has one), are raised for
    the failing cell of lowest index and name it by its index in `cells`.
    """
    p = check_real(p, "rectangle aspect p", 1.0)
    return _largest_rectangles(*_stack(cells), p)


def _largest_rectangles(stacked, failures: dict[int, ValueError], p: float) -> np.ndarray:
    """largest_rectangles of cells stacked as _stack stacks them, with
    {index: error} for those that failed already, at a checked p.  Each
    block is cut into the slices of cells that _chunks gives for their
    (5, m + 2, cells, pieces) rows, which take more than their minors, and
    each slice's pieces into the chunks it gives for their largest work
    array; all slices are normalised before any is solved, so that neither
    a value nor an error depends on the slicing."""
    slices = []
    for idxs, polys in stacked:
        m = polys[:1].size // 2  # vertices per cell, before normalisation drops any
        row_bytes = 5 * (m + 2) * (m if p == 1.0 else 2 * m) * polys.itemsize
        slices += [(idxs[lo:hi], polys[lo:hi]) for lo, hi in _chunks(len(idxs), row_bytes)]
    blocks = _convex_blocks(slices, failures)
    if failures:
        idx = min(failures)
        raise type(failures[idx])(f"cell {idx}: {failures[idx]}") from failures[idx]
    result = np.zeros(sum(len(idxs) for idxs, _, _ in blocks))
    q = 1.0 / p

    for idxs, polys, frame in blocks:
        m = polys.shape[1]
        if frame is None:
            _, shrunk, _, exponent = _frame(polys)
        else:
            shrunk, exponent = frame
        normals, cell_offsets = _halfplanes(shrunk)
        breaks = np.arctan2(normals[..., 1], normals[..., 0]) % _QUARTER
        period = _QUARTER
        if p != 1.0:
            breaks = np.concatenate((breaks, breaks + _QUARTER), axis=1)
            period = math.pi
        breaks = np.sort(breaks, axis=1)
        turns = np.concatenate((breaks, breaks[:, :1] + period), axis=1)
        ends = turns[:, 1:]
        pieces = breaks.shape[1]
        mid = 0.5 * (breaks + ends)
        cos, sin = np.cos(mid), np.sin(mid)
        # Every piece's m + 2 rows (n_x, n_y, alpha, beta | b), rows first:
        # the cell's, then the start and end wedges, whose n and b are 0.
        cell_rows = np.zeros((3, m + 2, len(idxs)))
        cell_rows[:2, :m], cell_rows[2, :m] = normals.T, cell_offsets.T
        rows = np.empty((5, m + 2, len(idxs), pieces))
        rows[[0, 1, 4]] = cell_rows[..., None]
        # (alpha, beta) = (q sign(n.d) n + sign(t.d) t) / 2, t = (n_y, -n_x), d = (cos, sin) at mid.
        normal = cell_rows[:2, :m, :, None]
        turned = np.concatenate((normal[1:], -normal[:1]))
        signs = np.sign(normal * cos + turned * sin)
        signs[0] *= q
        np.multiply(0.5, signs[0] * normal + signs[1] * turned, out=rows[2:4, :m])
        wedge = np.array((np.sin(turns), -np.cos(turns)))
        rows[2:4, m], rows[2:4, m + 1] = wedge[..., :-1], -wedge[..., 1:]
        rows = rows.reshape(5, m + 2, -1)

        outside = _quadruples(m)[3]
        cell_minors = _minors(cell_rows, _minor_index(m)[0])
        owner = np.repeat(np.arange(len(idxs)), pieces)
        cos, sin = cos.ravel(), sin.ravel()
        # A zero-width piece (a repeated breakpoint) starts where the next
        # one does, so only the others are solved.
        wide = (ends > breaks).ravel().nonzero()[0]
        best = np.full(len(owner), -np.inf)
        # A piece's largest work array: the 5 (m - 2) coefficients of the rows
        # outside each quadruple, or its 6 x 6 Laplace terms, per quadruple.
        for lo, hi in _chunks(len(wide), 8 * len(outside) * max(5 * (m - 2), 36)):
            chunk = wide[lo:hi]
            chunk_rows = rows[:, :, chunk]
            vertices = _vertices(cell_minors, owner[chunk], chunk_rows[2:], m)
            # Each outside row's residual -b + n . v + alpha A + beta B, and
            # GEO_TOL times its terms' magnitudes, which bound its rounding,
            # each summed term by term in that order.
            terms = chunk_rows[_RESIDUAL_ORDER, outside]
            terms *= vertices[:, :, None, :]
            residual = np.add.reduce(terms, axis=0)
            slack = GEO_TOL * np.add.reduce(np.abs(terms, out=terms), axis=0)
            big_a, big_b = vertices[3:]
            ahead = big_a * cos[chunk] + big_b * sin[chunk]
            ok = np.logical_and.reduce(residual <= slack, axis=1) & (ahead >= 0.0) & np.isfinite(vertices).all(axis=0)
            best[chunk] = np.where(ok, np.hypot(big_a, big_b), -np.inf).max(axis=0)

        sides = np.ldexp(best.reshape(-1, pieces).max(axis=1), exponent) / p
        bad = (~(sides > 0.0)).nonzero()[0]
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
    that is not near-vertical raises DomainError.  This is the one-spec
    case of _perturbed_lines.
    """
    k = check_count(k, "line count k")
    nx, ny, b = _perturbed_lines(k, np.array([spec.shifts], dtype=float), np.array([spec.pivots], dtype=float))
    return list(zip(nx[0].tolist(), ny[0].tolist(), b[0].tolist()))


def _perturbed_lines(k: int, shifts: np.ndarray, pivots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lines (nx, ny, b), each (T, k), of T specs' shifts and pivots
    (T, k), as perturbed_vertical_lines builds them, with its checks: this
    raises the error that the spec of lowest index raises there.

    cos, sin and tan are math's, taken element by element: numpy's tan
    differs from it in the last bit at some angles, which can make two
    lines that touch on the square's boundary cross.  The pair checks
    run in the chunks of specs that _chunks gives for one float per pair.
    """
    if shifts.shape[1] != k:
        raise DomainError(f"spec describes {shifts.shape[1]} lines, expected {k}")
    xs = np.arange(1, k + 1) / (k + 1) + shifts
    cos = _elementwise(math.cos, pivots)
    leaves, steep = xs >= 1.0, cos <= 1e-9
    checked = leaves.any(axis=1) | steep.any(axis=1)
    # Only the specs before the first that fails those checks have lines
    # in the square whose ends are worth comparing.
    first = int(checked.argmax()) if checked.any() else len(shifts)
    # Each line's x at the bottom and the top of the square.
    slopes = _elementwise(math.tan, pivots[:first])
    bottom = xs[:first] - PIVOT_HEIGHT * slopes
    top = xs[:first] + (1.0 - PIVOT_HEIGHT) * slopes
    left, right = _line_pairs(k)
    for lo, hi in _chunks(first, 8 * len(left)):
        d0 = bottom[lo:hi, right] - bottom[lo:hi, left]
        d1 = top[lo:hi, right] - top[lo:hi, left]
        out_of_order = (d0 < 0.0) & (d1 < 0.0)
        bad = out_of_order | (d0 * d1 < 0.0)
        if bad.any():
            spec, pair = np.unravel_index(bad.argmax(), bad.shape)
            i, j = int(left[pair]), int(right[pair])
            if out_of_order[spec, pair]:
                raise InvalidPerturbationError(f"lines {i} and {j} are out of left-to-right order")
            raise InvalidPerturbationError(f"lines {i} and {j} cross inside the open unit square")
    if first < len(shifts):
        if leaves[first].any():
            i = int(leaves[first].argmax())
            raise InvalidPerturbationError(f"shifted line {i} leaves the unit square (x={float(xs[first, i])!r})")
        angle = float(pivots[first, steep[first].argmax()])
        raise DomainError(f"arrangement lines must be near-vertical, got angle {angle!r}")
    sin = _elementwise(math.sin, pivots)
    return cos, -sin, cos * xs - sin * PIVOT_HEIGHT


@lru_cache(maxsize=32)
def _line_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and the second line of every pair of k lines, in
    itertools.combinations order, read-only."""
    pairs = np.triu_indices(k, 1)
    for table in pairs:
        table.setflags(write=False)
    return pairs


def _elementwise(fn, values: np.ndarray) -> np.ndarray:
    """fn of each element of a float array, in its shape."""
    return np.fromiter(map(fn, values.ravel().tolist()), float, values.size).reshape(values.shape)


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
    more lines through one interior point can leave a face that is a
    rounding sliver at that point; the kernel judges it at its own size,
    so it may be scored (a side near the rounding) or rejected
    (DegenerateCellError).  A line that is not three finite reals with
    (nx, ny) != 0 raises DomainError.
    """
    checked = []
    for idx, line in enumerate(lines):
        try:
            nx, ny, b = line
        except (TypeError, ValueError):
            raise DomainError(f"line {idx} must be a triple (nx, ny, b), got {line!r}") from None
        name = f"line {idx} coefficients"
        nx, ny, b = check_real(nx, name), check_real(ny, name), check_real(b, name)
        if nx == 0.0 and ny == 0.0:
            raise DomainError(f"line {idx} has the zero normal (nx, ny) = (0, 0)")
        checked.append((nx, ny, b))
    return [np.asarray(face, dtype=float) for face in _arrangement_faces(checked)]


def _arrangement_faces(lines) -> list[list[tuple[float, float]]]:
    """arrangement_cells' faces, as lists of points, for checked float lines."""
    faces = [[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]]
    for nx, ny, b in lines:
        tol = GEO_TOL * (abs(nx) + abs(ny) + abs(b))
        split = []
        for face in faces:
            sides = [nx * x + ny * y - b for x, y in face]
            if min(sides) < -tol and max(sides) > tol:
                split.extend(_halves(face, sides))
            else:
                split.append(face)
        faces = split
    return faces


def _perturbation_faces(nx: np.ndarray, ny: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The faces that each of T arrangements of k lines (nx, ny, b), each
    (T, k) with nx > 0, cuts the unit square into, as _arrangement_faces
    gives them: a (T, k + 1, V, 2) array padded with NaN and the (T, k + 1)
    vertex counts, V > 4 only where a trial outside the usual case, cut by
    _arrangement_faces, has a face of more; DegenerateCellError for the
    lowest trial whose lines do not cut k + 1 faces.

    In the usual case each line in turn splits only the rightmost face
    [A, (1, 0), (1, 1), D], whose vertices lie on its sides (-, +, +, -),
    each past the tolerance, and no vertex of an earlier face lies past
    the tolerance on its right, so no earlier face is split.  _halves then
    gives [A, P, Q, D] and [P, (1, 0), (1, 1), Q], P on the bottom edge
    and Q on the top, and one (trial,) pass per line repeats its IEEE
    steps.  Every y there is exactly 0.0 or 1.0, so nx * x + ny * y - b is
    nx * x - b on the bottom edge and nx * x + ny - b on the top, bit for
    bit, and a side grows with x along either edge (nx > 0).
    """
    trials, k = nx.shape
    tol = GEO_TOL * (np.abs(nx) + np.abs(ny) + np.abs(b))
    right_bottom, right_top = nx - b, nx + ny - b
    usual = ((right_bottom > tol) & (right_top > tol)).all(axis=1)
    # The x of every face's corners on the bottom and the top edge.
    bottom, top = np.zeros((2, trials, k + 2))
    bottom[:, -1] = top[:, -1] = 1.0
    for j in range(k):
        a, d = bottom[:, j], top[:, j]
        side_a = nx[:, j] * a - b[:, j]
        side_d = nx[:, j] * d + ny[:, j] - b[:, j]
        usual &= (side_a < -tol[:, j]) & (side_d < -tol[:, j])
        cut_a, span_a = side_a, side_a - right_bottom[:, j]
        cut_d, span_d = right_top[:, j], right_top[:, j] - side_d
        if not usual.all():
            # A trial past the usual case keeps its corners, all finite.
            cut_a, cut_d = np.where(usual, cut_a, 0.0), np.where(usual, cut_d, 0.0)
            span_a, span_d = np.where(usual, span_a, 1.0), np.where(usual, span_d, 1.0)
        bottom[:, j + 1] = a + cut_a / span_a * (1.0 - a)
        top[:, j + 1] = 1.0 + cut_d / span_d * (d - 1.0)
    # The rightmost earlier corner on each edge has the largest side there.
    left_bottom = np.maximum.accumulate(bottom[:, :k], axis=1)
    left_top = np.maximum.accumulate(top[:, :k], axis=1)
    usual &= ((nx * left_bottom - b <= tol) & (nx * left_top + ny - b <= tol)).all(axis=1)
    faces = np.empty((trials, k + 1, 4, 2))
    faces[..., 0, 0], faces[..., 1, 0] = bottom[:, :-1], bottom[:, 1:]
    faces[..., 2, 0], faces[..., 3, 0] = top[:, 1:], top[:, :-1]
    faces[..., 1] = (0.0, 0.0, 1.0, 1.0)
    counts = np.full((trials, k + 1), 4)
    for trial in np.flatnonzero(~usual).tolist():
        spec_faces = _arrangement_faces(list(zip(nx[trial].tolist(), ny[trial].tolist(), b[trial].tolist())))
        if len(spec_faces) != k + 1:
            raise DegenerateCellError(f"{k} lines cut {len(spec_faces)} cells, not {k + 1}")
        width = max(map(len, spec_faces))
        if width > faces.shape[2]:
            faces = np.concatenate((faces, np.full((trials, k + 1, width - faces.shape[2], 2), np.nan)), axis=2)
        faces[trial] = np.nan
        for i, face in enumerate(spec_faces):
            faces[trial, i, : len(face)] = face
            counts[trial, i] = len(face)
    return faces, counts


def _padded_blocks(faces: np.ndarray, counts: np.ndarray) -> tuple[list[tuple[np.ndarray, np.ndarray]], dict]:
    """Cells padded to V vertices (..., V, 2) with their vertex counts (...),
    stacked as _stack stacks cells in flat order: a block per count, no failures."""
    cells = faces.reshape(-1, *faces.shape[-2:])
    keep = np.arange(cells.shape[1]) < counts.reshape(-1, 1)
    return [(np.arange(len(cells))[rows], _cut(cells, rows, keep)) for _, rows, keep in _vertex_counts(keep)], {}


def _halves(face, sides):
    """The halves {d <= 0} and {d >= 0} of a face whose vertices have the
    sides d = n.x - b, in one Sutherland-Hodgman pass.

    Against the negated line every IEEE step gives exactly -d (a zero may
    keep its sign) and the same crossing parameter t (a zero t, whatever
    its sign, moves no vertex), so each half is the one that a clip by its
    own half-plane gives, repeated vertices included.
    """
    below: list[tuple[float, float]] = []
    above: list[tuple[float, float]] = []
    for cur, nxt, d_cur, d_nxt in zip(face, face[1:] + face[:1], sides, sides[1:] + sides[:1]):
        if d_cur <= 0.0:
            below.append(cur)
        if d_cur >= 0.0:
            above.append(cur)
        cuts_below = (d_cur <= 0.0) != (d_nxt <= 0.0)
        cuts_above = (d_cur >= 0.0) != (d_nxt >= 0.0)
        if cuts_below or cuts_above:
            t = d_cur / (d_cur - d_nxt)
            point = (cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            if cuts_below:
                below.append(point)
            if cuts_above:
                above.append(point)
    return below, above
