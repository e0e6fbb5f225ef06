import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripwire import cells, oracle
from tripwire.cells import (
    PerturbationSpec,
    arrangement_cells,
    convex_cell,
    largest_rectangles,
    largest_square_in_cell,
    largest_squares,
    perturbed_vertical_lines,
)
from tripwire.errors import (
    DegenerateCellError,
    DomainError,
    InvalidPerturbationError,
    check_real,
)
from tripwire.inscribe import curve_value, diagonal_branch
from tripwire.nets import evenly_spaced, net_scale_factor
from tripwire.oracle import local_perturbation_experiment, perturbation_suite


def sampled_largest_square(poly, grid=41, theta_grid=81, zoom_rounds=8):
    """Containment-sampling check: scan square centers and orientations on a
    grid and zoom around the best sample.  For a convex cell the square at
    center x with orientation theta fits iff every corner does, which gives
    side(x, theta) = min_i (b_i - n_i . x) / u_i(theta) over the cell's
    half-planes.  Odd grid counts keep the incumbent in every window, so the
    best value never regresses between rounds."""
    poly = convex_cell(poly)
    edges = np.roll(poly, -1, axis=0) - poly
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    normals = np.stack((edges[:, 1], -edges[:, 0]), axis=1) / lengths[:, None]
    offsets = np.einsum("ij,ij->i", normals, poly)

    lo = poly.min(axis=0)
    hi = poly.max(axis=0)

    def best_on_window(x_lo, x_hi, y_lo, y_hi, t_lo, t_hi):
        xs = np.linspace(x_lo, x_hi, grid)
        ys = np.linspace(y_lo, y_hi, grid)
        ts = np.linspace(t_lo, t_hi, theta_grid)
        d1 = np.stack((np.cos(ts), np.sin(ts)), axis=1)
        d2 = np.stack((-np.sin(ts), np.cos(ts)), axis=1)
        u = 0.5 * (np.abs(normals @ d1.T) + np.abs(normals @ d2.T))  # (m, T)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        centers = np.stack((gx.ravel(), gy.ravel()), axis=1)  # (C, 2)
        slack = offsets[None, :] - centers @ normals.T  # (C, m)
        sides = np.where(slack[:, :, None] >= 0, slack[:, :, None] / u[None, :, :], -np.inf)
        value = sides.min(axis=1)  # (C, T)
        flat = int(np.argmax(value))
        ci, ti = divmod(flat, value.shape[1])
        return float(value[ci, ti]), centers[ci], float(ts[ti])

    best, center, theta = best_on_window(lo[0], hi[0], lo[1], hi[1], 0.0, math.pi / 2)
    wx = (hi[0] - lo[0]) / (grid - 1)
    wy = (hi[1] - lo[1]) / (grid - 1)
    wt = (math.pi / 2) / (theta_grid - 1)
    for _ in range(zoom_rounds):
        value, new_center, new_theta = best_on_window(
            center[0] - wx, center[0] + wx, center[1] - wy, center[1] + wy,
            theta - wt, theta + wt,
        )
        if value > best:
            best, center, theta = value, new_center, new_theta
        wx /= 8
        wy /= 8
        wt /= 8
    return best


def fixed_angle_lp(poly, p, theta):
    """Independent reference: the fixed-angle LP  max c  s.t.
    n_i . x + c u_i(theta) <= b_i,  u_i = (|n_i . d1| + p |n_i . d2|) / 2,
    solved with np.linalg.solve on every constraint triple at each
    orientation in `theta`; returns the short side c per orientation."""
    poly = convex_cell(poly)
    poly = poly - poly.mean(axis=0)
    edges = np.roll(poly, -1, axis=0) - poly
    normals = np.stack((edges[:, 1], -edges[:, 0]), axis=1)
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    offsets = np.einsum("ij,ij->i", normals, poly)
    count = len(theta)
    d1 = np.stack((np.cos(theta), np.sin(theta)), axis=1)
    d2 = np.stack((-np.sin(theta), np.cos(theta)), axis=1)
    u = 0.5 * (np.abs(normals @ d1.T) + p * np.abs(normals @ d2.T))  # (m, T)
    tol = 1e-12 * max(1.0, float(np.abs(poly).max()))
    best = np.full(count, -np.inf)
    triples = np.array(list(itertools.combinations(range(len(poly)), 3)))
    chunk = max(1, 200_000 // (count * len(poly)))
    for lo in range(0, len(triples), chunk):
        rows = triples[lo : lo + chunk]  # (B, 3)
        matrix = np.empty((len(rows), count, 3, 3))
        matrix[..., 0] = normals[rows, 0][:, None, :]
        matrix[..., 1] = normals[rows, 1][:, None, :]
        matrix[..., 2] = np.swapaxes(u[rows], 1, 2)
        solvable = np.abs(np.linalg.det(matrix)) > 1e-14 * p
        matrix[~solvable] = np.eye(3)
        rhs = np.broadcast_to(offsets[rows][:, None, :, None], matrix.shape[:3] + (1,))
        solution = np.linalg.solve(matrix, rhs)[..., 0]
        x, y, s = solution[..., 0], solution[..., 1], solution[..., 2]  # (B, T)
        lhs = normals[:, 0, None, None] * x + normals[:, 1, None, None] * y + u[:, None, :] * s
        feasible = solvable & np.all(lhs <= offsets[:, None, None] + tol, axis=0)
        best = np.maximum(best, np.where(feasible, s, -np.inf).max(axis=0))
    return best


def dense_fixed_angle_lp(poly, count=20001, p=1.0):
    """The best fixed_angle_lp side over `count` evenly spaced orientations
    in one period of u_i ([0, pi/2] for p = 1, else [0, pi]).  Off a best
    orientation this is low by at most the side's Lipschitz constant
    times half the step."""
    period = math.pi / 2 if p == 1.0 else math.pi
    return float(fixed_angle_lp(poly, p, np.linspace(0.0, period, count)).max())


def zoomed_fixed_angle_lp(poly, p, count, rounds=14, points=21):
    """(grid, zoomed): dense_fixed_angle_lp's value, and the best side after
    `rounds` zooms of `points` orientations around the best one found so
    far, each spanning two steps of the last and so a tenth as wide.

    Rotating a c x cp rectangle by h about its centre and shrinking it by
    cos(h) + p sin(h) keeps it inside the original, so the grid value is
    at least the true optimum / (cos(h) + p sin(h)), h half the step."""
    period = math.pi / 2 if p == 1.0 else math.pi
    theta = np.linspace(0.0, period, count)
    sides = fixed_angle_lp(poly, p, theta)
    grid = best = float(sides.max())
    angle = float(theta[int(np.argmax(sides))])
    step = period / (count - 1)
    for _ in range(rounds):
        theta = np.linspace(angle - step, angle + step, points)
        sides = fixed_angle_lp(poly, p, theta)
        if sides.max() > best:
            best, angle = float(sides.max()), float(theta[int(np.argmax(sides))])
        step /= (points - 1) / 2
    return grid, best


def loop_convex_cell(points):
    """Reference for cells.convex_cell: the same checks on one cell with
    Python scalars and a loop over collinear-vertex removal (the first
    straight vertex of each run per pass), with tolerances of the cell's
    own size however small.  Its turn test multiplies raw edges, which
    overflow past about 1e154 and underflow below about 1e-154."""
    if isinstance(points, np.ndarray) and points.dtype == float:
        if not np.isfinite(points).all():
            raise DomainError("cell vertex coordinates must be finite")
        poly = points
    else:
        raw = np.asarray(points, dtype=object)
        poly = np.array([check_real(x, "cell vertex coordinates") for x in raw.flat]).reshape(raw.shape)
    if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
        raise DegenerateCellError(f"cell needs at least 3 planar points, got shape {poly.shape}")
    centred = poly - np.ldexp(np.ldexp(poly, -len(poly).bit_length()).mean(axis=0), len(poly).bit_length())
    extent = np.abs(centred).max(axis=0)
    scale = float(extent.max())
    distinct = ~(np.abs(poly - np.roll(poly, -1, axis=0)) <= 1e-15 * extent).all(axis=1)
    poly, centred = poly[distinct], centred[distinct]
    if len(poly) < 3:
        raise DegenerateCellError("cell collapses to fewer than 3 distinct vertices")
    e = math.frexp(scale)[1]
    unit = np.ldexp(centred, -e)
    after = np.roll(unit, -1, axis=0)
    area2 = float((unit[:, 0] * after[:, 1] - unit[:, 1] * after[:, 0]).sum())
    if abs(area2) <= 2e-15 * float(np.abs(unit * after[:, ::-1]).sum()):
        raise DegenerateCellError(f"cell has zero area (2A = {area2!r} * 4**{e})")
    if area2 < 0.0:
        poly = poly[::-1]
    while True:
        back = poly - np.roll(poly, 1, axis=0)
        ahead = np.roll(poly, -1, axis=0) - poly
        cross = back[:, 0] * ahead[:, 1] - back[:, 1] * ahead[:, 0]
        if (cross < -1e-12 * scale * scale).any():
            raise DomainError("cell must be convex")
        straight = cross <= 1e-12 * np.hypot(*back.T) * np.hypot(*ahead.T)
        if not straight.all():
            straight &= ~np.roll(straight, 1)
        if not straight.any():
            return poly
        poly = poly[~straight]
        if len(poly) < 3:
            raise DegenerateCellError("cell has zero area after collinear-vertex removal")


def random_convex_polygon(count, rng):
    """count points on a random ellipse, turned and moved: always convex."""
    t = np.sort(rng.uniform(0.0, 2.0 * math.pi, count))
    a, b = rng.uniform(0.2, 2.0, size=2)
    turn = rng.uniform(0.0, math.pi)
    pts = np.stack((a * np.cos(t), b * np.sin(t)), axis=1)
    rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    return pts @ rot.T + rng.uniform(-3.0, 3.0, size=2)


# Cells whose best orientation lies away from the two best points of a
# 96-angle grid, so a search refined around those points ends low (by
# 1.7e-4 and 7.3e-5 relative).
MISSED_HEXAGON = [
    (1.6496854063913704, -1.8704059096646677),
    (1.6355903109620287, -1.8301601644959629),
    (1.329842843730745, -1.5937319013386337),
    (0.47164164721005836, -2.20475629404289),
    (0.6996242287990428, -2.28929531406044),
    (0.9775321594327334, -2.317848450145358),
]
MISSED_QUAD = [
    (2.6332194449769104, -0.831775769389244),
    (2.336841443215427, -0.7429724678030001),
    (1.8166710703660391, -1.2809186725670403),
    (2.144413529448204, -1.2944842007689583),
]

# Turning angles in radians, by test id: "7" is 7 pi / 192 and "50" is
# 50 pi / 192; 0.1, 0.7 and 1.234 are arbitrary.
TURNS = [
    pytest.param(0.0, id="0"),
    pytest.param(7 * math.pi / 192, id="7"),
    pytest.param(50 * math.pi / 192, id="50"),
    0.1,
    0.7,
    1.234,
]


# Cells some 500 and 1800 times longer than wide, where Cramer's rule
# misses a triple's own constraints by more than the check's rounding
# bound, so a vertex is not re-checked against its own three.
THIN_CELLS = {
    "thin-triangle": [(-1.67066439, -2.10942327), (-1.54241042, -2.85022856), (-1.60716532, -2.46818489)],
    "thin-quad": [(-2.6950037, -1.35479803), (-1.23464422, -3.5324276), (-1.90850326, -2.52577591), (-1.93430169, -2.48726444)],
}


def edited_convex_polygons(count, low, high, rng):
    """count random convex polygons of sizes 10**low to 10**high, some far
    from the origin for their size, some clockwise, some with a repeated
    or a collinear vertex."""
    polys = []
    for _ in range(count):
        size = 10.0 ** rng.uniform(low, high)
        poly = random_convex_polygon(int(rng.integers(3, 8)), rng) * size
        poly += rng.uniform(-1.0, 1.0, size=2) * 10.0 ** rng.uniform(0, 3) * size
        edit = rng.integers(4)
        i = int(rng.integers(len(poly)))
        if edit == 1:
            poly = poly[::-1]
        elif edit == 2:
            poly = np.insert(poly, i, poly[i], axis=0)
        elif edit == 3:
            poly = np.insert(poly, i, 0.5 * (poly[i - 1] + poly[i]), axis=0)
        polys.append(poly)
    return polys


def normalised_batch(polys):
    """{index: normalised cell} of cells._convex_blocks(polys), which must
    accept every cell and list each block's indices in ascending order."""
    blocks, failures = cells._convex_blocks(polys)
    assert failures == {}
    assert all(np.all(np.diff(idxs) > 0) for idxs, _ in blocks)
    batch = {int(i): poly for idxs, block in blocks for i, poly in zip(idxs, block)}
    assert sorted(batch) == list(range(len(polys)))
    return batch


# Non-convex: the vertex (1, 0.5) dents the triangle (0, 0), (2, 0), (1, 2).
DENTED_QUAD = [(0, 0), (2, 0), (1, 0.5), (1, 2)]

# A 6-gon of size about 5e-9 whose vertices 0 and 1 are about 4e-22 apart
# at a corner: the short edge between them turns both by rounding.
CLOSE_PAIR_HEXAGON = [
    (-7.5971880701518615e-09, 1.9641558854764458e-09),
    (-7.5971880701514628e-09, 1.9641558854763429e-09),
    (-7.6210176030310229e-09, 1.8695629462508994e-09),
    (-7.4239987683655466e-09, -2.5415383536373995e-09),
    (-5.5480391986762227e-09, -5.5492734628647696e-09),
    (-3.6777996661233418e-09, -6.9317360402402861e-09),
]


def scaled_verdict(run, cell, j):
    """run(cell) scaled by 2**-j, or its error type and message with the
    exponent of a zero-area message's 4**e moved down by j."""
    try:
        return np.ldexp(run(cell), -j).tolist()
    except (DegenerateCellError, DomainError) as exc:
        return type(exc), re.sub(r"4\*\*(-?\d+)", lambda m: f"4**{int(m.group(1)) - j}", str(exc))


def regular_polygon(count, side, angle, center):
    """Regular count-gon with the given side, turned by angle about center."""
    radius = side / (2.0 * math.sin(math.pi / count))
    turns = angle + 2.0 * math.pi * np.arange(count) / count
    return radius * np.stack((np.cos(turns), np.sin(turns)), axis=1) + np.asarray(center)


class TestConvexCell:
    def test_orientation_normalized(self):
        cw = [(0, 0), (0, 1), (1, 1), (1, 0)]
        poly = convex_cell(cw)
        # the shoelace sum is twice the signed area, positive when CCW
        area2 = np.sum(poly[:, 0] * np.roll(poly[:, 1], -1) - np.roll(poly[:, 0], -1) * poly[:, 1])
        assert area2 == pytest.approx(2.0)

    def test_collinear_vertices_dropped(self):
        poly = convex_cell([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        assert len(poly) == 4

    def test_dropping_a_vertex_can_straighten_the_next(self):
        # (1, 2e-13) turns back within the reflex tolerance and goes first;
        # the chord from (0, 0) then leaves (2, 0) a turn below 1e-12 rad
        poly = convex_cell([(0, 0), (1, 2e-13), (2, 0), (3, 0.9e-12), (3, 1), (0, 1)])
        assert poly.tolist() == [[0.0, 0.0], [3.0, 0.9e-12], [3.0, 1.0], [0.0, 1.0]]

    @pytest.mark.parametrize("n", [1e13, 1e300])
    def test_thin_cell_keeps_its_corners(self, n):
        # collinearity is a turn below 1e-12 rad, not a cross product below
        # 1e-12 times the cell's size squared
        assert len(convex_cell([(0, 0), (1, 0), (1, n), (0, n)])) == 4
        assert len(convex_cell([(0, 0), (0.5, 0), (1, 0), (1, n), (0, n)])) == 4

    def test_zero_area_rejected(self):
        with pytest.raises(DegenerateCellError):
            convex_cell([(0, 0), (1, 0), (2, 0)])

    def test_nonconvex_rejected(self):
        with pytest.raises(DomainError):
            convex_cell([(0, 0), (1, 0), (0.2, 0.2), (0, 1)])

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0), (0, 1), (1, 1), (1, 0)],
            [(0, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 0)],
            [(0, 0), (0.5, 0), (1, 0), (1, 1), (0.5, 1), (0, 1)],
            [(0, 0), (0.5, 0), (1, 0), (1, 1e300), (0, 1e300)],
            [(0, 0), (1, 0), (1, 1e-300), (0, 1e-300)],
            *THIN_CELLS.values(),
            arrangement_cells([(1, -1, 0), (1, 1, 1)])[1],
            [(0, 0), (1, 0), (2, 0)],
            [(0, 0)] * 4,
            DENTED_QUAD,
            [(0, 0), (1, 0), (1, 1), (0.5, 1 - 1e-13), (0, 1)],
            np.array([(0.0, 0.0), (1.0, np.nan), (0.0, 1.0)]),
            [(0, 0), (1, 0), ("a", 1)],
            [(0, 0), (1, 0)],
            np.zeros((3, 3)),
        ],
    )
    def test_matches_the_loop_reference(self, points):
        try:
            expected = loop_convex_cell(points)
        except (DegenerateCellError, DomainError) as exc:
            with pytest.raises(type(exc)) as raised:
                convex_cell(points)
            assert str(raised.value) == str(exc)
        else:
            assert np.array_equal(convex_cell(points), expected)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), count=st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_one_batch_equals_each_cell_alone(self, seed, count):
        # random convex polygons of any size the loop reference covers,
        # normalised as one batch
        polys = edited_convex_polygons(count, -6, 6, np.random.default_rng(seed))
        batch = normalised_batch(polys)
        for i, poly in enumerate(polys):
            assert np.array_equal(batch[i], convex_cell(poly))
            assert np.array_equal(batch[i], loop_convex_cell(poly))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), count=st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_huge_cells_normalise_as_their_rescaled_copies(self, seed, count):
        # past about 1e154 a product of two raw edges overflows, so the loop
        # reference does not apply: a cell is checked against its copy
        # scaled by 2**-e to below 1, which every test sees alike
        polys = edited_convex_polygons(count, 154, 300, np.random.default_rng(seed))
        batch = normalised_batch(polys)
        for i, poly in enumerate(polys):
            e = np.frexp(np.abs(poly).max())[1]
            assert np.array_equal(batch[i], np.ldexp(convex_cell(np.ldexp(poly, -e)), e))
            assert np.array_equal(batch[i], convex_cell(poly))


    @pytest.mark.parametrize("scale", [1.0, 1e-5, 1e-7, 1e-20, 1e-300])
    def test_a_small_dent_is_judged_at_the_cell_size(self, scale):
        with pytest.raises(DomainError, match="cell must be convex"):
            convex_cell(np.array(DENTED_QUAD) * scale)

    @pytest.mark.parametrize("scale", [1.0, 1e-14, 1e-16, 1e-300])
    def test_a_small_triangle_is_kept(self, scale):
        triangle = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]) * scale
        assert np.array_equal(convex_cell(triangle), triangle)
        assert largest_square_in_cell(triangle) == pytest.approx(scale / 2, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("j", [0, 30, -30, 900, -900])
    def test_two_close_vertices_keep_their_corner(self, j):
        # both turns at the pair read as straight; only vertex 0, the first
        # of that run, goes, and the cell keeps its 5 corners
        hexagon = np.ldexp(np.array(CLOSE_PAIR_HEXAGON), j)
        assert np.array_equal(convex_cell(hexagon), hexagon[1:])
        assert largest_square_in_cell(hexagon) == math.ldexp(1.5007775759910374e-09, j)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), j=st.integers(min_value=-900, max_value=900))
    @settings(max_examples=60, deadline=None)
    def test_a_cell_scaled_by_a_power_of_two_keeps_its_verdict(self, seed, j):
        # every tolerance follows the cell's own size, so 2**j moves nothing
        # but the sides and the exponent of a zero-area message
        rng = np.random.default_rng(seed)
        polys = edited_convex_polygons(6, -3, 3, rng)
        polys += [np.array(DENTED_QUAD) * 10.0 ** rng.uniform(-3, 3), [(0, 0), (1, 0), (2, 0)], *THIN_CELLS.values()]
        for poly in polys:
            poly = np.asarray(poly, dtype=float)
            big = np.ldexp(poly, j)
            assert scaled_verdict(convex_cell, big, j) == scaled_verdict(convex_cell, poly, 0)
            for p in (1.0, 2.5):
                side = scaled_verdict(lambda cell: largest_rectangles([cell], p), big, j)
                assert side == scaled_verdict(lambda cell: largest_rectangles([cell], p), poly, 0)


class TestLargestSquare:
    def test_unit_square(self):
        assert largest_square_in_cell([(0, 0), (1, 0), (1, 1), (0, 1)]) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_thin_rectangle(self):
        cell = [(0, 0), (1, 0), (1, 0.25), (0, 0.25)]
        assert largest_square_in_cell(cell) == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("w,h", [(0.3, 0.7), (0.5, 0.5), (0.125, 1.0)])
    def test_axis_aligned_rectangles(self, w, h):
        cell = [(0, 0), (w, 0), (w, h), (0, h)]
        assert largest_square_in_cell(cell) == pytest.approx(min(w, h), abs=1e-9)

    # The squares: inscribed squares turned against them form a continuum,
    # so every quadruple of their four edges is singular (solving them
    # anyway gives 0.625 for the one at 0.2 rad).
    @pytest.mark.parametrize(
        "w,h,angle,tol",
        [
            pytest.param(0.7, 0.3, math.radians(30), {"abs": 1e-9}, id="rectangle"),
            pytest.param(0.24, 0.24, 1.0, {"rel": 1e-15, "abs": 0.0}, id="square-1.0"),
            pytest.param(0.24, 0.24, 0.2, {"rel": 1e-15, "abs": 0.0}, id="square-0.2"),
        ],
    )
    def test_rotated_rectangle_still_min_side(self, w, h, angle, tol):
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        base = np.array([(0, 0), (w, 0), (w, h), (0, h)])
        cell = base @ rot.T + np.array([0.1, 0.2])
        assert largest_square_in_cell(cell) == pytest.approx(min(w, h), **tol)

    def test_right_triangle(self):
        # largest square in a right triangle with legs a sits in the corner
        # with side a/2
        cell = [(0, 0), (1, 0), (0, 1)]
        assert largest_square_in_cell(cell) == pytest.approx(0.5, abs=1e-9)

    def test_tilted_trapezoid_matches_containment_sampling(self):
        t = math.tan(0.05)
        cell = [(0, 0), (0.25, 0), (0.25 + t, 1), (0, 1)]
        value = largest_square_in_cell(cell)
        assert value >= 0.25
        assert value == pytest.approx(sampled_largest_square(cell), abs=1e-4)

    # At these cells' best orientations the side has a kink, where a search
    # over angles converges slowly; the candidate set holds them exactly.
    @pytest.mark.parametrize("angle", TURNS)
    def test_rotated_equilateral_triangle_is_exact(self, angle):
        side = 0.37
        cell = regular_polygon(3, side, angle, (0.3, -0.7))
        expected = side * (2.0 * math.sqrt(3.0) - 3.0)
        assert largest_square_in_cell(cell) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("center", [(-4.0, 2.5), (1e4, -3e3)])
    @pytest.mark.parametrize("angle", TURNS)
    def test_rotated_regular_hexagon_is_exact(self, angle, center):
        side = 0.37
        cell = regular_polygon(6, side, angle, center)
        expected = side * (3.0 - math.sqrt(3.0))
        assert largest_square_in_cell(cell) == pytest.approx(expected, rel=1e-12)

    # Far from the origin: duplicate vertices are judged on the cell's own
    # scale, not relative to its coordinates.  1e-9 relative because the
    # vertices 1e6 from the origin are themselves rounded by about 1e-10
    # (the side comes out 2.2e-11 relative low).
    @pytest.mark.parametrize("side,center", [(1e-3, (100.0, -30.0)), (1.0, (1e6, -3e5))])
    @pytest.mark.parametrize("angle", TURNS[:2])
    def test_regular_hexagon_far_from_the_origin(self, angle, side, center):
        cell = regular_polygon(6, side, angle, center)
        assert len(convex_cell(cell)) == 6
        expected = side * (3.0 - math.sqrt(3.0))
        assert largest_square_in_cell(cell) == pytest.approx(expected, rel=1e-9)

    # Past about 1e154 a product of two raw coordinates overflows; every
    # test runs on the cell scaled by a power of two.
    @pytest.mark.parametrize("side", [1e155, 1e200, 1e300])
    @pytest.mark.parametrize("angle", TURNS[:4])
    def test_huge_regular_hexagon_is_exact(self, angle, side):
        cell = regular_polygon(6, side, angle, (0.0, 0.0))
        assert largest_square_in_cell(cell) == pytest.approx(side * (3.0 - math.sqrt(3.0)), rel=1e-15, abs=0.0)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_huge_cells_score_as_their_rescaled_copies(self, seed):
        # exactly 2**e times the side of the copy scaled by 2**-e, alone and
        # in a batch with unit-sized cells
        rng = np.random.default_rng(seed)
        huge = edited_convex_polygons(3, 0, 300, rng)
        batch = [cell for pair in zip(huge, edited_convex_polygons(3, 0, 0, rng)) for cell in pair]
        for p in (1.0, 2.5):
            singles = [largest_rectangles([cell], p)[0] for cell in batch]
            assert np.array_equal(largest_rectangles(batch, p), singles)
            for cell, side in zip(huge, singles[::2]):
                e = np.frexp(np.abs(cell).max())[1]
                assert side == np.ldexp(largest_rectangles([np.ldexp(cell, -e)], p)[0], e)

    def test_mixed_batch_matches_single_cells(self):
        # 3- to 6-gons in one call: cells are grouped by edge count, and the
        # 5- and 6-gons solve more vertex quadruples per piece.  The last
        # four need normalising: a clockwise triangle, a repeated and a
        # collinear vertex (quads that join the 4-gon block), and a raw
        # arrangement face with two repeated vertices (a triangle).
        batch = [
            regular_polygon(3, 0.5, 0.2, (0.1, 0.2)),
            [(0, 0), (0.7, 0), (0.6, 0.4), (0.1, 0.5)],
            regular_polygon(5, 0.3, 0.1, (2.0, -1.0)),
            [(0, 0), (1, 0), (1.2, 0.3), (1.0, 0.6), (0.2, 0.7), (-0.1, 0.3)],
            regular_polygon(4, 0.4, 0.3, (0.0, 0.0)),
            [(0, 0), (0.5, -0.1), (0.9, 0.3), (0.4, 0.8), (-0.1, 0.4)],
            regular_polygon(6, 0.2, 0.05, (0.5, 0.5)),
            [(0, 0), (1, 0), (0.3, 0.9)],
            [(0, 0), (0.3, 0.9), (1, 0)],
            [(0, 0), (0.7, 0), (0.7, 0), (0.6, 0.4), (0.1, 0.5)],
            [(0, 0), (0.35, 0), (0.7, 0), (0.6, 0.4), (0.1, 0.5)],
            arrangement_cells([(1, -1, 0), (1, 1, 1)])[0],
        ]
        assert [len(convex_cell(cell)) for cell in batch[-4:]] == [3, 4, 4, 3]
        for p in (1.0, 2.5):
            singles = [largest_rectangles([cell], p)[0] for cell in batch]
            assert np.array_equal(largest_rectangles(batch, p), singles)
            assert all(value > 0.0 for value in singles)

    # 20,001 orientations put every angle within pi/80000 of a sampled one,
    # and the side moves by well under 1e-4 relative over that step.
    @pytest.mark.parametrize(
        "cell",
        [pytest.param(MISSED_HEXAGON, id="hexagon"), pytest.param(MISSED_QUAD, id="quad")]
        + [
            pytest.param(random_convex_polygon(count, np.random.default_rng(seed)), id=f"{count}-gon-{seed}")
            for count in range(3, 9)
            for seed in range(4)
        ],
    )
    def test_matches_dense_fixed_angle_lp(self, cell):
        dense = dense_fixed_angle_lp(cell)
        value = largest_square_in_cell(cell)
        assert dense * (1.0 - 1e-12) <= value <= dense * (1.0 + 1e-4)

    def test_no_feasible_vertex_names_the_cell(self, monkeypatch):
        # an empty half-plane system for the quad (every offset pulled in
        # past the opposite side): its LP optimum is a negative side
        halfplanes = cells._halfplanes

        def emptied(poly):
            normals, offsets = halfplanes(poly)
            return normals, offsets - (2.0 if poly.shape[-2] == 4 else 0.0)

        monkeypatch.setattr(cells, "_halfplanes", emptied)
        batch = [[(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (1, 1), (0, 1)]]
        with pytest.raises(DegenerateCellError, match="cell 1 "):
            largest_squares(batch)

    def test_lowest_infeasible_cell_is_named_across_blocks(self, monkeypatch):
        # the last cell of each block emptied: cell 3 of the triangles' and
        # cell 2 of the quads'; every block is solved before either is named
        halfplanes = cells._halfplanes

        def emptied(poly):
            normals, offsets = halfplanes(poly)
            offsets[-1] -= 2.0
            return normals, offsets

        monkeypatch.setattr(cells, "_halfplanes", emptied)
        triangle, quad = [(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (1, 1), (0, 1)]
        with pytest.raises(DegenerateCellError, match="^cell 2 "):
            largest_squares([triangle, quad, quad, triangle])

    @given(
        angle=st.floats(min_value=0.0, max_value=1.5),
        w=st.floats(min_value=0.1, max_value=1.0),
        h=st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_rectangles_at_any_angle(self, angle, w, h):
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        base = np.array([(0, 0), (w, 0), (w, h), (0, h)])
        cell = base @ rot.T
        assert largest_square_in_cell(cell) == pytest.approx(min(w, h), abs=1e-8)


def hole(n):
    return [(0.0, 0.0), (1.0, 0.0), (1.0, n), (0.0, n)]


# Log grids over the whole domain of the closed form, with its edge 1 + 1e-12.
HOLE_ASPECTS = [1.0, 1.0 + 1e-12] + [10.0 ** (i / 2) for i in range(1, 19)]
INTRUDER_ASPECTS = [1.0, 1.0 + 1e-12] + [10.0 ** (i / 2) for i in range(1, 25)] + [1e155, 1e300]


class TestLargestRectangles:
    @pytest.mark.parametrize("p", INTRUDER_ASPECTS)
    def test_hole_matches_the_closed_form(self, p):
        # the rectangle kernel shares no code with inscribe
        values = largest_rectangles([hole(n) for n in HOLE_ASPECTS], p)
        expected = [curve_value(n, p) for n in HOLE_ASPECTS]
        assert values == pytest.approx(expected, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("p", INTRUDER_ASPECTS)
    def test_hole_matches_the_larger_branch(self, p):
        # exact to a few ulps: the larger of the vertical and corner-contact
        # placements, without curve_value's 1e-12 preference for the vertical
        values = largest_rectangles([hole(n) for n in HOLE_ASPECTS], p)
        expected = [1.0 if p <= n else max(n / p, diagonal_branch(n, p).c) for n in HOLE_ASPECTS]
        assert values == pytest.approx(expected, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize(
        "n,p", [(1e3, 1e3 / (1 + 4e-10)), (1e9, 1e9 / (1 + 1e-4)), (1e12, 1e12 / (1 + 1e-8)), (1e16, 1e16 / (1 + 1e-6))]
    )
    def test_hole_just_longer_than_the_rectangle(self, n, p):
        # 1 < n/p: the hole's width of 1 binds, however long the hole is
        assert largest_rectangles([hole(n)], p)[0] == pytest.approx(1.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [1e13, 1e16, 1e100, 1e300])
    def test_thin_holes(self, n):
        # at these aspects the curve is min(1, n/p) to double precision
        ps = [1.0, n / 2, 1.5 * n, 10.0 * n, 1e3 * n]
        values = [largest_rectangles([hole(n)], p)[0] for p in ps]
        assert values == pytest.approx([min(1.0, n / p) for p in ps], rel=1e-15, abs=0.0)

    def test_no_overflow_at_huge_aspects(self):
        # C_1(p) = sqrt(2) / (p + 1) on the diagonal branch
        for p in (1e100, 1e300, 1.7e308):
            assert largest_rectangles([hole(1.0)], p)[0] == pytest.approx(math.sqrt(2.0) / p, rel=1e-12)

    def test_square_is_the_p_1_case(self):
        polys = [random_convex_polygon(count, np.random.default_rng(seed)) for count in range(3, 9) for seed in range(4)]
        polys += [MISSED_HEXAGON, MISSED_QUAD]
        assert np.array_equal(largest_rectangles(polys, 1.0), largest_squares(polys))

    @pytest.mark.parametrize("p", [1.0, 1.7, 6.0])
    @pytest.mark.parametrize("count", [3, 4, 6, 9])
    def test_invariant_under_rotation_and_translation(self, count, p):
        poly = random_convex_polygon(count, np.random.default_rng(count))
        moved = []
        for turn, shift in [(0.3, (0.0, 0.0)), (1.1, (5.0, -2.0)), (2.9, (-40.0, 70.0)), (math.pi / 2, (0.5, 0.5))]:
            rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
            moved.append(poly @ rot.T + np.asarray(shift))
        base = largest_rectangles([poly], p)[0]
        assert largest_rectangles(moved, p) == pytest.approx([base] * len(moved), rel=1e-12)

    @pytest.mark.parametrize(
        "bad,error,message",
        [
            ([(0, 0), (1, 0), (2, 0)], DegenerateCellError, "cell 1: cell has zero area"),
            ([(0, 0), (2, 0), (1, 0.5), (1, 2)], DomainError, "cell 1: cell must be convex"),
        ],
        ids=["zero-area", "non-convex"],
    )
    def test_rejected_cell_is_named_by_its_index(self, bad, error, message):
        triangle = [(0, 0), (1, 0), (0, 1)]
        with pytest.raises(error, match=f"^{message}"):
            largest_squares([triangle, bad, triangle])

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([(0.0, 0.0), (1.0, 0.0), (1.0, np.nan), (0.0, 1.0)]),
            np.array([(0.0, 0.0), (1.0, 0.0), (np.inf, 1.0), (0.0, 1.0)]),
            [(0, 0), (2, 0), (1, 0.5), (1, 2)],
            [(0, 0), (1, 0), (2, 0), (3, 0)],
            [(0, 0), (1, 0), (1, 1), ("1", 1)],
        ],
        ids=["nan", "inf", "non-convex", "zero-area", "string"],
    )
    @pytest.mark.parametrize("index", [0, 2, 5])
    def test_bad_cell_in_a_batch_fails_as_it_does_alone(self, bad, index):
        # the bad cell shares its block with clean 4-gons, one of them
        # clockwise and one with a repeated vertex; under the RuntimeWarning
        # filter a NaN or inf cell must not warn in the block's arithmetic
        clean = [
            np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
            [(0, 0), (0, 1), (1, 1), (1, 0)],
            regular_polygon(4, 0.5, 0.3, (2.0, 1.0)),
            [(0, 0), (1, 0), (1, 0), (0.5, 1)],
            regular_polygon(4, 0.2, 1.0, (-1.0, 0.5)),
        ]
        with pytest.raises((DegenerateCellError, DomainError)) as alone:
            convex_cell(bad)
        batch = clean[:index] + [bad] + clean[index:]
        with pytest.raises(alone.type) as raised:
            largest_squares(batch)
        assert str(raised.value) == f"cell {index}: {alone.value}"

    @pytest.mark.parametrize(
        "first,second",
        [
            ([(0, 0), (2, 0), (1, 0.5), (1, 2)], [(0, 0), (1, 0), ("a", 1)]),
            ([(0, 0), (1, 0), (2, 0)], np.array([(0.0, 0.0), (1.0, np.nan), (0.0, 1.0)])),
            ([(0, 0), (1, 0), ("a", 1)], [(0, 0), (2, 0), (1, 0.5), (1, 2)]),
            (np.array([(0.0, 0.0), (1.0, 0.0), (np.inf, 1.0)]), [(0, 0), (1, 0), (2, 0)]),
        ],
        ids=["non-convex-then-string", "zero-area-then-nan", "string-then-non-convex", "inf-then-zero-area"],
    )
    def test_lower_index_of_two_bad_cells_wins(self, first, second):
        # the string fails as its coordinates are read, before any block
        # is checked, and still loses to a bad cell at a lower index
        triangle = [(0, 0), (1, 0), (0, 1)]
        with pytest.raises((DegenerateCellError, DomainError)) as alone:
            convex_cell(first)
        with pytest.raises(alone.type) as raised:
            largest_squares([triangle, first, triangle, second, triangle])
        assert str(raised.value) == f"cell 1: {alone.value}"

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), 0.5, True, False])
    def test_bad_aspect_rejected(self, p):
        with pytest.raises(DomainError):
            largest_rectangles([hole(2.0)], p)

    def test_chunks_give_the_same_sides(self, monkeypatch):
        # a budget this small solves one piece at a time, so a lone 16-gon's
        # pieces are split over chunks
        batch = [random_convex_polygon(count, np.random.default_rng(seed)) for count in (4, 5, 7) for seed in range(3)]
        batch.append(random_convex_polygon(16, np.random.default_rng(0)))
        whole = {p: largest_rectangles(batch, p) for p in (1.0, 2.5)}
        monkeypatch.setattr(cells, "CHECK_BUDGET", 50)
        for p, values in whole.items():
            assert np.array_equal(largest_rectangles(batch, p), values)

    # zoomed: the kernel never misses a best orientation that the reference
    # zooms onto (which its 1e-12 vertex slack can overshoot by about
    # 1e-12 relative at a kink); grid: the kernel's side is attained.
    @pytest.mark.parametrize(
        "cell,p,count",
        [
            pytest.param(random_convex_polygon(count, np.random.default_rng(seed)), p, 2001, id=f"{count}-gon-{seed}-p{p}")
            for count in range(3, 9)
            for seed, p in [(4, 1.7), (5, 6.0)]
        ]
        + [pytest.param(MISSED_HEXAGON, 2.5, 2001, id="hexagon-p2.5")]
        + [pytest.param(cell, p, 2001, id=f"{name}-p{p}") for name, cell in THIN_CELLS.items() for p in (1.0, 3.0)]
        + [
            pytest.param(random_convex_polygon(count, np.random.default_rng(0)), p, 501, id=f"{count}-gon-p{p}")
            for count, p in [(16, 1.0), (16, 2.5), (24, 1.0)]
        ],
    )
    def test_matches_zoomed_fixed_angle_lp(self, cell, p, count):
        grid, zoomed = zoomed_fixed_angle_lp(cell, p, count)
        half_step = (math.pi / 2 if p == 1.0 else math.pi) / (count - 1) / 2
        value = largest_rectangles([cell], p)[0]
        assert zoomed * (1.0 - 1e-11) <= value <= grid * (math.cos(half_step) + p * math.sin(half_step))


class TestPerturbationSpec:
    def test_bounds_enforced(self):
        with pytest.raises(DomainError):
            PerturbationSpec(shifts=(-0.01, 0, 0), pivots=(0, 0, 0), epsilon=0.02)
        with pytest.raises(DomainError):
            PerturbationSpec(shifts=(0.05, 0, 0), pivots=(0, 0, 0), epsilon=0.02)
        with pytest.raises(DomainError):
            PerturbationSpec(shifts=(0, 0), pivots=(0, 0, 0), epsilon=0.02)

    @pytest.mark.parametrize(
        "shifts, pivots, epsilon",
        [
            ((True, 0, 0), (0, 0, 0), 1.0),
            ((0, 0, 0), (0, 0, "0.01"), 0.02),
            ((0, 0, 0), (0, 0, 0), True),
            ((0, 0, 0), (0, 0, 0), "0.02"),
            ((0, 0, 0), (0, 0, 0), None),
        ],
        ids=["shift-bool", "pivot-str", "epsilon-bool", "epsilon-str", "epsilon-none"],
    )
    def test_amounts_must_be_reals(self, shifts, pivots, epsilon):
        with pytest.raises(DomainError, match="must be a real number"):
            PerturbationSpec(shifts=shifts, pivots=pivots, epsilon=epsilon)

    def test_amounts_stored_as_floats(self):
        spec = PerturbationSpec(shifts=(0, 1, np.float64(0.5)), pivots=(0, 0, 0), epsilon=1)
        assert spec.shifts == (0.0, 1.0, 0.5) and spec.epsilon == 1.0
        assert all(type(x) is float for x in (*spec.shifts, *spec.pivots, spec.epsilon))

    def test_all_zero_spec(self):
        spec = PerturbationSpec(shifts=(0.0,) * 3, pivots=(0.0,) * 3, epsilon=0.0)
        assert spec.shifts == (0.0, 0.0, 0.0)
        assert spec.k == 3


class TestArrangementCells:
    def test_unperturbed_cells_are_slabs(self):
        spec = PerturbationSpec(shifts=(0.0,) * 3, pivots=(0.0,) * 3, epsilon=0.0)
        cells = arrangement_cells(perturbed_vertical_lines(3, spec))
        assert len(cells) == 4
        for cell in cells:
            area2 = np.sum(cell[:, 0] * np.roll(cell[:, 1], -1) - np.roll(cell[:, 0], -1) * cell[:, 1])
            assert 0.5 * abs(area2) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 4.0, 10.0])
    def test_axis_aligned_nets_match_the_closed_form(self, k, p):
        for v in range(k + 1):
            net = evenly_spaced(v, k - v)
            lines = [(1.0, 0.0, x) for x in net.vertical] + [(0.0, 1.0, y) for y in net.horizontal]
            faces = arrangement_cells(lines)
            assert len(faces) == (v + 1) * (k - v + 1)
            value = largest_rectangles(faces, p).max()
            assert value == pytest.approx(net_scale_factor(net, p), rel=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), count=st.integers(min_value=1, max_value=7))
    @settings(max_examples=300, deadline=None)
    def test_general_position_counts_faces_and_covers_the_square(self, seed, count):
        # Euler: each line crossing the open square adds a face, and so does
        # each crossing of two lines inside it, in general position: no line
        # within `margin` of a corner or of a crossing of two others, no two
        # lines within `margin` of parallel, no crossing within `margin` of
        # the boundary.
        margin = 1e-9
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
        normals = np.stack((np.cos(angles), np.sin(angles)), axis=1)
        offsets = np.einsum("ij,ij->i", normals, rng.uniform(-0.25, 1.25, size=(count, 2)))
        corners = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        sides = corners @ normals.T - offsets
        assume((np.abs(sides) > margin).all())
        expected = 1 + int(((sides.min(axis=0) < 0.0) & (sides.max(axis=0) > 0.0)).sum())
        for i, j in itertools.combinations(range(count), 2):
            assume(abs(np.linalg.det(normals[[i, j]])) > margin)
            point = np.linalg.solve(normals[[i, j]], offsets[[i, j]])
            others = [m for m in range(count) if m not in (i, j)]
            assume((np.abs(normals[others] @ point - offsets[others]) > margin).all())
            assume((np.abs(point) > margin).all() and (np.abs(point - 1.0) > margin).all())
            expected += int(((point > 0.0) & (point < 1.0)).all())
        faces = arrangement_cells([(float(nx), float(ny), float(b)) for (nx, ny), b in zip(normals, offsets)])
        assert len(faces) == expected
        areas = [0.5 * float(cells._cross2(face, np.roll(face, -1, axis=0)).sum()) for face in faces]
        assert min(areas) > 0.0
        assert math.fsum(areas) == pytest.approx(1.0, abs=1e-14)

    def test_both_diagonals(self):
        r = math.sqrt(0.5)
        faces = arrangement_cells([(r, -r, 0.0), (r, r, r)])
        assert len(faces) == 4
        # a right triangle with legs a = b = sqrt(2)/2 holds a square of side ab/(a+b)
        assert largest_squares(faces) == pytest.approx([math.sqrt(2) / 4] * 4, rel=1e-12)

    @pytest.mark.parametrize("line", [(1.0, 0.0, 2.0), (1.0, 0.0, -1.0), (0.6, 0.8, -0.1), (1.0, 0.0, 0.0)])
    def test_line_missing_the_open_square_cuts_nothing(self, line):
        (face,) = arrangement_cells([line])
        assert face.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]

    def test_two_lines_beat_the_axis_aligned_optimum_near_the_crossover(self):
        # two near-diagonal lines cutting off opposite corners, at p = 1.5
        # (the k = 2 crossover, where both axis-aligned optima score 1/3)
        lines = [(math.cos(a), math.sin(a), b) for a, b in ((0.785, 0.550), (0.750, 0.862))]
        faces = arrangement_cells(lines)
        assert len(faces) == 3
        value = largest_rectangles(faces, 1.5).max()
        assert value == pytest.approx(0.315383, abs=1e-6)
        assert value < net_scale_factor(evenly_spaced(2, 0), 1.5) == pytest.approx(1 / 3)

    def test_crossing_lines_rejected(self):
        # pivots large enough that consecutive lines cross inside the square
        spec = PerturbationSpec(shifts=(0, 0, 0), pivots=(0.5, 0.0, 0.5), epsilon=0.5)
        with pytest.raises(InvalidPerturbationError, match="lines 0 and 1 cross"):
            perturbed_vertical_lines(3, spec)

    def test_out_of_order_lines_rejected(self):
        # line 0 shifted past line 1 (at x = 2/3) stays parallel to it
        spec = PerturbationSpec(shifts=(0.5, 0.0), pivots=(0.0, 0.0), epsilon=0.5)
        with pytest.raises(InvalidPerturbationError, match="lines 0 and 1 are out of left-to-right order"):
            perturbed_vertical_lines(2, spec)


    @pytest.mark.parametrize(
        "line, message",
        [
            ((1, 0, math.nan), "line 1 coefficients must be finite"),
            ((math.inf, 0, 0.5), "line 1 coefficients must be finite"),
            ((0, 0, 0.5), "line 1 has the zero normal"),
            ((1, 0, "0.5"), "line 1 coefficients must be a real number"),
            ((1, 0), r"line 1 must be a triple \(nx, ny, b\)"),
            (None, r"line 1 must be a triple \(nx, ny, b\)"),
        ],
        ids=["nan-offset", "inf-normal", "zero-normal", "str-offset", "pair", "none"],
    )
    def test_bad_line_is_a_domain_error(self, line, message):
        # each of these used to cut nothing or raise a raw TypeError / ValueError
        with pytest.raises(DomainError, match=message):
            arrangement_cells([(1, 0, 0.25), line])

    def test_numpy_line_accepted(self):
        faces = arrangement_cells([np.array([1.0, 0.0, 0.5])])
        assert [face[:, 0].max() for face in faces] == [0.5, 1.0]


class TestPerturbedVerticalLines:
    def test_lines_are_left_sides_in_order(self):
        spec = PerturbationSpec(shifts=(0.0, 0.01, 0.0), pivots=(0.0, 0.0, 0.02), epsilon=0.02)
        lines = perturbed_vertical_lines(3, spec)
        assert lines[:2] == [(1.0, -0.0, 0.25), (1.0, -0.0, 0.51)]
        nx, ny, b = lines[2]
        assert (nx, ny) == (math.cos(0.02), -math.sin(0.02))
        assert nx * 0.75 + ny * 0.5 == pytest.approx(b, abs=1e-15)
        cells = arrangement_cells(lines)
        assert [cell[:, 0].mean() < other[:, 0].mean() for cell, other in zip(cells, cells[1:])] == [True] * 3

    @pytest.mark.parametrize(
        "shifts, pivots, error, message",
        [
            ((0.0, 0.0, 0.5), (0.0, 0.0, 0.0), InvalidPerturbationError, "shifted line 2 leaves the unit square"),
            ((0.0, 0.0, 0.0), (0.0, math.pi / 2, 0.0), DomainError, "must be near-vertical"),
        ],
    )
    def test_spec_checks(self, shifts, pivots, error, message):
        spec = PerturbationSpec(shifts=shifts, pivots=pivots, epsilon=2.0)
        with pytest.raises(error, match=message):
            perturbed_vertical_lines(3, spec)

    def test_k_must_match_the_spec(self):
        with pytest.raises(DomainError, match="spec describes 3 lines, expected 4"):
            perturbed_vertical_lines(4, PerturbationSpec(shifts=(0.0,) * 3, pivots=(0.0,) * 3, epsilon=0.0))


    def test_lines_touching_on_the_boundary(self):
        # line 1, pivoted by atan(1/2) + 1 ulp, runs from (0.25, 0) to
        # (0.75, 1) and touches lines 0 and 2 on the square's edge; the
        # rounding of n.x - b at those corners must not split a neighbour
        spec = PerturbationSpec(shifts=(0.0,) * 3, pivots=(0.0, 0.46364760900080615, 0.0), epsilon=0.5)
        cells = arrangement_cells(perturbed_vertical_lines(3, spec))
        assert len(cells) == 4
        # the middle faces are right triangles with legs 1/2 and 1: a square of side 1/3
        report = local_perturbation_experiment(3, spec)
        assert report.parameters["cell_values"] == pytest.approx([0.25, 1 / 3, 1 / 3, 0.25], rel=1e-12)


class TestLocalPerturbationExperiment:
    def test_identity_perturbation(self):
        spec = PerturbationSpec(shifts=(0.0,) * 3, pivots=(0.0,) * 3, epsilon=0.0)
        report = local_perturbation_experiment(3, spec)
        assert report.passed
        assert dict(report.candidates)["perturbed"] == pytest.approx(0.25, abs=1e-9)
        assert report.parameters["cell_values"] == pytest.approx([0.25] * 4, abs=1e-9)

    def test_middle_shift_grows_the_left_neighbor(self):
        delta = 0.01
        spec = PerturbationSpec(shifts=(0.0, delta, 0.0), pivots=(0.0, 0.0, 0.0), epsilon=delta)
        report = local_perturbation_experiment(3, spec)
        assert report.passed
        assert dict(report.candidates)["perturbed"] == pytest.approx(0.25 + delta, abs=1e-9)

    def test_single_pivot_grows_a_neighbor(self):
        spec = PerturbationSpec(shifts=(0.0, 0.0, 0.0), pivots=(0.0, 0.02, 0.0), epsilon=0.02)
        report = local_perturbation_experiment(3, spec)
        value = dict(report.candidates)["perturbed"]
        assert report.passed
        assert value > 0.25
        # the widened trapezoid admits at least the best axis-aligned square
        t = math.tan(0.02)
        assert value >= (0.25 + 0.5 * t) / (1.0 + t) - 1e-9

    def test_coincident_lines_rejected(self):
        # line 0 shifted onto line 1 leaves a cell of zero width between them
        spec = PerturbationSpec(shifts=(0.25, 0.0, 0.0), pivots=(0.0, 0.0, 0.0), epsilon=0.25)
        with pytest.raises(DegenerateCellError):
            local_perturbation_experiment(3, spec)

    def test_errors_name_the_spec(self):
        zero = PerturbationSpec(shifts=(0.0,) * 3, pivots=(0.0,) * 3, epsilon=0.0)
        coincident = PerturbationSpec(shifts=(0.25, 0.0, 0.0), pivots=(0.0, 0.0, 0.0), epsilon=0.25)
        with pytest.raises(DegenerateCellError, match=r"^spec 1: 3 lines cut 3 cells, not 4$"):
            oracle._spec_cell_values(3, [zero, coincident])

    def test_kernel_errors_name_the_spec_and_its_cell(self, monkeypatch):
        # the second spec's third cell replaced by a zero-area one
        build = oracle.arrangement_cells
        built = []

        def with_sliver(lines):
            faces = build(lines)
            built.append(faces)
            if len(built) == 2:
                faces[2] = np.array([(0.5, 0.0), (0.5, 0.5), (0.5, 1.0)])
            return faces

        monkeypatch.setattr(oracle, "arrangement_cells", with_sliver)
        zero = PerturbationSpec(shifts=(0.0,) * 3, pivots=(0.0,) * 3, epsilon=0.0)
        with pytest.raises(DegenerateCellError, match=r"^spec 1: cell 2: cell has zero area"):
            oracle._spec_cell_values(3, [zero, zero, zero])

    def test_requires_more_than_two_lines(self):
        with pytest.raises(DomainError):
            local_perturbation_experiment(2, PerturbationSpec(shifts=(0.0,) * 2, pivots=(0.0,) * 2, epsilon=0.0))

    def test_deterministic_report(self):
        spec = PerturbationSpec(shifts=(0.0, 0.01, 0.0), pivots=(0.0, 0.005, 0.01), epsilon=0.01)
        a = local_perturbation_experiment(3, spec)
        b = local_perturbation_experiment(3, spec)
        assert a.to_dict() == b.to_dict()


class TestPerturbationSuite:
    def test_small_seeded_suite_passes(self):
        report = perturbation_suite(3, trials=40, epsilon=0.02, seed=7)
        assert report.passed
        assert report.parameters["min_perturbed"] >= 0.25 - 1e-9
        assert report.seed == 7

    def test_suite_matches_per_spec_experiments(self):
        rng = np.random.default_rng(7)
        k = 3
        specs = [
            PerturbationSpec(
                shifts=tuple(rng.uniform(0.0, 0.02, size=k)),
                pivots=tuple(rng.uniform(0.0, 0.02, size=k)),
                epsilon=0.02,
            )
            for _ in range(5)
        ]
        suite = perturbation_suite(k, trials=5, epsilon=0.02, seed=7)
        singles = min(
            dict(local_perturbation_experiment(k, spec).candidates)["perturbed"]
            for spec in specs
        )
        assert suite.parameters["min_perturbed"] == pytest.approx(singles, abs=1e-12)
