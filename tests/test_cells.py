import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripwire import cells, errors, oracle
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


def clip_halfplane(poly, nx, ny, b):
    """Sutherland-Hodgman clip of a convex polygon (a list of points) by {x : n.x <= b}."""
    out = []
    for cur, nxt in zip(poly, poly[1:] + poly[:1]):
        d_cur = nx * cur[0] + ny * cur[1] - b
        d_nxt = nx * nxt[0] + ny * nxt[1] - b
        if d_cur <= 0.0:
            out.append(cur)
        if (d_cur <= 0.0) != (d_nxt <= 0.0):
            t = d_cur / (d_cur - d_nxt)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out


def two_clip_faces(lines):
    """Reference for cells._arrangement_faces: each cut face clipped twice,
    by the line's half-plane and then by the negated line's, each clip
    taking every vertex's side again."""
    faces = [[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]]
    for nx, ny, b in lines:
        tol = cells.GEO_TOL * (abs(nx) + abs(ny) + abs(b))
        split = []
        for face in faces:
            sides = [nx * x + ny * y - b for x, y in face]
            if min(sides) < -tol and max(sides) > tol:
                split.append(clip_halfplane(face, nx, ny, b))
                split.append(clip_halfplane(face, -nx, -ny, -b))
            else:
                split.append(face)
        faces = split
    return faces


def lines_through(point, count, rng):
    """count lines (nx, ny, b) at random angles through point."""
    x, y = (float(c) for c in point)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count).tolist()
    return [(math.cos(a), math.sin(a), math.cos(a) * x + math.sin(a) * y) for a in angles]


def generated_lines(kind, rng):
    """The lines of one generated arrangement: "lines", 1-7 random lines;
    "pencil" and "corner", 2-6 lines through a point in [0.1, 0.9]^2 or
    through a corner of the square, then up to two random lines; "spec",
    the lines of a valid perturbation spec of 3-7 lines, epsilon 0, 0.02
    or 0.2."""
    if kind == "lines":
        count = int(rng.integers(1, 8))
        return [line for point in rng.uniform(-0.25, 1.25, size=(count, 2)) for line in lines_through(point, 1, rng)]
    if kind in ("pencil", "corner"):
        point = rng.uniform(0.1, 0.9, size=2) if kind == "pencil" else rng.integers(0, 2, size=2).astype(float)
        others = generated_lines("lines", rng)[: int(rng.integers(0, 3))]
        return lines_through(point, int(rng.integers(2, 7)), rng) + others
    while True:
        k, epsilon = int(rng.integers(3, 8)), float(rng.choice([0.0, 0.02, 0.2]))
        spec = PerturbationSpec(tuple(rng.uniform(0.0, epsilon, k)), tuple(rng.uniform(0.0, epsilon, k)), epsilon)
        try:
            return perturbed_vertical_lines(k, spec)
        except InvalidPerturbationError:
            pass


def verdict(run):
    """run()'s result, or its error type and message."""
    try:
        return run()
    except ValueError as exc:
        return type(exc), str(exc)


def reference_lines(k, spec, tan=math.tan):
    """Reference for cells._perturbed_lines: one spec's lines and checks in
    a Python loop over its lines and their pairs, with `tan` for the
    slopes."""
    if spec.k != k:
        raise DomainError(f"spec describes {spec.k} lines, expected {k}")
    xs = [(i + 1) / (k + 1) + shift for i, shift in enumerate(spec.shifts)]
    for i, x in enumerate(xs):
        if x >= 1.0:
            raise InvalidPerturbationError(f"shifted line {i} leaves the unit square (x={x!r})")
    for angle in spec.pivots:
        if math.cos(angle) <= 1e-9:
            raise DomainError(f"arrangement lines must be near-vertical, got angle {angle!r}")
    slopes = [tan(angle) for angle in spec.pivots]
    ends = [(x - cells.PIVOT_HEIGHT * t, x + (1.0 - cells.PIVOT_HEIGHT) * t) for x, t in zip(xs, slopes)]
    for i, j in itertools.combinations(range(k), 2):
        d0 = ends[j][0] - ends[i][0]
        d1 = ends[j][1] - ends[i][1]
        if d0 < 0.0 and d1 < 0.0:
            raise InvalidPerturbationError(f"lines {i} and {j} are out of left-to-right order")
        if d0 * d1 < 0.0:
            raise InvalidPerturbationError(f"lines {i} and {j} cross inside the open unit square")
    return [
        (math.cos(angle), -math.sin(angle), math.cos(angle) * x - math.sin(angle) * cells.PIVOT_HEIGHT)
        for x, angle in zip(xs, spec.pivots)
    ]


def reference_cell_values(k, specs):
    """Reference for oracle._spec_cell_values: spec by spec, its lines
    (reference_lines), faces (cells._arrangement_faces) and face count,
    then one kernel call over the faces of all specs, stacked by
    cells._stack, rerun spec by spec on an error."""
    faces_per_spec = []
    for idx, spec in enumerate(specs):
        try:
            faces = cells._arrangement_faces(reference_lines(k, spec))
        except InvalidPerturbationError as exc:
            raise InvalidPerturbationError(f"spec {idx}: {exc}") from exc
        if len(faces) != k + 1:
            raise DegenerateCellError(f"spec {idx}: {k} lines cut {len(faces)} cells, not {k + 1}")
        faces_per_spec.append(faces)
    try:
        values = cells._largest_rectangles(*cells._stack([face for faces in faces_per_spec for face in faces]), 1.0)
    except (DegenerateCellError, DomainError):
        for idx, faces in enumerate(faces_per_spec):
            try:
                cells._largest_rectangles(*cells._stack(faces), 1.0)
            except (DegenerateCellError, DomainError) as exc:
                raise type(exc)(f"spec {idx}: {exc}") from exc
        raise
    return values.reshape(len(specs), k + 1)


def reference_suite(k, trials, epsilon, seed):
    """Reference for oracle.perturbation_suite (checked arguments): a
    PerturbationSpec from two draws of k per trial, scored by
    reference_cell_values."""
    rng = np.random.default_rng(seed)
    specs = [
        PerturbationSpec(
            shifts=tuple(rng.uniform(0.0, epsilon, size=k)),
            pivots=tuple(rng.uniform(0.0, epsilon, size=k)),
            epsilon=epsilon,
        )
        for _ in range(trials)
    ]
    per_spec = [float(values.max()) for values in reference_cell_values(k, specs)]
    regular = 1.0 / (k + 1)
    failures = []
    violating = []
    for idx, value in enumerate(per_spec):
        if value < regular - oracle.PERTURBATION_TOL:
            failures.append(f"spec {idx} scores {value!r} below even spacing {regular!r}")
            violating.append({"index": idx, "shifts": list(specs[idx].shifts), "pivots": list(specs[idx].pivots)})
    worst_idx = int(np.argmin(per_spec))
    return oracle.VerificationReport(
        candidates=(("evenly-spaced", regular), (f"worst perturbed (spec {worst_idx})", per_spec[worst_idx])),
        parameters={
            "k": k,
            "trials": trials,
            "epsilon": epsilon,
            "pivot_height": cells.PIVOT_HEIGHT,
            "tie_tolerance": oracle.PERTURBATION_TOL,
            "min_perturbed": per_spec[worst_idx],
            "violating_specs": violating[:10],
        },
        seed=seed,
        failures=tuple(failures),
    )


def touching_lines(k, rng):
    """k near-vertical lines (nx, ny, b), left to right, with their ends on
    the bottom and the top edge drawn sorted in [-0.1, 1.1] (some outside
    the square) and some shared with the line before: neighbours that
    touch, or coincide, on the square's boundary."""
    bottom, top = np.sort(rng.uniform(-0.1, 1.1, size=(2, k)), axis=1)
    for i, share in enumerate(rng.integers(0, 4, size=k).tolist()):
        if i and share in (1, 3):
            bottom[i] = bottom[i - 1]
        if i and share in (2, 3):
            top[i] = top[i - 1]
    lines = []
    for low, high in zip(bottom.tolist(), top.tolist()):
        angle = math.atan(high - low)
        x = low + cells.PIVOT_HEIGHT * (high - low)
        lines.append((math.cos(angle), -math.sin(angle), math.cos(angle) * x - math.sin(angle) * cells.PIVOT_HEIGHT))
    return lines


def random_spec(k, epsilon, rng):
    """A PerturbationSpec of k shifts, then k pivots, uniform in [0, epsilon)."""
    return PerturbationSpec(tuple(rng.uniform(0.0, epsilon, k)), tuple(rng.uniform(0.0, epsilon, k)), epsilon)


def array_lines(k, specs):
    """cells._perturbed_lines of specs, as one list of (nx, ny, b) per spec."""
    nx, ny, b = cells._perturbed_lines(k, *spec_arrays(specs))
    return [list(zip(*row)) for row in zip(nx.tolist(), ny.tolist(), b.tolist())]


def spec_arrays(specs):
    """The shifts and pivots of specs as (specs, k) arrays."""
    shifts = np.array([spec.shifts for spec in specs], dtype=float)
    return shifts, np.array([spec.pivots for spec in specs], dtype=float)


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

# The cells of the three strict xfails in TestLargestSquare: two squares
# turned so that their edge normals' breakpoints lie one ulp apart, and a
# pentagon with two vertices 7.5e-16 apart.  The second square is the
# w = h = angle draw of test_rectangles_at_any_angle, with the same bits.
TURNED_SQUARE_SIDE, TURNED_SQUARE_ANGLE = 0.8228798948692264, 0.772388139569393
TURNED_SQUARE = np.array([(0, 0), (1, 0), (1, 1), (0, 1)]) * TURNED_SQUARE_SIDE @ np.array(
    [
        [math.cos(TURNED_SQUARE_ANGLE), -math.sin(TURNED_SQUARE_ANGLE)],
        [math.sin(TURNED_SQUARE_ANGLE), math.cos(TURNED_SQUARE_ANGLE)],
    ]
).T
SECOND_TURNED_SQUARE_SIDE = 0.7497973458281735
SECOND_TURNED_SQUARE = np.array([(0, 0), (1, 0), (1, 1), (0, 1)]) * SECOND_TURNED_SQUARE_SIDE @ np.array(
    [
        [math.cos(SECOND_TURNED_SQUARE_SIDE), -math.sin(SECOND_TURNED_SQUARE_SIDE)],
        [math.sin(SECOND_TURNED_SQUARE_SIDE), math.cos(SECOND_TURNED_SQUARE_SIDE)],
    ]
).T
NEAR_DUPLICATE_PENTAGON = [
    (1.0, 0.21255346213784934),
    (1.0, 1.0),
    (0.6895582320199798, 1.0),
    (0.21918868983316103, 0.16708513886869147),
    (0.21918868983316067, 0.1670851388686908),
]


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
    """{index: normalised cell} of cells._convex_blocks on polys stacked by
    cells._stack, which must accept every cell and list each block's
    indices in ascending order."""
    stacked, failures = cells._stack(polys)
    blocks = cells._convex_blocks(stacked, failures)
    assert failures == {}
    assert all(np.all(np.diff(idxs) > 0) for idxs, _, _ in blocks)
    batch = {int(i): poly for idxs, block, _ in blocks for i, poly in zip(idxs, block)}
    assert sorted(batch) == list(range(len(polys)))
    return batch


def normalised_first(batch, p):
    """largest_rectangles of the batch with each cell passed through
    convex_cell first; a cell that convex_cell rejects fails the batch as
    largest_rectangles fails it, named by its index."""
    given = []
    for i, cell in enumerate(batch):
        try:
            given.append(convex_cell(cell))
        except ValueError as exc:
            raise type(exc)(f"cell {i}: {exc}") from exc
    return largest_rectangles(given, p)


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

    @pytest.mark.xfail(
        strict=True,
        reason="edge-normal breakpoints one ulp apart leave two pieces of width 2.2e-16, "
        "whose near-singular quadruple gives a vertex 4.7e-5 too large",
    )
    def test_a_square_turned_onto_breakpoints_one_ulp_apart(self):
        # A square that test_rectangles_at_any_angle can draw: it scores
        # 0.8229188289636598 at p = 1, and the right side at p = 1 + 1e-9.
        assert largest_square_in_cell(TURNED_SQUARE) == pytest.approx(TURNED_SQUARE_SIDE, abs=1e-8)

    @pytest.mark.xfail(
        strict=True,
        reason="edge-normal breakpoints one ulp apart leave two pieces of width 2.2e-16, "
        "on which the kernel keeps a vertex 1.74% too large",
    )
    def test_a_second_square_turned_onto_breakpoints_one_ulp_apart(self):
        # The draw w = h = angle = 0.7497973458281735 of
        # test_rectangles_at_any_angle: it scores 0.7628421634595238 at
        # p = 1, and the right side at p = 1 + 1e-9.
        side = largest_square_in_cell(SECOND_TURNED_SQUARE)
        assert side == pytest.approx(SECOND_TURNED_SQUARE_SIDE, abs=1e-8)

    @pytest.mark.xfail(
        strict=True,
        reason="a vertex 7.5e-16 from its neighbour adds an edge whose normal is set by rounding, "
        "and the kernel scores the pentagon 1.29% below the same region as a quadrilateral",
    )
    def test_a_near_duplicate_vertex_does_not_lower_the_square(self):
        # A face that a pencil gives when each face is built as the square
        # clipped by its sign pattern: its 4th and 5th vertices are 7.5e-16
        # apart, so without the 4th it is the same region.  It scores
        # 0.4763924978483139; an LP sweep over 20 001 angles gives
        # 0.4825979870363908 for both cells.
        pentagon = NEAR_DUPLICATE_PENTAGON
        quad = pentagon[:3] + pentagon[4:]
        assert largest_square_in_cell(quad) == 0.48259798703639056
        assert largest_square_in_cell(pentagon) == pytest.approx(0.48259798703639056, rel=4e-15, abs=0.0)


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

    @pytest.mark.parametrize("m", range(3, 9))
    def test_quadruple_tables_cover_every_row(self, m):
        # each split of a quadruple names its four rows, and those rows and
        # the ones outside it are 0..m + 1, each once
        pairs, lead, rest, outside = cells._quadruples(m)
        quads = list(itertools.combinations(range(m + 1), 4))
        assert outside.shape == (len(quads), m - 2)
        for q, quad in enumerate(quads):
            for split in range(6):
                assert sorted([*pairs[:, lead[split, q]], *pairs[:, rest[split, q]]]) == list(quad)
            assert sorted([*quad, *outside[q]]) == list(range(m + 2))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), count=st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_stacked_blocks_match_the_list(self, seed, count):
        # arrangement faces (lists of points, some with a repeated vertex)
        # and edited polygons, of which a repeated or a collinear vertex
        # drops into a block of a smaller count; a dent or a zero area
        # fails and must be named by the same index
        rng = np.random.default_rng(seed)
        polys = [poly.tolist() for poly in edited_convex_polygons(count, -3, 3, rng)]
        polys += cells._arrangement_faces(generated_lines(str(rng.choice(["pencil", "corner", "spec"])), rng))
        polys += [DENTED_QUAD, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]][: int(rng.integers(0, 3))]
        order = rng.permutation(len(polys))
        polys = [polys[i] for i in order.tolist()]
        for p in (1.0, 2.5):
            stacked = verdict(lambda: cells._largest_rectangles(*cells._stack(polys), p).tolist())
            assert stacked == verdict(lambda: largest_rectangles([np.array(poly, dtype=float) for poly in polys], p).tolist())

    @pytest.mark.parametrize("p", [1.0, 1.7])
    def test_slices_give_the_same_sides(self, monkeypatch, p):
        # 3- to 8-gons, some of which drop a repeated or a collinear vertex
        # in normalisation, at a budget of two quads' rows at p = 1: at
        # most three triangles, two quads or one larger cell per slice
        rng = np.random.default_rng(3)
        batch = [random_convex_polygon(count, rng) for count in (3, 4, 4, 5, 8, 4, 3, 6, 4, 4, 7)]
        batch += [poly.tolist() for poly in edited_convex_polygons(12, -2, 2, rng)]
        whole = largest_rectangles(batch, p)
        normalise, slices = cells._convex_blocks, []

        def recorded(blocks, failures):
            slices.extend(len(idxs) for idxs, _ in blocks)
            return normalise(blocks, failures)

        monkeypatch.setattr(cells, "_convex_blocks", recorded)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 2 * 5 * 6 * 4 * 8)
        assert np.array_equal(largest_rectangles(batch, p), whole)
        assert sum(slices) == len(batch) and max(slices) <= 3

    @pytest.mark.parametrize("p", [1.0, 1.7])
    def test_cells_normalised_first_give_the_same_bits(self, p):
        # The kernel takes a block's cells in the frame that normalisation
        # computed for them where it moved no vertex of the block, and in
        # one computed again elsewhere.  A block of 6-point cells mixes
        # hexagons given clockwise and counter-clockwise and pentagons with
        # a repeated or a collinear vertex; one of 7-point cells has no
        # clockwise cell, so that its heptagons keep their frame past the
        # hexagons' drops.  A zero-area neighbour in each block fails the
        # batch alike.
        rng = np.random.default_rng(29)

        def edited(count, edit):
            poly = random_convex_polygon(count, rng) * 10.0 ** rng.uniform(-3.0, 3.0)
            i = int(rng.integers(count))
            if edit == "reversed":
                return poly[::-1]
            if edit == "repeated":
                return np.insert(poly, i, poly[i], axis=0)
            if edit == "collinear":
                return np.insert(poly, i, 0.5 * (poly[i - 1] + poly[i]), axis=0)
            return poly

        batch = [edited(6, edit) for edit in ("as given", "reversed", "as given", "reversed")]
        batch += [edited(5, edit) for edit in ("repeated", "collinear", "repeated", "collinear")]
        batch += [edited(7, "as given") for _ in range(3)] + [edited(6, edit) for edit in ("repeated", "collinear")]
        batch += edited_convex_polygons(8, -3, 3, rng) + frozen_cells(4, rng)
        assert {len(cell) for cell in batch[:8]} == {6} and {len(cell) for cell in batch[8:13]} == {7}
        sides = bits(lambda: largest_rectangles(batch, p))
        assert sides == bits(lambda: normalised_first(batch, p))
        assert all(side > 0.0 for side in np.array(sides).view(float).tolist())
        for count in (6, 7):
            flat = batch[:5] + [np.linspace((0.0, 0.0), (1.0, 2.0), count)] + batch[5:]
            outcome = bits(lambda: largest_rectangles(flat, p))
            assert outcome == bits(lambda: normalised_first(flat, p))
            assert outcome == (DegenerateCellError, outcome[1]) and outcome[1].startswith("cell 5: cell has zero area")

    def test_a_normalisation_error_in_a_late_slice_beats_an_earlier_empty_cell(self, monkeypatch):
        # cell 1 (the diamond) is emptied as test_no_feasible_vertex_names_the_cell
        # empties its quad; cell 6 has zero area.  Every slice is normalised
        # before any is solved, so cell 6 is named whatever the slices.
        halfplanes = cells._halfplanes

        def emptied(poly):
            normals, offsets = halfplanes(poly)
            diamond = np.abs(np.abs(normals[..., 0, 0]) - math.sqrt(0.5)) < 1e-9
            return normals, offsets - 2.0 * diamond[..., None]

        monkeypatch.setattr(cells, "_halfplanes", emptied)
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        empty = [square, [(1, 0), (0, 1), (-1, 0), (0, -1)]] + [square] * 6
        flat = empty[:6] + [[(0, 0), (1, 0), (2, 0), (3, 0)]] + empty[7:]
        for batch, message in [(empty, "^cell 1 has no feasible LP vertex"), (flat, "^cell 6: cell has zero area")]:
            outcomes = set()
            for budget in (errors.MEMORY_BUDGET, 1):
                monkeypatch.setattr(errors, "MEMORY_BUDGET", budget)
                outcomes.add(verdict(lambda: largest_squares(batch)))
            ((_, text),) = outcomes
            assert re.match(message, text)

    @pytest.mark.parametrize("p", [1.0, 1.7])
    def test_memory_does_not_grow_with_the_cells(self, p):
        # tracemalloc peaks of one call on 2048 and on 20480 random quads
        # are at most `budgets` MEMORY_BUDGETs of work arrays and `per_quad`
        # bytes per quad.  Work arrays: at p = 1 a slice's rows (120 floats
        # per quad) take one budget at most, the gathered factors of its
        # cells' minors (240) two more and their products (120) one, while
        # the previous slice's rows, minors and angle arrays, still bound,
        # take under four; p = 1.7 halves the quads per slice.  Per quad:
        # the stacked quads and their indices (72 bytes), the normalised
        # copies that every slice keeps until all are solved (about 70), the
        # result (8), and 10 to spare.
        budgets, per_quad = 8, 160

        def quads(count):
            rng = np.random.default_rng(count)
            t = np.sort(rng.uniform(0.0, 2.0 * math.pi, (count, 4)), axis=1)
            a, b = rng.uniform(0.2, 2.0, (2, count, 1))
            return list(np.stack((a * np.cos(t), b * np.sin(t)), axis=2) + rng.uniform(-3.0, 3.0, (count, 1, 2)))

        def peak(cells_given):
            tracemalloc.start()
            try:
                largest_rectangles(cells_given, p)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        largest_rectangles(quads(8), p)
        for count in (2048, 20480):
            assert peak(quads(count)) <= budgets * errors.MEMORY_BUDGET + per_quad * count

    def test_chunks_give_the_same_sides(self, monkeypatch):
        # a budget this small (50 floats) solves one piece at a time, so a
        # lone 16-gon's pieces are split over chunks
        batch = [random_convex_polygon(count, np.random.default_rng(seed)) for count in (4, 5, 7) for seed in range(3)]
        batch.append(random_convex_polygon(16, np.random.default_rng(0)))
        whole = {p: largest_rectangles(batch, p) for p in (1.0, 2.5)}
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 50 * 8)
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


def frozen_halfplanes(poly):
    edges = cells._turn(poly, 1) - poly
    lengths = np.hypot(edges[..., 0], edges[..., 1])
    normals = np.stack((edges[..., 1], -edges[..., 0]), axis=-1) / lengths[..., None]
    offsets = np.einsum("...ij,...ij->...i", normals, poly)
    return normals, offsets


def frozen_minors(u, v, b, pairs):
    ui, uj, vi, vj, bi, bj = (c[k] for c in (u, v, b) for k in pairs)
    left, right = ui * vj, uj * vi
    return np.array((left - right, abs(left) + abs(right), bi * vj - bj * vi, ui * bj - uj * bi))


def frozen_vertices(cell_minors, cell, alpha, beta, offsets, m):
    pairs, lead, rest, _ = cells._quadruples(m)
    piece_minors = frozen_minors(alpha, beta, offsets, pairs[:, : pairs.shape[1] // 2])
    xy, xy_size, by, xb = cell_minors[:, :, cell][:, lead]
    ab, ab_size, b_beta, alpha_b = piece_minors[:, rest]
    det, size, x, y, big_a, big_b = (
        np.add.reduce(u * v, axis=0)
        for u, v in ((xy, ab), (xy_size, ab_size), (by, ab), (xb, ab), (xy, b_beta), (xy, alpha_b))
    )
    det[~(np.abs(det) > cells.GEO_TOL * size)] = np.nan
    return np.array((x, y, big_a, big_b)) / det


def frozen_largest_rectangles(batch, p, halfplanes=frozen_halfplanes):
    """Reference for cells.largest_rectangles: its LP as it stood before the
    kernel ran its IEEE steps in fewer, stacked numpy passes (one product
    and one reduce per Laplace expansion, a loop over the outside rows'
    terms), on cells that cells._stack and cells._convex_blocks normalise,
    with its own fixed budget for slices and chunks."""
    budget = 1 << 20
    p = check_real(p, "rectangle aspect p", 1.0)
    stacked, failures = cells._stack(batch)
    slices = []
    for idxs, polys in stacked:
        m = polys[:1].size // 2
        row_bytes = 5 * (m + 2) * (m if p == 1.0 else 2 * m) * polys.itemsize
        step = max(1, budget // max(1, row_bytes))
        slices += [(idxs[lo : lo + step], polys[lo : lo + step]) for lo in range(0, len(idxs), step)]
    blocks = cells._convex_blocks(slices, failures)
    if failures:
        idx = min(failures)
        raise type(failures[idx])(f"cell {idx}: {failures[idx]}") from failures[idx]
    result = np.zeros(sum(len(idxs) for idxs, _, _ in blocks))
    q = 1.0 / p
    for idxs, polys, _ in blocks:
        m = polys.shape[1]
        block = polys - cells._centre(polys)
        _, exponent = np.frexp(np.abs(block).max(axis=(1, 2)))
        normals, cell_offsets = halfplanes(np.ldexp(block, -exponent[:, None, None]))
        n1, n2 = normals[:, None, :, 0], normals[:, None, :, 1]
        breaks = np.arctan2(normals[..., 1], normals[..., 0]) % (math.pi / 2)
        period = math.pi / 2
        if p != 1.0:
            breaks = np.concatenate((breaks, breaks + math.pi / 2), axis=1)
            period = math.pi
        breaks = np.sort(breaks, axis=1)
        ends = np.concatenate((breaks[:, 1:], breaks[:, :1] + period), axis=1)
        pieces = breaks.shape[1]
        mid = 0.5 * (breaks + ends)
        cos, sin = np.cos(mid)[..., None], np.sin(mid)[..., None]
        sign1 = q * np.sign(n1 * cos + n2 * sin)
        sign2 = np.sign(n2 * cos - n1 * sin)
        cell_rows = np.zeros((3, m + 2, len(idxs)))
        cell_rows[:, :m] = normals[..., 0].T, normals[..., 1].T, cell_offsets.T
        rows = np.empty((5, m + 2, len(idxs), pieces))
        rows[[0, 1, 4]] = cell_rows[..., None]
        rows[2, :m] = (0.5 * (sign1 * n1 + sign2 * n2)).transpose(2, 0, 1)
        rows[3, :m] = (0.5 * (sign1 * n2 - sign2 * n1)).transpose(2, 0, 1)
        rows[2, m], rows[3, m] = np.sin(breaks), -np.cos(breaks)
        rows[2, m + 1], rows[3, m + 1] = -np.sin(ends), np.cos(ends)
        rows = rows.reshape(5, m + 2, -1)
        pairs, _, _, outside = cells._quadruples(m)
        cell_minors = frozen_minors(*cell_rows, pairs)
        owner = np.repeat(np.arange(len(idxs)), pieces)
        cos, sin = cos.ravel(), sin.ravel()
        wide = np.flatnonzero(ends > breaks)
        best = np.full(len(owner), -np.inf)
        step = max(1, budget // (len(outside) * max(5 * (m - 2), 24)))
        for lo in range(0, len(wide), step):
            chunk = wide[lo : lo + step]
            chunk_rows = rows[:, :, chunk]
            vertices = frozen_vertices(cell_minors, owner[chunk], *chunk_rows[2:], m)
            coefs = chunk_rows[:, outside]
            terms = coefs[:4] * vertices[:, :, None, :]
            residual = -coefs[4]
            slack = np.abs(residual)
            for term, size in zip(terms, np.abs(terms)):
                residual += term
                slack += size
            slack *= cells.GEO_TOL
            big_a, big_b = vertices[2:]
            ahead = big_a * cos[chunk] + big_b * sin[chunk]
            ok = np.all(residual <= slack, axis=1) & (ahead >= 0.0) & np.isfinite(vertices).all(axis=0)
            best[chunk] = np.where(ok, np.hypot(big_a, big_b), -np.inf).max(axis=0)
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


def bits(run):
    """run()'s float array as int64 bit patterns, or its error type and message."""
    outcome = verdict(run)
    return outcome if isinstance(outcome, tuple) else outcome.view(np.int64).tolist()


FROZEN_ASPECTS = [1.0, 1.0 + 2.0**-40, 1.5, 1.7, 3.125, 100.0, 1e12]
# Budgets of the default kernel, of slices of at most two quads' rows at
# p = 1, and of one piece per chunk.
FROZEN_BUDGETS = [pytest.param(None, id="default"), pytest.param(2 * 5 * 6 * 4 * 8, id="slices"), pytest.param(50 * 8, id="chunks")]
FROZEN_HOLES = [hole(n) for n in np.logspace(0.0, 9.0, 19).tolist()]


def frozen_cells(count, rng):
    """count 3- to 16-gons scaled by 2**-600 to 2**600, some reversed, some
    with a repeated or a collinear vertex."""
    batch = []
    for _ in range(count):
        poly = random_convex_polygon(int(rng.integers(3, 17)), rng)
        edit, i = int(rng.integers(4)), int(rng.integers(len(poly)))
        if edit == 1:
            poly = poly[::-1]
        elif edit == 2:
            poly = np.insert(poly, i, poly[i], axis=0)
        elif edit == 3:
            poly = np.insert(poly, i, 0.5 * (poly[i - 1] + poly[i]), axis=0)
        batch.append(np.ldexp(poly, int(rng.integers(-600, 601))))
    return batch


def symmetric_cells(count, rng):
    """count regular 3- to 8-gons and w x h rectangles, half of them
    squares, of random size, turn and centre: their LP vertices lie within
    rounding of more than four rows."""
    batch = []
    for _ in range(count):
        side, angle, center = rng.uniform(0.1, 2.0), rng.uniform(0.0, 3.0), rng.uniform(-2.0, 2.0, 2)
        if rng.random() < 0.5:
            batch.append(regular_polygon(int(rng.integers(3, 9)), side, angle, center))
        else:
            h = side if rng.random() < 0.5 else rng.uniform(0.1, 2.0)
            rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
            batch.append(np.array([(0, 0), (side, 0), (side, h), (0, h)]) @ rot.T + center)
    return batch


class TestFrozenKernel:
    """The kernel gives the sides, bit for bit, and the errors of its LP as
    it stood before its passes were stacked (frozen_largest_rectangles)."""

    def assert_frozen(self, batch, p, alone=True):
        # the batch, and each of its cells alone
        assert bits(lambda: largest_rectangles(batch, p)) == bits(lambda: frozen_largest_rectangles(batch, p))
        for cell in batch if alone else []:
            assert bits(lambda: largest_rectangles([cell], p)) == bits(lambda: frozen_largest_rectangles([cell], p))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), p=st.sampled_from(FROZEN_ASPECTS))
    @settings(max_examples=20, deadline=None)
    def test_random_cells(self, seed, p):
        # a dented or a zero-area cell in a fifth of the batches: the same
        # error for the batch, the same sides for its other cells alone
        rng = np.random.default_rng(seed)
        batch = frozen_cells(int(rng.integers(1, 7)), rng) + symmetric_cells(int(rng.integers(0, 4)), rng)
        if rng.random() < 0.2:
            batch.insert(int(rng.integers(len(batch) + 1)), [DENTED_QUAD, [(0, 0), (1, 0), (2, 0)]][int(rng.integers(2))])
        self.assert_frozen(batch, p)

    @pytest.mark.parametrize("budget", FROZEN_BUDGETS)
    @pytest.mark.parametrize("p", FROZEN_ASPECTS)
    def test_fixed_cells(self, monkeypatch, p, budget):
        # thin cells, the cells of the three strict xfails (the same wrong
        # sides), holes of aspect 1 to 1e9, random and symmetric cells
        if budget is not None:
            monkeypatch.setattr(errors, "MEMORY_BUDGET", budget)
        batch = [*THIN_CELLS.values(), TURNED_SQUARE, SECOND_TURNED_SQUARE, NEAR_DUPLICATE_PENTAGON, *FROZEN_HOLES]
        batch += frozen_cells(6, np.random.default_rng(0)) + symmetric_cells(24, np.random.default_rng(1))
        self.assert_frozen(batch, p, alone=budget is None)

    def test_no_feasible_vertex_is_named_alike(self, monkeypatch):
        # the LP's own error, from a cell emptied as in
        # test_no_feasible_vertex_names_the_cell, in both kernels
        def emptied(halfplanes):
            def run(poly):
                normals, offsets = halfplanes(poly)
                return normals, offsets - 2.0

            return run

        monkeypatch.setattr(cells, "_halfplanes", emptied(cells._halfplanes))
        batch = [hole(2.0), MISSED_QUAD]
        for p in (1.0, 1.7):
            outcome = bits(lambda: largest_rectangles(batch, p))
            assert outcome == bits(lambda: frozen_largest_rectangles(batch, p, emptied(frozen_halfplanes)))
            assert outcome[0] is DegenerateCellError and "no feasible LP vertex" in outcome[1]


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

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=st.sampled_from(["lines", "pencil", "corner", "spec"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_one_pass_split_matches_two_clips(self, seed, kind):
        # the same faces in the same order, vertex for vertex, repeated
        # vertices and the signs of zeros included
        lines = generated_lines(kind, np.random.default_rng(seed))
        faces = cells._arrangement_faces(lines)
        assert repr(faces) == repr(two_clip_faces(lines))
        assert repr([face.tolist() for face in arrangement_cells(lines)]) == repr([list(map(list, f)) for f in faces])

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

    def test_array_lines_match_the_per_spec_loop(self):
        # lines bit for bit (signed zeros included), or the error of the
        # first failing spec: at epsilon 0.5 lines leave the square or
        # cross, at 2 pivots pass pi/2
        rng = np.random.default_rng(1)
        for _ in range(300):
            k, trials = int(rng.integers(0, 13)), int(rng.integers(1, 30))
            epsilon = float(rng.choice([0.0, 0.02, 0.12, 0.5, 2.0]))
            specs = [random_spec(k, epsilon, rng) for _ in range(trials)]
            assert repr(verdict(lambda: array_lines(k, specs))) == repr(
                verdict(lambda: [reference_lines(k, spec) for spec in specs])
            )

    def test_array_lines_take_the_slope_from_math_tan(self):
        # line 1, pivoted by each angle and shifted so that its bottom end
        # lands exactly on line 0's at (0.25, 0), touches line 0 on the
        # square's edge; a slope one ulp above math.tan's, which numpy's tan
        # gives at these angles on x86-64 with AVX-512, crosses them
        touching = [
            (0.6029914606819373, 0.09426871052662344),
            (0.5754964714854587, 0.07437534633177123),
            (0.49969770531887503, 0.02295502059945742),
        ]
        specs = [PerturbationSpec((0.0, shift, 0.24), (0.0, angle, 0.0), 0.61) for angle, shift in touching]
        for spec in specs:
            with pytest.raises(InvalidPerturbationError, match="lines 0 and 1 cross"):
                reference_lines(3, spec, tan=lambda angle: math.nextafter(math.tan(angle), math.inf))
        rng = np.random.default_rng(2)
        batch = [random_spec(3, 0.02, rng) for _ in range(5)]
        batch[2:2] = specs
        assert array_lines(3, batch) == [reference_lines(3, spec) for spec in batch]
        assert [perturbed_vertical_lines(3, spec) for spec in specs] == [reference_lines(3, spec) for spec in specs]


class TestPerturbationFaces:
    @given(
        k=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=st.sampled_from(["spec 0", "spec 0.02", "spec 0.1", "spec 0.2", "touching"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_faces_match_arrangement_faces(self, k, seed, kind):
        # every trial's faces, each cut to its vertex count and compared by
        # repr, those of the usual case from the array passes and the others
        # written in from _arrangement_faces, with NaN past each count: the
        # lines of valid specs, or of neighbours that touch on the square's
        # boundary
        rng = np.random.default_rng(seed)
        if kind == "touching":
            trials = [touching_lines(k, rng) for _ in range(20)]
        else:
            epsilon = float(kind.split()[1])
            trials = []
            for _ in range(100):
                spec = random_spec(k, epsilon, rng)
                try:
                    trials.append(reference_lines(k, spec))
                except InvalidPerturbationError:
                    pass
            assume(trials)
        # (lines that leave the square or coincide cut fewer faces, and
        # each such trial raises on its own)
        expected = [cells._arrangement_faces(lines) for lines in trials]
        for lines, want in zip(trials, expected):
            if len(want) != k + 1:
                with pytest.raises(DegenerateCellError, match=rf"^{k} lines cut {len(want)} cells, not {k + 1}$"):
                    cells._perturbation_faces(*np.array([lines]).transpose(2, 0, 1))
        cut = [trial for trial, want in enumerate(expected) if len(want) == k + 1]
        if cut:
            faces, counts = cells._perturbation_faces(*np.array(trials)[cut].transpose(2, 0, 1))
            assert counts.shape == (len(cut), k + 1)
            for row, trial in enumerate(cut):
                got = [[tuple(v) for v in face[:n]] for face, n in zip(faces[row].tolist(), counts[row].tolist())]
                assert repr(got) == repr(expected[trial])
                assert all(np.isnan(face[n:]).all() for face, n in zip(faces[row], counts[row].tolist()))

    def test_a_line_leaving_through_the_right_edge_takes_arrangement_faces(self):
        # the local-optimum-k6-eps0.1 draws: the last line of these three
        # trials leaves through the right edge, which makes a pentagon and
        # a triangle, so every face is padded to 5 vertices
        draws = np.random.default_rng(0).uniform(0.0, 0.1, size=(500, 2, 6))
        faces, counts = cells._perturbation_faces(*cells._perturbed_lines(6, draws[:, 0], draws[:, 1]))
        others = np.flatnonzero((counts != 4).any(axis=1)).tolist()
        assert others == [42, 142, 356]
        assert counts[others].tolist() == [[4, 4, 4, 4, 4, 5, 3]] * 3
        assert faces.shape == (500, 7, 5, 2)

    def test_lines_that_cut_too_few_faces_raise(self):
        # line 0 shifted onto line 1 in trials 1 and 2 (the array path's
        # usual case fails there), named by the count of the lowest
        lines = np.array([reference_lines(3, PerturbationSpec((0.0,) * 3, (0.0,) * 3, 0.0))] * 4)
        lines[1:3, 0] = lines[1:3, 1]
        lines[2, 2] = lines[2, 1]
        with pytest.raises(DegenerateCellError, match=r"^3 lines cut 3 cells, not 4$"):
            cells._perturbation_faces(*lines.transpose(2, 0, 1))

    @pytest.mark.parametrize("p", [1.0, 1.7])
    def test_padding_is_never_read(self, p):
        # 3- to 6-gons padded with NaN to 6 vertices give, bit for bit, the
        # sides and the error of the same cells stacked unpadded
        rng = np.random.default_rng(4)
        polys = [random_convex_polygon(count, rng) for count in (3, 6, 4, 4, 5, 3, 6, 5, 4)]
        faces = np.full((3, 3, 6, 2), np.nan)
        counts = np.array([len(poly) for poly in polys]).reshape(3, 3)
        for i, poly in enumerate(polys):
            faces[i // 3, i % 3, : len(poly)] = poly
        padded = cells._largest_rectangles(*cells._padded_blocks(faces, counts), p)
        assert padded.tolist() == cells._largest_rectangles(*cells._stack(polys), p).tolist()
        faces[1, 2, :3], counts[1, 2] = [(0.5, 0.0), (0.5, 0.5), (0.5, 1.0)], 3
        polys[5] = faces[1, 2, :3]
        error = verdict(lambda: cells._largest_rectangles(*cells._padded_blocks(faces, counts), p))
        assert error == verdict(lambda: cells._largest_rectangles(*cells._stack(polys), p))
        assert error[0] is DegenerateCellError and error[1].startswith("cell 5: cell has zero area")


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
            oracle._spec_cell_values(3, *spec_arrays([zero, coincident]))

    def test_kernel_errors_name_the_spec_and_its_cell(self, monkeypatch):
        # the fourth spec's third cell replaced by a zero-area one (a
        # triangle, so it goes to the kernel in a block of its own count),
        # with the kernel's cells in one slice or one cell per slice
        build = oracle._perturbation_faces

        def with_sliver(*lines):
            faces, counts = build(*lines)
            if len(faces) > 1:
                faces[3, 2, :3], counts[3, 2] = [(0.5, 0.0), (0.5, 0.5), (0.5, 1.0)], 3
            return faces, counts

        monkeypatch.setattr(oracle, "_perturbation_faces", with_sliver)
        zero = PerturbationSpec(shifts=(0.0,) * 3, pivots=(0.0,) * 3, epsilon=0.0)
        for budget in (errors.MEMORY_BUDGET, 1):
            monkeypatch.setattr(errors, "MEMORY_BUDGET", budget)
            with pytest.raises(DegenerateCellError, match=r"^spec 3: cell 2: cell has zero area"):
                oracle._spec_cell_values(3, *spec_arrays([zero] * 5))

    def test_errors_come_in_the_order_of_the_per_spec_loop(self):
        # each spec's lines, then its face count, spec by spec; a pivot
        # that is not near-vertical raises DomainError without its spec
        zero = PerturbationSpec(shifts=(0.0,) * 3, pivots=(0.0,) * 3, epsilon=0.0)
        coincident = PerturbationSpec(shifts=(0.25, 0.0, 0.0), pivots=(0.0, 0.0, 0.0), epsilon=0.25)
        crossing = PerturbationSpec(shifts=(0, 0, 0), pivots=(0.5, 0.0, 0.5), epsilon=0.5)
        leaving = PerturbationSpec(shifts=(0.0, 0.0, 0.5), pivots=(0.0, 0.0, 0.0), epsilon=0.5)
        steep = PerturbationSpec(shifts=(0.0, 0.0, 0.0), pivots=(0.0, 2.0, 0.0), epsilon=2.0)
        batches = [
            [zero, coincident, crossing],
            [zero, crossing, coincident],
            [zero, steep, coincident],
            [coincident, steep],
            [zero, leaving, crossing, steep],
            [zero, steep, leaving],
            [zero, zero],
        ]
        for batch in batches:
            got = verdict(lambda: oracle._spec_cell_values(3, *spec_arrays(batch)).tolist())
            assert got == verdict(lambda: reference_cell_values(3, batch).tolist())
        assert verdict(lambda: oracle._spec_cell_values(3, *spec_arrays([zero, steep]))) == (
            DomainError,
            "arrangement lines must be near-vertical, got angle 2.0",
        )

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

    @pytest.mark.parametrize("k", [3, 6])
    def test_spec_values_match_each_arrangement_alone(self, k):
        # all specs' faces in stacked blocks against each spec's public
        # arrangement_cells and largest_squares, bit for bit; at epsilon
        # 0.2 a line can leave through a side, so triangles and pentagons
        # join the quads
        rng = np.random.default_rng(k)
        specs = []
        while len(specs) < 40:
            spec = PerturbationSpec(tuple(rng.uniform(0.0, 0.2, k)), tuple(rng.uniform(0.0, 0.2, k)), 0.2)
            try:
                perturbed_vertical_lines(k, spec)
            except InvalidPerturbationError:
                continue
            specs.append(spec)
        faces = [arrangement_cells(perturbed_vertical_lines(k, spec)) for spec in specs]
        assert len({len(face) for spec_faces in faces for face in spec_faces}) > 1
        values = oracle._spec_cell_values(k, *spec_arrays(specs))
        for row, spec_faces in zip(values, faces):
            assert np.array_equal(row, largest_squares(spec_faces))

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
        assert suite.parameters["min_perturbed"] == singles

    @given(
        k=st.integers(min_value=3, max_value=12),
        trials=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**63),
        epsilon=st.floats(min_value=0.0, max_value=0.12),
    )
    @settings(max_examples=120, deadline=None)
    def test_reports_match_the_per_spec_loop(self, k, trials, seed, epsilon):
        # the same JSON bytes, or the same error type and message
        got = verdict(lambda: perturbation_suite(k, trials, epsilon, seed).to_json())
        assert got == verdict(lambda: reference_suite(k, trials, epsilon, seed).to_json())

    @pytest.mark.parametrize("trials", [50, 500])
    def test_reports_through_arrangement_faces_match_the_per_spec_loop(self, trials):
        # the local-optimum-k6-eps0.1 runs, with 1 and 3 trials past the
        # usual case
        assert perturbation_suite(6, trials, 0.1, 0).to_json() == reference_suite(6, trials, 0.1, 0).to_json()

    @pytest.mark.parametrize("k, trials", [(3, 1), (3, 40), (6, 500)])
    def test_one_kernel_call_takes_every_trial(self, monkeypatch, k, trials):
        # 500 trials at k = 6 are 3500 cells, more than one kernel slice
        kernel = oracle._largest_rectangles
        seen = []

        def recorded(stacked, failures, p):
            seen.append(sum(len(idxs) for idxs, _ in stacked))
            return kernel(stacked, failures, p)

        monkeypatch.setattr(oracle, "_largest_rectangles", recorded)
        perturbation_suite(k, trials, 0.02, 5)
        assert seen == [trials * (k + 1)]
