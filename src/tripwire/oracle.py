"""Brute-force verifiers for the curve and net-optimality claims.

Two reuse no closed form: the curve oracle is the exact largest-rectangle
kernel run on the hole as a convex cell (see cells.largest_rectangles),
which the curve-oracle suite compares with the closed form over a
p-grid, and the perturbation experiment measures inscribed squares in
the cells of a perturbed arrangement.  The others score nets with the
closed curve under test (nets._hole_scale, and nets._hole_scales over
arrays, values only): net enumeration every split of k lines between
the two axes, the theorem scans every split over a p-grid in one
(class, p) table, built in chunks of p columns, and
the irregular check the widest hole of jittered cuts of every split, all
its trials at all its p in one (p, trial) table; the split check takes
its short side from inscribe.diagonal_branch and re-solves the
corner-contact equations per split.  ROADMAP item 4 moves them onto the
kernel.  None builds a Net per split or per trial: the widest holes of
evenly spaced splits come from one nets._even_holes pass, and the
jittered widest gaps from one (trial, cut) pass per chunk of trials
(_widest_gaps).  Each suite returns its finished VerificationReport.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import nets
from .cells import (
    PIVOT_HEIGHT,
    PerturbationSpec,
    _arrangement_faces,
    _face_blocks,
    _largest_rectangles,
    largest_rectangles,
    perturbed_vertical_lines,
)
from .errors import DegenerateCellError, DomainError, InvalidPerturbationError, check_count, check_real
from .inscribe import TIE_RTOL, _values, check_aspect, crossover_w, diagonal_branch, p_grid, ties

# Largest relative deviation of the closed-form curve from the exact
# rectangle kernel that the curve-oracle suite accepts.
CURVE_ORACLE_RTOL = 1e-12
# A theorem scan accepts a parallel-grid tie at p within this of the crossover.
CROSSOVER_WINDOW = 1e-9
# A perturbed arrangement fails when it scores this far below even spacing.
PERTURBATION_TOL = 1e-9


@dataclass(frozen=True)
class VerificationReport:
    """Scored candidates, their winner, and run parameters.

    Values may be None for candidates that admit no valid configuration.
    The winner is the first scored candidate, in list order, that ties
    the minimum (ties).  The report keeps the first 10 failures; it
    passes when it has none.
    """

    candidates: tuple[tuple[str, float | None], ...]
    parameters: dict = field(default_factory=dict)
    seed: int | None = None
    failures: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple((str(n), v) for n, v in self.candidates))
        object.__setattr__(self, "failures", tuple(self.failures)[:10])
        if all(value is None for _, value in self.candidates):
            raise DomainError("a report needs at least one scored candidate")

    @property
    def winner(self) -> str:
        scored = [(name, value) for name, value in self.candidates if value is not None]
        best = min(value for _, value in scored)
        return next(name for name, value in scored if ties(value, best))

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "candidates": [[name, value] for name, value in self.candidates],
            "winner": self.winner,
            "parameters": self.parameters,
            "seed": self.seed,
            "passed": self.passed,
            "failures": list(self.failures),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def oracle_curve_value(n: float, p: float) -> float:
    """The inscribing curve at (n, p) from the exact rectangle kernel.

    The largest c such that a c x cp rectangle fits in the [0,1] x [0,n]
    hole, by cells.largest_rectangles on the hole as a convex cell.
    """
    n = check_aspect(n, "hole aspect n")
    p = check_aspect(p, "intruder aspect p")
    return float(largest_rectangles([np.array(((0.0, 0.0), (1.0, 0.0), (1.0, n), (0.0, n)))], p)[0])


def curve_oracle_check(n: float) -> VerificationReport:
    """The closed-form curve against oracle_curve_value at p = 1, 1.125, ..., 4n.

    Each p's candidate is the relative deviation |curve - oracle| / oracle;
    the report fails where one exceeds CURVE_ORACLE_RTOL.
    """
    n = check_aspect(n, "hole aspect n")
    try:
        grid = p_grid(1.0, 4.0 * n, 0.125)
    except DomainError as exc:
        raise DomainError(f"n={n!r} is too large for curve-oracle, which samples p = 1 .. 4n: {exc}") from None
    candidates, failures = [], []
    for p, closed in zip(grid, _values(n, grid).tolist()):
        exact = oracle_curve_value(n, p)
        deviation = abs(closed - exact) / exact
        candidates.append((f"p={p:.9g}", deviation))
        if deviation > CURVE_ORACLE_RTOL:
            failures.append(
                f"|curve - oracle| / oracle = {deviation!r} > {CURVE_ORACLE_RTOL!r} at n={n}, p={p}"
            )
    return VerificationReport(
        candidates=tuple(candidates),
        parameters={"n": n, "tolerance": CURVE_ORACLE_RTOL, "max_deviation": max(d for _, d in candidates)},
        failures=tuple(failures),
    )


def enumerate_axis_nets(k: int, p: float) -> VerificationReport:
    """Score every evenly spaced split v + h = k and report the argmin set.

    The argmin set holds the splits that tie the minimum (ties).
    Candidates run from the most vertical lines down, so the report's
    winner is the tied split with the most vertical lines (the
    all-parallel net wins ties).  The report fails if the set misses the
    predicted optimal net.
    """
    k = check_count(k, "line count k", minimum=1)
    p = check_aspect(p, "intruder aspect p")
    # every split v + h = k from v = k down, scored by its widest hole
    widths, heights = _split_holes(k)[:, ::-1].tolist()
    splits = zip(range(k, -1, -1), widths, heights)
    candidates = tuple((f"N({v},{k - v})", nets._hole_scale(w, h, p)) for v, w, h in splits)
    best_value = min(value for _, value in candidates)
    tied = [name for name, value in candidates if ties(value, best_value)]
    predicted = nets.optimal_net(k, p).describe()
    failures = []
    if predicted not in tied:
        failures.append(
            f"predicted optimum {predicted} absent from argmin set {tied} at k={k}, p={p}"
        )
    return VerificationReport(
        candidates=candidates,
        parameters={
            "k": k,
            "p": p,
            "tie_tolerance": TIE_RTOL,
            "tied": tied,
            "predicted": predicted,
        },
        failures=tuple(failures),
    )


def _split_holes(k: int) -> np.ndarray:
    """Widest holes of the evenly spaced nets N(v, k - v), v = 0 .. k:
    widths and heights stacked on a first axis of 2 (nets._even_holes)."""
    v = np.arange(k + 1)
    return nets._even_holes(v, k - v)


# The theorem scans' p-grid: [1, 8] in steps of 1/64, every point exact in binary.
THEOREM_P_STEP = 1 / 64
THEOREM_P_VALUES = tuple(p_grid(1.0, 8.0, THEOREM_P_STEP))


def theorem_scan(k: int) -> VerificationReport:
    """Scan p over THEOREM_P_VALUES comparing enumeration with the prediction.

    Splits are grouped into mirror classes by their larger line count
    (N(v,h) and N(h,v) always tie).  Away from the crossover the set of
    classes that tie the minimum (ties) must be exactly the predicted
    family; at (or within CROSSOVER_WINDOW of) the crossover a tie
    between the parallel and grid families is accepted.  Each mismatch is
    a failure; the candidates are the enumeration table at the first grid
    p past the crossover, and odd k also reports the line-count variant
    of the crossover (nets.odd_crossover_line_count) beside it.

    Every split's widest hole (nets._even_holes) comes from one pass.  A
    (class, p) table scores each class's hole by nets._hole_scales, values
    only, in chunks of p columns of at most nets.GAP_BUDGET scores (one
    column when a column alone is longer).  The candidates read its column
    at table_at_p: a split's mirror has its widest hole turned, from the
    same _even_cuts division, and a hole's score does not depend on which
    side is its width.
    """
    k = check_count(k, "line count k", minimum=2)
    x = nets.crossover_aspect(k)
    grid_class = k - k // 2
    classes = range(grid_class, k + 1)
    widths, heights = _split_holes(k)[:, grid_class:, None]
    ps = np.array(THEOREM_P_VALUES)
    above = int(np.searchsorted(ps, x + CROSSOVER_WINDOW, side="right"))  # first p past the crossover
    columns = max(1, nets.GAP_BUDGET // len(classes))
    mismatches = []
    for start in range(0, len(ps), columns):
        chunk = ps[start : start + columns]
        values = nets._hole_scales(widths, heights, chunk)
        tied = ties(values, values.min(axis=0))
        predicted = np.where(chunk <= x, k, grid_class)
        predicted_tied = tied[predicted - grid_class, np.arange(len(chunk))]
        wrong = ~predicted_tied | ((np.abs(chunk - x) > CROSSOVER_WINDOW) & (tied.sum(axis=0) > 1))
        for j in np.flatnonzero(wrong).tolist():
            p, expected = THEOREM_P_VALUES[start + j], int(predicted[j])
            argmin = [classes[i] for i in np.flatnonzero(tied[:, j]).tolist()]
            if predicted_tied[j]:
                mismatches.append(f"p={p!r}: unexpected tie set {argmin}, predicted {expected}")
            else:
                mismatches.append(f"p={p!r}: predicted class {expected} not in argmin set {argmin}")
        if start <= above < start + columns:
            table = values[:, above - start].tolist()
    parameters = {
        "k": k,
        "crossover": x,
        "p_grid": {"min": THEOREM_P_VALUES[0], "max": THEOREM_P_VALUES[-1], "step": THEOREM_P_STEP},
        "checked": len(THEOREM_P_VALUES),
        "mismatches": mismatches[:10],
        "table_at_p": THEOREM_P_VALUES[above],
        "tie_tolerance": TIE_RTOL,
    }
    if k % 2 == 1:
        alt = nets.odd_crossover_line_count(k)
        parameters["crossover_line_count_formula"] = alt
        parameters["formulas_disagree"] = abs(alt - x) > 1e-12
    # N(v, k - v) scores as its class max(v, k - v) does
    candidates = tuple((f"N({v},{k - v})", table[max(v, k - v) - grid_class]) for v in range(k, -1, -1))
    return VerificationReport(candidates=candidates, parameters=parameters, failures=tuple(mismatches))


def _diagonal_legs_in_hole(width: float, height: float, c_prime: float) -> tuple[float, float] | None:
    """Legs (a1, a2) of a short side c_prime placed corner-to-corner in a
    width x height hole: a1^2 + a2^2 = c'^2 with the perpendicularity
    condition a1 (width - a1) = a2 (height - a2).  None when c_prime is
    too long for the hole."""
    if c_prime >= min(width, height):
        return None

    def g(phi: float) -> float:
        a1 = c_prime * math.cos(phi)
        a2 = c_prime * math.sin(phi)
        return a1 * (width - a1) - a2 * (height - a2)

    lo, hi = 0.0, math.pi / 2
    if not (g(lo) > 0.0 > g(hi)):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    phi = 0.5 * (lo + hi)
    return c_prime * math.cos(phi), c_prime * math.sin(phi)


def lagrange_split_check(k: int, p: float) -> VerificationReport:
    """Squared diagonal long side per split of k lines, minimized at v = h.

    The short side is c' = C_1(p) / (k/2 + 1), the diagonal placement's
    short side in the balanced split's square hole (p above w_1), so it
    always fits that hole.  For each split v + h = k the hole is
    1/(v+1) x 1/(h+1); a rectangle with short side c' placed
    corner-to-corner there has squared long side
    (1/(v+1) - a1)^2 + (1/(h+1) - a2)^2.  The balanced split must tie the
    smallest long side (ties); splits whose holes cannot hold the short
    side at all are reported unscored.  Candidates run from N(k,0) down
    to N(0,k); the report's winner is the first of them that ties the
    minimum.
    """
    p = check_real(p, "intruder aspect p")
    w_1 = crossover_w(1)
    if p <= w_1:
        raise DomainError(f"the split check needs the diagonal branch of the square hole: p > {w_1!r}")
    k = check_count(k, "line count k", minimum=2)
    if k % 2 != 0:
        raise DomainError(f"the split check needs even k, got {k}")
    c_prime = diagonal_branch(1, p).c / (k // 2 + 1)

    candidates: list[tuple[str, float | None]] = []
    for v in range(k, -1, -1):
        h = k - v
        width = 1.0 / (v + 1)
        height = 1.0 / (h + 1)
        legs = _diagonal_legs_in_hole(width, height, c_prime)
        if legs is None:
            candidates.append((f"N({v},{h})", None))
            continue
        a1, a2 = legs
        candidates.append((f"N({v},{h})", (width - a1) ** 2 + (height - a2) ** 2))

    scored = {name: value for name, value in candidates if value is not None}
    best = min(scored.values())
    balanced = f"N({k // 2},{k // 2})"
    failures = []
    if not ties(scored[balanced], best):
        failures.append(f"balanced split {balanced} scores {scored[balanced]!r}, above the minimum {best!r}")
    return VerificationReport(
        candidates=tuple(candidates),
        parameters={"k": k, "c_prime": c_prime, "tie_tolerance": TIE_RTOL, "p": p},
        failures=tuple(failures),
    )


def irregular_spacing_check(k: int, p_values: list[float], trials: int, seed: int) -> VerificationReport:
    """Random position jitters never beat even spacing for the same split.

    Each trial draws a split v + h = k and jitters every cut position by
    up to 49% of its even gap (order-preserving); the trials are drawn
    once from seed, and every p scores the same trials.  A net is scored
    by its widest hole alone (the widest gap of each axis, as
    nets.Net.widest_hole, from _widest_gaps for the jittered nets and
    nets._even_holes for the evenly spaced ones), and the evenly spaced
    net's score must tie or beat the jittered net's (ties).  Each p's
    candidate is its worst margin, the least jittered-minus-even score
    over its trials.  The draws of each chunk of trials, at most
    nets.GAP_BUDGET jitters (one trial when k is larger), feed one
    _widest_gaps pass.
    """
    k = check_count(k, "line count k", minimum=1)
    try:
        p_values = [check_aspect(p, "intruder aspect p") for p in p_values]
    except TypeError:
        raise DomainError(f"p_values must be a sequence of intruder aspects, got {p_values!r}") from None
    if not p_values:
        raise DomainError("p_values must hold at least one intruder aspect, got []")
    trials = check_count(trials, "trials", minimum=1)
    seed = check_count(seed, "seed")
    # One draw per trial: the split, then all k jitters, vertical cuts first.
    rng = np.random.default_rng(seed)
    splits = np.empty(trials, dtype=np.intp)
    widths, heights = np.empty(trials), np.empty(trials)
    rows = max(1, nets.GAP_BUDGET // k)
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        jitter = np.empty((stop - start, k))
        for row in range(stop - start):
            splits[start + row] = rng.integers(0, k + 1)
            jitter[row] = rng.uniform(-0.49, 0.49, size=k)
        widths[start:stop], heights[start:stop] = _widest_gaps(splits[start:stop], jitter)
    # (p, trial) tables of jittered and even scores; even spacing is scored
    # once per (p, drawn split).
    jittered = nets._hole_scales(widths, heights, np.array(p_values)[:, None])
    drawn = np.flatnonzero(np.bincount(splits, minlength=k + 1))
    even_holes = nets._even_holes(drawn, k - drawn).T.tolist()
    by_split = np.zeros((len(p_values), k + 1))
    by_split[:, drawn] = [[nets._hole_scale(w, h, p) for w, h in even_holes] for p in p_values]
    even = by_split[:, splits]
    failures = []
    for i, trial in np.argwhere(~ties(even, jittered))[:10].tolist():
        v = int(splits[trial])
        failures.append(
            f"trial {trial}: jittered N({v},{k - v}) scores {float(jittered[i, trial])!r} below even "
            f"spacing {float(even[i, trial])!r} at p={p_values[i]}"
        )
    margins = (jittered - even).min(axis=1).tolist()
    return VerificationReport(
        candidates=tuple((f"p={p:.9g} worst margin", margin) for p, margin in zip(p_values, margins)),
        parameters={"k": k, "p_values": p_values, "trials": trials, "tolerance": TIE_RTOL},
        seed=seed,
        failures=tuple(failures),
    )


def _widest_gaps(splits: np.ndarray, jitter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Widest vertical and horizontal gap of each trial's jittered cuts, in
    one (trial, cut) pass.

    Row t of jitter holds a trial's k jitters, the first splits[t] of them
    vertical.  Cut i of an axis with m cuts lies at (i + 1 + jitter) times
    the even gap 1 / (m + 1); the gaps run from 0 through the axis's cuts
    to 1.
    """
    k = jitter.shape[1]
    cut = np.arange(k)
    v = splits[:, None]
    vertical = cut < v
    gap = np.where(vertical, 1.0 / (v + 1), 1.0 / (k - v + 1))
    positions = np.where(vertical, cut + 1, cut + 1 - v) * gap + jitter * gap
    # A row of k + 2 bounds per axis: 0, the axis's cuts and 1, where the
    # other axis's cuts repeat a bound; those gaps of 0 are below every
    # real gap.
    bounds = np.zeros((2, len(splits), k + 2))
    bounds[:, :, -1] = 1.0
    bounds[0, :, 1:-1] = np.where(vertical, positions, 1.0)
    bounds[1, :, 1:-1] = np.where(vertical, 0.0, positions)
    widths, heights = (bounds[:, :, 1:] - bounds[:, :, :-1]).max(axis=2)
    return widths, heights


def _spec_cell_values(k: int, specs: list[PerturbationSpec]) -> np.ndarray:
    """Largest inscribed square of every cell, one row per spec.

    Each spec's perturbed lines must cut the unit square into k + 1
    convex cells (DegenerateCellError otherwise); the cells of all specs
    go to the kernel in one call, stacked into one block per vertex
    count.  Every error names its spec, and the kernel's errors the cell
    within that spec.
    """
    faces_per_spec = []
    for idx, spec in enumerate(specs):
        try:
            faces = _arrangement_faces(perturbed_vertical_lines(k, spec))
        except InvalidPerturbationError as exc:
            raise InvalidPerturbationError(f"spec {idx}: {exc}") from exc
        if len(faces) != k + 1:
            raise DegenerateCellError(f"spec {idx}: {k} lines cut {len(faces)} cells, not {k + 1}")
        faces_per_spec.append(faces)
    try:
        values = _largest_rectangles(*_face_blocks([face for faces in faces_per_spec for face in faces]), 1.0)
    except (DegenerateCellError, DomainError):
        # Rerun spec by spec (the kernel's values do not depend on its
        # batch) so that the error names the cell within its spec.
        for idx, faces in enumerate(faces_per_spec):
            try:
                _largest_rectangles(*_face_blocks(faces), 1.0)
            except (DegenerateCellError, DomainError) as exc:
                raise type(exc)(f"spec {idx}: {exc}") from exc
        raise
    return values.reshape(len(specs), k + 1)


def local_perturbation_experiment(k: int, spec: PerturbationSpec) -> VerificationReport:
    """Shift/pivot a k-line vertical arrangement and re-measure its scale factor.

    Builds the perturbed lines, cuts the unit square into k+1 convex
    cells, and takes the largest inscribed square over the cells (the
    square intruder's scale factor).  Evenly spaced lines being a local
    optimum means the perturbed value never drops below 1/(k+1); the
    report carries the per-cell values and fails on any drop beyond
    PERTURBATION_TOL.
    """
    k = check_count(k, "line count k", minimum=3)
    (values,) = _spec_cell_values(k, [spec])
    perturbed = float(values.max())
    regular = 1.0 / (k + 1)
    failures = []
    if perturbed < regular - PERTURBATION_TOL:
        failures.append(
            f"perturbed arrangement scores {perturbed!r} below the even spacing value "
            f"{regular!r} (spec shifts={spec.shifts}, pivots={spec.pivots})"
        )
    return VerificationReport(
        candidates=(("evenly-spaced", regular), ("perturbed", perturbed)),
        parameters={
            "k": k,
            "pivot_height": PIVOT_HEIGHT,
            "tie_tolerance": PERTURBATION_TOL,
            "cell_values": [float(x) for x in values],
            "shifts": list(spec.shifts),
            "pivots": list(spec.pivots),
            "epsilon": spec.epsilon,
        },
        failures=tuple(failures),
    )


def perturbation_suite(k: int, trials: int, epsilon: float, seed: int) -> VerificationReport:
    """Run many random shift/pivot specs at once (batched across all cells).

    Draws `trials` specs with shifts and pivots uniform in [0, epsilon]
    and checks that no perturbed arrangement scores more than
    PERTURBATION_TOL below even spacing.  All trials' cells go through
    one batched inscribed-square computation, which keeps large sweeps
    fast; results are identical to running local_perturbation_experiment
    per spec.
    """
    k = check_count(k, "line count k", minimum=3)
    trials = check_count(trials, "trials", minimum=1)
    seed = check_count(seed, "seed")
    epsilon = check_real(epsilon, "epsilon", 0.0)
    rng = np.random.default_rng(seed)
    specs = [
        PerturbationSpec(
            shifts=tuple(rng.uniform(0.0, epsilon, size=k)),
            pivots=tuple(rng.uniform(0.0, epsilon, size=k)),
            epsilon=epsilon,
        )
        for _ in range(trials)
    ]
    per_spec = [float(values.max()) for values in _spec_cell_values(k, specs)]
    regular = 1.0 / (k + 1)

    failures = []
    violating = []
    for idx, value in enumerate(per_spec):
        if value < regular - PERTURBATION_TOL:
            failures.append(f"spec {idx} scores {value!r} below even spacing {regular!r}")
            violating.append(
                {"index": idx, "shifts": list(specs[idx].shifts), "pivots": list(specs[idx].pivots)}
            )
    worst_idx = int(np.argmin(per_spec))
    return VerificationReport(
        candidates=(
            ("evenly-spaced", regular),
            (f"worst perturbed (spec {worst_idx})", per_spec[worst_idx]),
        ),
        parameters={
            "k": k,
            "trials": trials,
            "epsilon": epsilon,
            "pivot_height": PIVOT_HEIGHT,
            "tie_tolerance": PERTURBATION_TOL,
            "min_perturbed": per_spec[worst_idx],
            "violating_specs": violating[:10],
        },
        seed=seed,
        failures=tuple(failures),
    )
