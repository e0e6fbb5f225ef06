"""Independent brute-force verifiers for the curve and net-optimality claims.

Nothing here reuses the closed forms it is meant to check: the curve
oracle is the exact largest-rectangle kernel run on the hole as a
convex cell (see cells.largest_rectangles), net enumeration scores
every split of k lines between the two axes, the split check re-solves
the diagonal corner-contact equations per split, and the perturbation
experiment measures inscribed squares in the cells of a perturbed
arrangement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import nets
from .cells import (
    PerturbationSpec,
    arrangement_cells,
    largest_rectangles,
    largest_squares,
    perturbed_vertical_lines,
)
from .errors import DomainError, InvalidPerturbationError
from .inscribe import check_aspect

__all__ = [
    "VerificationReport",
    "oracle_curve_value",
    "enumerate_axis_nets",
    "THEOREM_P_STEP",
    "THEOREM_P_VALUES",
    "theorem_scan",
    "lagrange_split_check",
    "irregular_spacing_check",
    "local_perturbation_experiment",
    "perturbation_suite",
]

@dataclass(frozen=True)
class VerificationReport:
    """Scored candidates, the minimizing winner, and run parameters.

    Values may be None for candidates that admit no valid configuration;
    the winner always attains the minimum among the scored candidates.
    """

    candidates: tuple[tuple[str, float | None], ...]
    winner: str
    parameters: dict = field(default_factory=dict)
    seed: int | None = None
    passed: bool = True
    failures: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple((str(n), v) for n, v in self.candidates))
        object.__setattr__(self, "failures", tuple(self.failures))
        scored = {name: value for name, value in self.candidates if value is not None}
        if not scored:
            raise DomainError("a report needs at least one scored candidate")
        if self.winner not in scored:
            raise DomainError(f"winner {self.winner!r} is not a scored candidate")
        best = min(scored.values())
        tie_tol = max(1e-12, float(self.parameters.get("tie_tolerance", 1e-12)))
        if scored[self.winner] > best + tie_tol:
            raise DomainError(
                f"winner {self.winner!r} scores {scored[self.winner]!r}, above the minimum {best!r}"
            )

    def to_dict(self) -> dict:
        return {
            "candidates": [[name, value] for name, value in self.candidates],
            "winner": self.winner,
            "parameters": self.parameters,
            "seed": self.seed,
            "passed": self.passed,
            "failures": list(self.failures),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def oracle_curve_value(n: float, p: float) -> float:
    """The inscribing curve at (n, p) from the exact rectangle kernel.

    The largest c such that a c x cp rectangle fits in the [0,1] x [0,n]
    hole, by cells.largest_rectangles on the hole as a convex cell.
    """
    n = check_aspect(n, "hole aspect n")
    p = check_aspect(p, "intruder aspect p")
    return float(largest_rectangles([((0.0, 0.0), (1.0, 0.0), (1.0, n), (0.0, n))], p)[0])


def enumerate_axis_nets(k: int, p: float, tie_tol: float = 1e-12) -> VerificationReport:
    """Score every evenly spaced split v + h = k and report the argmin set.

    The winner is the minimizing split with the most vertical lines (so
    the all-parallel net wins exact ties).  The report fails if the
    argmin set misses the predicted optimal net.
    """
    if k < 1:
        raise DomainError(f"line count k must be >= 1, got {k}")
    p = check_aspect(p, "intruder aspect p")
    scores = [
        (v, nets.net_scale_factor(nets.evenly_spaced(v, k - v), p)) for v in range(k, -1, -1)
    ]
    best_value = min(value for _, value in scores)
    tied = [f"N({v},{k - v})" for v, value in scores if value <= best_value + tie_tol]
    winner = tied[0]
    predicted = nets.optimal_net(k, p).describe()
    failures = []
    if predicted not in tied:
        failures.append(
            f"predicted optimum {predicted} absent from argmin set {tied} at k={k}, p={p}"
        )
    return VerificationReport(
        candidates=tuple((f"N({v},{k - v})", value) for v, value in scores),
        winner=winner,
        parameters={
            "k": k,
            "p": p,
            "tie_tolerance": tie_tol,
            "tied": tied,
            "predicted": predicted,
        },
        passed=not failures,
        failures=tuple(failures),
    )


# The theorem scans' p-grid: [1, 8] in steps of 1/64, every point exact in binary.
THEOREM_P_STEP = 1 / 64
THEOREM_P_VALUES = tuple(1.0 + i * THEOREM_P_STEP for i in range(7 * 64 + 1))


def theorem_scan(k: int, tie_tol: float = 1e-12, crossover_window: float = 1e-9) -> dict:
    """Scan p over THEOREM_P_VALUES comparing enumeration with the prediction.

    Splits are grouped into mirror classes by their larger line count
    (N(v,h) and N(h,v) always tie).  Away from the crossover the argmin
    class must be exactly the predicted family; at (or within
    crossover_window of) the crossover a tie between the parallel and
    grid families is accepted.
    """
    if k < 2:
        raise DomainError(f"theorem scan needs k >= 2, got {k}")
    x = nets.crossover_aspect(k)
    grid_class = k - k // 2
    mismatches = []
    for p in THEOREM_P_VALUES:
        values = {
            vmax: nets.net_scale_factor(nets.evenly_spaced(vmax, k - vmax), p)
            for vmax in range(grid_class, k + 1)
        }
        best = min(values.values())
        tied = sorted(v for v, value in values.items() if value <= best + tie_tol)
        predicted = k if p <= x else grid_class
        if predicted not in tied:
            mismatches.append(f"p={p!r}: predicted class {predicted} not in argmin set {tied}")
        elif abs(p - x) > crossover_window and tied != [predicted]:
            mismatches.append(f"p={p!r}: unexpected tie set {tied}, predicted {predicted}")
    return {"crossover": x, "checked": len(THEOREM_P_VALUES), "mismatches": mismatches}


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


def lagrange_split_check(k: int, c_prime: float) -> VerificationReport:
    """Squared diagonal long side per split of k lines, minimized at v = h.

    For each split v + h = k the hole is 1/(v+1) x 1/(h+1); a rectangle
    with short side c_prime placed corner-to-corner there has squared
    long side (1/(v+1) - a1)^2 + (1/(h+1) - a2)^2.  The balanced split
    must give the smallest long side; splits whose holes cannot hold the
    short side at all are reported unscored.
    """
    if k < 2 or k % 2 != 0:
        raise DomainError(f"the split check needs even k >= 2, got {k}")
    c_prime = float(c_prime)
    if not (math.isfinite(c_prime) and c_prime > 0.0):
        raise DomainError(f"c_prime must be positive and finite, got {c_prime!r}")
    grid_side = 1.0 / (k // 2 + 1)
    if c_prime >= grid_side:
        raise DomainError(
            f"c_prime={c_prime!r} cannot sit diagonally in the balanced split's "
            f"{grid_side!r}-sided square hole"
        )

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
    winner = min(scored, key=lambda name: scored[name])
    balanced = f"N({k // 2},{k // 2})"
    failures = []
    if scored.get(balanced, math.inf) > best + 1e-12:
        failures.append(
            f"balanced split {balanced} scores {scored.get(balanced)!r}, above the minimum {best!r}"
        )
    else:
        winner = balanced
    return VerificationReport(
        candidates=tuple(candidates),
        winner=winner,
        parameters={"k": k, "c_prime": c_prime, "tie_tolerance": 1e-12},
        passed=not failures,
        failures=tuple(failures),
    )


def irregular_spacing_check(
    k: int,
    p: float,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-12,
) -> VerificationReport:
    """Random position jitters never beat even spacing for the same split.

    Each trial draws a split v + h = k and jitters every cut position by
    up to 49% of its even gap (order-preserving); the jittered net's
    scale factor must stay >= the evenly spaced net's, within tol.
    """
    if k < 1:
        raise DomainError(f"line count k must be >= 1, got {k}")
    p = check_aspect(p, "intruder aspect p")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    even_value: dict[int, float] = {}
    worst_by_split: dict[int, float] = {}
    failures = []
    for trial in range(trials):
        v = int(rng.integers(0, k + 1))
        h = k - v
        if v not in even_value:
            even_value[v] = nets.net_scale_factor(nets.evenly_spaced(v, h), p)
        vertical = _jittered_positions(v, rng)
        horizontal = _jittered_positions(h, rng)
        value = nets.net_scale_factor(nets.Net(vertical=vertical, horizontal=horizontal), p)
        margin = value - even_value[v]
        if margin < worst_by_split.get(v, math.inf):
            worst_by_split[v] = margin
        if margin < -tol:
            failures.append(
                f"trial {trial}: jittered N({v},{h}) scores {value!r} below even "
                f"spacing {even_value[v]!r} at p={p}"
            )
    candidates = tuple(
        (f"N({v},{k - v}) worst margin", worst_by_split[v]) for v in sorted(worst_by_split)
    )
    winner = min(candidates, key=lambda item: item[1])[0]
    return VerificationReport(
        candidates=candidates,
        winner=winner,
        parameters={"k": k, "p": p, "trials": trials, "tolerance": tol},
        seed=seed,
        passed=not failures,
        failures=tuple(failures[:10]),
    )


def _jittered_positions(count: int, rng: np.random.Generator) -> tuple[float, ...]:
    if count == 0:
        return ()
    gap = 1.0 / (count + 1)
    jitter = rng.uniform(-0.49, 0.49, size=count) * gap
    return tuple((i + 1) * gap + jitter[i] for i in range(count))


def _spec_cell_values(k: int, specs: list[PerturbationSpec], pivot_height: float) -> list[np.ndarray]:
    """Largest inscribed square of every cell, one array per spec.

    Each spec's perturbed lines cut the unit square into convex cells;
    the cells of all specs go through one batched largest_squares call.
    """
    cells_per_spec = []
    for idx, spec in enumerate(specs):
        try:
            cells_per_spec.append(arrangement_cells(perturbed_vertical_lines(k, spec, pivot_height)))
        except InvalidPerturbationError as exc:
            raise InvalidPerturbationError(f"spec {idx}: {exc}") from exc
    values = largest_squares([cell for cells in cells_per_spec for cell in cells])
    ends = np.cumsum([len(cells) for cells in cells_per_spec], dtype=int)
    return [values[end - len(cells) : end] for cells, end in zip(cells_per_spec, ends)]


def local_perturbation_experiment(
    k: int,
    spec: PerturbationSpec,
    pivot_height: float = 0.5,
    tol: float = 1e-9,
) -> VerificationReport:
    """Shift/pivot a k-line vertical arrangement and re-measure its scale factor.

    Builds the perturbed lines, cuts the unit square into k+1 convex
    cells, and takes the largest inscribed square over the cells (the
    square intruder's scale factor).  Evenly spaced lines being a local
    optimum means the perturbed value never drops below 1/(k+1); the
    report carries the per-cell values and fails on any drop beyond tol.
    """
    if k <= 2:
        raise DomainError(f"the perturbation experiment needs k > 2, got {k}")
    (values,) = _spec_cell_values(k, [spec], pivot_height)
    perturbed = float(values.max())
    regular = 1.0 / (k + 1)
    failures = []
    if perturbed < regular - tol:
        failures.append(
            f"perturbed arrangement scores {perturbed!r} below the even spacing value "
            f"{regular!r} (spec shifts={spec.shifts}, pivots={spec.pivots})"
        )
    return VerificationReport(
        candidates=(("evenly-spaced", regular), ("perturbed", perturbed)),
        winner="evenly-spaced" if perturbed >= regular - tol else "perturbed",
        parameters={
            "k": k,
            "pivot_height": pivot_height,
            "tie_tolerance": tol,
            "cell_values": [float(x) for x in values],
            "shifts": list(spec.shifts),
            "pivots": list(spec.pivots),
            "epsilon": spec.epsilon,
        },
        passed=not failures,
        failures=tuple(failures),
    )


def perturbation_suite(
    k: int,
    trials: int = 500,
    epsilon: float = 0.02,
    seed: int = 0,
    pivot_height: float = 0.5,
    tol: float = 1e-9,
) -> VerificationReport:
    """Run many random shift/pivot specs at once (batched across all cells).

    Draws `trials` specs with shifts and pivots uniform in [0, epsilon]
    and checks that no perturbed arrangement beats even spacing.  All
    trials' cells go through one batched inscribed-square computation,
    which keeps large sweeps fast; results are identical to running
    local_perturbation_experiment per spec.
    """
    if k <= 2:
        raise DomainError(f"the perturbation experiment needs k > 2, got {k}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise DomainError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    rng = np.random.default_rng(seed)
    specs = [
        PerturbationSpec(
            shifts=tuple(rng.uniform(0.0, epsilon, size=k)),
            pivots=tuple(rng.uniform(0.0, epsilon, size=k)),
            epsilon=epsilon,
        )
        for _ in range(trials)
    ]
    per_spec = [float(values.max()) for values in _spec_cell_values(k, specs, pivot_height)]
    regular = 1.0 / (k + 1)

    failures = []
    violating = []
    for idx, value in enumerate(per_spec):
        if value < regular - tol:
            failures.append(
                f"spec {idx} scores {value!r} below even spacing {regular!r}"
            )
            violating.append(
                {"index": idx, "shifts": list(specs[idx].shifts), "pivots": list(specs[idx].pivots)}
            )
    worst_idx = int(np.argmin(per_spec))
    candidates = (
        ("evenly-spaced", regular),
        (f"worst perturbed (spec {worst_idx})", per_spec[worst_idx]),
    )
    winner = "evenly-spaced" if not failures else f"worst perturbed (spec {worst_idx})"
    return VerificationReport(
        candidates=candidates,
        winner=winner,
        parameters={
            "k": k,
            "trials": trials,
            "epsilon": epsilon,
            "pivot_height": pivot_height,
            "tie_tolerance": tol,
            "min_perturbed": per_spec[worst_idx],
            "violating_specs": violating[:10],
        },
        seed=seed,
        passed=not failures,
        failures=tuple(failures[:10]),
    )
