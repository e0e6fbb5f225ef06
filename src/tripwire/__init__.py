"""Optimal axis-aligned tripwire nets for rectangular intruders in the unit square."""

from .cells import (
    PerturbationSpec,
    arrangement_cells,
    largest_rectangles,
    largest_square_in_cell,
    largest_squares,
    perturbed_vertical_lines,
)
from .errors import (
    DegenerateCellError,
    DomainError,
    InvalidPerturbationError,
    check_count,
    check_real,
)
from .inscribe import (
    BRANCH_DIAGONAL,
    BRANCH_PLATEAU,
    BRANCH_VERTICAL,
    CurveSample,
    DiagonalSolution,
    Placement,
    crossover_w,
    curve_sample,
    curve_value,
    diagonal_branch,
    p_grid,
    placement,
)
from .nets import (
    HoleGrid,
    Net,
    base_curve,
    crossover_aspect,
    evenly_spaced,
    hole_scale,
    holes,
    maximizing_hole,
    net_from_dict,
    net_scale_factor,
    net_to_dict,
    odd_crossover_line_count,
    optimal_net,
)
from .oracle import (
    VerificationReport,
    curve_oracle_check,
    enumerate_axis_nets,
    irregular_spacing_check,
    lagrange_split_check,
    local_perturbation_experiment,
    oracle_curve_value,
    perturbation_suite,
    theorem_scan,
)

__version__ = "0.1.0"
