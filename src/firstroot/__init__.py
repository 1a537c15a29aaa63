"""firstroot: guaranteed localization of the first root from the left of a
function whose derivative is Lipschitz continuous."""

from .curvature import CurvatureTable, EstimationParams, build_curvature_table, interval_curvature
from .errors import (
    BadInitialCondition,
    DegenerateInterval,
    DegenerateSlope,
    DomainError,
    FirstRootError,
    NonFinite,
    NoZero,
    NumericalDiscriminant,
    OutOfInterval,
    UnknownProblem,
)
from .problems import (
    Problem,
    all_ids,
    chebyshev_transfer,
    curvature_bound,
    cutoff_objective,
    exact_lipschitz_oracle,
    find_fmax,
    get_problem,
    passband_transfer,
    registry,
)
from .solver import (
    BudgetExhausted,
    FirstRootFound,
    NoRootGlobalMin,
    Outcome,
    PrecisionExhausted,
    SearchState,
    SolveResult,
    SolverConfig,
    Trial,
    grid_search,
    solve,
)
from .support import (
    Characteristic,
    IntervalData,
    SupportFunction,
    build_support,
    characteristic,
    eval_support,
    eval_support_derivative,
    interior_stationary_point,
    leftmost_zero,
)

__version__ = "0.1.0"
