"""firstroot: guaranteed localization of the first root from the left of a
function whose derivative is Lipschitz continuous."""

from .curvature import EstimationParams
from .errors import (
    BadInitialCondition,
    DegenerateInterval,
    DegenerateSlope,
    DomainError,
    FirstRootError,
    NonFinite,
    NoZero,
    NumericalDiscriminant,
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

__version__ = "0.1.0"
