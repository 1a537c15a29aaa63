"""First-root-from-the-left search.

Two variants share one iteration engine:

  a1  uses a single global curvature bound K for every interval;
  a2  re-estimates a local bound per interval from the trials seen so far.

Each iteration orders the trials, restricts attention to the effective set
(everything up to the first negative function value), takes the quadratic
minorant on each interval left to right, and either subdivides the interval
whose minorant dips lowest (all characteristics positive) or places the next
trial at the leftmost zero of the first minorant that reaches zero.  The
iteration stops when the selected interval is no wider than sigma; a minorant
that still reaches zero there marks its left end as the sigma-root, unless the
minorant rests on the curvature floor alone.  sigma is a setting of the search,
not a fact about its trials: each step reads it from the config.

The end game takes one trial.  Once the leftmost zero falls within sigma of
the flagged interval's left end lo, the trial goes to the largest float e with
e - lo <= sigma rather than to the zero.  If f(e) < 0, the next step stops on
the bracket [lo, e], no wider than sigma, and reports lo; otherwise the search
goes on.  Only where no float above lo lies within sigma of it does the trial
fall back to the quarter clamp that keeps every trial inside its interval.

A state is a function of its trials.  Built from the trials alone, it
derives the effective count k and lays out k - 1 slots, one per effective
interval, all of them empty and pending; the right margin b_n is read off
the trials whenever it is asked for.  The state has one shape: each
slot holds a minorant, which carries the bound it was built with, and the
minorant's characteristic value R, and every empty slot lies in the run of
pending slots.  A step adds one trial inside the chosen interval, so the state
is spliced rather than rebuilt: the slot of that interval gives way to two
empty slots for its halves, which join the pending run, and for a2 the
curvature estimate v and the width of that interval give way to the halves'
values; a negative trial cuts every list to the effective intervals.  A slot
holds the minorant alone: where the next trial goes is worked out once per
step, for the chosen interval only.

A scan walks the slots left to right and stops at the first minorant that
reaches zero, touching only slots whose minorant can have changed, and returns
that slot, the flag, or None.  The flag lives for one step and is not kept in
the state.  Under a1 the bound never moves, so the walk visits the pending
slots alone; no step looks at the other slots.  Under a2 the walk draws each
slot's bound from `curvature.iter_bounds` as it goes, so no bound right of the
stop is computed, and rebuilds a minorant only where that bound differs from
the one it was built with.  The stop deletes nothing: the minorants right of it
stay valid and are rebuilt only once their bound moves.

Each decision has one home.  `SolverConfig` validates the settings, the a1
bound included, once, when it is built.  `_walk` gives the slots a scan visits
and their bounds: K under a1, and under a2 the values of
`curvature.iter_bounds`, the only bound formula, which `build_curvature_table`
also applies when it seeds v and the widths on the first step.
`scan_characteristics` builds the minorants and returns the flag, `_advance`
chooses the flagged interval or else the one whose minorant dips lowest,
`_candidate` places the trial in it, `_clamp_candidate` moves it to the end
game's edge or keeps it inside, `_evaluate` takes f and f' there and `_insert`
splices it in; `_advance`, the one step that `step` and `solve` both run,
calls each once or stops: when the chosen interval is no wider than sigma, or
when no float is left strictly inside it for the trial.  A PrecisionExhausted
names which of the two stops made it, so no caller re-derives it from the
interval.  Which method runs, with which bound, is resolved by
`bench.run_method` for the command line and the benchmark alike.

A sequential sigma-step mesh scan (`grid_search`) is included as the baseline
the geometric methods are benchmarked against.  It takes f on whole chunks of
the mesh but f' only up to the first negative f of a chunk, since the scan
stops there at the latest.  Each chunk's mesh is built in place and clamped to
b only when its last point passes b, which only the last chunk can do, and
the first negative f and the first tangent hit are each found by one `argmax`.
It keeps the trace as the chunks of x, f and f' it evaluated, and joins them
into records the first time the trace is read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterable, Literal, NamedTuple, Sequence

import numpy as np

from .curvature import EstimationParams, build_curvature_table, interval_curvature, iter_bounds
from .errors import BadInitialCondition, DegenerateSlope, NonFinite
from .problems import Problem, on_mesh
from .support import (
    RIGHT_END,
    IntervalData,
    SupportFunction,
    build_support,
    characteristic,
    interior_stationary_point,
    leftmost_zero,
)

__all__ = [
    "Trial",
    "SolverConfig",
    "SearchState",
    "Outcome",
    "FirstRootFound",
    "NoRootGlobalMin",
    "PrecisionExhausted",
    "BudgetExhausted",
    "TraceRecord",
    "SolveResult",
    "initialize",
    "scan_characteristics",
    "step",
    "solve",
    "grid_search",
]

# Floor applied to the a1 bound so a caller-supplied K of zero (exactly linear
# objective) cannot degenerate the minorant construction.
_MIN_CURVATURE = 1e-6


def _check_count(value, name: str, least: int) -> None:
    """Refuse a trial count that is not an integer (a bool included, though
    Python counts it as one) or is below `least`."""
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


class Trial(NamedTuple):
    """One evaluation of f and f': abscissa, values, and birth iteration.

    Like the other records the search builds once per interval, trial or step
    (TraceRecord, and IntervalData, SupportFunction, Characteristic and
    CurvatureTable in their modules), a named tuple: cheap to build, immutable
    and hashable, and equal to any tuple of the same values.  On the search's
    own path all of them but CurvatureTable are built with `tuple.__new__`,
    which skips the Python-level constructor call and gives the same record."""

    x: float
    z: float
    dz: float
    birth: int


@dataclass(frozen=True)
class SolverConfig:
    """Method selection and accuracy/budget settings.

    sigma is sigma_fraction * (b - a).  a1 requires a curvature bound
    `lipschitz`; a2 uses the adaptive estimation parameters and refuses a
    `lipschitz`, which it would ignore.  max_trials must be an integer (not a
    bool) of at least 2.
    """

    method: Literal["a1", "a2"] = "a2"
    lipschitz: float | None = None
    params: EstimationParams = field(default_factory=EstimationParams)
    sigma_fraction: float = 1e-4
    max_trials: int = 10_000

    def __post_init__(self) -> None:
        if self.method not in ("a1", "a2"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.sigma_fraction > 0.0:
            raise ValueError("sigma_fraction must be positive")
        _check_count(self.max_trials, "max_trials", 2)
        if self.method == "a1":
            if self.lipschitz is None:
                raise ValueError("a1 requires a lipschitz bound (config.lipschitz)")
            if not 0.0 <= self.lipschitz < math.inf:
                raise ValueError(f"lipschitz bound must be finite and >= 0, got {self.lipschitz}")
        elif self.lipschitz is not None:
            raise ValueError("a2 estimates its own bounds; config.lipschitz applies to a1 only")

    def resolve_sigma(self, a: float, b: float) -> float:
        return self.sigma_fraction * (b - a)


@dataclass(slots=True)
class SearchState:
    """Mutable search state: the trials sorted by x, their effective count k
    and right margin b_n, and per-interval lists spliced at every insertion.
    The class has slots, so an instance holds its fields and no other
    attribute.

    A state is built from `trials` alone; every other field is derived, and
    no setting of the search, sigma included, is held.  k is 1 + the index of
    the first trial after trial 0 with a negative value, or the number of
    trials when there is none, and the read-only b_n is the abscissa of trial
    k - 1.  The trials must be sorted by x and trial 0 must be positive, as
    `initialize` and every step leave them.

    Entry p of each list describes the interval between trials p and p + 1.
    `scan` holds the minorants (SupportFunction) that scans built, with None
    in an empty slot: one that no scan has reached since the state was built
    or a step emptied it.  A minorant carries the bound it was built with,
    `scan[p].data.m`.  `R` holds, slot by slot, the minorant's characteristic
    value, NaN in an empty slot: a copy of `scan[p].char.R`, kept in a flat
    list so that `min` and `index` pick the lowest one at C speed.  The two
    lists always hold k - 1 slots: a built state has k - 1 empty slots, all of
    them pending, and a step splices the lists as it changes k.  `pending` =
    (start, stop) holds the run of slots start .. stop - 1, none when start ==
    stop, that the next scan must visit whatever their bound: every empty slot
    lies in it, and so does the slot the last scan flagged, which
    `scan_characteristics` returns rather than the state keeping it.  Every
    other minorant has R > 0, because a scan stops at the first non-positive
    one it builds and the step empties the slot it chooses.  `v` and `gaps`
    hold a2's curvature estimates and interval widths for all k - 1 effective
    intervals; they stay empty under a1 and until a2's first step seeds them.
    """

    trials: list[Trial]
    k: int = field(init=False)
    scan: list[SupportFunction | None] = field(init=False)
    R: list[float] = field(init=False)
    pending: tuple[int, int] = field(init=False)
    v: list[float] = field(init=False, default_factory=list)
    gaps: list[float] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        trials = self.trials
        self.k = next((i + 1 for i in range(1, len(trials)) if trials[i].z < 0.0), len(trials))
        n = self.k - 1
        self.scan, self.R, self.pending = [None] * n, [math.nan] * n, (0, n)

    @property
    def b_n(self) -> float:
        """The right margin: the abscissa of the last effective trial."""
        return self.trials[self.k - 1].x


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    trials_used: int

    tag = "outcome"

    @property
    def point(self) -> float:
        """The abscissa the outcome reports."""
        raise NotImplementedError


@dataclass(frozen=True)
class FirstRootFound(Outcome):
    """x_sigma is a sigma-root: f(x_sigma) >= 0, every minorant left of it
    stays positive, and f may reach zero within the final interval, which
    starts at x_sigma and is no wider than sigma.

    Either f changes sign on that interval, and then the first root lies in
    it, or f is positive at both its ends and the minorant built from the data
    reaches zero inside it.  The first case is how the end game usually ends:
    when the flagged minorant's zero lies within sigma of x_sigma, the search
    places its last trial at the largest float no more than sigma right of
    x_sigma, and a negative value there closes the bracket.  The second case
    covers a root where f touches zero without changing sign (t17 at pi),
    which no smaller sigma would turn into a sign change.  It does not prove that f vanishes: a rootless f whose
    minimum inside the interval is below what the minorant can resolve
    (roughly m*sigma**2/8) is reported the same way.
    """

    x_sigma: float = 0.0

    tag = "first_root"

    @property
    def point(self) -> float:
        return self.x_sigma


@dataclass(frozen=True)
class NoRootGlobalMin(Outcome):
    """No sign change detected and every minorant stayed positive; x_best is
    the best observed approximation of the global minimizer."""

    x_best: float = 0.0
    f_best: float = 0.0

    tag = "no_root_global_min"

    @property
    def point(self) -> float:
        return self.x_best


@dataclass(frozen=True)
class PrecisionExhausted(Outcome):
    """The search cannot resolve the first root of `interval` any further;
    `cause` names the stop that found so.

    "curvature_floor": a minorant reaches zero inside `interval`, whose
    endpoints are both positive and which is no wider than sigma, but that
    minorant rests on the curvature floor (_MIN_CURVATURE for a1 with K = 0,
    r*xi for a2) rather than on a bound taken from data.  The zero then comes
    from the floor, not from f, so it is not reported as a root: an f whose
    values are small against the floor needs rescaling or a lower xi.

    "no_float_inside": the chosen interval is still wider than sigma, but the
    next trial, once placed, does not lie strictly inside it: with sigma below
    the spacing of floats near the interval (an interval one ulp wide, say),
    no float is left where a new trial could go.  A larger sigma resolves it.
    """

    interval: tuple[float, float]
    cause: Literal["curvature_floor", "no_float_inside"]

    tag = "precision_exhausted"

    @property
    def point(self) -> float:
        return self.interval[0]


@dataclass(frozen=True)
class BudgetExhausted(Outcome):
    best_so_far: float = 0.0

    tag = "budget_exhausted"

    @property
    def point(self) -> float:
        return self.best_so_far


class TraceRecord(NamedTuple):
    """One line of the solve trace (consumed by the CLI and the bench); its
    `_asdict()` is a JSONL trace line, keys in field order."""

    iter: int
    x: float
    f: float
    fprime: float | None
    k: int
    b_n: float


@dataclass(frozen=True)
class SolveResult:
    """An outcome and its trace: one TraceRecord per trial in birth order.

    `trace` is a read-only Sequence[TraceRecord]: a list for `solve`, and for
    `grid_search` a sequence that builds its records on first read.  Both
    support len, indexing, iteration and == against each other.
    """

    outcome: Outcome
    trace: Sequence[TraceRecord]


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def _evaluate(problem: Problem, x: float, birth: int) -> Trial:
    z = float(problem.f(x))
    dz = float(problem.df(x))
    if not (math.isfinite(z) and math.isfinite(dz)):
        raise NonFinite(f"non-finite evaluation at x={x}: f={z}, f'={dz}")
    return tuple.__new__(Trial, (x, z, dz, birth))


def initialize(problem: Problem) -> SearchState:
    """Evaluate the two endpoint trials and build the state from them.

    Raises BadInitialCondition when f(a) <= 0: the search presumes a strictly
    positive left margin.  With f(a) > 0 both trials are effective, whatever
    the sign of f(b), so the state derives k = 2 and the right margin b_n = b.
    The state holds no setting of the search: sigma, the bound and the budget
    come from the config that each step is given.
    """
    a, b = problem.a, problem.b
    left = _evaluate(problem, a, 0)
    if left.z <= 0.0:
        raise BadInitialCondition(f"f({a}) = {left.z} must be > 0")
    right = _evaluate(problem, b, 1)
    return SearchState([left, right])


def _walk(state: SearchState, config: SolverConfig) -> Iterable[tuple[int, float]]:
    # The (slot, bound) pairs the next scan visits, left to right.  Under a1
    # the bound never moves, so only the pending slots can change.  Under a2
    # every slot is visited, its bound drawn from `iter_bounds` as the scan
    # goes, so none right of the stop is computed.
    if config.method == "a1":
        m = config.lipschitz if config.lipschitz > 0.0 else _MIN_CURVATURE
        return zip(range(*state.pending), repeat(m))
    if not state.v:  # the first a2 step seeds v and the widths; `_insert` splices them
        table = build_curvature_table(state.trials[:state.k], config.params)
        state.v, state.gaps = list(table.v), list(table.gaps)
    return enumerate(iter_bounds(state.v, state.gaps, config.params))


def scan_characteristics(state: SearchState, walk: Iterable[tuple[int, float]]) -> int | None:
    """Walk the effective intervals left to right, building minorants where
    they may have changed, up to the first one whose characteristic is <= 0;
    return that slot, the flag, or None when every R is positive.

    The state holds k - 1 slots, and every empty one lies in its pending run.
    `walk` yields (p, m_p), p increasing, for every slot p whose minorant can
    differ from the one the slot holds: at least every pending slot (one
    emptied by a step or never built, or flagged by a scan that no step
    followed) and every slot whose bound moved.  A minorant is a pure function
    of its interval's endpoint data and bound, and carries that bound, so the
    walk builds one only where the slot is empty or holds a minorant built
    with a bound other than m_p; it stops at, and flags, the first slot whose
    R is <= 0, and the pending run then starts there.  A slot the walk leaves
    out holds a minorant with R > 0 built with its current bound.  Minorants
    right of the stop are kept as they are: a later walk rebuilds them only
    once their bound moves.

    Every IntervalData is built with `tuple.__new__` and checked by
    `build_support`, which raises ValueError for an unsorted state or a bound
    that is zero, negative or NaN.
    """
    scan, R = state.scan, state.R
    trials = state.trials
    for p, bound in walk:
        sf = scan[p]
        if sf is None or sf.data.m != bound:
            lo, hi = trials[p], trials[p + 1]
            data = tuple.__new__(IntervalData, (lo.x, hi.x, lo.z, hi.z, lo.dz, hi.dz, bound))
            sf = scan[p] = build_support(data)
            R[p] = sf.char.R
        if R[p] <= 0.0:
            stop = state.pending[1]
            state.pending = (p, stop if stop > p else p + 1)
            return p
    state.pending = (0, 0)
    return None


def _candidate(state: SearchState, p: int, flag: int | None) -> float:
    # The next trial in interval p, the one `_advance` chose: the leftmost
    # zero of its minorant when p is the flag, else the interior stationary
    # point if there is one, else the knot y at a right-end minimum, else y'.
    # Both accessors are called every time, since perfbench/layers.py reports
    # per-call times from their call counts.
    sf = state.scan[p]
    if flag is not None:
        return leftmost_zero(sf)
    x_hat = interior_stationary_point(sf)
    kind = characteristic(sf).kind
    if x_hat is not None:
        return x_hat
    return sf.y if kind == RIGHT_END else sf.y_prime


def _clamp_candidate(state: SearchState, p: int, flag: int | None, x: float,
                     sigma: float) -> float:
    # The end game, at the sigma that `_advance` resolved from the config:
    # when the flagged minorant's leftmost zero x lies within sigma of lo,
    # the trial goes to the largest float e with e - lo <= sigma, stepped to
    # from lo + sigma, which overshoots sigma by an ulp for most lo (and
    # falls short of it for some lo < 0).  A negative f(e) leaves the bracket
    # [lo, e], and the next step stops on it.  e < hi, since the interval is
    # wider than sigma.  Where sigma is below half an ulp of lo, e is lo
    # itself and the clamp below applies: it keeps the trial inside the
    # interval, since a candidate landing on (or rounding past) an endpoint
    # would duplicate an existing abscissa and stall the subdivision.  A
    # quarter of an interval a few ulps wide can still round onto an end;
    # `_advance` then stops with PrecisionExhausted("no_float_inside").
    lo, hi = state.trials[p].x, state.trials[p + 1].x
    if flag is not None and x - lo <= sigma:
        edge = lo + sigma
        while edge - lo > sigma:
            edge = math.nextafter(edge, -math.inf)
        while math.nextafter(edge, math.inf) - lo <= sigma:
            edge = math.nextafter(edge, math.inf)
        if edge > lo:
            return edge
    width = hi - lo
    margin = 0.5 * sigma
    if x <= lo + margin:
        return lo + 0.25 * width
    if x >= hi - margin:
        return hi - 0.25 * width
    return x


def _best_observed(state: SearchState) -> tuple[float, float]:
    best = min(state.trials, key=lambda t: (t.z, t.x))
    return best.x, best.z


def _at_floor(m: float, config: SolverConfig) -> bool:
    """True when the bound m is the curvature floor rather than a value taken
    from data: _MIN_CURVATURE for a1 with K = 0, r*xi for a2."""
    if config.method == "a1":
        return config.lipschitz == 0.0
    return m <= config.params.r * config.params.xi


def _finish(state: SearchState, flag: int | None, config: SolverConfig) -> Outcome:
    """Outcome once the selected interval is no wider than sigma."""
    n_used = len(state.trials)
    if flag is None:
        x_best, f_best = _best_observed(state)
        return NoRootGlobalMin(trials_used=n_used, x_best=x_best, f_best=f_best)
    lo, hi = state.trials[flag], state.trials[flag + 1]
    if _at_floor(state.scan[flag].data.m, config) and hi.z >= 0.0:
        return PrecisionExhausted(trials_used=n_used, interval=(lo.x, hi.x),
                                  cause="curvature_floor")
    return FirstRootFound(trials_used=n_used, x_sigma=lo.x)


def _advance(state: SearchState, problem: Problem, config: SolverConfig) -> Outcome | Trial:
    """One iteration at the config's sigma: the Outcome when the search
    terminates, else the trial it added.  Each PrecisionExhausted gets its
    cause here: "curvature_floor" from `_finish`, "no_float_inside" when the
    placed trial is not strictly inside the chosen interval.  Under a1, a
    DegenerateSlope from the scan means the bound K is below the curvature of
    f, and is raised again naming config.lipschitz."""
    try:
        flag = scan_characteristics(state, _walk(state, config))
    except DegenerateSlope as exc:
        if config.method != "a1":
            raise
        raise DegenerateSlope(f"config.lipschitz = {config.lipschitz} is below the "
                              f"curvature of f: {exc}") from exc
    # the flagged slot, else the leftmost of equal minima
    chosen = flag if flag is not None else state.R.index(min(state.R))
    trials = state.trials
    lo, hi = trials[chosen].x, trials[chosen + 1].x
    sigma = config.resolve_sigma(problem.a, problem.b)
    if hi - lo <= sigma:
        return _finish(state, flag, config)
    if len(trials) >= config.max_trials:
        best = trials[state.k - 2].x if trials[state.k - 1].z < 0.0 else _best_observed(state)[0]
        return BudgetExhausted(trials_used=len(trials), best_so_far=best)
    candidate = _clamp_candidate(state, chosen, flag, _candidate(state, chosen, flag), sigma)
    if not lo < candidate < hi:
        return PrecisionExhausted(trials_used=len(trials), interval=(lo, hi),
                                  cause="no_float_inside")
    trial = _evaluate(problem, candidate, len(trials))
    _insert(state, chosen, trial)
    return trial


def _insert(state: SearchState, p: int, trial: Trial) -> None:
    """Insert `trial`, which lies strictly inside interval p, and splice the
    per-interval lists.

    Trials 1 .. p are non-negative, since p < k - 1, so a negative trial
    becomes the first negative one and k drops to p + 2, cutting every
    interval right of it and making the trial the right margin b_n; otherwise
    k grows by one and the margin trial only moves up one index.  p is the
    slot the last scan chose, so the pending run is empty or starts at p; the
    emptied slots extend it, and the slots right of p move up by one.
    """
    trials = state.trials
    trials.insert(p + 1, trial)
    lo = trials[p]
    if trial.z < 0.0:
        state.k = p + 2
        state.scan[p:] = [None]
        state.R[p:] = [math.nan]
        state.pending = (p, p + 1)
        if state.v:
            state.v[p:] = [interval_curvature(lo, trial)]
            state.gaps[p:] = [trial.x - lo.x]
        return
    state.k += 1
    state.scan[p:p + 1] = [None, None]
    state.R[p:p + 1] = [math.nan, math.nan]
    start, stop = state.pending
    state.pending = (p, stop + 1 if stop > start else p + 2)
    if state.v:
        hi = trials[p + 2]
        state.v[p:p + 1] = [interval_curvature(lo, trial), interval_curvature(trial, hi)]
        state.gaps[p:p + 1] = [trial.x - lo.x, hi.x - trial.x]


def step(state: SearchState, problem: Problem, config: SolverConfig) -> Outcome | None:
    """One full iteration; returns an Outcome when the search terminates and
    None when a trial was added and the search continues.  Every setting,
    sigma included, is read from `config`, so one state stepped under two
    configs stops at each config's sigma.

    state.scan, state.R and state.pending must hold k - 1 slots with every
    empty one pending, as building a SearchState and every step leave them;
    state.v and state.gaps must be empty or spliced by `step`.  The flag of
    the step's scan is local to the step.  Under a2 the curvature estimates of
    the two halves are computed as the trial is added, so a DegenerateInterval
    for a too narrow half is raised by the step that adds the trial.
    """
    result = _advance(state, problem, config)
    return result if isinstance(result, Outcome) else None


def solve(problem: Problem, config: SolverConfig) -> SolveResult:
    """Run the search to termination; the trace lists every trial in birth
    order with the effective count and right margin after its insertion.
    Each TraceRecord is built as its trial is added."""
    state = initialize(problem)
    trials = state.trials
    k, b_n = state.k, state.b_n
    trace = [tuple.__new__(TraceRecord, (birth, x, z, dz, k, b_n))
             for x, z, dz, birth in trials]
    while True:
        result = _advance(state, problem, config)
        if isinstance(result, Outcome):
            return SolveResult(outcome=result, trace=trace)
        x, z, dz, birth = result
        k = state.k
        trace.append(tuple.__new__(TraceRecord, (birth, x, z, dz, k, trials[k - 1].x)))


# ---------------------------------------------------------------------------
# Grid baseline
# ---------------------------------------------------------------------------

_GRID_CHUNK = 4096


def _grid_cap(a: float, b: float, sigma: float) -> int:
    # at least one step: for a sigma of about 1e9*(b - a) or more, that step is b
    q = (b - a) / sigma
    return max(1, int(math.ceil(q - 1e-9 * max(1.0, q))))


class _GridTrace(Sequence[TraceRecord]):
    """The trace of a grid scan, kept as the list of (x, f, f') array triples
    the scan evaluated, chunk by chunk, at mesh steps 1 .. length.  The
    length is stored, so `len` reads no array.  The records (iter = k = the
    step, b_n = x) are built from the joined arrays once, the first time
    anything but the length is read, and then serve every read; they equal a
    list of the same records."""

    def __init__(self, chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
                 length: int) -> None:
        self._chunks = chunks
        self._length = length

    @cached_property
    def _records(self) -> list[TraceRecord]:
        x, f, fprime = (np.concatenate(arrays).tolist() for arrays in zip(*self._chunks))
        steps = range(1, len(x) + 1)
        return list(map(tuple.__new__, repeat(TraceRecord), zip(steps, x, f, fprime, steps, x)))

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):
        return self._records[i]

    def __iter__(self):
        return iter(self._records)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _GridTrace):
            other = other._records
        return self._records == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._records)


def grid_search(problem: Problem, sigma: float, cap: int | None = None) -> SolveResult:
    """Mesh scan from the left margin in sigma steps until the first root is
    within half a step.

    The margin itself is presumed positive and not spent as a trial: the j-th
    evaluation happens at a + j*sigma, or at b for a last step that reaches
    past b, so trials_used equals the number of sigma steps taken.  The scan
    stops at the first mesh point x where either f(x) < 0, so that the root
    lies in the step before x, or f(x) >= 0 and the tangent line there,
    f(x) + f'(x)*t, reaches zero within t <= sigma/2, so that x is the mesh
    point nearest the root it heads for.  The sigma-root is the last mesh
    point where f >= 0: the point before x in the first case, x itself in the
    second.  The second case also stops at a root where f touches zero
    without changing sign (t17 at pi), which the sign test alone never sees.
    Like the sigma-root of a1 and a2 it does not prove that f vanishes: a
    steep dip that turns back up just above zero stops it too.

    `PAPER.md` does not quote the paper's grid rule.  This one is read off the
    published grid column: it reproduces every count whose problem's own
    published first root agrees with it (17 of the 20 test functions, the
    five rootless ones among them), which the sign test alone misses on t04,
    t12, t15 and t17.

    Without a stop the scan ends after `cap` evaluations and reports the best
    observed point: as the global minimizer (NoRootGlobalMin) when the scan
    covered the whole interval, else as BudgetExhausted, since f was never
    looked at beyond the last mesh point.  `cap` defaults to, and is clamped
    to, the number of steps that covers the interval, which is at least one:
    a sigma wider than the interval takes a single step, to b.  A cap that is
    not an integer, a bool included, raises TypeError before any evaluation.

    f is evaluated in vectorized chunks of _GRID_CHUNK mesh points (`on_mesh`,
    so an f or f' that returns a scalar is broadcast), every point of the
    chunk at once.  A chunk's mesh is built in place: the step numbers as
    floats, times sigma, plus a, the same products and sums as
    a + j*sigma.  The points never decrease, so a chunk whose last point does
    not pass b has no point past it and is left as it is; only the last
    chunk can pass b, and it is clamped to b.  f' is evaluated, in one call
    per chunk, only at the points up to and including the chunk's first
    negative f (all of them when there is none), since the stop lies there or
    before it: the tangent test needs f' at every point before the stop and
    the trace records it at the stop, so an f' that is undefined or raises
    past the first negative f does no harm.  The first negative f and the
    first tangent hit are each found by `argmax` on the test's boolean array,
    which gives the first True, or 0 when there is none, and one read of that
    element, which tells the two apart.  Like `solve`, the scan raises
    NonFinite when f or f' is not finite at a mesh point up to and including
    the one it stops at.

    The trace keeps the chunks of x, f and f' up to the stop and builds its
    records, one per step with k = iter and b_n = x, the first time it is
    read: a caller that reads only the outcome or the length never pays for
    them.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if cap is not None:
        _check_count(cap, "cap", 1)
    a, b = problem.a, problem.b
    full = _grid_cap(a, b, sigma)
    cap = full if cap is None else min(cap, full)
    chunks = []
    best_x, best_f = a, math.inf
    j = 1
    while j <= cap:
        hi = min(j + _GRID_CHUNK - 1, cap)
        # a + j*sigma, built in place; the points never decrease, so only the
        # last chunk's last step can reach past b, and its point is b itself
        xs = np.arange(j, hi + 1, dtype=float)
        xs *= sigma
        xs += a
        if xs[-1] > b:
            np.minimum(xs, b, out=xs)
        fs = on_mesh(problem.f, xs)
        # the stop is the first tangent hit or the first negative f, whichever
        # comes first, so f' is taken up to the first negative f and no further
        below = fs < 0.0
        n = int(below.argmax()) + 1
        negative = bool(below[n - 1])
        if not negative:
            n = len(xs)
        dfs = on_mesh(problem.df, xs[:n])
        hits = fs[:n] <= -0.5 * sigma * dfs
        hit = int(hits.argmax())
        tangent = bool(hits[hit])
        if tangent:
            n = hit + 1
        xs, fs, dfs = xs[:n], fs[:n], dfs[:n]
        if not (np.isfinite(fs).all() and np.isfinite(dfs).all()):
            bad = int(np.flatnonzero(~(np.isfinite(fs) & np.isfinite(dfs)))[0])
            raise NonFinite(f"non-finite evaluation at x={float(xs[bad])}: "
                            f"f={float(fs[bad])}, f'={float(dfs[bad])}")
        chunks.append((xs, fs, dfs))
        if tangent or negative:
            j_stop = j + n - 1
            if fs[n - 1] >= 0.0:
                x_sigma = float(xs[n - 1])
            else:  # the mesh point before the stop; a itself before step 1
                x_sigma = a + (j_stop - 1) * sigma if j_stop > 1 else a
            return SolveResult(outcome=FirstRootFound(trials_used=j_stop, x_sigma=x_sigma),
                               trace=_GridTrace(chunks, j_stop))
        block_min = int(np.argmin(fs))
        if fs[block_min] < best_f:
            best_f = float(fs[block_min])
            best_x = float(xs[block_min])
        j = hi + 1
    if cap < full:
        outcome = BudgetExhausted(trials_used=cap, best_so_far=best_x)
    else:
        outcome = NoRootGlobalMin(trials_used=cap, x_best=best_x, f_best=best_f)
    return SolveResult(outcome=outcome, trace=_GridTrace(chunks, cap))
