"""Micro-benchmarks of the kernels a solve spends its time in, on a fixed
set of 31 trials (30 intervals) of t05.

Run from the root of the checkout:

    python -m pytest microbench

This directory is outside the test paths of the tier-1 suite, which therefore
does not collect it.  Each kernel benchmark times one pass over the 30
intervals (for leftmost_zero, over those whose minorant reaches zero), with the
bounds of the adaptive table, so the reported times are per pass, not per call.
`build_support` derives a minorant's characteristic as it builds it, so
`test_characteristic` times an accessor and `test_build_support` includes that
derivation; `test_per_interval_path` times what a scan does per interval it
rebuilds, from the trials to the minorant it keeps: the IntervalData built
with `tuple.__new__`, and `build_support`, which checks it.
`test_scan_clean_pass` times an adaptive scan in which no slot is empty and no
bound moved, so that nothing is rebuilt: the per-step cost of the walk outside
minorant builds, each bound drawn from `iter_bounds` included.  It runs on 31
trials of the rootless t02, whose minorants all stay positive, so the walk
covers all 30 intervals.
`build_curvature_table` is the full build that seeds an adaptive solve;
`test_iter_bounds` times the one pass of the bound formula over every
interval, and `test_spliced_curvature_update` an adaptive step's whole scan
after a split, splice included.  A traced benchmark run counts both as solver
time.

`test_one_step[a1]` and `test_one_step[a2]` time one whole `step` of a
solve of the rootless t02 that has 31 intervals, as deep solves have midway:
the scan of the two empty slots (and, under a2, of the slots whose bound
moved), the choice of interval, the candidate, one f/f' evaluation and the
insertion.  Each round starts from a fresh state that one step has seeded
from 31 evenly spaced trials.

`test_solve` times a whole adaptive solve of t11, 59 trials from
`initialize` to the outcome, the TraceRecord built as each trial is added
included.

`test_grid_search[t01]` and `test_grid_search_trace_read` time the 4135-step
grid scan of t01, the first with its trace left unread, the second reading it
in full: the trace builds its records on first read, so the difference is the
cost of that build.  Each chunk's mesh is built in place, and only a chunk
whose last point passes b is clamped to it.  `test_grid_search[passband]`
times a scan that stops at step 57, inside its first 4096-point chunk: f on
the whole chunk, and f' (the exact derivative P', in one vectorized call) only
up to the first negative f, at 58 points.  `test_grid_search[t12]` times the
4931-step scan of t12, whose second chunk crosses the joint of its two pieces
at pi: `_piecewise` evaluates each piece on its own points only.

`test_filter_objective[chebyshev]` and `test_filter_objective[passband]`
time what one trial of a filter problem costs in evaluation: one scalar f and
one scalar f' (the exact derivative P') at the middle of the search window,
both in Python float arithmetic.

`test_find_fmax[chebyshev]` and `test_find_fmax[passband]` time the one-off
F_max of a filter: the block-wise scan of its 1 000 000-point mesh, each
8 192-point block generated on its own and no array holding the whole mesh,
and the golden-section refinement.  `test_lipschitz_oracle` times the
one-off a1 bound K of t14, the block-wise scan of f' on a 200 000-point mesh,
whose blocks of 8 193 points are generated in the same way.

The benchmarks need the pytest-benchmark plugin (the `bench` extra of the
package).
"""

from __future__ import annotations

import numpy as np
import pytest

import firstroot.solver as solver
from firstroot import (
    EstimationParams,
    SearchState,
    SolverConfig,
    Trial,
    curvature_bound,
    exact_lipschitz_oracle,
    find_fmax,
    get_problem,
    grid_search,
    solve,
)
from firstroot.curvature import build_curvature_table, iter_bounds
from firstroot.problems import FILTERS
from firstroot.support import IntervalData, build_support, characteristic, leftmost_zero

PARAMS = EstimationParams()


def evenly_spaced_trials(pid: str, n: int = 31) -> list[Trial]:
    problem = get_problem(pid)
    xs = np.linspace(problem.a, problem.b, n).tolist()
    return [Trial(x=x, z=float(problem.f(x)), dz=float(problem.df(x)), birth=i)
            for i, x in enumerate(xs)]


@pytest.fixture(scope="module")
def trials() -> list[Trial]:
    return evenly_spaced_trials("t05")


@pytest.fixture(scope="module")
def intervals(trials) -> list[IntervalData]:
    m = build_curvature_table(trials, PARAMS).m
    return [IntervalData(x_left=lo.x, x_right=hi.x, z_left=lo.z, z_right=hi.z,
                         dz_left=lo.dz, dz_right=hi.dz, m=m[p])
            for p, (lo, hi) in enumerate(zip(trials, trials[1:]))]


@pytest.fixture(scope="module")
def supports(intervals):
    return [build_support(d) for d in intervals]


def test_build_support(benchmark, intervals):
    benchmark(lambda: [build_support(d) for d in intervals])


def test_per_interval_path(benchmark, trials, intervals):
    m = build_curvature_table(trials, PARAMS).m

    def scan_pass():
        out = []
        for p, (lo, hi) in enumerate(zip(trials, trials[1:])):
            data = tuple.__new__(IntervalData, (lo.x, hi.x, lo.z, hi.z, lo.dz, hi.dz, m[p]))
            out.append(build_support(data))
        return out

    assert scan_pass() == [build_support(d) for d in intervals]
    benchmark(scan_pass)


def test_scan_clean_pass(benchmark):
    rootless = evenly_spaced_trials("t02")
    config = SolverConfig(method="a2", params=PARAMS)
    state = SearchState(rootless)
    assert solver.scan_characteristics(state, solver._walk(state, config)) is None
    assert None not in state.scan
    assert len(state.scan) == 30
    benchmark(lambda: solver.scan_characteristics(state, solver._walk(state, config)))


def test_characteristic(benchmark, supports):
    benchmark(lambda: [characteristic(s) for s in supports])


def test_leftmost_zero(benchmark, supports):
    flagged = [s for s in supports if s.data.z_left > 0.0 and characteristic(s).R <= 0.0]
    assert flagged
    benchmark(lambda: [leftmost_zero(s) for s in flagged])


def test_build_curvature_table(benchmark, trials):
    benchmark(build_curvature_table, trials, PARAMS)


def test_iter_bounds(benchmark, trials):
    table = build_curvature_table(trials, PARAMS)
    v, gaps = list(table.v), list(table.gaps)
    assert tuple(iter_bounds(v, gaps, PARAMS)) == table.m
    benchmark(lambda: tuple(iter_bounds(v, gaps, PARAMS)))


def test_spliced_curvature_update(benchmark):
    """One adaptive step's scan after the seed: insert a trial in the middle
    of the 30 intervals of the rootless t02, splice the estimates and widths,
    and walk all 31 slots, drawing each bound and rebuilding the two halves
    and the minorants whose bound moved."""
    problem = get_problem("t02")
    config = SolverConfig(method="a2", params=PARAMS)
    trials = evenly_spaced_trials("t02")
    p = 20
    x = 0.5 * (trials[p].x + trials[p + 1].x)
    new = Trial(x=x, z=float(problem.f(x)), dz=float(problem.df(x)), birth=len(trials))
    assert new.z >= 0.0

    def seeded():
        state = SearchState(list(trials))
        solver.scan_characteristics(state, solver._walk(state, config))
        return (state,), {}

    def update(state):
        solver._insert(state, p, new)
        assert solver.scan_characteristics(state, solver._walk(state, config)) is None
        assert None not in state.scan

    benchmark.pedantic(update, setup=seeded, rounds=2000)


@pytest.mark.parametrize("method", ["a1", "a2"])
def test_one_step(benchmark, method):
    problem = get_problem("t02")
    bound = curvature_bound(problem) if method == "a1" else None
    config = SolverConfig(method=method, lipschitz=bound, params=PARAMS)
    trials = evenly_spaced_trials("t02")

    def seeded():
        state = SearchState(list(trials))
        assert solver.scan_characteristics(state, solver._walk(state, config)) is None
        assert solver.step(state, problem, config) is None
        assert len(state.scan) == 31
        return (state, problem, config), {}

    args, _ = seeded()
    assert solver.step(*args) is None
    benchmark.pedantic(solver.step, setup=seeded, rounds=2000)


def test_solve(benchmark):
    problem = get_problem("t11")
    config = SolverConfig(method="a2", params=PARAMS)
    assert len(benchmark(solve, problem, config).trace) == 59


def _grid(pid):
    problem = get_problem(pid)
    return problem, 1e-4 * (problem.b - problem.a)


@pytest.mark.parametrize("pid, steps", [("t01", 4135), ("passband", 57), ("t12", 4931)])
def test_grid_search(benchmark, pid, steps):
    problem, sigma = _grid(pid)
    assert benchmark(grid_search, problem, sigma).outcome.trials_used == steps


def test_grid_search_trace_read(benchmark):
    problem, sigma = _grid("t01")
    assert benchmark(lambda: list(grid_search(problem, sigma).trace))[-1].iter == 4135


@pytest.mark.parametrize("pid", ["chebyshev", "passband"])
def test_filter_objective(benchmark, pid):
    problem = get_problem(pid)
    x = 0.5 * (problem.a + problem.b)
    z, dz = benchmark(lambda: (problem.f(x), problem.df(x)))
    assert type(z) is float and type(dz) is float


@pytest.mark.parametrize("pid", ["chebyshev", "passband"])
def test_find_fmax(benchmark, pid):
    _, (power, _), domain, _ = FILTERS[pid]
    assert benchmark(find_fmax, power, domain)[0] > 0.0


def test_lipschitz_oracle(benchmark):
    problem = get_problem("t14")
    assert benchmark(exact_lipschitz_oracle, problem) > 0.0
