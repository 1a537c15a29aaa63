"""Micro-benchmarks of the kernels a solve spends its time in, on a fixed
set of 31 trials (30 intervals) of t05.

Run from the root of the checkout:

    python -m pytest microbench

This directory is outside the test paths of the tier-1 suite, which therefore
does not collect it.  Each kernel benchmark times one pass over the 30
intervals (for leftmost_zero, over those whose minorant reaches zero), with the
bounds of the adaptive table, so the reported times are per pass, not per call.
A SupportFunction derives its characteristic when it is built, so
`test_characteristic` times an accessor and `test_build_support` includes that
derivation; `test_scan_entry` times the whole per-interval path of a scan, from
the IntervalData to the scan entry.  `test_scan_clean_pass` times a scan in
which no slot is empty and no bound moved, so that nothing is rebuilt: the
per-step cost of the scan outside minorant builds.  It runs on 31 trials of the
rootless t02, whose minorants all stay positive, so the scan covers all 30
intervals.  `build_curvature_table` is the full build that seeds an adaptive
solve; `test_bounds_from` times the one-pass bounds that every later step
computes from the spliced estimates and widths, and
`test_spliced_curvature_update` that step's whole curvature work, splice
included.  A traced benchmark run counts both as solver time.

`test_grid_search` and `test_grid_search_trace_read` time the 4135-step grid
scan of t01, the first with its trace left unread, the second reading it in
full: the trace builds its records on first read, so the difference is the
cost of that build.

The benchmarks need the pytest-benchmark plugin (the `bench` extra of the
package).
"""

from __future__ import annotations

import numpy as np
import pytest

import firstroot.solver as solver
from firstroot import (
    EstimationParams,
    IntervalData,
    SearchState,
    SolverConfig,
    Trial,
    build_curvature_table,
    build_support,
    characteristic,
    get_problem,
    grid_search,
    leftmost_zero,
)
from firstroot.curvature import bounds_from

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


def test_scan_entry(benchmark, trials):
    m = build_curvature_table(trials, PARAMS).m

    def scan_pass():
        return [solver._scan_entry(IntervalData(lo.x, hi.x, lo.z, hi.z, lo.dz, hi.dz, m[p]))
                for p, (lo, hi) in enumerate(zip(trials, trials[1:]))]

    benchmark(scan_pass)


def test_scan_clean_pass(benchmark):
    rootless = evenly_spaced_trials("t02")
    state = SearchState(trials=rootless, sigma=1e-4, k=len(rootless), b_n=rootless[-1].x)
    bounds = build_curvature_table(rootless, PARAMS).m
    solver.scan_characteristics(state, bounds)
    assert state.first_nonpositive is None and None not in state.scan
    assert len(state.scan) == 30
    benchmark(solver.scan_characteristics, state, bounds)


def test_characteristic(benchmark, supports):
    benchmark(lambda: [characteristic(s) for s in supports])


def test_leftmost_zero(benchmark, supports):
    flagged = [s for s in supports if s.data.z_left > 0.0 and characteristic(s).R <= 0.0]
    assert flagged
    benchmark(lambda: [leftmost_zero(s) for s in flagged])


def test_build_curvature_table(benchmark, trials):
    benchmark(build_curvature_table, trials, PARAMS)


def test_bounds_from(benchmark, trials):
    table = build_curvature_table(trials, PARAMS)
    v, gaps = list(table.v), list(table.gaps)
    assert bounds_from(v, gaps, PARAMS) == table.m
    benchmark(bounds_from, v, gaps, PARAMS)


def test_spliced_curvature_update(benchmark, trials):
    """One adaptive step's curvature work after the seed: insert a trial in
    the middle of the 30 intervals, splice the estimates and widths, and
    recompute the 31 bounds."""
    problem = get_problem("t05")
    config = SolverConfig(method="a2", params=PARAMS)
    p = 20  # right of the single negative trial, so k stays 31 + 1
    x = 0.5 * (trials[p].x + trials[p + 1].x)
    new = Trial(x=x, z=float(problem.f(x)), dz=float(problem.df(x)), birth=len(trials))
    assert new.z >= 0.0

    def seeded():
        state = SearchState(trials=list(trials), sigma=1e-4, k=len(trials), b_n=trials[-1].x)
        solver._interval_bounds_m(state, config)
        return (state,), {}

    def update(state):
        solver._insert(state, p, new)
        return solver._interval_bounds_m(state, config)

    benchmark.pedantic(update, setup=seeded, rounds=2000)


def _grid_t01():
    problem = get_problem("t01")
    return problem, 1e-4 * (problem.b - problem.a)


def test_grid_search(benchmark):
    problem, sigma = _grid_t01()
    assert benchmark(grid_search, problem, sigma).outcome.trials_used == 4135


def test_grid_search_trace_read(benchmark):
    problem, sigma = _grid_t01()
    assert benchmark(lambda: list(grid_search(problem, sigma).trace))[-1].iter == 4135
