"""Acceptance gate: every criterion prints one [PASS]/[FAIL] line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criteria are asserted exactly as specified, including reference
values that the implementation demonstrably cannot reproduce; those cases
fail loudly rather than being weakened (see the repository notes).
"""

import math
import time

import numpy as np
import pytest

from firstroot import (
    EstimationParams,
    FirstRootFound,
    NoRootGlobalMin,
    SolverConfig,
    build_curvature_table,
    build_support,
    characteristic,
    eval_support,
    exact_lipschitz_oracle,
    get_problem,
    grid_search,
    leftmost_zero,
    registry,
    solve,
)
from firstroot.solver import initialize, step

from helpers import (
    PUBLISHED_TRIALS,
    check_c1_gluing,
    check_endpoint_interpolation,
    data_scale,
    effective_points,
    eq22_supports,
    published_trials,
    random_interval_data,
    table_from,
)

A, B = 0.2, 7.0
SIGMA = 1e-4 * (B - A)
ROOTED = [p.id for p in registry() if p.reference_frl is not None]
ROOTLESS = [p.id for p in registry() if p.reference_frl is None]
FRL = {p.id: p.reference_frl for p in registry()}

# reference comparison targets: the paper's mean trials over t01-t20
PAPER_AVG_A1 = sum(PUBLISHED_TRIALS["a1"]) / len(PUBLISHED_TRIALS["a1"])
PAPER_AVG_A2 = sum(PUBLISHED_TRIALS["a2"]) / len(PUBLISHED_TRIALS["a2"])
CHEBYSHEV_CUTOFF = 0.8459
PASSBAND_CUTOFF = 4824.43


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def solved():
    """All (problem, method) solver outcomes on the test bed, with timings."""
    out = {}
    for p in registry():
        k = exact_lipschitz_oracle(p)
        for method in ("a1", "a2"):
            cfg = SolverConfig(method=method, lipschitz=k if method == "a1" else None)
            t0 = time.perf_counter()
            res = solve(p, cfg)
            out[(p.id, method)] = (res.outcome, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def grid_outcomes():
    return {p.id: grid_search(p, SIGMA).outcome for p in registry()}


@pytest.fixture(scope="module")
def rootless_minima():
    out = {}
    for pid in ROOTLESS:
        p = get_problem(pid)
        xs = np.linspace(p.a, p.b, 1_000_001)
        out[pid] = float(np.min(p.f(xs)))
    return out


@pytest.fixture(scope="module")
def filter_results():
    out = {}
    for pid in ("chebyshev", "passband"):
        p = get_problem(pid)
        k = exact_lipschitz_oracle(p)
        out[(pid, "grid")] = grid_search(p, 1e-4 * (p.b - p.a)).outcome
        out[(pid, "a1")] = solve(p, SolverConfig(method="a1", lipschitz=k)).outcome
        out[(pid, "a2")] = solve(p, SolverConfig(method="a2")).outcome
    return out


# ---------------------------------------------------------------------------
# Root accuracy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["a1", "a2"])
@pytest.mark.parametrize("pid", ROOTED)
def test_root_accuracy(solved, pid, method):
    outcome, elapsed = solved[(pid, method)]
    name = f"root accuracy {pid}/{method}"
    if not isinstance(outcome, FirstRootFound):
        report(name, False, f"outcome {outcome.tag}, expected first_root")
    err = abs(outcome.x_sigma - FRL[pid])
    report(name, err <= 2 * SIGMA and elapsed < 1.0,
           f"|x-frl|={err:.2e} (tol {2 * SIGMA:.2e}), {elapsed * 1e3:.1f} ms")


@pytest.mark.parametrize("method", ["a1", "a2"])
@pytest.mark.parametrize("pid", ROOTED)
def test_end_game_matches_published_counts(solved, pid, method):
    # the end game places one trial at the largest float within sigma of the
    # bracket's left end, instead of closing in by quarters
    outcome, _ = solved[(pid, method)]
    name = f"end game {pid}/{method}"
    if not isinstance(outcome, FirstRootFound):
        report(name, False, f"outcome {outcome.tag}, expected first_root")
    published = published_trials(pid, method)
    err = abs(outcome.x_sigma - FRL[pid])
    report(name, abs(outcome.trials_used - published) <= 2 and err <= SIGMA,
           f"trials={outcome.trials_used} (published {published} +- 2), "
           f"|x-frl|={err:.2e} (tol {SIGMA:.2e})")


# ---------------------------------------------------------------------------
# No-root behavior
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["a1", "a2"])
@pytest.mark.parametrize("pid", ROOTLESS)
def test_no_root_behavior(solved, rootless_minima, pid, method):
    outcome, _ = solved[(pid, method)]
    name = f"no-root behavior {pid}/{method}"
    if not isinstance(outcome, NoRootGlobalMin):
        report(name, False, f"outcome {outcome.tag}, expected no_root_global_min")
    gap = abs(outcome.f_best - rootless_minima[pid])
    report(name, outcome.f_best > 0.0 and gap <= 1e-3,
           f"f_best={outcome.f_best:.6f}, |gap to grid oracle|={gap:.2e}")


# ---------------------------------------------------------------------------
# Grid baseline counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pid", [p.id for p in registry()])
def test_grid_step_counts(grid_outcomes, pid):
    outcome = grid_outcomes[pid]
    name = f"grid count {pid}"
    if FRL[pid] is None:
        report(name, outcome.trials_used == 10_000,
               f"trials={outcome.trials_used}, expected 10000 (no root)")
    else:
        expected = math.ceil((FRL[pid] - A) / SIGMA)
        report(name, abs(outcome.trials_used - expected) <= 1,
               f"trials={outcome.trials_used}, derived target {expected} +- 1")


def test_grid_t01_reference_exact(grid_outcomes):
    trials = grid_outcomes["t01"].trials_used
    report("grid count t01 reference-exact", trials == 4135, f"trials={trials}, reference 4135")


def test_grid_t04_reference_exact(grid_outcomes):
    trials = grid_outcomes["t04"].trials_used
    report("grid count t04 reference-exact", trials == 4060, f"trials={trials}, reference 4060")


# ---------------------------------------------------------------------------
# Efficiency
# ---------------------------------------------------------------------------

def test_efficiency_bounds(solved, grid_outcomes):
    counts = {m: [solved[(pid, m)][0].trials_used for pid in FRL] for m in ("a1", "a2")}
    worst = {m: max(v) for m, v in counts.items()}
    avg = {m: sum(v) / len(v) for m, v in counts.items()}
    grid_avg = sum(grid_outcomes[pid].trials_used for pid in FRL) / len(FRL)
    report("efficiency per-function cap",
           worst["a1"] <= 200 and worst["a2"] <= 200,
           f"max a1={worst['a1']}, max a2={worst['a2']} (cap 200)")
    report("efficiency a1 average",
           avg["a1"] <= 5 * PAPER_AVG_A1,
           f"avg={avg['a1']:.2f}, cap {5 * PAPER_AVG_A1:.2f}")
    report("efficiency a2 average",
           avg["a2"] <= 5 * PAPER_AVG_A2,
           f"avg={avg['a2']:.2f}, cap {5 * PAPER_AVG_A2:.2f}")
    report("efficiency a2 within 20% of a1",
           avg["a2"] <= 1.2 * avg["a1"],
           f"a2 avg={avg['a2']:.2f}, 1.2*a1 avg={1.2 * avg['a1']:.2f}")
    report("efficiency method ordering",
           avg["a2"] <= avg["a1"] <= 0.01 * grid_avg,
           f"a2={avg['a2']:.2f} <= a1={avg['a1']:.2f} <= 1% grid={0.01 * grid_avg:.2f}")


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["grid", "a1", "a2"])
def test_chebyshev_cutoff_location(filter_results, method):
    outcome = filter_results[("chebyshev", method)]
    x = outcome.point
    name = f"chebyshev cutoff {method}"
    ok = isinstance(outcome, FirstRootFound) and abs(x - CHEBYSHEV_CUTOFF) <= 1e-3
    report(name, ok,
           f"outcome={outcome.tag}, x={x:.6f}, reference {CHEBYSHEV_CUTOFF} +- 1e-3")


def test_chebyshev_trial_budget(filter_results):
    t1 = filter_results[("chebyshev", "a1")].trials_used
    t2 = filter_results[("chebyshev", "a2")].trials_used
    report("chebyshev trial budget", t1 <= 100 and t2 <= 100,
           f"a1={t1}, a2={t2} (cap 100)")


@pytest.mark.parametrize("method", ["grid", "a1", "a2"])
def test_passband_cutoff_location(filter_results, method):
    outcome = filter_results[("passband", method)]
    x = outcome.point
    name = f"passband cutoff {method}"
    ok = isinstance(outcome, FirstRootFound) and abs(x - PASSBAND_CUTOFF) <= 1.0
    report(name, ok,
           f"outcome={outcome.tag}, x={x:.4f}, reference {PASSBAND_CUTOFF} +- 1")


# The models' own outcomes, with the settings of `filter_results`: the tag and
# trial count of each (filter, method).  The cutoff checks above fail on the
# location; these pin what the solvers do on the models as they are.
@pytest.mark.parametrize("pid, method, tag, trials", [
    ("chebyshev", "grid", "first_root", 2741),
    ("chebyshev", "a1", "first_root", 11),
    ("chebyshev", "a2", "first_root", 11),
    ("passband", "grid", "first_root", 57),
    ("passband", "a1", "first_root", 7),
    ("passband", "a2", "precision_exhausted", 3),
])
def test_filter_outcome_is_pinned(filter_results, pid, method, tag, trials):
    outcome = filter_results[(pid, method)]
    assert (outcome.tag, outcome.trials_used) == (tag, trials)


def test_passband_trial_budget(filter_results):
    t1 = filter_results[("passband", "a1")].trials_used
    t2 = filter_results[("passband", "a2")].trials_used
    report("passband trial budget", t1 <= 300 and t2 <= 300,
           f"a1={t1}, a2={t2} (cap 300)")


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------

def test_support_interpolation_and_gluing_10k():
    rng = np.random.default_rng(2024)
    worst_interp = worst_glue = 0.0
    for _ in range(10_000):
        sf = build_support(random_interval_data(rng))
        ok, err = check_endpoint_interpolation(sf)
        worst_interp = max(worst_interp, err)
        assert ok
        ok, err = check_c1_gluing(sf)
        worst_glue = max(worst_glue, err)
        assert ok
    report("support interpolation + C1 gluing (10k intervals)", True,
           f"worst rel errors {worst_interp:.2e} / {worst_glue:.2e}")


def test_support_lower_bound_on_testbed():
    rng = np.random.default_rng(99)
    worst = 0.0
    for problem in registry():
        a, b = problem.domain
        xs = np.sort(np.concatenate([[a, b], rng.uniform(a, b, size=30)]))
        for lo, hi in zip(xs, xs[1:]):
            grid = np.linspace(lo, hi, 2001)
            d = np.asarray(problem.df(grid), dtype=float)
            m = 1.01 * max(float(np.max(np.abs(np.diff(d)) / np.diff(grid))), 1e-9)
            from firstroot import IntervalData
            sf = build_support(IntervalData(
                x_left=float(lo), x_right=float(hi),
                z_left=float(problem.f(lo)), z_right=float(problem.f(hi)),
                dz_left=float(problem.df(lo)), dz_right=float(problem.df(hi)), m=m))
            pts = np.linspace(lo, hi, 1000)
            gap = np.asarray(problem.f(pts), float) - eval_support(sf, pts)
            worst = min(worst, float(gap.min() / data_scale(sf.data)))
            assert gap.min() >= -1e-9 * data_scale(sf.data), (problem.id, lo, hi)
    report("support lower bound on all test functions", True,
           f"worst signed gap {worst:.2e} (tol -1e-9)")


def test_knot_ordering_under_adaptive_bounds():
    rng = np.random.default_rng(7)
    checked = 0
    for problem in registry():
        for sf in eq22_supports(problem, rng):
            w = sf.data.x_right - sf.data.x_left
            assert sf.data.x_left - 1e-9 * w <= sf.y_prime <= sf.y <= sf.data.x_right + 1e-9 * w
            checked += 1
    report("knot ordering under adaptive bounds", True, f"{checked} intervals")


def test_curvature_bounds_hold_during_every_solve():
    params = EstimationParams()
    checked = 0
    for problem in registry():
        cfg = SolverConfig(method="a2", params=params)
        state = initialize(problem, cfg)
        while True:
            k, _ = effective_points(state.trials)
            table = build_curvature_table(state.trials[:k], params)
            ref = table_from(table.v, table.gaps, params)
            assert table.m == ref.m
            lo = params.r * params.xi
            hi = params.r * max(params.xi, ref.m_global)
            for m in table.m:
                assert lo - 1e-18 <= m <= hi * (1 + 1e-12), (problem.id, m, lo, hi)
                checked += 1
            if step(state, problem, cfg) is not None:
                break
    report("adaptive bounds inside [r*xi, r*max(xi, global)] during solves",
           True, f"{checked} bounds checked")


def test_leftmost_zero_residual():
    rng = np.random.default_rng(314)
    checked = 0
    worst = 0.0
    while checked < 500:
        data = random_interval_data(rng)
        if data.z_left <= 0.0:
            continue
        sf = build_support(data)
        if characteristic(sf).R > 0.0:
            continue
        x0 = leftmost_zero(sf)
        scale = max(1.0, abs(data.z_left), abs(data.z_right))
        resid = abs(eval_support(sf, x0)) / scale
        worst = max(worst, resid)
        assert resid <= 1e-9
        checked += 1
    report("leftmost-zero residual (500 cases)", True, f"worst {worst:.2e} (tol 1e-9)")


def test_determinism_bit_identical_traces():
    for pid, method in (("t10", "a2"), ("t13", "a2"), ("t01", "a1")):
        p = get_problem(pid)
        k = exact_lipschitz_oracle(p) if method == "a1" else None
        cfg = SolverConfig(method=method, lipschitz=k)
        r1, r2 = solve(p, cfg), solve(p, cfg)
        assert r1.trace == r2.trace and r1.outcome == r2.outcome
    report("determinism: repeated runs bit-identical", True)
