"""Benchmark of the firstroot package: closed-loop solves through its public API.

Usage (from the root of the checkout):

    python3 perfbench/run.py [--workload bed|deep|grid|all] [--seed N]
                             [--seconds S] [--trace 0|1]

One caller runs in one thread, and each solve starts only after the previous
one returned.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import workloads as wl
from layers import SUPPORT_NAMES, LayerTimer, SolveStats, self_times

from firstroot import (Problem, chebyshev_transfer, exact_lipschitz_oracle, find_fmax,
                       get_problem, grid_search, passband_transfer, solve)
from firstroot.bench import BenchConfig, run_matrix

HERE = Path(__file__).resolve().parent

# Share of --seconds given to the primary closed loop; the companion methods
# get the rest, and at least MIN_COMPANION_PASSES passes so that each of their
# pairs has a median over several repeats.
PRIMARY_SHARE = 0.75
MIN_COMPANION_PASSES = 6
P90 = 90.0
# p90 needs at least ten samples beyond it.
MIN_SAMPLES_BEYOND = 10
MIN_PRIMARY_SOLVES = 100
SETUP_SAMPLES = 7
PAPER_TRIALS_MEAN = {"a1": 22.55, "a2": 16.17}

# On a shared host, other load can make the CPU about 1.6 times slower for
# seconds on end (measured on a 2-vCPU Intel Xeon).  Every timed step is
# therefore paired with a fixed probe loop that does not call firstroot, and its
# wall time is scaled by PROBE_REFERENCE_S / (probe time): times are reported
# at the speed at which the probe takes PROBE_REFERENCE_S, about the
# uncontended speed of that vCPU.  A change to firstroot cannot move the probe.
PROBE_ITERATIONS = 50
PROBE_REFERENCE_S = 5e-4

# Failures the program has at the benchmark's settings.  They are counted in
# `failed` and listed like any other; only a failure outside this table makes
# a run incorrect.
KNOWN_FAILURES = {
    ("t17", "a1"): "tangent root at pi ends in precision_exhausted (ROADMAP item 5)",
    ("t17", "a2"): "tangent root at pi ends in precision_exhausted (ROADMAP item 5)",
    ("t17", "grid"): "tangent root at pi: the mesh never sees f < 0 (ROADMAP item 5)",
    ("passband", "a1"): "objective of order 1e-35 stops at x = 1 (ROADMAP items 3 and 4)",
    ("passband", "a2"): "objective of order 1e-35 stops at x = 1 (ROADMAP items 3 and 4)",
}


@dataclass(frozen=True)
class Result:
    """What one solve returned and how long it took."""

    problem: str
    method: str
    tag: str
    point: float | None
    trials: int
    seconds: float
    probe: float
    ks: tuple[int, ...] = ()

    @property
    def key(self) -> tuple[str, str]:
        return (self.problem, self.method)

    @property
    def speed(self) -> float:
        """Factor that takes a wall time of this solve to the reference speed."""
        return PROBE_REFERENCE_S / self.probe

    @property
    def scaled(self) -> float:
        return self.seconds * self.speed

    @property
    def answer(self) -> tuple[str, float | None, int]:
        return (self.tag, self.point, self.trials)


def outcome_point(outcome) -> float:
    """The abscissa an outcome reports, whatever its type."""
    for name in ("x_sigma", "x_best", "best_so_far"):
        if hasattr(outcome, name):
            return getattr(outcome, name)
    return outcome.interval[0]


def probe_seconds() -> float:
    """Wall time of a fixed loop of the work that dominates a solve, numpy
    calls on scalars, without calling firstroot."""
    acc = 0.0
    t0 = perf_counter()
    for i in range(PROBE_ITERATIONS):
        x = np.asarray(0.5 + i, dtype=float)
        y = np.where(x <= 10.0, 2.0 * x, np.where(x <= 30.0, x, -x))
        if np.any(x < -1.0):
            acc -= 1.0
        acc += float(y)
    return perf_counter() - t0


def run_one(workload: wl.Workload, problem: Problem, method: str) -> Result:
    """One timed solve after a probe.  An exception ends the solve as a failed
    result, so the loop keeps running and the failure is reported by name."""
    probe = probe_seconds()
    t0 = perf_counter()
    try:
        if method == "grid":
            res = grid_search(problem, workload.sigma(problem))
        else:
            res = solve(problem, workload.configs[(problem.id, method)])
    except Exception as exc:  # noqa: BLE001 - every raise is a failed solve
        traceback.print_exc()
        return Result(problem.id, method, f"raised {type(exc).__name__}: {exc}", None, 0,
                      perf_counter() - t0, probe)
    seconds = perf_counter() - t0
    ks = () if method == "grid" else tuple(rec.k for rec in res.trace)
    return Result(problem.id, method, res.outcome.tag, float(outcome_point(res.outcome)),
                  res.outcome.trials_used, seconds, probe, ks)


def classify(tag: str, point: float | None, reference: float | None,
             sigma: float) -> str | None:
    """Why a solve failed, or None when it passed.

    A solve fails when it raised, ran out of budget, reported no root or an
    unresolved interval although a reference root exists, reported a root
    where none exists, or reported one more than 2 sigma from the reference.
    """
    if tag.startswith("raised"):
        return tag
    if tag == "budget_exhausted":
        return "budget_exhausted"
    if reference is None:
        return f"first_root at {point:.9g} but f has no root" if tag == "first_root" else None
    if tag != "first_root":
        return f"{tag} at {point:.9g} but the first root is at {reference:.9g}"
    if abs(point - reference) > 2.0 * sigma:
        return (f"first_root at {point:.9g} is {abs(point - reference):.3g} from "
                f"{reference:.9g}, more than 2 sigma = {2.0 * sigma:.3g}")
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; refuses a tail percentile (above the median)
    with fewer than MIN_SAMPLES_BEYOND samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_SAMPLES_BEYOND and p > 50.0:
        raise ValueError(f"p{p:g} of {len(ordered)} samples has fewer than "
                         f"{MIN_SAMPLES_BEYOND} samples beyond it")
    return ordered[rank - 1]


def closed_loop(workload: wl.Workload, specs: list[tuple[Problem, str]], budget: float,
                min_solves: int, rng: random.Random) -> list[list[Result]]:
    """Whole passes over ``specs`` in a seeded order, each solve started after
    the previous one returned, until ``budget`` seconds and ``min_solves``
    solves are reached (at least one pass)."""
    passes: list[list[Result]] = []
    start = perf_counter()
    while (not passes or perf_counter() - start < budget
           or sum(map(len, passes)) < min_solves):
        order = list(specs)
        rng.shuffle(order)
        passes.append([run_one(workload, problem, method) for problem, method in order])
    return passes


def specs_for(workload: wl.Workload, methods: tuple[str, ...]) -> list[tuple[Problem, str]]:
    return [(p, m) for p in workload.problems for m in methods]


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

class Gate:
    """Failures by solve and the consistency problems that make a run incorrect.

    ``attempted`` and ``failed`` count (problem, method) pairs, not solves:
    every pair is solved many times and must give the same answer each time,
    while the number of repeats depends on how fast the machine runs.
    """

    def __init__(self, workload: wl.Workload) -> None:
        self.workload = workload
        self.references = {p.id: wl.reference_root(p) for p in workload.problems}
        self.sigmas = {p.id: workload.sigma(p) for p in workload.problems}
        self.solves = 0
        self.failed_solves = 0
        self.failures: dict[tuple[str, str], str] = {}
        self.answers: dict[tuple[str, str], tuple] = {}
        self.errors: list[str] = []

    def check(self, results: list[Result]) -> None:
        for r in results:
            self.solves += 1
            why = classify(r.tag, r.point, self.references[r.problem], self.sigmas[r.problem])
            if why is not None:
                self.failed_solves += 1
                self.failures[r.key] = why
            first = self.answers.setdefault(r.key, r.answer)
            if first != r.answer:
                self.errors.append(f"{r.problem}/{r.method} is not deterministic: "
                                   f"{first} then {r.answer}")

    def compare(self, what: str, expected: dict, got: dict) -> None:
        for key, value in expected.items():
            if got.get(key) != value:
                self.errors.append(f"{key[0]}/{key[1]}: {what} gives {got.get(key)}, "
                                   f"the benchmark {value}")

    @property
    def attempted(self) -> int:
        return len(self.answers)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        """Failing (problem, method) pairs over all pairs solved; every solve of
        a pair gives the same answer, so repeats do not weigh in."""
        return self.failed / self.attempted

    @property
    def correct(self) -> bool:
        unknown = [k for k in self.failures if k not in KNOWN_FAILURES]
        return not self.errors and not unknown

    def report(self) -> list[str]:
        lines = [f"fail_ratio {self.fail_ratio:.6g}: {self.failed} of "
                 f"{self.attempted} (problem, method) pairs fail "
                 f"({self.failed_solves} of {self.solves} solves)"]
        for (pid, method), why in sorted(self.failures.items()):
            known = "known" if (pid, method) in KNOWN_FAILURES else "NEW"
            lines.append(f"  failing [{known}] {pid}/{method}: {why}")
        lines += [f"  error: {e}" for e in self.errors]
        return lines


def check_against_run_matrix(gate: Gate) -> None:
    """On bed, trials and outcome tags must equal firstroot.bench.run_matrix at
    the same settings."""
    config = BenchConfig(problem_ids=tuple(p.id for p in gate.workload.problems),
                         methods=wl.METHODS, sigma_fraction=wl.SIGMA_FRACTION,
                         r=wl.PARAMS.r, xi=wl.PARAMS.xi)
    rows = run_matrix(config)
    expected = {(r.problem_id, r.method): (r.outcome_tag, r.trials_used) for r in rows}
    got = {key: (tag, trials) for key, (tag, _, trials) in gate.answers.items()}
    gate.compare("run_matrix", expected, got)


# ---------------------------------------------------------------------------
# End-to-end metrics (--trace 0)
# ---------------------------------------------------------------------------

def measure_setup(name: str, seed: int) -> list[float]:
    """Scaled seconds of SETUP_SAMPLES set-ups, each in a fresh interpreter
    that runs the probe right after its set-up."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), name, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True,
                              check=True, timeout=120)
        seconds, probe = (float(v) for v in done.stdout.split()[-2:])
        samples.append(seconds * PROBE_REFERENCE_S / probe)
    return samples


def median_seconds(results: list[Result]) -> dict[tuple[str, str], float]:
    """Median scaled wall time of each (problem, method) pair over its repeats."""
    by_key: dict[tuple[str, str], list[float]] = {}
    for r in results:
        by_key.setdefault(r.key, []).append(r.scaled)
    return {key: statistics.median(times) for key, times in by_key.items()}


def per_method(results: list[Result], method: str) -> tuple[float, float]:
    """(microseconds per trial, mean trials per solve) of one method: the sum
    of each pair's median wall time over the sum of the pairs' trials."""
    mine = [r for r in results if r.method == method]
    trials = {r.key: r.trials for r in mine}
    seconds = sum(median_seconds(mine).values())
    return 1e6 * seconds / sum(trials.values()), statistics.fmean(trials.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


Measurement = tuple[dict[str, tuple[float, str]], dict[str, str], list[Result]]


def end_to_end(workload: wl.Workload, seed: int, seconds: float, gate: Gate) -> Measurement:
    """Set-up, then the primary and the companion closed loops."""
    setup = measure_setup(workload.name, seed)
    rng = random.Random(seed)
    primary = closed_loop(workload, specs_for(workload, workload.primary),
                          PRIMARY_SHARE * seconds, MIN_PRIMARY_SOLVES, rng)
    companion_specs = specs_for(workload, workload.companion)
    companion = closed_loop(workload, companion_specs, (1.0 - PRIMARY_SHARE) * seconds,
                            MIN_COMPANION_PASSES * len(companion_specs), rng)
    for results in primary + companion:
        gate.check(results)
    primary_results = [r for results in primary for r in results]
    results = primary_results + [r for results in companion for r in results]
    solve_ms = [1e3 * r.scaled for r in primary_results]
    typical = median_seconds(primary_results)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solves_per_s": (len(typical) / sum(typical.values()), "1/s"),
        "solve_ms.p50": (percentile(solve_ms, 50.0), "ms"),
        "solve_ms.p90": (percentile(solve_ms, P90), "ms"),
    }
    for method in wl.METHODS:
        us, trials = per_method(results, method)
        metrics[f"us_per_trial.{method}"] = (us, "us")
        metrics[f"trials_mean.{method}"] = (trials, "trials")
    metrics["ok_ratio"] = (1.0 - gate.fail_ratio, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    notes = {"setup_s": f"median of {len(setup)} fresh-interpreter set-ups",
             "solve_ms.p50": f"{len(solve_ms)} primary solves",
             "solve_ms.p90": f"{len(solve_ms)} primary solves, "
                             f"{len(solve_ms) - math.ceil(0.9 * len(solve_ms))} beyond",
             "solves_per_s": f"{len(typical)} pairs, each at its median of "
                             f"{len(primary)} passes"}
    return metrics, notes, results


# ---------------------------------------------------------------------------
# Per-layer metrics (--trace 1)
# ---------------------------------------------------------------------------

def _median_ms(fn, args_list) -> float:
    """Median scaled milliseconds of one call of ``fn`` per argument tuple."""
    times = []
    for args in args_list:
        speed = PROBE_REFERENCE_S / probe_seconds()
        t0 = perf_counter()
        fn(*args)
        times.append(1e3 * (perf_counter() - t0) * speed)
    return statistics.median(times)


def oracle_ms(workload: wl.Workload) -> tuple[float, float]:
    """Median milliseconds of one curvature oracle call over the workload's
    problems, and of one F_max search over the two filter transfer functions."""
    lipschitz = _median_ms(exact_lipschitz_oracle, [(p,) for p in workload.problems])
    filters = [(chebyshev_transfer, get_problem("chebyshev").domain),
               (passband_transfer, get_problem("passband").domain)]
    return lipschitz, _median_ms(find_fmax, filters)


def per_layer(traced: list[tuple[Result, SolveStats]], overhead: list[float],
              oracles: tuple[float, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced solves, all times scaled."""
    engine = [(r, s) for r, s in traced if r.method in wl.ENGINE_METHODS]
    grid = [(r, s) for r, s in traced if r.method == "grid"]
    calls, secs = Counter(), Counter()
    new_intervals = curvature_intervals = 0
    for r, s in engine:
        calls.update(s.calls)
        secs.update({name: t * r.speed for name, t in s.seconds.items()})
        new_intervals += s.new_intervals
        curvature_intervals += s.curvature_intervals
    wall = sum(r.scaled for r, _ in engine)
    trials = sum(r.trials for r, _ in engine)
    a2_trials = sum(r.trials for r, _ in engine if r.method == "a2")
    layer = {name: 0.0 for name in ("problems", "support", "curvature", "solver")}
    for r, s in engine:
        for name, t in self_times(s, r.seconds).items():
            layer[name] += t * r.speed
    us = lambda name: 1e6 * secs[name] / calls[name]  # noqa: E731
    m = {
        "problems.f.us_per_call": (us("f"), "us"),
        "problems.df.us_per_call": (us("df"), "us"),
        "problems.eval.share": (layer["problems"] / wall, "ratio"),
        "problems.oracle_lipschitz_ms": (oracles[0], "ms"),
        "problems.oracle_fmax_ms": (oracles[1], "ms"),
    }
    for name in SUPPORT_NAMES:
        m[f"support.{name}.calls_per_trial"] = (calls[name] / trials, "calls/trial")
        m[f"support.{name}.us_per_call"] = (us(name), "us")
    m["support.share"] = (layer["support"] / wall, "ratio")
    m["support.useful_ratio"] = (new_intervals / calls["build_support"], "ratio")
    m["curvature.build_curvature_table.calls_per_trial"] = (
        calls["build_curvature_table"] / a2_trials, "calls/trial")
    m["curvature.build_curvature_table.us_per_call"] = (us("build_curvature_table"), "us")
    m["curvature.intervals_per_call"] = (
        curvature_intervals / calls["build_curvature_table"], "intervals/call")
    m["curvature.share"] = (layer["curvature"] / wall, "ratio")
    m["solver.self_us_per_trial"] = (1e6 * layer["solver"] / trials, "us")
    m["solver.self.share"] = (layer["solver"] / wall, "ratio")
    ks = [k for r, _ in engine for k in r.ks]
    m["solver.effective_k.mean"] = (statistics.fmean(ks), "count")
    m["solver.effective_k.max"] = (max(ks), "count")
    grid_wall = sum(r.scaled for r, _ in grid)
    grid_eval = sum(s.seconds["f"] * r.speed for r, s in grid)
    m["solver.grid.self_us_per_trial"] = (
        1e6 * (grid_wall - grid_eval) / sum(r.trials for r, _ in grid), "us")
    m["solver.grid.eval.share"] = (grid_eval / grid_wall, "ratio")
    m["trace.overhead_ratio"] = (statistics.median(overhead), "ratio")
    return m


def traced_run(workload: wl.Workload, seed: int, seconds: float, gate: Gate) -> Measurement:
    """Alternate untraced and traced passes over every solve of the workload;
    both must give the same outcome tag, point and trial count."""
    oracles = oracle_ms(workload)
    timer = LayerTimer()
    wrapped = {p.id: timer.problem(p) for p in workload.problems}

    def run_traced(problem: Problem, method: str) -> tuple[Result, SolveStats]:
        stats = timer.start()
        return run_one(workload, wrapped[problem.id], method), stats

    specs = specs_for(workload, workload.primary + workload.companion)
    rng = random.Random(seed)
    traced: list[tuple[Result, SolveStats]] = []
    overhead = []
    start = perf_counter()
    while not overhead or perf_counter() - start < seconds:
        order = list(specs)
        rng.shuffle(order)
        plain = [run_one(workload, p, m) for p, m in order]
        with timer.installed():
            pairs = [run_traced(p, m) for p, m in order]
        gate.check(plain)
        gate.check([r for r, _ in pairs])
        gate.compare("the traced run", {r.key: r.answer for r in plain},
                     {r.key: r.answer for r, _ in pairs})
        traced += pairs
        overhead.append(sum(r.scaled for r, _ in pairs) / sum(r.scaled for r in plain))
    return per_layer(traced, overhead, oracles), {}, [r for r, _ in traced]


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(wl.ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "seed": seed, "commit": git_commit()}


def paper_comparison(results: list[Result]) -> str:
    """Mean trials over t01-t20 beside the paper's averages (information only)."""
    first = {r.key: r.trials for r in results}
    parts = []
    for method, paper in PAPER_TRIALS_MEAN.items():
        mine = [t for (pid, m), t in first.items() if m == method and pid in wl.TESTBED_IDS]
        parts.append(f"{method} {statistics.fmean(mine):.2f} (paper {paper})")
    return "t01-t20 mean trials: " + ", ".join(parts)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Gate]:
    workload = wl.prepare(name, seed)
    gate = Gate(workload)
    measure = traced_run if trace else end_to_end
    metrics, notes, results = measure(workload, seed, seconds, gate)
    if name == "bed":
        check_against_run_matrix(gate)
    print(f"== workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<48} {value:>14.6g} {unit}{note}")
    for line in gate.report():
        print("  " + line)
    if name == "bed":
        print("  " + paper_comparison(results))
    return metrics, gate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    print("env " + json.dumps(environment(args.seed)))
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    out: dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for name in names:
        metrics, gate = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        out.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        correct = correct and gate.correct
        attempted += gate.attempted
        failed += gate.failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
