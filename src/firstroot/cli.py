"""Command-line front end.

Subcommands: solve (run one method on one problem), bench (run the comparison
matrix), sample (dump f and f' on a uniform grid), list (show the registry).

Exit codes: 0 for a sigma-root (a sign change, or a zero that f may reach
within sigma) or a certified no-root minimum, 1 for usage errors, 2 when the
search can resolve the root no further (an interval no wider than sigma flagged
only by the curvature floor, or an interval wider than sigma with no float
left inside it for a trial), 3 when the trial budget ran out.

`solve` and `bench` share --sigma-frac, --r and --xi.  Every default and check
of a setting comes from SolverConfig and EstimationParams, and the method names
from `bench.METHODS`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .errors import FirstRootError
from .problems import FILTERS, all_ids, get_problem, registry
from .solver import (
    BudgetExhausted,
    EstimationParams,
    FirstRootFound,
    NoRootGlobalMin,
    PrecisionExhausted,
    SolveResult,
    SolverConfig,
)

_EXIT_BY_TAG = {
    "first_root": 0,
    "no_root_global_min": 0,
    "precision_exhausted": 2,
    "budget_exhausted": 3,
}

# what to change when a solve stops with PrecisionExhausted, by its cause
_HINT_BY_CAUSE = {
    "curvature_floor": "set by the curvature floor: rescale f or lower --xi",
    "no_float_inside": "no float left inside it for a trial: raise --sigma-frac",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="firstroot", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--sigma-frac", type=float, default=SolverConfig.sigma_fraction,
                          help="sigma as a share of b - a (default: %(default)s)")
    settings.add_argument("--r", type=float, default=EstimationParams().r,
                          help="a2's reliability multiplier (default: %(default)s)")
    settings.add_argument("--xi", type=float, default=EstimationParams().xi,
                          help="a2's curvature floor (default: %(default)s)")

    p_solve = sub.add_parser("solve", parents=[settings], help="run one method on one problem")
    p_solve.add_argument("--problem", required=True, help="problem id (see `firstroot list`)")
    p_solve.add_argument("--method", choices=bench_mod.METHODS, default=SolverConfig.method)
    p_solve.add_argument("--lipschitz", type=float, default=None,
                         help="curvature bound for a1 (default: dense-grid estimate)")
    p_solve.add_argument("--max-trials", type=int, default=None,
                         help="trial cap (default: the grid covers [a, b]; a1 and a2 get "
                              f"{SolverConfig.max_trials})")
    p_solve.add_argument("--trace", default=None, help="write a JSONL trace here")

    p_bench = sub.add_parser("bench", parents=[settings], help="run the comparison matrix")
    p_bench.add_argument("--problems", default=None, help="comma-separated ids (default: all)")
    p_bench.add_argument("--methods", default=",".join(bench_mod.METHODS))
    p_bench.add_argument("--output", default="bench_report.csv")
    p_bench.add_argument("--format", choices=("csv", "markdown"), default="csv")

    p_sample = sub.add_parser("sample", help="dump x,f,df on a uniform grid")
    p_sample.add_argument("--problem", required=True)
    p_sample.add_argument("--points", type=int, default=1001)
    p_sample.add_argument("--output", default=None, help="CSV path (default: stdout)")

    sub.add_parser("list", help="list the problem registry")
    return parser


def _write_trace(result: SolveResult, path: str) -> None:
    with open(path, "w") as fh:
        for record in result.trace:
            fh.write(json.dumps(record._asdict()) + "\n")


def _run_solve(args) -> int:
    problem = get_problem(args.problem)
    if args.lipschitz is not None and args.method != "a1":
        raise _UsageError("--lipschitz only applies to --method a1")
    if args.trace:
        Path(args.trace).touch()  # a bad path fails before the solve, not after it
    result, lipschitz = bench_mod.run_method(problem, args.method, args.sigma_frac, args.r,
                                             args.xi, args.lipschitz, args.max_trials)
    outcome = result.outcome
    print(f"problem:  {problem.id}  ({problem.name})")
    print(f"method:   {args.method}")
    if lipschitz is not None and args.lipschitz is None:
        print(f"lipschitz K (oracle): {lipschitz:.10g}")
    print(f"outcome:  {outcome.tag}")
    if isinstance(outcome, FirstRootFound):
        x = outcome.x_sigma
        print(f"x_sigma:  {x:.10g}")
        print(f"f(x):     {float(problem.f(x)):.10g}")
    elif isinstance(outcome, NoRootGlobalMin):
        print(f"x_best:   {outcome.x_best:.10g}")
        print(f"f_best:   {outcome.f_best:.10g}")
    elif isinstance(outcome, PrecisionExhausted):
        lo, hi = outcome.interval
        print(f"interval: [{lo!r}, {hi!r}]  ({_HINT_BY_CAUSE[outcome.cause]})")
    elif isinstance(outcome, BudgetExhausted):
        print(f"best:     {outcome.best_so_far:.10g}")
    print(f"trials:   {outcome.trials_used}")
    if args.trace:
        _write_trace(result, args.trace)
        print(f"trace:    {args.trace}")
    return _EXIT_BY_TAG[outcome.tag]


def _run_bench(args) -> int:
    ids = tuple(v.strip() for v in args.problems.split(",")) if args.problems else tuple(all_ids())
    config = bench_mod.BenchConfig(problem_ids=ids,
                                   methods=tuple(v.strip() for v in args.methods.split(",")),
                                   sigma_fraction=args.sigma_frac, r=args.r, xi=args.xi)
    Path(args.output).touch()  # a bad path fails before the matrix runs, not after it
    rows = bench_mod.run_matrix(config)
    summary = bench_mod.summarize(rows)
    path = bench_mod.emit_report(rows, summary, args.format, args.output)
    for method, avg in summary.items():
        print(f"average trials [{method}]: {avg:.2f}")
    print(f"report: {path}")
    return 0


def _run_sample(args) -> int:
    if args.points < 2:
        raise _UsageError("--points must be at least 2")
    problem = get_problem(args.problem)
    xs = np.linspace(problem.a, problem.b, args.points)
    fs = np.asarray(problem.f(xs), dtype=float)
    dfs = np.asarray(problem.df(xs), dtype=float)
    lines = ["x,f,df"]
    lines += [f"{repr(float(x))},{repr(float(f))},{repr(float(d))}"
              for x, f, d in zip(xs, fs, dfs)]
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.points} rows to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _run_list() -> int:
    rows = [(p.id, p.name, p.domain, p.root_count, p.reference_frl) for p in registry()]
    rows += [(pid, name, domain, None, None) for pid, (name, _, domain, _) in FILTERS.items()]
    for pid, name, (a, b), roots, frl in rows:
        roots_s = str(roots) if roots is not None else "-"
        frl_s = f"{frl:.6g}" if frl is not None else "-"
        print(f"{pid:10s} [{a:g}, {b:g}]  roots={roots_s:3s} frl={frl_s:10s} {name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "bench":
            return _run_bench(args)
        if args.command == "sample":
            return _run_sample(args)
        return _run_list()
    except (_UsageError, FirstRootError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
