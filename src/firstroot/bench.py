"""Benchmark harness: run (problem x method) matrices and emit report tables.

`run_method` is the one place that turns a method name and its settings into
a call of `grid_search` or `solve`: it resolves sigma, builds the SolverConfig
and, for a1 without a given bound, takes K from `problems.curvature_bound`.
The matrix runs every cell through it, and so does the `solve` command of the
command line.

SolverConfig and EstimationParams are the one home of the default and the
check of sigma_fraction, r, xi, the trial budget and the default method, and
`METHODS` names the methods.  BenchConfig reads its defaults there and checks
its values by building a SolverConfig from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .problems import FILTERS, Problem, curvature_bound, get_problem
from .solver import (
    EstimationParams,
    FirstRootFound,
    SolveResult,
    SolverConfig,
    grid_search,
    solve,
)

__all__ = ["METHODS", "BenchConfig", "BenchRow", "run_method", "run_matrix", "summarize",
           "emit_report"]

METHODS = ("grid", "a1", "a2")
CSV_HEADER = "problem,method,trials,outcome,x,f,ref_frl,abs_err"


@dataclass(frozen=True)
class BenchConfig:
    problem_ids: tuple[str, ...]
    methods: tuple[str, ...] = METHODS
    sigma_fraction: float = SolverConfig.sigma_fraction
    r: float = EstimationParams().r
    xi: float = EstimationParams().xi

    def __post_init__(self) -> None:
        if not self.problem_ids:
            raise ValueError("problem_ids must be non-empty")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        SolverConfig(sigma_fraction=self.sigma_fraction,
                     params=EstimationParams(r=self.r, xi=self.xi))


@dataclass(frozen=True)
class BenchRow:
    problem_id: str
    method: str
    trials_used: int
    outcome_tag: str
    x_result: float
    f_at_result: float
    reference_frl: float | None
    abs_error: float | None


def run_method(problem: Problem, method: str, sigma_fraction: float, r: float, xi: float,
               lipschitz: float | None = None,
               max_trials: int | None = None) -> tuple[SolveResult, float | None]:
    """Run `method` ("grid", "a1" or "a2") on `problem` with the step
    sigma = sigma_fraction * (b - a); return the result and the bound K that
    a1 ran with (None for grid and a2).

    grid ignores r, xi and lipschitz.  a1 takes K from `curvature_bound`
    when `lipschitz` is None.  `max_trials` caps the trials of every method;
    None leaves the grid uncapped, so that it covers [a, b], and gives a1 and
    a2 the budget of SolverConfig.
    """
    if method == "grid":
        return grid_search(problem, sigma_fraction * (problem.b - problem.a), cap=max_trials), None
    if method == "a1" and lipschitz is None:
        lipschitz = curvature_bound(problem)
    config = SolverConfig(method=method, lipschitz=lipschitz,
                          params=EstimationParams(r=r, xi=xi), sigma_fraction=sigma_fraction,
                          max_trials=SolverConfig.max_trials if max_trials is None else max_trials)
    return solve(problem, config), config.lipschitz if method == "a1" else None


def _run_one(problem: Problem, method: str, config: BenchConfig) -> BenchRow:
    result, _ = run_method(problem, method, config.sigma_fraction, config.r, config.xi)
    outcome = result.outcome
    x = outcome.point
    abs_error = None
    if isinstance(outcome, FirstRootFound) and problem.reference_frl is not None:
        abs_error = abs(x - problem.reference_frl)
    return BenchRow(problem_id=problem.id, method=method,
                    trials_used=outcome.trials_used, outcome_tag=outcome.tag,
                    x_result=x, f_at_result=float(problem.f(x)),
                    reference_frl=problem.reference_frl, abs_error=abs_error)


def run_matrix(config: BenchConfig) -> list[BenchRow]:
    """One row per (problem, method), ordered by (problem_id, method)."""
    problems = [get_problem(pid) for pid in config.problem_ids]
    rows = []
    for problem in problems:
        for method in config.methods:
            rows.append(_run_one(problem, method, config))
    rows.sort(key=lambda r: (r.problem_id, r.method))
    return rows


def summarize(rows: list[BenchRow]) -> dict[str, float]:
    """Arithmetic mean of trials per method over the test-bed rows.

    Filter rows are excluded from the averages; a method benchmarked only on
    filters is averaged over what it has.
    """
    if not rows:
        raise ValueError("no rows to summarize")
    out: dict[str, float] = {}
    for method in sorted({r.method for r in rows}):
        picked = [r for r in rows if r.method == method and r.problem_id not in FILTERS]
        if not picked:
            picked = [r for r in rows if r.method == method]
        out[method] = sum(r.trials_used for r in picked) / len(picked)
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row_cells(row: BenchRow) -> list[str]:
    return [row.problem_id, row.method, str(row.trials_used), row.outcome_tag,
            _fmt(row.x_result), _fmt(row.f_at_result),
            _fmt(row.reference_frl), _fmt(row.abs_error)]


def emit_report(rows: list[BenchRow], summary: dict[str, float],
                format: str, path: str | Path) -> Path:
    """Write the rows plus trailing average lines (one per method) as CSV or a
    markdown table with the same columns."""
    header = CSV_HEADER.split(",")
    table = [header] + [_row_cells(row) for row in rows]
    table += [["average", method, repr(avg), "", "", "", "", ""]
              for method, avg in summary.items()]
    if format == "csv":
        lines = [",".join(cells) for cells in table]
    elif format == "markdown":
        lines = ["| " + " | ".join(cells) + " |" for cells in table]
        lines.insert(1, "|" + "---|" * len(header))
    else:
        raise ValueError(f"unknown format {format!r}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path

