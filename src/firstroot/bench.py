"""Benchmark harness: run (problem x method) matrices and emit report tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import UnknownProblem
from .problems import FILTERS, Problem, curvature_bound, get_problem
from .solver import (
    EstimationParams,
    FirstRootFound,
    SolverConfig,
    grid_search,
    solve,
)

__all__ = ["BenchConfig", "BenchRow", "run_matrix", "summarize", "emit_report", "parse_config"]

CSV_HEADER = "problem,method,trials,outcome,x,f,ref_frl,abs_err"


@dataclass(frozen=True)
class BenchConfig:
    problem_ids: tuple[str, ...]
    methods: tuple[str, ...] = ("grid", "a1", "a2")
    sigma_fraction: float = 1e-4
    r: float = 1.2
    xi: float = 1e-6
    output_path: str = "bench_report.csv"
    format: str = "csv"

    def __post_init__(self) -> None:
        if not self.problem_ids:
            raise ValueError("problem_ids must be non-empty")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for m in self.methods:
            if m not in ("grid", "a1", "a2"):
                raise ValueError(f"unknown method {m!r}")
        if not self.sigma_fraction > 0.0:
            raise ValueError("sigma_fraction must be positive")
        if self.format not in ("csv", "markdown"):
            raise ValueError(f"unknown format {self.format!r}")


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


def _run_one(problem: Problem, method: str, config: BenchConfig) -> BenchRow:
    sigma = config.sigma_fraction * (problem.b - problem.a)
    if method == "grid":
        outcome = grid_search(problem, sigma).outcome
    else:
        lipschitz = curvature_bound(problem) if method == "a1" else None
        cfg = SolverConfig(method=method, lipschitz=lipschitz,
                           params=EstimationParams(r=config.r, xi=config.xi),
                           sigma_fraction=config.sigma_fraction)
        outcome = solve(problem, cfg).outcome
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


def parse_config(path: str | Path) -> BenchConfig:
    """Read a flat key = value file mirroring the BenchConfig fields."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    kwargs: dict = {}
    if "problem_ids" in values:
        kwargs["problem_ids"] = tuple(v.strip() for v in values["problem_ids"].split(",") if v.strip())
    else:
        raise ValueError("config must set problem_ids")
    if "methods" in values:
        kwargs["methods"] = tuple(v.strip() for v in values["methods"].split(",") if v.strip())
    for key in ("sigma_fraction", "r", "xi"):
        if key in values:
            kwargs[key] = float(values[key])
    for key in ("output_path", "format"):
        if key in values:
            kwargs[key] = values[key]
    return BenchConfig(**kwargs)
