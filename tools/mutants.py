"""Mutation pass over the engine: which operators does no test pin?

Each mutant changes one operator in one of the target files: a comparison
`<`, `<=`, `>`, `>=` is negated (`<` becomes `>=`, and so on) and an
arithmetic `+`, `-`, `*`, `/` is swapped with its counterpart (`+` with `-`,
`*` with `/`), in an expression and in an augmented assignment alike (`+=`
with `-=`, `*=` with `/=`).  The targets are the whole of `support.py`,
`curvature.py`, `solver.py` (the grid search included), `problems.py`,
`bench.py` and `cli.py`, or those of them named on the command line.

The checkout's `src`, `tests`, `perfbench`, `pyproject.toml` and `README.md`
(whose examples a test runs) are copied into a temporary directory and every
mutant is written there, so an interrupted run never leaves a mutant in the
checkout.  Mutants run one after another, never in parallel.  Each one first
meets a fast stage (the golden traces, the support, solver and curvature
tests) and, if it survives that, the whole tier-1 suite with the known
filter-cutoff failures deselected.
Every stage runs with `--hypothesis-seed=0`, so the property tests draw the
same examples on every run and a rerun gives the same survivors.  The
unmutated copy runs every stage first, and each stage's time there, times
TIMEOUT_FACTOR, is that stage's limit.  A stage that fails, or runs past its
limit, kills the mutant: some mutants of the end-game clamp loop on
`nextafter` for ever.  The run ends by listing the mutants killed by timeout
and the time their stages took.

A run writes the survivors to `tools/survivors.tsv`, one per line,
tab-separated: where (file:line:column, counted from 1), the mutation, the
source line and a reason.  The reasons are written by hand; a rerun keeps the
reason of every survivor whose file, column, mutation and source line are
unchanged and marks new ones UNEXPLAINED.  A run over some of the targets
rewrites only their count lines and survivors and keeps those of the others.

Run from the root of the checkout (about 50 minutes for the 608 mutants of
all six targets on one core of a 2-vCPU Xeon), optionally naming the targets:

    python tools/mutants.py
    python tools/mutants.py problems.py
"""

from __future__ import annotations

import ast
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# files under src/firstroot, mutated whole
TARGETS = ("support.py", "curvature.py", "solver.py", "problems.py", "bench.py", "cli.py")

# operator node -> (its symbol, the mutant's symbol)
NEGATED = {ast.Lt: ("<", ">="), ast.LtE: ("<=", ">"), ast.Gt: (">", "<="), ast.GtE: (">=", "<")}
SWAPPED = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}

FAST = ["tests/test_golden_traces.py", "tests/test_support.py", "tests/test_solver.py",
        "tests/test_curvature.py"]
KNOWN_FAILURES = ["tests/test_acceptance.py::test_chebyshev_cutoff_location",
                  "tests/test_acceptance.py::test_passband_cutoff_location"]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
SURVIVORS = ROOT / "tools" / "survivors.tsv"
# a stage's limit, as a multiple of its time on the unmutated copy: mutants
# that loop for ever spend the whole limit, and a mutant that passes runs
# about as long as the unmutated copy
TIMEOUT_FACTOR = 3.0


class Mutant(NamedTuple):
    target: str
    line: int
    col: int
    old: str
    new: str
    start: int  # offset of the operator in the source text
    text: str   # the stripped source line

    @property
    def where(self) -> str:
        return f"{self.target}:{self.line}:{self.col}"

    @property
    def key(self) -> tuple:
        return (self.target, self.col, self.old, self.new, self.text)


def _operator_offsets(source: str) -> dict[tuple[int, int], tuple[str, int]]:
    """(line, col) -> (operator, offset in source) of every operator token."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    ops = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.OP:
            ops[tok.start] = (tok.string, starts[tok.start[0] - 1] + tok.start[1])
    return ops


def _between(ops, after: ast.AST, before: ast.AST, symbol: str) -> tuple[int, int, int]:
    # the one `symbol` token between the end of `after` and the start of
    # `before` (parentheses may sit around it)
    lo = (after.end_lineno, after.end_col_offset)
    hi = (before.lineno, before.col_offset)
    found = [(pos, off) for pos, (s, off) in ops.items() if s == symbol and lo <= pos < hi]
    assert len(found) == 1, (symbol, lo, hi, found)
    (line, col), off = found[0]
    return line, col + 1, off


def find_mutants(target: str, source: str) -> list[Mutant]:
    tree = ast.parse(source)
    ops = _operator_offsets(source)
    lines = source.splitlines()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPPED:
            pairs = [(node.left, node.right, *SWAPPED[type(node.op)])]
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPPED:
            old, new = SWAPPED[type(node.op)]
            pairs = [(node.target, node.value, old + "=", new + "=")]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = [(operands[i], operands[i + 1], *NEGATED[type(op)])
                     for i, op in enumerate(node.ops) if type(op) in NEGATED]
        else:
            continue
        for after, before, old, new in pairs:
            line, col, off = _between(ops, after, before, old)
            out.append(Mutant(target, line, col, old, new, off, lines[line - 1].strip()))
    return sorted(out, key=lambda m: (m.line, m.col))


def _run(cmd: list[str], cwd: Path, timeout: float | None) -> str:
    """'pass', 'fail' or 'timeout'; a timeout of None waits for ever.  A run
    still going when this returns or raises (a timeout, an interrupt) is
    killed with its process group."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return "pass" if proc.wait(timeout=timeout) == 0 else "fail"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


_PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0"]
STAGES = (_PYTEST + FAST,
          _PYTEST + ["--continue-on-collection-errors"]
          + [arg for node in KNOWN_FAILURES for arg in ("--deselect", node)])


def _verdict(work: Path, limits: list[float]) -> str:
    """'pass' when every stage passes within its limit, else the first
    stage's 'fail' or 'timeout'."""
    for cmd, limit in zip(STAGES, limits):
        result = _run(cmd, work, limit)
        if result != "pass":
            return result
    return "pass"


def _limits(work: Path) -> list[float] | None:
    """Each stage's limit, TIMEOUT_FACTOR times its time on the unmutated
    copy in work, or None when a stage fails there."""
    limits = []
    for cmd in STAGES:
        began = time.monotonic()
        if _run(cmd, work, None) != "pass":
            return None
        limits.append(TIMEOUT_FACTOR * (time.monotonic() - began))
    return limits


def read_reasons(path: Path) -> dict[tuple, str]:
    reasons = {}
    if path.exists():
        for row in path.read_text().splitlines():
            if row.startswith("#") or not row.strip():
                continue
            where, mutation, text, reason = row.split("\t")
            target, _, col = where.split(":")
            old, new = mutation.split(" -> ")
            reasons[(target, int(col), old, new, text)] = reason
    return reasons


def _target_of(row: str) -> str:
    # 'support.py:12:3\t...' or its count line '# support.py: 131 mutants, ...'
    return row.removeprefix("# ").split(":", 1)[0]


def write_survivors(path: Path, counts: dict, survivors: list[Mutant], reasons: dict) -> None:
    """Write the count line and survivors of every target in counts; the
    count lines and survivors of the other targets are kept as path has
    them."""
    headers, rows = {}, {}
    if path.exists():
        for row in path.read_text().splitlines():
            target = _target_of(row)
            if target not in TARGETS or target in counts:
                continue
            if row.startswith("#"):
                headers[target] = row
            else:
                rows.setdefault(target, []).append(row)
    for target, (n, k, t) in counts.items():
        headers[target] = f"# {target}: {n} mutants, {k} killed ({t} by timeout), {n - k} survived"
        rows[target] = []
    for m in survivors:
        rows[m.target].append("\t".join((m.where, f"{m.old} -> {m.new}", m.text,
                                         reasons.get(m.key, "UNEXPLAINED"))))
    out = ["# Mutants no test kills: file:line:col, mutation, source line, reason.",
           "# Written by tools/mutants.py; the reasons are kept by hand.",
           *(headers[t] for t in TARGETS if t in headers),
           *(row for t in TARGETS for row in rows.get(t, ()))]
    path.write_text("\n".join(out) + "\n")


def main(targets: list[str]) -> int:
    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        print(f"not a target: {', '.join(unknown)}; choose from {', '.join(TARGETS)}",
              file=sys.stderr)
        return 2
    sources, mutants = {}, []
    for target in [t for t in TARGETS if not targets or t in targets]:
        sources[target] = (ROOT / "src" / "firstroot" / target).read_text()
        mutants += find_mutants(target, sources[target])
    reasons = read_reasons(SURVIVORS)
    # on SIGTERM too, unwind: kill the running stage, remove the copy
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    counts = {target: [0, 0, 0] for target in sources}
    survivors, timeouts = [], []
    began = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, work / name)
        limits = _limits(work)
        if limits is None:
            print("the unmutated checkout fails its tests; no mutant run", file=sys.stderr)
            return 1
        print("stage limits: " + ", ".join(f"{t:.0f}s" for t in limits), flush=True)
        for i, m in enumerate(mutants, 1):
            path = work / "src" / "firstroot" / m.target
            source = sources[m.target]
            path.write_text(source[:m.start] + m.new + source[m.start + len(m.old):])
            started = time.monotonic()
            result = _verdict(work, limits)
            path.write_text(source)
            counts[m.target][0] += 1
            if result == "pass":
                survivors.append(m)
            else:
                counts[m.target][1] += 1
                counts[m.target][2] += result == "timeout"
                if result == "timeout":
                    timeouts.append((m, time.monotonic() - started))
            print(f"[{i}/{len(mutants)} {time.monotonic() - began:.0f}s] {m.where} "
                  f"{m.old} -> {m.new}: {'SURVIVED' if result == 'pass' else result}",
                  flush=True)
    for m, seconds in timeouts:
        print(f"timeout: {m.where}\t{m.old} -> {m.new}\t{m.text}\t{seconds:.0f}s")
    print(f"{len(timeouts)} timeouts took {sum(s for _, s in timeouts):.0f} of the run's "
          f"{time.monotonic() - began:.0f}s")
    for m in survivors:
        print(f"survived: {m.where}\t{m.old} -> {m.new}\t{m.text}")
    print(f"{len(survivors)} of {len(mutants)} mutants survived")
    write_survivors(SURVIVORS, counts, survivors, reasons)
    print(f"list written to {SURVIVORS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
