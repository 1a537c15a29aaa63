"""Golden traces: a1, a2 and the grid scan on the 22-problem matrix must
reproduce, bit for bit, the outcomes and traces stored in
tests/data/golden_traces.json.

Each entry holds the outcome tag, trials_used, the reported point as
float.hex and the SHA-256 of the trace as the CLI writes it (one JSON object
per line).  The settings are those of `firstroot.bench.run_matrix`: sigma =
1e-4 * (b - a), r = 1.2, xi = 1e-6 and, for a1, `curvature_bound(problem)`;
the grid runs uncapped, so it covers [a, b] when it finds no root.

A change that is meant to move a trace must regenerate the file, with
`PYTHONPATH=src python tests/test_golden_traces.py`, and say which entries moved and why.
Before it writes, the script prints one line per entry that changes: the tag,
trials and point, old -> new, and |dx| between the points.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from firstroot import all_ids, get_problem
from firstroot.bench import run_method

GOLDEN = Path(__file__).with_name("data") / "golden_traces.json"
SETTINGS = {"sigma_fraction": 1e-4, "r": 1.2, "xi": 1e-6,
            "a1_bound": "problem.lipschitz_K, else exact_lipschitz_oracle(problem)"}


def golden_entry(problem_id: str, method: str) -> dict:
    result, _ = run_method(get_problem(problem_id), method, SETTINGS["sigma_fraction"],
                           SETTINGS["r"], SETTINGS["xi"])
    lines = "".join(json.dumps(record._asdict()) + "\n" for record in result.trace)
    return {"tag": result.outcome.tag,
            "trials_used": result.outcome.trials_used,
            "point": float(result.outcome.point).hex(),
            "trace_sha256": hashlib.sha256(lines.encode()).hexdigest()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _matrix() -> list[str]:
    return [f"{pid}/{method}" for pid in all_ids() for method in ("a1", "a2", "grid")]


def test_golden_file_covers_the_matrix():
    doc = _golden()
    assert doc["settings"] == SETTINGS
    assert sorted(doc["solves"]) == sorted(_matrix())


@pytest.mark.parametrize("key", _matrix())
def test_outcome_and_trace_are_bit_identical(key):
    assert golden_entry(*key.split("/")) == _golden()["solves"].get(key)


def _describe(entry: dict | None) -> str:
    if entry is None:
        return "(none)"
    return f"{entry['tag']} {entry['trials_used']} {float.fromhex(entry['point'])!r}"


def changes(old: dict, new: dict) -> list[str]:
    """One line per key whose entry differs: the tag, trials and point, old ->
    new, and |dx| between the points; a trace that moved with the same tag,
    trials and point is marked as such."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key), new.get(key)
        if before == after:
            continue
        line = f"{key}: {_describe(before)} -> {_describe(after)}"
        if before is not None and after is not None:
            dx = abs(float.fromhex(after["point"]) - float.fromhex(before["point"]))
            line += f", |dx| = {dx:.3g}"
            if _describe(before) == _describe(after):
                line += " (trace only)"
        lines.append(line)
    return lines


if __name__ == "__main__":
    solves = {key: golden_entry(*key.split("/")) for key in _matrix()}
    old = _golden()["solves"] if GOLDEN.exists() else {}
    moved = changes(old, solves)
    print("\n".join(moved))
    print(f"{len(moved)} of {len(solves)} entries changed")
    GOLDEN.write_text(json.dumps({"settings": SETTINGS, "solves": solves}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {len(solves)} entries to {GOLDEN}")
