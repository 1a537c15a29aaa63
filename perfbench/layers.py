"""Per-layer timing of a solve, measured from outside the package.

The layers are firstroot's modules.  ``LayerTimer.installed`` replaces the
names that ``firstroot.solver`` looks up at call time with timed wrappers, and
``LayerTimer.problem`` wraps a problem's f and df.  Calls that the support
module makes to itself, such as ``characteristic`` calling
``interior_stationary_point``, go through the module's own names and are
therefore counted in their caller: no time is counted twice.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import firstroot.solver as solver_module
from firstroot import Problem

SUPPORT_NAMES = ("build_support", "characteristic", "interior_stationary_point",
                 "leftmost_zero")
CURVATURE_NAMES = ("build_curvature_table",)
PROBLEM_NAMES = ("f", "df")
LAYERS = {"problems": PROBLEM_NAMES, "support": SUPPORT_NAMES,
          "curvature": CURVATURE_NAMES}


@dataclasses.dataclass
class SolveStats:
    """Calls and seconds per wrapped name during one solve, plus the count of
    minorants built on an interval not seen earlier in the solve."""

    calls: Counter = dataclasses.field(default_factory=Counter)
    seconds: Counter = dataclasses.field(default_factory=Counter)
    new_intervals: int = 0
    curvature_intervals: int = 0


def self_times(stats: SolveStats, wall: float) -> dict[str, float]:
    """Seconds of one solve per layer; the solver's share is the wall time
    the wrapped calls leave over, so the values sum to ``wall``."""
    out = {layer: sum(stats.seconds[n] for n in names) for layer, names in LAYERS.items()}
    out["solver"] = wall - sum(out.values())
    return out


class LayerTimer:
    """Collects a ``SolveStats`` for the solve started by ``start``."""

    def __init__(self) -> None:
        self.stats = SolveStats()
        self._seen: set[tuple[float, float]] = set()

    def start(self) -> SolveStats:
        self.stats = SolveStats()
        self._seen = set()
        return self.stats

    def _timed(self, name: str, fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.stats.seconds[name] += perf_counter() - t0
                self.stats.calls[name] += 1
        return timed

    def _build_support(self, fn):
        timed = self._timed("build_support", fn)

        def build_support(data):
            key = (data.x_left, data.x_right)
            if key not in self._seen:
                self._seen.add(key)
                self.stats.new_intervals += 1
            return timed(data)
        return build_support

    def _build_curvature_table(self, fn):
        timed = self._timed("build_curvature_table", fn)

        def build_curvature_table(trials, params):
            self.stats.curvature_intervals += len(trials) - 1
            return timed(trials, params)
        return build_curvature_table

    def problem(self, problem: Problem) -> Problem:
        return dataclasses.replace(problem, f=self._timed("f", problem.f),
                                   df=self._timed("df", problem.df))

    @contextmanager
    def installed(self):
        """Swap the solver's names for timed wrappers; restore them on exit."""
        names = SUPPORT_NAMES + CURVATURE_NAMES
        originals = {n: getattr(solver_module, n) for n in names}
        wrappers = {n: self._timed(n, fn) for n, fn in originals.items()}
        wrappers["build_support"] = self._build_support(originals["build_support"])
        wrappers["build_curvature_table"] = self._build_curvature_table(
            originals["build_curvature_table"])
        try:
            for n, fn in wrappers.items():
                setattr(solver_module, n, fn)
            yield self
        finally:
            for n, fn in originals.items():
                setattr(solver_module, n, fn)
