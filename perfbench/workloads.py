"""Problem sets of the firstroot benchmark and the set-up a user pays before
solving them.

Importing this module puts the checkout's ``src`` on ``sys.path`` and imports
``firstroot`` from there, so the benchmark always measures the source tree it
sits in and fails to start in a directory that does not hold that tree.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

import firstroot  # noqa: E402
from firstroot import (  # noqa: E402
    EstimationParams,
    Problem,
    SolverConfig,
    all_ids,
    exact_lipschitz_oracle,
    get_problem,
    registry,
)

if Path(firstroot.__file__).resolve().parent != (_SRC / "firstroot").resolve():
    raise ImportError(f"firstroot was imported from {firstroot.__file__}, "
                      f"not from the checkout at {_SRC}")

# The paper's settings, shared by every workload and by firstroot.bench.
SIGMA_FRACTION = 1e-4
PARAMS = EstimationParams(r=1.2, xi=1e-6)
ENGINE_METHODS = ("a1", "a2")
METHODS = ("a1", "a2", "grid")

# The dense reference scan samples f this many times per sigma step.
_SCAN_PER_SIGMA = 8

# deep: f(x) = c + sum_j a_j cos(w_j x + phi_j) - s * max(0, x - x0)^2 on
# [0, DEEP_LENGTH].  The margin c - sum_j a_j keeps f positive without the
# drift; a late-root objective starts its drift at x0 = (1 - DEEP_TAIL) * L
# and reaches its first root in the last DEEP_TAIL share of the domain.  Sizes
# are chosen so one solve takes about 55 to 70 trials, with an effective set
# that grows to about 70, while a run still completes the 100 solves its p90
# needs.
# The seed draws only the phases phi_j: with the frequencies fixed as well, the
# mean trial count of a set of problems varies by about 1.5% between seeds.
DEEP_LENGTH = 50.0
DEEP_TAIL = 0.1
DEEP_MARGIN = 0.3
DEEP_AMPLITUDES = (1.0, 0.6, 0.3)
DEEP_FREQUENCIES = (1.0, 1.7, 2.9)
DEEP_PAIRS = 10


@dataclass(frozen=True)
class Workload:
    """The problems of one workload, ready to solve.

    ``primary`` methods form the closed loop that the solve-level metrics
    describe; ``companion`` methods run on the same problems so that every
    per-method metric exists on every workload.
    """

    name: str
    problems: tuple[Problem, ...]
    configs: dict[tuple[str, str], SolverConfig]
    primary: tuple[str, ...]
    companion: tuple[str, ...]

    def sigma(self, problem: Problem) -> float:
        return SIGMA_FRACTION * (problem.b - problem.a)


def deep_problem(pid: str, rng: np.random.Generator, late: bool) -> Problem:
    """One seeded sum-of-cosines objective with analytic derivative; with
    ``late`` it gets the downward drift that places its first root far right."""
    a1, a2, a3 = DEEP_AMPLITUDES
    w1, w2, w3 = DEEP_FREQUENCIES
    p1, p2, p3 = (float(p) for p in rng.uniform(0.0, 2.0 * np.pi, 3))
    c = sum(DEEP_AMPLITUDES) + DEEP_MARGIN
    if late:
        tail = DEEP_TAIL * DEEP_LENGTH
        x0 = DEEP_LENGTH - tail
        # The drift exceeds c + sum_j a_j half-way through the tail.
        s = (c + sum(DEEP_AMPLITUDES)) / (0.5 * tail) ** 2
    else:
        x0, s = DEEP_LENGTH, 0.0

    def f(x):
        u = np.maximum(x - x0, 0.0)
        return (c + a1 * np.cos(w1 * x + p1) + a2 * np.cos(w2 * x + p2)
                + a3 * np.cos(w3 * x + p3) - s * u * u)

    def df(x):
        u = np.maximum(x - x0, 0.0)
        return -(a1 * w1 * np.sin(w1 * x + p1) + a2 * w2 * np.sin(w2 * x + p2)
                 + a3 * w3 * np.sin(w3 * x + p3) + 2.0 * s * u)

    kind = "late-root" if late else "rootless"
    return Problem(id=pid, name=f"deep {kind} sum of cosines", a=0.0, b=DEEP_LENGTH,
                   f=f, df=df)


def deep_problems(seed: int) -> list[Problem]:
    """DEEP_PAIRS rootless and DEEP_PAIRS late-root objectives, alternating."""
    rng = np.random.default_rng(seed)
    return [deep_problem(f"deep{i:02d}", rng, late=i % 2 == 1) for i in range(2 * DEEP_PAIRS)]


def _configs(problems: list[Problem]) -> dict[tuple[str, str], SolverConfig]:
    configs = {}
    for p in problems:
        k = p.lipschitz_K if p.lipschitz_K is not None else exact_lipschitz_oracle(p)
        configs[(p.id, "a1")] = SolverConfig(method="a1", lipschitz=k, params=PARAMS,
                                             sigma_fraction=SIGMA_FRACTION)
        configs[(p.id, "a2")] = SolverConfig(method="a2", params=PARAMS,
                                             sigma_fraction=SIGMA_FRACTION)
    return configs


WORKLOADS = ("bed", "deep", "grid")


def prepare(name: str, seed: int) -> Workload:
    """Everything a user does before the first solve: build the problems
    (F_max of the filters included) and run the curvature oracle for a1."""
    if name == "deep":
        problems = deep_problems(seed)
    elif name in ("bed", "grid"):
        problems = [get_problem(pid) for pid in all_ids()]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    primary = ("grid",) if name == "grid" else ENGINE_METHODS
    companion = tuple(m for m in METHODS if m not in primary)
    return Workload(name=name, problems=tuple(problems), configs=_configs(problems),
                    primary=primary, companion=companion)


def first_sign_change(problem: Problem) -> float | None:
    """The first scanned point where f < 0, on a mesh eight times finer than
    sigma; None when the scan never sees f < 0."""
    points = int(round(_SCAN_PER_SIGMA / SIGMA_FRACTION)) + 1
    x = np.linspace(problem.a, problem.b, points)
    negative = np.flatnonzero(np.asarray(problem.f(x)) < 0.0)
    return float(x[negative[0]]) if len(negative) else None


TESTBED_IDS = frozenset(p.id for p in registry())


def reference_root(problem: Problem) -> float | None:
    """t01-t20 use the published first root; every other problem uses the
    benchmark's own dense scan of f."""
    if problem.id in TESTBED_IDS:
        return problem.reference_frl
    return first_sign_change(problem)
