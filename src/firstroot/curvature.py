"""Adaptive per-interval bounds on the Lipschitz constant of f'.

Each interval between consecutive trials gets a curvature estimate v that is
exact for quadratics and approaches |f''| on refinement.  The bound used by
the adaptive search blends the local estimate (a three-interval sliding
window), a width-scaled share of the global estimate, and a small floor:

    m_i = r * max(lambda_i, gamma_i, xi)

with r > 1 a reliability multiplier and xi > 0 covering the case of f'
locally constant (v = 0 there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateInterval

if TYPE_CHECKING:  # pragma: no cover
    from .solver import Trial

__all__ = ["EstimationParams", "CurvatureTable", "interval_curvature", "iter_bounds",
           "build_curvature_table"]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, slots=True)
class EstimationParams:
    """Reliability multiplier r > 1 and curvature floor xi > 0, both finite."""

    r: float = 1.2
    xi: float = 1e-6

    def __post_init__(self) -> None:
        if not 1.0 < self.r < math.inf:
            raise ValueError(f"r={self.r} must be finite and > 1")
        if not 0.0 < self.xi < math.inf:
            raise ValueError(f"xi={self.xi} must be finite and > 0")


class CurvatureTable(NamedTuple):
    """Per-interval estimates v, widths and bounds m for the current trial
    set, as a named tuple.

    Entry p of each list describes the interval between trials p and p+1.
    """

    v: tuple[float, ...]
    gaps: tuple[float, ...]
    m: tuple[float, ...]


def interval_curvature(trial_left: "Trial", trial_right: "Trial") -> float:
    """Curvature estimate v >= 0 for the interval between two trials."""
    left, right = trial_left, trial_right
    h = right.x - left.x
    if h < 1e3 * _EPS * max(1.0, abs(left.x), abs(right.x)):
        raise DegenerateInterval(f"gap {h} at x={left.x} too small for curvature estimation")
    bracket = 2.0 * (left.z - right.z) + (right.dz + left.dz) * h
    d = math.hypot(bracket, (right.dz - left.dz) * h)
    return (abs(bracket) + d) / (h * h)


def iter_bounds(v: Sequence[float], gaps: Sequence[float],
                params: EstimationParams) -> Iterator[float]:
    """The bounds m from the estimates v and the widths `gaps` of the
    intervals, entry p of each describing the interval between trials p and
    p+1, yielded left to right in one pass over the intervals: the one place
    that applies the formula m_i.

    lambda_p is the largest v over intervals p-1 .. p+1, found by comparing
    v_p with its two neighbours; gamma_p is the global estimate m_global =
    max(v) scaled by the width relative to the widest interval, computed as
    m_global * gap / x_max in that order; and m_p is r times the largest of
    lambda_p, gamma_p and xi.  v and gaps are two lists or two tuples of the
    same length, at least 1.  A caller that needs only the first bounds stops
    drawing: the bounds right of them are never computed.
    """
    r, xi = params.r, params.xi
    m_global = max(v)
    x_max = max(gaps)
    left = v[0]
    for mid, right, gap in zip(v, v[1:] + v[-1:], gaps):
        lam = mid
        if left > lam:
            lam = left
        if right > lam:
            lam = right
        gamma = m_global * gap / x_max
        if gamma > lam:
            lam = gamma
        if xi > lam:
            lam = xi
        yield r * lam
        left = mid


def build_curvature_table(trials: Sequence["Trial"], params: EstimationParams) -> CurvatureTable:
    """Compute v, the widths and the bounds m for every interval.

    trials must be at least two, strictly increasing in x.  Everything is
    computed from scratch: the adaptive search calls this once, on its first
    step, and from then on updates v and the widths next to each new trial and
    draws the bounds from `iter_bounds`; the tests use it as the reference for
    those updates.
    """
    n = len(trials)
    if n < 2:
        raise ValueError("need at least two trials")
    v = [interval_curvature(trials[p], trials[p + 1]) for p in range(n - 1)]
    gaps = [trials[p + 1].x - trials[p].x for p in range(n - 1)]
    return CurvatureTable(v=tuple(v), gaps=tuple(gaps), m=tuple(iter_bounds(v, gaps, params)))
