"""Adaptive per-interval bounds on the Lipschitz constant of f'.

Each interval between consecutive trials gets a curvature estimate v that is
exact for quadratics and approaches |f''| on refinement.  The bound used by
the adaptive search blends the local estimate (a three-interval sliding
window), a width-scaled share of the global estimate, and a small floor:

    m_i = r * max(lambda_i, gamma_i, xi)

with r > 1 a reliability multiplier and xi > 0 covering the case of f'
locally constant (v = 0 there).

`table_from` turns the estimates v and the interval widths into the whole
table, lambda, gamma and m; `build_curvature_table` computes v and the widths
from scratch first.  `bounds_from` returns only the bounds m, the same values
as `table_from(...).m` bit for bit, in a single loop of float comparisons
instead of the list-per-column passes and three-argument `max` calls that keep
`table_from` readable.  A search that keeps v and the widths up to date as it
adds trials calls `bounds_from` at every step after the first; `table_from`
stays the reference the tests hold it to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateInterval

if TYPE_CHECKING:  # pragma: no cover
    from .solver import Trial

__all__ = ["EstimationParams", "CurvatureTable", "interval_curvature", "table_from",
           "bounds_from", "build_curvature_table"]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, slots=True)
class EstimationParams:
    """Reliability multiplier r > 1 and curvature floor xi > 0."""

    r: float = 1.2
    xi: float = 1e-6

    def __post_init__(self) -> None:
        if not self.r > 1.0:
            raise ValueError(f"r={self.r} must be > 1")
        if not self.xi > 0.0:
            raise ValueError(f"xi={self.xi} must be > 0")


class CurvatureTable(NamedTuple):
    """Per-interval estimates for the current trial set, as a named tuple.

    Entry p of each list describes the interval between trials p and p+1.
    """

    v: tuple[float, ...]
    gaps: tuple[float, ...]
    m_global: float
    lam: tuple[float, ...]
    gamma: tuple[float, ...]
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


def table_from(v: Sequence[float], gaps: Sequence[float],
               params: EstimationParams) -> CurvatureTable:
    """Bounds m from the estimates v and the widths `gaps` of the intervals,
    entry p of each describing the interval between trials p and p+1.

    lambda_p is the largest v over intervals p-1 .. p+1, gamma_p the global
    estimate max(v) scaled by the width relative to the widest interval.
    """
    m_global = max(v)
    x_max = max(gaps)
    # Each v with its left and right neighbours; at the two ends the missing
    # neighbour is the end value itself, which leaves the maximum unchanged.
    lam = list(map(max, v[:1] + v[:-1], v, v[1:] + v[-1:]))
    gamma = [m_global * gap / x_max for gap in gaps]
    m = [params.r * bound for bound in map(max, lam, gamma, repeat(params.xi))]
    return CurvatureTable(v=tuple(v), gaps=tuple(gaps), m_global=m_global, lam=tuple(lam),
                          gamma=tuple(gamma), m=tuple(m))


def bounds_from(v: Sequence[float], gaps: Sequence[float],
                params: EstimationParams) -> tuple[float, ...]:
    """The bounds m of `table_from(v, gaps, params)`, equal to them with `==`,
    from one pass over the intervals.

    lambda_p is found by comparing v_p with its two neighbours, gamma_p is
    computed as m_global * gap / x_max in that order, and m_p is r times the
    largest of lambda_p, gamma_p and xi: the same operations on the same
    values as in `table_from`.  v and gaps are two lists or two tuples of
    the same length, at least 1.
    """
    r, xi = params.r, params.xi
    m_global = max(v)
    x_max = max(gaps)
    m = []
    append = m.append
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
        append(r * lam)
        left = mid
    return tuple(m)


def build_curvature_table(trials: Sequence["Trial"], params: EstimationParams) -> CurvatureTable:
    """Compute v, lambda, gamma and the final bounds m for every interval.

    trials must be at least two, strictly increasing in x.  Everything is
    computed from scratch: the adaptive search calls this once, on its first
    step, and from then on updates v and the widths next to each new trial and
    calls `bounds_from`; the tests use it as the reference for those updates.
    """
    n = len(trials)
    if n < 2:
        raise ValueError("need at least two trials")
    v = [interval_curvature(trials[p], trials[p + 1]) for p in range(n - 1)]
    gaps = [trials[p + 1].x - trials[p].x for p in range(n - 1)]
    return table_from(v, gaps, params)
