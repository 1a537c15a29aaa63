"""Shared generators, reference formulas and property checks used by the unit
and acceptance tests."""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

import numpy as np

from firstroot import (
    EstimationParams,
    IntervalData,
    Trial,
    build_curvature_table,
    build_support,
    registry,
)


def effective_points(trials) -> tuple[int, float]:
    """Count k of trials up to and including the first negative value (all of
    them when none is negative), and the right margin b_n = x_k: the effective
    set that the solver keeps in state.k and state.b_n."""
    k = len(trials)
    for i in range(1, len(trials)):
        if trials[i].z < 0.0:
            k = i + 1
            break
    return k, trials[k - 1].x


class ReferenceTable(NamedTuple):
    """Every column of the adaptive bound formula: entry p of each list
    describes the interval between trials p and p+1."""

    v: tuple[float, ...]
    gaps: tuple[float, ...]
    m_global: float
    lam: tuple[float, ...]
    gamma: tuple[float, ...]
    m: tuple[float, ...]


def table_from(v, gaps, params) -> ReferenceTable:
    """The adaptive bounds m_p = r * max(lambda_p, gamma_p, xi), written
    column by column: the reference that `curvature.bounds_from` must equal
    with `==`.

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
    return ReferenceTable(v=tuple(v), gaps=tuple(gaps), m_global=m_global, lam=tuple(lam),
                          gamma=tuple(gamma), m=tuple(m))


def data_scale(data) -> float:
    """Magnitude scale of an IntervalData, for relative tolerances on it."""
    w = data.width
    return max(1.0, abs(data.z_left), abs(data.z_right),
               abs(data.dz_left) * w, abs(data.dz_right) * w)


def piece_values(sf, x):
    """Evaluate all three quadratic pieces at x, independently of the piece
    selection logic (oracle side of the C1-gluing check)."""
    d = sf.data
    p1 = d.z_left + d.dz_left * (x - d.x_left) - 0.5 * d.m * (x - d.x_left) ** 2
    p2 = 0.5 * d.m * x * x + sf.b * x + sf.c
    p3 = d.z_right - d.dz_right * (d.x_right - x) - 0.5 * d.m * (d.x_right - x) ** 2
    return p1, p2, p3


def piece_slopes(sf, x):
    d = sf.data
    s1 = d.dz_left - d.m * (x - d.x_left)
    s2 = d.m * x + sf.b
    s3 = d.dz_right + d.m * (d.x_right - x)
    return s1, s2, s3


def random_interval_data(rng: np.random.Generator) -> IntervalData:
    """Endpoint data of a random smooth function (quadratic plus sinusoid)
    with a curvature bound strictly above its true second-derivative bound,
    so the minorant construction is always well posed."""
    alpha = float(rng.normal(0.0, 5.0))
    beta = float(rng.normal(0.0, 5.0))
    gamma = float(rng.normal(0.0, 3.0))
    amp = float(10.0 ** rng.uniform(-3, 1))
    freq = float(10.0 ** rng.uniform(-1, 1))

    def f(x):
        return alpha + beta * x + 0.5 * gamma * x * x + amp * np.sin(freq * x)

    def df(x):
        return beta + gamma * x + amp * freq * np.cos(freq * x)

    curvature = abs(gamma) + amp * freq * freq
    x_left = float(rng.uniform(-10.0, 10.0))
    width = float(10.0 ** rng.uniform(-3, 1))
    m = (curvature + 1e-6) * float(rng.uniform(1.05, 4.0))
    x_right = x_left + width
    return IntervalData(x_left=x_left, x_right=x_right,
                        z_left=float(f(x_left)), z_right=float(f(x_right)),
                        dz_left=float(df(x_left)), dz_right=float(df(x_right)), m=m)


def interval_from_testbed(problem, rng: np.random.Generator, m_headroom: float = 1.01):
    """Interval data sampled from a registry function with a dense-grid
    overestimate of the local Lipschitz constant of f'."""
    a, b = problem.domain
    width = 10.0 ** rng.uniform(-2.5, 0.0) * (b - a) / 4.0
    x_left = rng.uniform(a, b - width)
    x_right = x_left + width
    grid = np.linspace(x_left, x_right, 2001)
    d = np.asarray(problem.df(grid), dtype=float)
    local = float(np.max(np.abs(np.diff(d)) / np.diff(grid)))
    m = m_headroom * max(local, 1e-9)
    return IntervalData(
        x_left=float(x_left), x_right=float(x_right),
        z_left=float(problem.f(x_left)), z_right=float(problem.f(x_right)),
        dz_left=float(problem.df(x_left)), dz_right=float(problem.df(x_right)),
        m=m)


def trials_from_problem(problem, xs) -> list[Trial]:
    return [Trial(x=float(x), z=float(problem.f(x)), dz=float(problem.df(x)), birth=i)
            for i, x in enumerate(sorted(xs))]


def check_endpoint_interpolation(sf, rel_tol=1e-12):
    d = sf.data
    scale = data_scale(d)
    p1l, _, _ = piece_values(sf, d.x_left)
    _, _, p3r = piece_values(sf, d.x_right)
    s1l, _, _ = piece_slopes(sf, d.x_left)
    _, _, s3r = piece_slopes(sf, d.x_right)
    errs = (abs(p1l - d.z_left), abs(p3r - d.z_right),
            abs(s1l - d.dz_left) * d.width, abs(s3r - d.dz_right) * d.width)
    return max(errs) <= rel_tol * scale, max(errs) / scale


def check_c1_gluing(sf, rel_tol=1e-9):
    d = sf.data
    scale = data_scale(d)
    worst = 0.0
    for knot, pair in ((sf.y_prime, (0, 1)), (sf.y, (1, 2))):
        vals = piece_values(sf, knot)
        slopes = piece_slopes(sf, knot)
        worst = max(worst,
                    abs(vals[pair[0]] - vals[pair[1]]),
                    abs(slopes[pair[0]] - slopes[pair[1]]) * d.width)
    return worst <= rel_tol * scale, worst / scale


def eq22_supports(problem, rng: np.random.Generator, n_points: int = 12):
    """Supports over a random trial set with bounds from the adaptive table."""
    a, b = problem.domain
    xs = np.sort(np.concatenate([[a, b], rng.uniform(a, b, size=n_points - 2)]))
    trials = trials_from_problem(problem, xs)
    table = build_curvature_table(trials, EstimationParams())
    out = []
    for p in range(len(trials) - 1):
        lo, hi = trials[p], trials[p + 1]
        out.append(build_support(IntervalData(
            x_left=lo.x, x_right=hi.x, z_left=lo.z, z_right=hi.z,
            dz_left=lo.dz, dz_right=hi.dz, m=table.m[p])))
    return out
