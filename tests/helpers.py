"""Shared generators, reference formulas and property checks used by the unit
and acceptance tests."""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from firstroot import EstimationParams, NumericalDiscriminant, Problem, Trial
from firstroot.curvature import build_curvature_table
from firstroot.problems import _FMAX_GRID, _ORACLE_GRID, on_mesh
from firstroot.support import IntervalData, SupportFunction, _derive, build_support


# The paper's trials per solve on t01-t20, in problem order, by method.  The a1
# column averages exactly 22.55 and the a2 column 15.60.
PUBLISHED_TRIALS = {
    "grid": (4135, 10000, 1295, 4060, 5470, 10000, 1678, 10000, 4326, 1567,
             1713, 4931, 10000, 6740, 4531, 10000, 4325, 2016, 2601, 7413),
    "a1": (5, 31, 6, 12, 7, 10, 5, 36, 15, 55, 69, 13, 99, 23, 9, 7, 20, 11, 12, 6),
    "a2": (5, 34, 5, 7, 11, 9, 6, 24, 10, 12, 60, 6, 39, 18, 9, 12, 17, 10, 12, 6),
}


def published_trials(problem_id: str, method: str) -> int:
    """The paper's trial count for test function t01-t20 under `method`."""
    return PUBLISHED_TRIALS[method][int(problem_id[1:]) - 1]


def effective_points(trials) -> tuple[int, float]:
    """Count k of trials up to and including the first negative value (all of
    them when none is negative), and the right margin b_n = x_k: the effective
    set that a SearchState derives from its trials as state.k and state.b_n."""
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
    column by column: the reference that the bounds `curvature.iter_bounds`
    yields must equal with `==`.

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


# The crossing of each minorant piece as three hand-written root formulas, one
# per piece, with the discriminant clamp of their time: the references that
# `support.leftmost_zero`'s crossings must equal with `==`.  They read the
# interval data, the knot y' and the vertex of `s` and nothing else.

_DISC_SLACK = 1e-12


def _clamped_sqrt(disc: float, scale: float) -> float:
    if disc < 0.0:
        if disc < -_DISC_SLACK * scale:
            raise NumericalDiscriminant(f"discriminant {disc} below -{_DISC_SLACK}*{scale}")
        disc = 0.0
    return math.sqrt(disc)


def right_root_left_cap(s: SupportFunction) -> float:
    # Larger root of z_left + dz_left*u - 0.5*m*u^2 = 0, u = x - x_left,
    # written to avoid cancellation for either sign of dz_left.  The
    # discriminant and the root are clamped as _clamped_sqrt and _clamp do.
    x_left, x_right, z_left, _, dz_left, _, m = s.data
    disc = dz_left ** 2 + 2.0 * m * z_left
    if disc < 0.0:
        scale = max(1.0, dz_left ** 2, 2.0 * m * abs(z_left))
        if disc < -_DISC_SLACK * scale:
            raise NumericalDiscriminant(f"discriminant {disc} below -{_DISC_SLACK}*{scale}")
        disc = 0.0
    root = math.sqrt(disc)
    if dz_left > 0.0:
        u = (dz_left + root) / m
    else:
        denom = root - dz_left
        u = 2.0 * z_left / denom if denom > 0.0 else 0.0
    x = x_left + u
    x = x_left if x_left > x else x
    return x_right if x_right < x else x


def right_root_right_cap(s: SupportFunction) -> float:
    # Smaller root in w = x_right - x of z_right - dz_right*w - 0.5*m*w^2 = 0,
    # i.e. the zero closest to x_right from the left.
    d = s.data
    disc = d.dz_right ** 2 + 2.0 * d.m * d.z_right
    root = _clamped_sqrt(disc, max(1.0, d.dz_right ** 2, 2.0 * d.m * abs(d.z_right)))
    if d.dz_right < 0.0:
        w = 2.0 * d.z_right / (d.dz_right - root)
    else:
        w = (-d.dz_right - root) / d.m
    return min(max(d.x_right - w, d.x_left), d.x_right)


def left_root_middle(s: SupportFunction) -> float:
    # Smaller root in t = x - y' of c + b*t + 0.5*m*t^2 = 0, the middle piece
    # with its value c and slope b at y'.
    d = s.data
    c = piece_values(s, s.y_prime)[0]
    b = d.m * (s.y_prime - s.vertex)
    disc = b ** 2 - 2.0 * d.m * c
    root = _clamped_sqrt(disc, max(1.0, b ** 2, 2.0 * d.m * abs(c)))
    if b <= 0.0:
        denom = -b + root
        t = 2.0 * c / denom if denom > 0.0 else 0.0
    else:
        t = (-b - root) / d.m
    return min(max(s.y_prime + t, d.x_left), d.x_right)


def central_difference(f, x: np.ndarray) -> np.ndarray:
    """The central-difference derivative of f on the array x, with step
    h = cbrt(eps) * max(1, |x|): the reference for analytic derivatives."""
    h = float(np.finfo(float).eps) ** (1.0 / 3.0) * np.maximum(1.0, np.abs(x))
    xp, xm = x + h, x - h
    return (f(xp) - f(xm)) / (xp - xm)


def one_shot_lipschitz(problem) -> float:
    """The dense-grid K as one pass over the whole mesh: the reference that the
    block-wise `exact_lipschitz_oracle` must equal with `==`."""
    x = np.linspace(problem.a, problem.b, _ORACLE_GRID)
    d = on_mesh(problem.df, x)
    return 1.01 * float(np.max(np.abs(np.diff(d)) / np.diff(x)))


def one_shot_fmax(transfer, omega_range) -> tuple[float, float]:
    """F_max and its argmax from one argmax over the whole mesh, then the same
    golden-section refinement: the reference that the block-wise `find_fmax`
    must equal bit for bit."""
    lo, hi = omega_range
    w = np.linspace(lo, hi, _FMAX_GRID)
    vals = np.asarray(transfer(w), dtype=float)
    i = int(np.argmax(vals))
    a = w[max(i - 1, 0)]
    b = w[min(i + 1, _FMAX_GRID - 1)]
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1 = float(transfer(x1))
    f2 = float(transfer(x2))
    tol = 1e-10 * max(1.0, abs(hi))
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = float(transfer(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = float(transfer(x1))
    x_ref = 0.5 * (a + b)
    f_ref = float(transfer(x_ref))
    if f_ref > vals[i]:
        return f_ref, x_ref
    return float(vals[i]), float(w[i])


def cosines_problem(f0, amps, freqs, phases, drift, length):
    """f(x) = f0 + sum_j a_j (cos(w_j x + phi_j) - cos(phi_j)) on [0, length],
    minus drift * max(0, x - 0.8 * length)**2: f(0) = f0 > 0; rootless when
    f0 exceeds twice the sum of the amplitudes and drift is 0, with several
    negative dips when f0 is small, and with a late root when only the drift
    reaches below zero."""
    a, w, phi = (np.asarray(v, dtype=float) for v in (amps, freqs, phases))
    x0 = 0.8 * length

    def f(x):
        x = np.asarray(x, dtype=float)
        u = np.maximum(x - x0, 0.0)
        waves = a * (np.cos(w * x[..., None] + phi) - np.cos(phi))
        return f0 + waves.sum(axis=-1) - drift * u * u

    def df(x):
        x = np.asarray(x, dtype=float)
        u = np.maximum(x - x0, 0.0)
        return -(a * w * np.sin(w * x[..., None] + phi)).sum(axis=-1) - 2.0 * drift * u

    return Problem(id="cos", name="sum of cosines", a=0.0, b=length, f=f, df=df)


def deep_problems(seed: int) -> list[Problem]:
    """The 20 objectives of the benchmark's deep workload for `seed`, 55 to 70
    trials per solve: f(x) = c + sum_j a_j cos(w_j x + phi_j) on [0, 50], with
    a = (1, 0.6, 0.3), w = (1, 1.7, 2.9) and c = sum_j a_j + 0.3, so f stays
    positive.  Objectives alternate between rootless and late-root ones, which
    subtract s * max(0, x - 45)**2 with s = (c + sum_j a_j) / 2.5**2 and so
    reach their first root in the last tenth of the domain.  The seed draws
    only the phases phi_j, three per objective from
    `np.random.default_rng(seed)`, uniform on [0, 2 pi)."""
    amps, freqs, length = (1.0, 0.6, 0.3), (1.0, 1.7, 2.9), 50.0
    c = sum(amps) + 0.3
    rng = np.random.default_rng(seed)

    def deep(pid, late):
        (a1, a2, a3), (w1, w2, w3) = amps, freqs
        p1, p2, p3 = (float(p) for p in rng.uniform(0.0, 2.0 * np.pi, 3))
        tail = 0.1 * length
        x0, s = (length - tail, (c + sum(amps)) / (0.5 * tail) ** 2) if late else (length, 0.0)

        def f(x):
            u = np.maximum(x - x0, 0.0)
            return (c + a1 * np.cos(w1 * x + p1) + a2 * np.cos(w2 * x + p2)
                    + a3 * np.cos(w3 * x + p3) - s * u * u)

        def df(x):
            u = np.maximum(x - x0, 0.0)
            return -(a1 * w1 * np.sin(w1 * x + p1) + a2 * w2 * np.sin(w2 * x + p2)
                     + a3 * w3 * np.sin(w3 * x + p3) + 2.0 * s * u)

        return Problem(id=pid, name="deep sum of cosines", a=0.0, b=length, f=f, df=df)

    return [deep(f"deep{i:02d}", late=i % 2 == 1) for i in range(20)]


def data_scale(data) -> float:
    """Magnitude scale of an IntervalData, for relative tolerances on it."""
    w = data.x_right - data.x_left
    return max(1.0, abs(data.z_left), abs(data.z_right),
               abs(data.dz_left) * w, abs(data.dz_right) * w)


def x_rounding(data) -> float:
    """How far phi or f moves when x moves by an ulp of the interval's ends:
    the ulp times max|dz| + m*w, a bound on |f'| and |phi'| there.  Knots and
    vertices stored in x are rounded by half that ulp each."""
    w = data.x_right - data.x_left
    slope = max(abs(data.dz_left), abs(data.dz_right)) + data.m * w
    return math.ulp(max(abs(data.x_left), abs(data.x_right))) * slope


def piece_values(sf, x):
    """Evaluate all three quadratic pieces at x, a float or an array,
    independently of the piece selection logic (oracle side of the C1-gluing
    check).  Every square is a product, which rounds alike on a float and an
    array, where numpy squares a 0-d array with pow: so the pieces give a
    float the bits they give it inside an array, and `support._phi`, which
    writes the same terms, gives those bits too."""
    d = sf.data
    u, t = x - d.x_left, d.x_right - x
    p1 = d.z_left + d.dz_left * u - 0.5 * d.m * (u * u)
    p2 = p1 + d.m * ((x - sf.y_prime) * (x - sf.y_prime))
    p3 = d.z_right - d.dz_right * t - 0.5 * d.m * (t * t)
    return p1, p2, p3


def piece_slopes(sf, x):
    d = sf.data
    s1 = d.dz_left - d.m * (x - d.x_left)
    s2 = d.m * (x - sf.vertex)
    s3 = d.dz_right + d.m * (d.x_right - x)
    return s1, s2, s3


def _select(sf, x, pieces):
    # the piece that holds x, half-open: [x_left, y'], (y', y], (y, x_right];
    # x must lie in the interval up to 1e-12*max(1, |x_left|, |x_right|)
    d = sf.data
    slack = 1e-12 * max(1.0, abs(d.x_left), abs(d.x_right))
    xa = np.asarray(x, dtype=float)
    assert not (np.any(xa < d.x_left - slack) or np.any(xa > d.x_right + slack)), \
        f"x={x} outside [{d.x_left}, {d.x_right}]"
    p1, p2, p3 = pieces(sf, xa)
    out = np.where(xa <= sf.y_prime, p1, np.where(xa <= sf.y, p2, p3))
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def eval_support(sf, x):
    """phi at x, a float or an array inside the interval: the tests' one
    reference for the minorant's values."""
    return _select(sf, x, piece_values)


def eval_support_derivative(sf, x):
    """phi' at x (piecewise linear, continuous across the knots)."""
    return _select(sf, x, piece_slopes)


def hand_built_support(data: IntervalData, y_prime: float, y: float, vertex: float,
                       q: float) -> SupportFunction:
    """A minorant with the given knots and middle piece, x_hat and char
    derived by `support._derive` as `build_support` derives them: for knots,
    signs of zero and ties that no build of these data places."""
    assert data.x_left <= y_prime <= y <= data.x_right, (data, y_prime, y)
    return _derive(data, y_prime, y, vertex, q)


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
    w = d.x_right - d.x_left
    errs = (abs(p1l - d.z_left), abs(p3r - d.z_right),
            abs(s1l - d.dz_left) * w, abs(s3r - d.dz_right) * w)
    return max(errs) <= rel_tol * scale, max(errs) / scale


def check_c1_gluing(sf, rel_tol=1e-9, slack=0.0):
    """Values and slopes (times the width) of adjacent pieces agree at each
    knot within rel_tol times the data scale, plus `slack`.  The knots and
    the vertex are stored in x, each rounded by half an ulp of x, so far from
    zero the value gap moves by up to half an ulp times |phi'|, and the slope
    gap m*(2*y' - x_left - vertex) times w by up to three halves of an ulp
    times m*w."""
    d = sf.data
    scale = data_scale(d)
    worst = 0.0
    for knot, pair in ((sf.y_prime, (0, 1)), (sf.y, (1, 2))):
        vals = piece_values(sf, knot)
        slopes = piece_slopes(sf, knot)
        worst = max(worst,
                    abs(vals[pair[0]] - vals[pair[1]]),
                    abs(slopes[pair[0]] - slopes[pair[1]]) * (d.x_right - d.x_left))
    return worst <= rel_tol * scale + slack, worst / scale


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
