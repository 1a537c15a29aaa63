"""Built-in problems: a 20-function benchmark suite on [0.2, 7] and two
analog-filter cutoff-frequency applications, whose circuits have fixed
component values (module constants).

Every objective and derivative accepts a float or an ndarray (numpy ufunc
style); the solver evaluates them pointwise and the grid scan vectorized
through `on_mesh`, which also accepts a scalar result for an array.  The
one-off scans, the dense-grid oracles `find_fmax` and
`exact_lipschitz_oracle`, never hold a whole mesh (see _MESH_BLOCK).

The filter models.  Each filter objective is built from P(omega) =
|H(j omega)|^2, which is rational in omega, and from its exact derivative P'.
Both are written once, in plain `*`, `+`, `-` and `/`, which are correctly
rounded on a Python float, an np.float64 and an ndarray alike: the one
formula gives the same bits on each, a scalar (converted to a float) gives a
float and an ndarray an ndarray of its shape.  Every square or cube of a
variable is a product (`w * w`, `z1 * z1`), never `**` or `np.power`: a
float's `**` raises OverflowError where `*` gives inf.  The transfer functions
|H| are the square roots of P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, UnknownProblem

__all__ = [
    "Problem",
    "FILTERS",
    "registry",
    "get_problem",
    "all_ids",
    "chebyshev_power",
    "chebyshev_dpower",
    "chebyshev_transfer",
    "passband_power",
    "passband_dpower",
    "passband_transfer",
    "find_fmax",
    "cutoff_objective",
    "on_mesh",
    "exact_lipschitz_oracle",
    "curvature_bound",
]


@dataclass(frozen=True)
class Problem:
    """An objective f with derivative df on a finite, non-empty [a, b].

    reference_frl is the known first root from the left (None when f has no
    root), root_count the catalog's number of roots in [a, b] counted with
    multiplicity (None when f has none), and lipschitz_K an optional
    externally supplied bound on the Lipschitz constant of df.
    """

    id: str
    name: str
    a: float
    b: float
    f: Callable = field(repr=False)
    df: Callable = field(repr=False)
    reference_frl: float | None = None
    root_count: int | None = None
    lipschitz_K: float | None = None

    def __post_init__(self) -> None:
        # the solvers report the domain's ends as points: keep them floats
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not -math.inf < self.a < self.b < math.inf:
            raise ValueError(f"domain [{self.a}, {self.b}] must be finite and non-empty")

    @property
    def domain(self) -> tuple[float, float]:
        return (self.a, self.b)


def _piecewise(x, x0, left, right):
    """left(x) where x <= x0, else right(x).  Each side is evaluated only on
    its own points: an ndarray gives left the points at or below x0 and
    right the rest, and a scalar evaluates only the side it falls on, so a
    float or a 0-d array gives an np.float64 scalar, not a 0-d array."""
    below = x <= x0
    if isinstance(below, np.ndarray):
        out = np.empty(below.shape)
        out[below] = left(x[below])
        above = ~below
        out[above] = right(x[above])
        return out
    return left(x) if below else right(x)


def _f12(x):
    return _piecewise(x, np.pi, lambda x: np.sin(5 * x) + 2.0, lambda x: 5 * np.sin(x) + 2.0)


def _df12(x):
    return _piecewise(x, np.pi, lambda x: 5 * np.cos(5 * x), lambda x: 5 * np.cos(x))


# t14 spelled out term by term, k = 1..5, summed in the catalog's order: the
# k = 0 term of the catalog's sum is zero, in f and f'
def _f14(x):
    return (np.cos(2 * x + 1) + 2 * np.cos(3 * x + 2) + 3 * np.cos(4 * x + 3)
            + 4 * np.cos(5 * x + 4) + 5 * np.cos(6 * x + 5) + 12.0)


def _df14(x):
    return -(2 * np.sin(2 * x + 1) + 6 * np.sin(3 * x + 2) + 12 * np.sin(4 * x + 3)
             + 20 * np.sin(5 * x + 4) + 30 * np.sin(6 * x + 5))


# id, expression, f, df, FRL, roots
_TESTBED = [
    ("t01", "-0.5*x^2*ln(x) + 5",
     lambda x: -0.5 * x**2 * np.log(x) + 5.0,
     lambda x: -x * np.log(x) - 0.5 * x,
     3.0117, 1),
    ("t02", "-exp(-x)*sin(2*pi*x) + 1",
     lambda x: -np.exp(-x) * np.sin(2 * np.pi * x) + 1.0,
     lambda x: np.exp(-x) * (np.sin(2 * np.pi * x) - 2 * np.pi * np.cos(2 * np.pi * x)),
     None, None),
    ("t03", "-sqrt(x)*sin(x) + 1",
     lambda x: -np.sqrt(x) * np.sin(x) + 1.0,
     lambda x: -np.sin(x) / (2 * np.sqrt(x)) - np.sqrt(x) * np.cos(x),
     1.17479, 3),
    ("t04", "x*sin(x) + sin(10*x/3) + ln(x) - 0.84*x + 1.3",
     lambda x: x * np.sin(x) + np.sin(10 * x / 3.0) + np.log(x) - 0.84 * x + 1.3,
     lambda x: np.sin(x) + x * np.cos(x) + (10.0 / 3.0) * np.cos(10 * x / 3.0) + 1.0 / x - 0.84,
     2.96091, 2),
    ("t05", "x + sin(5*x)",
     lambda x: x + np.sin(5 * x),
     lambda x: 1.0 + 5 * np.cos(5 * x),
     0.82092, 2),
    ("t06", "-x*sin(x) + 5",
     lambda x: -x * np.sin(x) + 5.0,
     lambda x: -np.sin(x) - x * np.cos(x),
     None, None),
    ("t07", "sin(x)*cos(x) - 1.5*sin(x)^2 + 1.2",
     lambda x: np.sin(x) * np.cos(x) - 1.5 * np.sin(x)**2 + 1.2,
     lambda x: np.cos(2 * x) - 1.5 * np.sin(2 * x),
     1.34075, 4),
    ("t08", "2*cos(x) + cos(2*x) + 5",
     lambda x: 2 * np.cos(x) + np.cos(2 * x) + 5.0,
     lambda x: -2 * np.sin(x) - 2 * np.sin(2 * x),
     None, None),
    ("t09", "2*sin(x)*exp(-x)",
     lambda x: 2 * np.sin(x) * np.exp(-x),
     lambda x: 2 * np.exp(-x) * (np.cos(x) - np.sin(x)),
     3.1416, 2),
    ("t10", "(3*x - 1.4)*sin(18*x) + 1.7",
     lambda x: (3 * x - 1.4) * np.sin(18 * x) + 1.7,
     lambda x: 3 * np.sin(18 * x) + 18 * (3 * x - 1.4) * np.cos(18 * x),
     1.26554, 34),
    ("t11", "(x + 1)^3/x^2 - 7.1",
     lambda x: (x + 1)**3 / x**2 - 7.1,
     lambda x: 3 * (x + 1)**2 / x**2 - 2 * (x + 1)**3 / x**3,
     1.36465, 2),
    ("t12", "sin(5*x) + 2 if x <= pi else 5*sin(x) + 2", _f12, _df12, 3.55311, 2),
    ("t13", "exp(sin(3*x))",
     lambda x: np.exp(np.sin(3 * x)),
     lambda x: 3 * np.cos(3 * x) * np.exp(np.sin(3 * x)),
     None, None),
    ("t14", "sum_{k=0..5} k*cos((k+1)*x + k) + 12", _f14, _df14, 4.78308, 2),
    ("t15", "2*(x - 3)^2 - exp(x/2) + 5",
     lambda x: 2 * (x - 3)**2 - np.exp(0.5 * x) + 5.0,
     lambda x: 4 * (x - 3) - 0.5 * np.exp(0.5 * x),
     3.281119, 2),
    ("t16", "-exp(sin(x)) + 4",
     lambda x: -np.exp(np.sin(x)) + 4.0,
     lambda x: -np.cos(x) * np.exp(np.sin(x)),
     None, None),
    # roots pi and 2*pi, each of multiplicity two: f touches zero there
    ("t17", "sqrt(x)*sin(x)^2",
     lambda x: np.sqrt(x) * np.sin(x)**2,
     lambda x: np.sin(x)**2 / (2 * np.sqrt(x)) + 2 * np.sqrt(x) * np.sin(x) * np.cos(x),
     3.141128, 4),
    ("t18", "cos(x) - sin(5*x) + 1",
     lambda x: np.cos(x) - np.sin(5 * x) + 1.0,
     lambda x: -np.sin(x) - 5 * np.cos(5 * x),
     1.57079, 6),
    # the catalog's 3 roots are one: f changes sign once on [0.2, 7]
    ("t19", "-x - sin(3*x) + 1.6",
     lambda x: -x - np.sin(3 * x) + 1.6,
     lambda x: -1.0 - 3 * np.cos(3 * x),
     1.96857, 3),
    ("t20", "cos(x) + 2*cos(2*x)*exp(-x)",
     lambda x: np.cos(x) + 2 * np.cos(2 * x) * np.exp(-x),
     lambda x: -np.sin(x) - 2 * np.exp(-x) * (2 * np.sin(2 * x) + np.cos(2 * x)),
     1.14071, 2),
]

TESTBED_DOMAIN = (0.2, 7.0)


# id -> Problem: the 20 benchmark functions, built once; each filter problem
# joins on its first lookup (see `get_problem`)
_CATALOG = {pid: Problem(id=pid, name=name, a=TESTBED_DOMAIN[0], b=TESTBED_DOMAIN[1], f=f, df=df,
                         reference_frl=frl, root_count=roots)
            for pid, name, f, df, frl, roots in _TESTBED}


def registry() -> list[Problem]:
    """The 20 benchmark functions on [0.2, 7]."""
    return [p for p in _CATALOG.values() if p.id not in FILTERS]


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

# Component values of the third-order lowpass ladder (ohm, farad, henry)
_R, _C, _L = 1.0, 4.0, 2.0
# and of the bandpass circuit
_R1, _R2, _L1, _L2, _C1, _C2 = 3108.0, 477.0, 40e-3, 350e-2, 1e-6, 0.1e-6
# The coefficients of omega^2 in the ladder's 1 / P (see `_chebyshev_ab`)
_RC2, _LC, _LR2 = (_R * _C) ** 2, _L * _C, (_L / _R) ** 2

# From omega of about 1e51 on, both filters' P underflows to 0.0 and P' to
# +-0.0; from about 1e61 on, P' is inf / inf = NaN, and from about 1e154 on
# so is passband's P.  So an omega above the cap, up to inf, is evaluated at
# the cap, where P and P' are 0.0.
_OMEGA_CAP = 1e55

# Search windows bracketing the published cutoffs with a positive objective at
# the left margin; the transfer functions decay toward both window edges.
CHEBYSHEV_DOMAIN = (1e-3, 2.0)
PASSBAND_DOMAIN = (1.0, 1e4)
_FMAX_GRID = 1_000_000
_ORACLE_GRID = 200_000
# Points per block of the dense oracle scans.  A block of float64 is 64 KiB,
# under glibc's default 128 KiB mmap threshold, so each block's temporaries
# reuse freed heap chunks rather than being mapped and unmapped on every
# block, as those of larger blocks are; at this size the per-block Python
# overhead still does not show.  A freed whole mesh would instead raise that
# threshold and leave the next mesh of its size resident for the process.
_MESH_BLOCK = 8_192


def _mesh_slice(lo: float, hi: float, n: int, start: int, stop: int) -> np.ndarray:
    """`np.linspace(lo, hi, n)[start:stop]` bit for bit, for n >= 2 and
    0 <= start < min(stop, n), without building the rest of the mesh; a stop
    past the end is clamped to n, as a slice is.

    Each point is formed as linspace forms it: the index as a float, times the
    step (hi - lo) / (n - 1), plus lo, and the last point of the mesh is hi
    itself.  A step that underflows to 0 takes linspace's branch for it:
    index / (n - 1) * (hi - lo).
    """
    lo, hi, stop = float(lo), float(hi), min(stop, n)
    div = n - 1
    delta = hi - lo
    step = delta / div
    y = np.arange(start, stop, dtype=float)
    if step == 0:
        y /= div
        y *= delta
    else:
        y *= step
    y += lo
    if stop == n:
        y[-1] = hi
    return y


def _omega(omega):
    """omega, capped at _OMEGA_CAP, as a Python float when it is a scalar or a
    0-d array, else as an array (of floats, or of complex numbers for a
    complex-step derivative)."""
    if isinstance(omega, np.ndarray) and omega.ndim:
        return np.minimum(omega, _OMEGA_CAP)
    return min(float(omega), _OMEGA_CAP)


def _sqrt(p):
    """The correctly rounded square root of a float or of an ndarray."""
    return np.sqrt(p) if isinstance(p, np.ndarray) else math.sqrt(p)


def _chebyshev_ab(omega):
    """omega as `_omega` gives it, c = 2 - LC omega^2, and the factors
    a = 1 + (RC omega)^2 and b = c^2 + (L omega / R)^2 of the lowpass
    ladder's 1 / P."""
    w = _omega(omega)
    w2 = w * w
    c = 2.0 - _LC * w2
    return w, c, 1.0 + _RC2 * w2, c * c + _LR2 * w2


def chebyshev_power(omega):
    """P = |Vout/Vin|^2 = 1 / (a b) of the lowpass ladder at angular frequency
    omega >= 0."""
    _, _, a, b = _chebyshev_ab(omega)
    return 1.0 / (a * b)


def chebyshev_dpower(omega):
    """dP/domega of the lowpass ladder, by the product rule:
    -(a' b + a b') / (a b)^2."""
    w, c, a, b = _chebyshev_ab(omega)
    ab = a * b
    return -2.0 * w * (_RC2 * b + (_LR2 - 2.0 * _LC * c) * a) / (ab * ab)


def chebyshev_transfer(omega):
    """|Vout/Vin| of the lowpass ladder at angular frequency omega >= 0."""
    return _sqrt(chebyshev_power(omega))


def _passband_parts(omega):
    """omega as `_omega` gives it, and z1, z2, u, z3, s = z1^2 + z2^2 and
    P = (omega L1 R1)^2 / (s^2 z3) of the bandpass circuit, where
    z3 = (omega L1)^2 + u^2.  An omega <= 0 anywhere raises DomainError."""
    w = _omega(omega)
    if (w <= 0.0).any() if isinstance(w, np.ndarray) else w <= 0.0:
        raise DomainError("passband transfer function requires omega > 0")
    z1 = (-w * w * w * _R1 * _L1 * _L2 + w * _R1 * _L2 + w * _R1 * _L1 * _C1 / _C2
          - _R1 / (w * _C2) + 2 * w * _L1 * _R1 + w * _L1 * _R2)
    z2 = (w * w * _L1 * _L2 + w * w * _R1 * _R2 * _L1 * _C1
          - _R1 * _R2 - _L1 / _C2)
    u = w * w * _R1 * _L1 * _C1 - _R1
    wl = w * _L1
    z3 = wl * wl + u * u
    s = z1 * z1 + z2 * z2
    n = wl * _R1
    return w, z1, z2, u, z3, s, n * n / (s * s * z3)


def passband_power(omega):
    """P = |Vout/Iin|^2 of the bandpass circuit at angular frequency
    omega > 0."""
    return _passband_parts(omega)[-1]


def passband_dpower(omega):
    """dP/domega of the bandpass circuit, by logarithmic differentiation:
    P (2/omega - 4 (z1 z1' + z2 z2') / s - z3' / z3)."""
    w, z1, z2, u, z3, s, p = _passband_parts(omega)
    dz1 = (-3.0 * w * w * _R1 * _L1 * _L2 + _R1 * _L2 + _R1 * _L1 * _C1 / _C2
           + _R1 / (w * w * _C2) + 2 * _L1 * _R1 + _L1 * _R2)
    dz2 = 2.0 * w * (_L1 * _L2 + _R1 * _R2 * _L1 * _C1)
    dz3 = 2.0 * w * (_L1 * _L1 + 2.0 * u * _R1 * _L1 * _C1)
    return p * (2.0 / w - 4.0 * (z1 * dz1 + z2 * dz2) / s - dz3 / z3)


def passband_transfer(omega):
    """|Vout/Iin| of the bandpass circuit at angular frequency omega > 0; an
    omega <= 0 anywhere raises DomainError."""
    return _sqrt(passband_power(omega))


def find_fmax(transfer: Callable, omega_range: tuple[float, float]) -> tuple[float, float]:
    """Maximum of a transfer function over [lo, hi]: a scan of _FMAX_GRID
    points followed by golden-section refinement around the best bracket.

    The scan generates one _MESH_BLOCK-point slice of the mesh at a time,
    evaluates the transfer function on it and keeps a running argmax; the
    bracket (the grid point and its two neighbours) is generated the same
    way, so no array holds the whole mesh.  The result equals that of one
    argmax over the whole mesh bit for bit.  Returns (F_max, argmax); ties on
    the grid resolve to the leftmost point, a NaN on the grid wins at its
    first index as under `np.argmax`, and the grid point is kept when
    refinement finds nothing strictly better.
    """
    lo, hi = omega_range
    if not lo < hi:
        raise ValueError("omega_range must satisfy lo < hi")
    i, best = 0, -math.inf
    for s in range(0, _FMAX_GRID, _MESH_BLOCK):
        vals = on_mesh(transfer, _mesh_slice(lo, hi, _FMAX_GRID, s, s + _MESH_BLOCK))
        j = int(vals.argmax())
        if math.isnan(vals[j]):
            i, best = s + j, vals[j]
            break
        if vals[j] > best:
            i, best = s + j, vals[j]
    # the grid point and its neighbours on the mesh
    first = max(i - 1, 0)
    near = _mesh_slice(lo, hi, _FMAX_GRID, first, i + 2)
    a, w_i, b = near[0], near[i - first], near[-1]
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
    if f_ref > best:
        return f_ref, x_ref
    return float(best), float(w_i)


def cutoff_objective(power: Callable, dpower: Callable, f_max: float, negate: bool, *,
                     pid: str = "cutoff", name: str = "cutoff objective",
                     domain: tuple[float, float] = (1e-3, 1.0)) -> Problem:
    """The half-power crossing problem of a squared transfer function P with
    derivative dpower: f(omega) = +-(P(omega) - 0.5*F_max^2), f' = +-P'."""
    if not f_max > 0.0:
        raise ValueError("f_max must be positive")
    sign = -1.0 if negate else 1.0
    half = 0.5 * f_max * f_max
    return Problem(id=pid, name=name, a=domain[0], b=domain[1],
                   f=lambda omega: sign * (power(omega) - half),
                   df=lambda omega: sign * dpower(omega))


def on_mesh(fn: Callable, x: np.ndarray) -> np.ndarray:
    """fn evaluated on the array x in one vectorized call, as a float array of
    x's shape.  A result of x's shape is returned as fn gave it (converted to
    float); any other, such as the scalar of a constant derivative written
    `lambda x: -1.0`, is broadcast to every point as a read-only view."""
    y = np.asarray(fn(x), dtype=float)
    return y if y.shape == x.shape else np.broadcast_to(y, x.shape)


def exact_lipschitz_oracle(problem: Problem) -> float:
    """Reconstructed bound on the Lipschitz constant of df: the largest
    derivative difference quotient over a uniform grid of _ORACLE_GRID
    points, with 1% headroom.

    The grid is walked in blocks of _MESH_BLOCK quotients that share their
    boundary point; each block's _MESH_BLOCK + 1 points are generated on their
    own, equal to those of the whole mesh.  So every quotient is formed once
    from the same two mesh values, and the result equals that of one pass over
    the whole mesh bit for bit; a NaN quotient makes the bound NaN.
    """
    peaks = []
    for s in range(0, _ORACLE_GRID - 1, _MESH_BLOCK):
        xs = _mesh_slice(problem.a, problem.b, _ORACLE_GRID, s, s + _MESH_BLOCK + 1)
        peaks.append((np.abs(np.diff(on_mesh(problem.df, xs))) / np.diff(xs)).max())
    return 1.01 * float(np.max(peaks))


def curvature_bound(problem: Problem) -> float:
    """The a1 bound K of a problem: its supplied lipschitz_K, else the
    dense-grid oracle."""
    if problem.lipschitz_K is not None:
        return problem.lipschitz_K
    return exact_lipschitz_oracle(problem)


# ---------------------------------------------------------------------------
# Lookup
# ---------------------------------------------------------------------------

# id -> (name, (P, P'), search window, negate the objective)
FILTERS = {
    "chebyshev": ("lowpass ladder cutoff", (chebyshev_power, chebyshev_dpower),
                  CHEBYSHEV_DOMAIN, False),
    "passband": ("bandpass lower cutoff", (passband_power, passband_dpower),
                 PASSBAND_DOMAIN, True),
}


def get_problem(pid: str) -> Problem:
    """Look up a problem by identifier (t01..t20, chebyshev, passband).

    A filter problem computes its F_max, the square root of P's maximum over
    its window, on first use and is kept in the catalog for the process
    lifetime.
    """
    if pid not in _CATALOG:
        if pid not in FILTERS:
            raise UnknownProblem(f"no problem named {pid!r}")
        name, (power, dpower), domain, negate = FILTERS[pid]
        p_max, _ = find_fmax(power, domain)
        _CATALOG[pid] = cutoff_objective(power, dpower, math.sqrt(p_max), negate=negate,
                                         pid=pid, name=name, domain=domain)
    return _CATALOG[pid]


def all_ids() -> list[str]:
    return [p.id for p in registry()] + list(FILTERS)
