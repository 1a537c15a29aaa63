"""Built-in problems: a 20-function benchmark suite on [0.2, 7] and two
analog-filter cutoff-frequency applications, whose circuits have fixed
component values (module constants).

Every objective and derivative accepts a float or an ndarray (numpy ufunc
style); the solver evaluates them pointwise and the grid scan vectorized
through `on_mesh`, which also accepts a scalar result for an array.  The
dense-grid oracles (`find_fmax`, `exact_lipschitz_oracle`) call `on_mesh` on
one block of their mesh at a time, so their temporaries stay block-sized
while their results equal those of one pass over the whole mesh.

Scalar and array evaluation of the filter models.  A solver trial calls a
filter objective on one point, and its f' (`numeric_derivative`) calls f
twice more.  On a scalar, the transfer functions and `numeric_derivative`
compute in np.float64 scalars, not in 0-d arrays, whose every operation
costs a ufunc dispatch; an ndarray takes the same formula on the array.
The scalar path keeps the values that 0-d arrays gave, bit for bit, by four
rules:

- The square of omega is written `w * w`.  On a 0-d array (and on an
  ndarray) `w**2` is numpy's square, an exact product; on an np.float64 it
  would be libm's pow, which can differ in the last bit.
- The cube stays `np.power(w, 3)`: numpy's power loop, on a scalar as on an
  array, differs from libm's pow (Python's `**`) at about 5% of points.
- The squares of intermediates (`(w * _L1)**2`, `z1**2`, ...) keep `**2`:
  a ufunc on 0-d arrays returns np.float64 scalars, so these were libm's pow
  on the scalar path already, and `x * x` would move some values.
- omega becomes an np.float64, not a Python float: a float's `**` raises
  OverflowError where np.float64 gives inf, so a huge omega still gives 0.0.

`numeric_derivative` keeps its step h and samples f under `np.errstate` on
both paths; the objective of `cutoff_objective` squares a float transfer
value as a float.  The array path is the formula it was, so the grid scan
and the oracles compute what they did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NonFinite, UnknownProblem

__all__ = [
    "Problem",
    "FILTERS",
    "registry",
    "get_problem",
    "all_ids",
    "chebyshev_transfer",
    "passband_transfer",
    "find_fmax",
    "cutoff_objective",
    "numeric_derivative",
    "on_mesh",
    "exact_lipschitz_oracle",
    "curvature_bound",
]

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass(frozen=True)
class Problem:
    """An objective f with analytic or numeric derivative df on a finite,
    non-empty [a, b].

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


def _f14(x):  # the k = 0 term of the catalog's sum is zero, in f and f'
    return sum(k * np.cos((k + 1) * x + k) for k in range(1, 6)) + 12.0


def _df14(x):
    return -sum(k * (k + 1) * np.sin((k + 1) * x + k) for k in range(1, 6))


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
    ("t12", "sin(5*x) + 2 if x <= pi else 5*sin(x) + 2",
     lambda x: np.where(x <= np.pi, np.sin(5 * x) + 2.0, 5 * np.sin(x) + 2.0),
     lambda x: np.where(x <= np.pi, 5 * np.cos(5 * x), 5 * np.cos(x)),
     3.55311, 2),
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


def registry() -> list[Problem]:
    """The 20 benchmark functions on [0.2, 7]."""
    a, b = TESTBED_DOMAIN
    return [
        Problem(id=pid, name=name, a=a, b=b, f=f, df=df,
                reference_frl=frl, root_count=roots)
        for pid, name, f, df, frl, roots in _TESTBED
    ]


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

# Component values of the third-order lowpass ladder (ohm, farad, henry)
_R, _C, _L = 1.0, 4.0, 2.0
# and of the bandpass circuit
_R1, _R2, _L1, _L2, _C1, _C2 = 3108.0, 477.0, 40e-3, 350e-2, 1e-6, 0.1e-6

# Search windows bracketing the published cutoffs with a positive objective at
# the left margin; the transfer functions decay toward both window edges.
CHEBYSHEV_DOMAIN = (1e-3, 2.0)
PASSBAND_DOMAIN = (1.0, 1e4)
_FMAX_GRID = 1_000_000
_ORACLE_GRID = 200_000
# Points per block of the dense oracle scans: small enough that each block's
# temporaries stay in cache, large enough that the per-block Python overhead
# does not show (at 4 096 points the blocked F_max scan was no faster)
_MESH_BLOCK = 32_768


def _scalar_or_array(x):
    """x as an np.float64 when it is a scalar or a 0-d array, else as a float
    ndarray (see the module docstring for why not a Python float)."""
    if isinstance(x, (float, int)):
        return np.float64(x)
    return np.asarray(x, dtype=float)[()]


def chebyshev_transfer(omega):
    """|Vout/Vin| of the lowpass ladder at angular frequency omega >= 0.

    A scalar or 0-d omega gives a Python float, an ndarray an ndarray of its
    shape; both are evaluated by the one formula below, on an np.float64 or
    on the array.
    """
    w = _scalar_or_array(omega)
    out = (1.0 / np.sqrt(1.0 + _R**2 * _C**2 * (w * w))
           / np.sqrt((2.0 - w * w * _L * _C)**2 + w * w * _L**2 / _R**2))
    return float(out) if out.ndim == 0 else out


def passband_transfer(omega):
    """|Vout/Iin| of the bandpass circuit at angular frequency omega > 0.

    Scalars and arrays are evaluated as in `chebyshev_transfer`; an omega
    <= 0 anywhere raises DomainError.  A huge omega such as 1e200 gives 0.0:
    the squares of the np.float64 intermediates overflow to inf, with no
    OverflowError.
    """
    w = _scalar_or_array(omega)
    # np.bool_.any() would cost a quarter of a scalar call: compare directly
    if (w <= 0.0).any() if w.ndim else w <= 0.0:
        raise DomainError("passband transfer function requires omega > 0")
    z1 = (-np.power(w, 3) * _R1 * _L1 * _L2 + w * _R1 * _L2 + w * _R1 * _L1 * _C1 / _C2
          - _R1 / (w * _C2) + 2 * w * _L1 * _R1 + w * _L1 * _R2)
    z2 = (w * w * _L1 * _L2 + w * w * _R1 * _R2 * _L1 * _C1
          - _R1 * _R2 - _L1 / _C2)
    z3 = (w * _L1)**2 + (w * w * _R1 * _L1 * _C1 - _R1)**2
    out = w * _L1 * _R1 / np.sqrt((z1**2 + z2**2)**2 * z3)
    return float(out) if out.ndim == 0 else out


def find_fmax(transfer: Callable, omega_range: tuple[float, float]) -> tuple[float, float]:
    """Maximum of a transfer function over [lo, hi]: a scan of _FMAX_GRID
    points followed by golden-section refinement around the best bracket.

    The scan evaluates the transfer function on one _MESH_BLOCK-point slice of
    the mesh at a time and keeps a running argmax, so its temporaries stay
    block-sized; the result equals that of one argmax over the whole mesh bit
    for bit.  Returns (F_max, argmax); ties on the grid resolve to the leftmost
    point, a NaN on the grid wins at its first index as under `np.argmax`, and
    the grid point is kept when refinement finds nothing strictly better.
    """
    lo, hi = omega_range
    if not lo < hi:
        raise ValueError("omega_range must satisfy lo < hi")
    w = np.linspace(lo, hi, _FMAX_GRID)
    i, best = 0, -math.inf
    for s in range(0, _FMAX_GRID, _MESH_BLOCK):
        vals = on_mesh(transfer, w[s:s + _MESH_BLOCK])
        j = int(vals.argmax())
        if math.isnan(vals[j]):
            i, best = s + j, vals[j]
            break
        if vals[j] > best:
            i, best = s + j, vals[j]
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
    if f_ref > best:
        return f_ref, x_ref
    return float(best), float(w[i])


def numeric_derivative(f: Callable, x):
    """Central-difference derivative with step h = cbrt(eps)*max(1, |x|).

    Accepts a float or an ndarray: a scalar or 0-d x gives a Python float,
    computed by the same formula in np.float64 scalars, an ndarray an ndarray.
    f is called on np.float64 samples (or arrays) with floating-point warnings
    silenced; raises NonFinite when f is not finite at the sample points.
    """
    xa = _scalar_or_array(x)
    if not isinstance(xa, np.ndarray):
        # max(1.0, nan) is 1.0, not nan as in np.maximum, but the samples
        # xa +- h are nan either way
        h = _CBRT_EPS * max(1.0, abs(xa))
        xp = xa + h
        xm = xa - h
        with np.errstate(all="ignore"):
            fp = float(f(xp))
            fm = float(f(xm))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NonFinite(f"f not finite near x={x}")
        return float((fp - fm) / (xp - xm))
    h = _CBRT_EPS * np.maximum(1.0, np.abs(xa))
    xp = xa + h
    xm = xa - h
    with np.errstate(all="ignore"):
        fp = np.asarray(f(xp), dtype=float)
        fm = np.asarray(f(xm), dtype=float)
    if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
        raise NonFinite(f"f not finite near x={x}")
    return (fp - fm) / (xp - xm)


def cutoff_objective(transfer: Callable, f_max: float, negate: bool, *,
                     pid: str = "cutoff", name: str = "cutoff objective",
                     domain: tuple[float, float] = (1e-3, 1.0)) -> Problem:
    """Wrap a transfer function into the half-power crossing problem
    f(omega) = +-(F(omega)^2 - 0.5*F_max^2), derivative by central differences."""
    if not f_max > 0.0:
        raise ValueError("f_max must be positive")
    sign = -1.0 if negate else 1.0
    half = 0.5 * f_max * f_max

    def f(omega):
        t = transfer(omega)
        if not isinstance(t, float):  # an array, or a scalar of another type
            t = np.asarray(t, dtype=float)
        out = sign * (t * t - half)
        return out if isinstance(out, np.ndarray) else float(out)

    def df(omega):
        return numeric_derivative(f, omega)

    return Problem(id=pid, name=name, a=domain[0], b=domain[1], f=f, df=df)


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
    boundary point, so every quotient is formed once from the same two mesh
    values and the result equals that of one pass over the whole mesh bit for
    bit; a NaN quotient makes the bound NaN.
    """
    x = np.linspace(problem.a, problem.b, _ORACLE_GRID)
    peaks = []
    for s in range(0, _ORACLE_GRID - 1, _MESH_BLOCK):
        xs = x[s:s + _MESH_BLOCK + 1]
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

# id -> (name, transfer function, search window, negate the objective)
FILTERS = {
    "chebyshev": ("lowpass ladder cutoff", chebyshev_transfer, CHEBYSHEV_DOMAIN, False),
    "passband": ("bandpass lower cutoff", passband_transfer, PASSBAND_DOMAIN, True),
}

_FILTER_CACHE: dict[str, Problem] = {}


def get_problem(pid: str) -> Problem:
    """Look up a problem by identifier (t01..t20, chebyshev, passband).

    Filter problems compute their F_max on first use and are cached for the
    process lifetime.
    """
    for prob in registry():
        if prob.id == pid:
            return prob
    if pid not in FILTERS:
        raise UnknownProblem(f"no problem named {pid!r}")
    if pid not in _FILTER_CACHE:
        name, transfer, domain, negate = FILTERS[pid]
        f_max, _ = find_fmax(transfer, domain)
        _FILTER_CACHE[pid] = cutoff_objective(transfer, f_max, negate=negate,
                                              pid=pid, name=name, domain=domain)
    return _FILTER_CACHE[pid]


def all_ids() -> list[str]:
    return [pid for pid, *_ in _TESTBED] + list(FILTERS)
