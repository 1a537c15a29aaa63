"""Built-in problems: a 20-function benchmark suite on [0.2, 7] and two
analog-filter cutoff-frequency applications.

Every objective and derivative accepts a float or an ndarray (numpy ufunc
style); the solver evaluates them pointwise while the grid scan and the
dense-grid oracles evaluate them vectorized through `on_mesh`, which also
accepts a scalar result for an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NonFinite, UnknownProblem

__all__ = [
    "Problem",
    "ChebyshevParams",
    "PassbandParams",
    "CHEBYSHEV_PARAMS",
    "PASSBAND_PARAMS",
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
    """An objective f with analytic or numeric derivative df on [a, b].

    reference_frl is the known first root from the left (None when f has no
    root), root_count / reference_extrema are catalog metadata, lipschitz_K an
    optional externally supplied bound on the Lipschitz constant of df.
    """

    id: str
    name: str
    a: float
    b: float
    f: Callable = field(repr=False)
    df: Callable = field(repr=False)
    reference_frl: float | None = None
    root_count: int | None = None
    reference_extrema: int | None = None
    lipschitz_K: float | None = None

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"domain [{self.a}, {self.b}] is empty")

    @property
    def domain(self) -> tuple[float, float]:
        return (self.a, self.b)


def _f14(x):
    return sum(k * np.cos((k + 1) * x + k) for k in range(6)) + 12.0


def _df14(x):
    return -sum(k * (k + 1) * np.sin((k + 1) * x + k) for k in range(6))


# id, expression, f, df, FRL, roots, extrema
_TESTBED = [
    ("t01", "-0.5*x^2*ln(x) + 5",
     lambda x: -0.5 * x**2 * np.log(x) + 5.0,
     lambda x: -x * np.log(x) - 0.5 * x,
     3.0117, 1, 3),
    ("t02", "-exp(-x)*sin(2*pi*x) + 1",
     lambda x: -np.exp(-x) * np.sin(2 * np.pi * x) + 1.0,
     lambda x: np.exp(-x) * (np.sin(2 * np.pi * x) - 2 * np.pi * np.cos(2 * np.pi * x)),
     None, None, 13),
    ("t03", "-sqrt(x)*sin(x) + 1",
     lambda x: -np.sqrt(x) * np.sin(x) + 1.0,
     lambda x: -np.sin(x) / (2 * np.sqrt(x)) - np.sqrt(x) * np.cos(x),
     1.17479, 3, 4),
    ("t04", "x*sin(x) + sin(10*x/3) + ln(x) - 0.84*x + 1.3",
     lambda x: x * np.sin(x) + np.sin(10 * x / 3.0) + np.log(x) - 0.84 * x + 1.3,
     lambda x: np.sin(x) + x * np.cos(x) + (10.0 / 3.0) * np.cos(10 * x / 3.0) + 1.0 / x - 0.84,
     2.96091, 2, 6),
    ("t05", "x + sin(5*x)",
     lambda x: x + np.sin(5 * x),
     lambda x: 1.0 + 5 * np.cos(5 * x),
     0.82092, 2, 13),
    ("t06", "-x*sin(x) + 5",
     lambda x: -x * np.sin(x) + 5.0,
     lambda x: -np.sin(x) - x * np.cos(x),
     None, None, 4),
    ("t07", "sin(x)*cos(x) - 1.5*sin(x)^2 + 1.2",
     lambda x: np.sin(x) * np.cos(x) - 1.5 * np.sin(x)**2 + 1.2,
     lambda x: np.cos(2 * x) - 1.5 * np.sin(2 * x),
     1.34075, 4, 7),
    ("t08", "2*cos(x) + cos(2*x) + 5",
     lambda x: 2 * np.cos(x) + np.cos(2 * x) + 5.0,
     lambda x: -2 * np.sin(x) - 2 * np.sin(2 * x),
     None, None, 6),
    ("t09", "2*sin(x)*exp(-x)",
     lambda x: 2 * np.sin(x) * np.exp(-x),
     lambda x: 2 * np.exp(-x) * (np.cos(x) - np.sin(x)),
     3.1416, 2, 4),
    ("t10", "(3*x - 1.4)*sin(18*x) + 1.7",
     lambda x: (3 * x - 1.4) * np.sin(18 * x) + 1.7,
     lambda x: 3 * np.sin(18 * x) + 18 * (3 * x - 1.4) * np.cos(18 * x),
     1.26554, 34, 42),
    ("t11", "(x + 1)^3/x^2 - 7.1",
     lambda x: (x + 1)**3 / x**2 - 7.1,
     lambda x: 3 * (x + 1)**2 / x**2 - 2 * (x + 1)**3 / x**3,
     1.36465, 2, 3),
    ("t12", "sin(5*x) + 2 if x <= pi else 5*sin(x) + 2",
     lambda x: np.where(x <= np.pi, np.sin(5 * x) + 2.0, 5 * np.sin(x) + 2.0),
     lambda x: np.where(x <= np.pi, 5 * np.cos(5 * x), 5 * np.cos(x)),
     3.55311, 2, 8),
    ("t13", "exp(sin(3*x))",
     lambda x: np.exp(np.sin(3 * x)),
     lambda x: 3 * np.cos(3 * x) * np.exp(np.sin(3 * x)),
     None, None, 9),
    ("t14", "sum_{k=0..5} k*cos((k+1)*x + k) + 12", _f14, _df14, 4.78308, 2, 15),
    ("t15", "2*(x - 3)^2 - exp(x/2) + 5",
     lambda x: 2 * (x - 3)**2 - np.exp(0.5 * x) + 5.0,
     lambda x: 4 * (x - 3) - 0.5 * np.exp(0.5 * x),
     3.281119, 2, 4),
    ("t16", "-exp(sin(x)) + 4",
     lambda x: -np.exp(np.sin(x)) + 4.0,
     lambda x: -np.cos(x) * np.exp(np.sin(x)),
     None, None, 4),
    ("t17", "sqrt(x)*sin(x)^2",
     lambda x: np.sqrt(x) * np.sin(x)**2,
     lambda x: np.sin(x)**2 / (2 * np.sqrt(x)) + 2 * np.sqrt(x) * np.sin(x) * np.cos(x),
     3.141128, 4, 6),
    ("t18", "cos(x) - sin(5*x) + 1",
     lambda x: np.cos(x) - np.sin(5 * x) + 1.0,
     lambda x: -np.sin(x) - 5 * np.cos(5 * x),
     1.57079, 6, 13),
    ("t19", "-x - sin(3*x) + 1.6",
     lambda x: -x - np.sin(3 * x) + 1.6,
     lambda x: -1.0 - 3 * np.cos(3 * x),
     1.96857, 3, 9),
    ("t20", "cos(x) + 2*cos(2*x)*exp(-x)",
     lambda x: np.cos(x) + 2 * np.cos(2 * x) * np.exp(-x),
     lambda x: -np.sin(x) - 2 * np.exp(-x) * (2 * np.sin(2 * x) + np.cos(2 * x)),
     1.14071, 2, 4),
]

TESTBED_DOMAIN = (0.2, 7.0)


def registry() -> list[Problem]:
    """The 20 benchmark functions on [0.2, 7]."""
    a, b = TESTBED_DOMAIN
    return [
        Problem(id=pid, name=name, a=a, b=b, f=f, df=df,
                reference_frl=frl, root_count=roots, reference_extrema=extrema)
        for pid, name, f, df, frl, roots, extrema in _TESTBED
    ]


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ChebyshevParams:
    """Component values of the third-order lowpass ladder (ohm, farad, henry)."""

    R: float = 1.0
    C: float = 4.0
    L: float = 2.0

    def __post_init__(self) -> None:
        if min(self.R, self.C, self.L) <= 0.0:
            raise ValueError("all component values must be positive")


@dataclass(frozen=True, slots=True)
class PassbandParams:
    """Component values of the bandpass circuit."""

    R1: float = 3108.0
    R2: float = 477.0
    L1: float = 40e-3
    L2: float = 350e-2
    C1: float = 1e-6
    C2: float = 0.1e-6

    def __post_init__(self) -> None:
        if min(self.R1, self.R2, self.L1, self.L2, self.C1, self.C2) <= 0.0:
            raise ValueError("all component values must be positive")


CHEBYSHEV_PARAMS = ChebyshevParams()
PASSBAND_PARAMS = PassbandParams()

# Search windows bracketing the published cutoffs with a positive objective at
# the left margin; the transfer functions decay toward both window edges.
CHEBYSHEV_DOMAIN = (1e-3, 2.0)
PASSBAND_DOMAIN = (1.0, 1e4)
_FMAX_GRID = 1_000_000


def chebyshev_transfer(omega, p: ChebyshevParams = CHEBYSHEV_PARAMS):
    """|Vout/Vin| of the lowpass ladder at angular frequency omega >= 0."""
    w = np.asarray(omega, dtype=float)
    out = (1.0 / np.sqrt(1.0 + p.R**2 * p.C**2 * w**2)
           / np.sqrt((2.0 - w**2 * p.L * p.C)**2 + w**2 * p.L**2 / p.R**2))
    return float(out) if out.ndim == 0 else out


def passband_transfer(omega, p: PassbandParams = PASSBAND_PARAMS):
    """|Vout/Iin| of the bandpass circuit at angular frequency omega > 0."""
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise DomainError("passband transfer function requires omega > 0")
    z1 = (-w**3 * p.R1 * p.L1 * p.L2 + w * p.R1 * p.L2 + w * p.R1 * p.L1 * p.C1 / p.C2
          - p.R1 / (w * p.C2) + 2 * w * p.L1 * p.R1 + w * p.L1 * p.R2)
    z2 = (w**2 * p.L1 * p.L2 + w**2 * p.R1 * p.R2 * p.L1 * p.C1
          - p.R1 * p.R2 - p.L1 / p.C2)
    z3 = (w * p.L1)**2 + (w**2 * p.R1 * p.L1 * p.C1 - p.R1)**2
    out = w * p.L1 * p.R1 / np.sqrt((z1**2 + z2**2)**2 * z3)
    return float(out) if out.ndim == 0 else out


def find_fmax(transfer: Callable, omega_range: tuple[float, float],
              grid_points: int = _FMAX_GRID) -> tuple[float, float]:
    """Maximum of a transfer function over [lo, hi]: dense grid scan followed
    by golden-section refinement around the best bracket.

    Returns (F_max, argmax); ties on the grid resolve to the leftmost point
    and the grid point is kept when refinement finds nothing strictly better.
    """
    lo, hi = omega_range
    if not lo < hi:
        raise ValueError("omega_range must satisfy lo < hi")
    if grid_points < 1000:
        raise ValueError("grid_points must be >= 1000")
    w = np.linspace(lo, hi, grid_points)
    vals = np.asarray(transfer(w), dtype=float)
    i = int(np.argmax(vals))
    a = w[max(i - 1, 0)]
    b = w[min(i + 1, grid_points - 1)]
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


def numeric_derivative(f: Callable, x):
    """Central-difference derivative with step h = cbrt(eps)*max(1, |x|).

    Accepts a float or an ndarray; raises NonFinite when f is not finite at
    the sample points.
    """
    xa = np.asarray(x, dtype=float)
    h = _CBRT_EPS * np.maximum(1.0, np.abs(xa))
    xp = xa + h
    xm = xa - h
    with np.errstate(all="ignore"):
        fp = np.asarray(f(xp), dtype=float)
        fm = np.asarray(f(xm), dtype=float)
    if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
        raise NonFinite(f"f not finite near x={x}")
    out = (fp - fm) / (xp - xm)
    return float(out) if out.ndim == 0 else out


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
        t = np.asarray(transfer(omega), dtype=float)
        out = sign * (t * t - half)
        return float(out) if out.ndim == 0 else out

    def df(omega):
        return numeric_derivative(f, omega)

    return Problem(id=pid, name=name, a=domain[0], b=domain[1], f=f, df=df)


def on_mesh(fn: Callable, x: np.ndarray) -> np.ndarray:
    """fn evaluated on the array x in one vectorized call, as a read-only float
    array of x's shape: a scalar result, such as a constant derivative
    written `lambda x: -1.0`, is broadcast to every point."""
    return np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)


def exact_lipschitz_oracle(problem: Problem, grid_points: int = 200_000) -> float:
    """Reconstructed bound on the Lipschitz constant of df: the largest
    derivative difference quotient over a uniform grid, with 1% headroom."""
    if grid_points < 100_000:
        raise ValueError("grid_points must be >= 1e5")
    x = np.linspace(problem.a, problem.b, grid_points)
    d = on_mesh(problem.df, x)
    return 1.01 * float(np.max(np.abs(np.diff(d)) / np.diff(x)))


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
