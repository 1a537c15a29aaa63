"""Smooth piecewise-quadratic minorants over a single interval.

Given function values and derivatives at the two ends of an interval
[x_left, x_right] and a bound m on the Lipschitz constant of the derivative
there, a three-piece C^1 quadratic support function phi is constructed:

    phi(x) = z_left + dz_left*(x - x_left) - 0.5*m*(x - x_left)^2   on [x_left, y']
    phi(x) = 0.5*m*x^2 + b*x + c                                    on (y', y]
    phi(x) = z_right - dz_right*(x_right - x) - 0.5*m*(x_right - x)^2  on (y, x_right]

The outer pieces are Taylor-form caps anchored at the endpoints, the middle
piece is the upward parabola that glues them with matching value and slope.
Whenever m is a valid bound, phi(x) <= f(x) on the whole interval, so the
minimum of phi (its "characteristic") certifies the absence of a zero when
positive and locates a candidate zero when non-positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSlope, NoZero, NumericalDiscriminant, OutOfInterval

__all__ = [
    "IntervalData",
    "SupportFunction",
    "Characteristic",
    "LEFT_END",
    "INTERIOR",
    "RIGHT_END",
    "build_support",
    "eval_support",
    "eval_support_derivative",
    "interior_stationary_point",
    "characteristic",
    "leftmost_zero",
]

# Which of the three candidate minimizers realized the characteristic.
LEFT_END = "left_end"
INTERIOR = "interior"
RIGHT_END = "right_end"

# Discriminants that are non-negative in exact arithmetic may round slightly
# below zero; anything worse than this relative slack is a logic error.
_DISC_SLACK = 1e-12


@dataclass(frozen=True, slots=True)
class IntervalData:
    """Endpoint samples of f over one interval plus a curvature bound m."""

    x_left: float
    x_right: float
    z_left: float
    z_right: float
    dz_left: float
    dz_right: float
    m: float

    def __post_init__(self) -> None:
        if not self.x_left < self.x_right:
            raise ValueError(f"x_left={self.x_left} must be < x_right={self.x_right}")
        if not self.m > 0.0:
            raise ValueError(f"curvature bound m={self.m} must be positive")

    @property
    def width(self) -> float:
        return self.x_right - self.x_left

    def scale(self) -> float:
        """Magnitude scale used for relative tolerances on this interval."""
        w = self.width
        return max(1.0, abs(self.z_left), abs(self.z_right),
                   abs(self.dz_left) * w, abs(self.dz_right) * w)


@dataclass(frozen=True, slots=True)
class SupportFunction:
    """A built minorant: interval data plus knots y' <= y and middle-piece
    coefficients b, c."""

    data: IntervalData
    y_prime: float
    y: float
    b: float
    c: float


@dataclass(frozen=True, slots=True)
class Characteristic:
    """Minimum of the support function over its interval.

    h is the minimizer, R the minimal value, kind identifies which of
    {left end, interior stationary point, right end} attained it.
    """

    h: float
    R: float
    kind: str


def build_support(data: IntervalData) -> SupportFunction:
    """Construct the three-piece minorant for one interval.

    Raises DegenerateSlope when m*(x_right - x_left) + dz_right - dz_left <= 0,
    which signals that m is below the derivative variation on the interval.
    """
    d = data
    denom = d.m * d.width + d.dz_right - d.dz_left
    if denom <= 0.0:
        raise DegenerateSlope(
            f"m={d.m} too small on [{d.x_left}, {d.x_right}]: "
            f"denominator {denom} <= 0; raise the curvature bound"
        )
    ratio = (
        d.z_left - d.z_right + d.dz_right * d.x_right - d.dz_left * d.x_left
        + 0.5 * d.m * (d.x_right ** 2 - d.x_left ** 2)
    ) / denom
    half_span = d.width / 4.0 + (d.dz_right - d.dz_left) / (4.0 * d.m)
    y = half_span + ratio
    y_prime = -half_span + ratio
    tol = 1e-9 * max(1.0, d.width, abs(d.x_left), abs(d.x_right))
    if y_prime < d.x_left - tol or y > d.x_right + tol:
        raise DegenerateSlope(
            f"m={d.m} too small on [{d.x_left}, {d.x_right}]: knots "
            f"y'={y_prime}, y={y} leave the interval; raise the curvature bound"
        )
    b = d.dz_right - 2.0 * d.m * y + d.m * d.x_right
    c = d.z_right - d.dz_right * d.x_right - 0.5 * d.m * d.x_right ** 2 + d.m * y * y
    return SupportFunction(data=d, y_prime=y_prime, y=y, b=b, c=c)


def _check_inside(s: SupportFunction, x) -> None:
    d = s.data
    slack = 1e-12 * max(1.0, abs(d.x_left), abs(d.x_right))
    lo, hi = d.x_left - slack, d.x_right + slack
    if np.any(np.asarray(x) < lo) or np.any(np.asarray(x) > hi):
        raise OutOfInterval(f"x={x} outside [{d.x_left}, {d.x_right}]")


def eval_support(s: SupportFunction, x):
    """Evaluate phi at x (scalar or ndarray inside the interval).

    Piece selection is half-open: [x_left, y'], (y', y], (y, x_right].
    """
    _check_inside(s, x)
    d = s.data
    xa = np.asarray(x, dtype=float)
    p1 = d.z_left + d.dz_left * (xa - d.x_left) - 0.5 * d.m * (xa - d.x_left) ** 2
    p2 = 0.5 * d.m * xa * xa + s.b * xa + s.c
    p3 = d.z_right - d.dz_right * (d.x_right - xa) - 0.5 * d.m * (d.x_right - xa) ** 2
    out = np.where(xa <= s.y_prime, p1, np.where(xa <= s.y, p2, p3))
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def eval_support_derivative(s: SupportFunction, x):
    """Evaluate phi' at x (piecewise linear, continuous across the knots)."""
    _check_inside(s, x)
    d = s.data
    xa = np.asarray(x, dtype=float)
    p1 = d.dz_left - d.m * (xa - d.x_left)
    p2 = d.m * xa + s.b
    p3 = d.dz_right + d.m * (d.x_right - xa)
    out = np.where(xa <= s.y_prime, p1, np.where(xa <= s.y, p2, p3))
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def _middle_value(s: SupportFunction, x: float) -> float:
    return 0.5 * s.data.m * x * x + s.b * x + s.c


# Plain-float kernels for phi and phi' at one point of the interval, used by
# the scalar search path to skip the 0-d array round trip.  Each branch is the
# expression of the matching np.where arm of eval_support /
# eval_support_derivative, term for term, so both give the same bits for a
# scalar x.  (numpy squares a scalar with pow, as Python's ** does, but an
# array of several elements by multiplication, which differs in the last bit
# about once in a thousand squares.)

def _phi(s: SupportFunction, x: float) -> float:
    d = s.data
    if x <= s.y_prime:
        return d.z_left + d.dz_left * (x - d.x_left) - 0.5 * d.m * (x - d.x_left) ** 2
    if x <= s.y:
        return _middle_value(s, x)
    return d.z_right - d.dz_right * (d.x_right - x) - 0.5 * d.m * (d.x_right - x) ** 2


def _phi_derivative(s: SupportFunction, x: float) -> float:
    d = s.data
    if x <= s.y_prime:
        return d.dz_left - d.m * (x - d.x_left)
    if x <= s.y:
        return d.m * x + s.b
    return d.dz_right + d.m * (d.x_right - x)


def _clamp(s: SupportFunction, x: float) -> float:
    return min(max(x, s.data.x_left), s.data.x_right)


def interior_stationary_point(s: SupportFunction) -> float | None:
    """Zero of phi' in [y', y] if the slope changes sign there, else None."""
    slope_lo = _phi_derivative(s, _clamp(s, s.y_prime))
    slope_hi = _phi_derivative(s, _clamp(s, s.y))
    if slope_lo * slope_hi < 0.0:
        return -s.b / s.data.m
    return None


def characteristic(s: SupportFunction) -> Characteristic:
    """Minimum of phi over the interval, ties broken toward the leftmost
    candidate."""
    d = s.data
    x_hat = interior_stationary_point(s)
    if x_hat is not None:
        candidates = (
            (d.x_left, d.z_left, LEFT_END),
            (x_hat, _middle_value(s, x_hat), INTERIOR),
            (d.x_right, d.z_right, RIGHT_END),
        )
    else:
        candidates = (
            (d.x_left, d.z_left, LEFT_END),
            (d.x_right, d.z_right, RIGHT_END),
        )
    h, best, kind = candidates[0]
    for hx, value, which in candidates[1:]:
        if value < best:
            h, best, kind = hx, value, which
    return Characteristic(h=h, R=best, kind=kind)


def _clamped_sqrt(disc: float, scale: float) -> float:
    if disc < 0.0:
        if disc < -_DISC_SLACK * scale:
            raise NumericalDiscriminant(f"discriminant {disc} below -{_DISC_SLACK}*{scale}")
        disc = 0.0
    return math.sqrt(disc)


def _right_root_left_cap(s: SupportFunction) -> float:
    # Larger root of z_left + dz_left*u - 0.5*m*u^2 = 0, u = x - x_left,
    # written to avoid cancellation for either sign of dz_left.
    d = s.data
    disc = d.dz_left ** 2 + 2.0 * d.m * d.z_left
    root = _clamped_sqrt(disc, max(1.0, d.dz_left ** 2, 2.0 * d.m * abs(d.z_left)))
    if d.dz_left > 0.0:
        u = (d.dz_left + root) / d.m
    else:
        denom = root - d.dz_left
        u = 2.0 * d.z_left / denom if denom > 0.0 else 0.0
    return min(max(d.x_left + u, d.x_left), d.x_right)


def _right_root_right_cap(s: SupportFunction) -> float:
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


def _left_root_middle(s: SupportFunction) -> float:
    # Smaller root of 0.5*m*x^2 + b*x + c = 0.
    d = s.data
    disc = s.b ** 2 - 2.0 * d.m * s.c
    root = _clamped_sqrt(disc, max(1.0, s.b ** 2, 2.0 * d.m * abs(s.c)))
    if s.b <= 0.0:
        denom = -s.b + root
        x = 2.0 * s.c / denom if denom > 0.0 else 0.0
    else:
        x = (-s.b - root) / d.m
    return min(max(x, d.x_left), d.x_right)


def leftmost_zero(s: SupportFunction) -> float:
    """Smallest x in the interval with phi(x) = 0.

    Requires z_left >= 0 (raises ValueError otherwise; the search asks only
    about intervals whose left end precedes the first negative trial) and
    characteristic(s).R <= 0 (raises NoZero otherwise).  The zero is located
    in whichever piece crosses first: the left cap if phi(y') <= 0, otherwise
    the middle piece or the right cap depending on where the middle piece
    bottoms out.
    """
    if s.data.z_left < 0.0:
        raise ValueError(f"leftmost_zero requires z_left >= 0, got {s.data.z_left}")
    if characteristic(s).R > 0.0:
        raise NoZero("support function is strictly positive on the interval")
    if _phi(s, _clamp(s, s.y_prime)) <= 0.0:
        return _right_root_left_cap(s)
    x_hat = interior_stationary_point(s)
    if x_hat is not None:
        if _middle_value(s, x_hat) > 0.0:
            return _right_root_right_cap(s)
        return _left_root_middle(s)
    if _phi(s, _clamp(s, s.y)) > 0.0:
        return _right_root_right_cap(s)
    return _left_root_middle(s)
