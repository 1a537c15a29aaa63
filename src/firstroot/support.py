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

A SupportFunction derives its interior stationary point and its
characteristic once, when it is constructed; `interior_stationary_point`,
`characteristic` and `leftmost_zero` read them from it.  The records
IntervalData, SupportFunction and Characteristic are named tuples, cheap to
build on the search's per-interval path: immutable, hashable, iterable, and
equal to any tuple of the same values.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSlope, NonFinite, NoZero, NumericalDiscriminant, OutOfInterval

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


class _IntervalFields(NamedTuple):
    x_left: float
    x_right: float
    z_left: float
    z_right: float
    dz_left: float
    dz_right: float
    m: float


class IntervalData(_IntervalFields):
    """Endpoint samples of f over one interval plus a curvature bound m;
    construction raises ValueError unless x_left < x_right and m > 0."""

    __slots__ = ()

    def __new__(cls, x_left: float, x_right: float, z_left: float, z_right: float,
                dz_left: float, dz_right: float, m: float) -> "IntervalData":
        if not x_left < x_right:
            raise ValueError(f"x_left={x_left} must be < x_right={x_right}")
        if not m > 0.0:
            raise ValueError(f"curvature bound m={m} must be positive")
        return tuple.__new__(cls, (x_left, x_right, z_left, z_right, dz_left, dz_right, m))


class Characteristic(NamedTuple):
    """Minimum of the support function over its interval.

    h is the minimizer, R the minimal value, kind identifies which of
    {left end, interior stationary point, right end} attained it.
    """

    h: float
    R: float
    kind: str


class _SupportFields(NamedTuple):
    data: IntervalData
    y_prime: float
    y: float
    b: float
    c: float
    x_hat: float | None
    char: Characteristic


class SupportFunction(_SupportFields):
    """A built minorant: interval data plus knots y' <= y and middle-piece
    coefficients b, c.

    The constructor takes those five and derives the rest once, through the
    same pass as `build_support`: x_hat, the zero of phi' in [y', y] when the
    slope changes sign there (else None), and char, the minimum of phi over
    the interval.  `interior_stationary_point` and `characteristic` return
    these two.  The named-tuple methods `_make` and `_replace` skip the
    constructor and so the derivation: build a new SupportFunction instead.
    """

    __slots__ = ()

    def __new__(cls, data: IntervalData, y_prime: float, y: float, b: float,
                c: float) -> "SupportFunction":
        return _derive(cls, data, y_prime, y, b, c)


def build_support(data: IntervalData) -> SupportFunction:
    """Construct the three-piece minorant for one interval.

    Raises DegenerateSlope when m*(x_right - x_left) + dz_right - dz_left <= 0,
    which signals that m is below the derivative variation on the interval,
    and NonFinite when a knot is not finite, as when m overflows.
    """
    x_left, x_right, z_left, z_right, dz_left, dz_right, m = data
    width = x_right - x_left
    denom = m * width + dz_right - dz_left
    if denom <= 0.0:
        raise DegenerateSlope(
            f"m={m} too small on [{x_left}, {x_right}]: "
            f"denominator {denom} <= 0; raise the curvature bound"
        )
    try:
        squares = x_right ** 2 - x_left ** 2
    except OverflowError as exc:  # float ** raises where * would give inf
        raise NonFinite(
            f"m={m} on [{x_left}, {x_right}]: the squares of the ends overflow; "
            f"the interval lies too far from zero"
        ) from exc
    ratio = (
        z_left - z_right + dz_right * x_right - dz_left * x_left
        + 0.5 * m * squares
    ) / denom
    half_span = width / 4.0 + (dz_right - dz_left) / (4.0 * m)
    y = half_span + ratio
    y_prime = -half_span + ratio
    # a knot outside the interval fails this test, and so does a NaN knot
    # (its comparisons are false)
    if not (x_left <= y_prime and y <= x_right):
        if not (math.isfinite(y_prime) and math.isfinite(y)):
            raise NonFinite(
                f"m={m} on [{x_left}, {x_right}]: knots y'={y_prime}, y={y} are not "
                f"finite; the curvature bound overflows, lower r or xi (a2) or K (a1)"
            )
        tol = 1e-9 * max(1.0, width, abs(x_left), abs(x_right))
        if not (x_left - tol <= y_prime and y <= x_right + tol):
            raise DegenerateSlope(
                f"m={m} too small on [{x_left}, {x_right}]: knots "
                f"y'={y_prime}, y={y} leave the interval; raise the curvature bound"
            )
    b = dz_right - 2.0 * m * y + m * x_right
    c = z_right - dz_right * x_right - 0.5 * m * x_right ** 2 + m * y * y
    return _derive(SupportFunction, data, y_prime, y, b, c)


def _derive(cls: type, data: IntervalData, y_prime: float, y: float, b: float,
            c: float) -> SupportFunction:
    # x_hat and char in one flat pass.  Each knot is clamped into the interval
    # by comparisons that return what min(max(v, x_left), x_right) returns,
    # ties and signed zeros included; phi' at the clamped knot, and phi at
    # x_hat, take the arm of eval_support_derivative and eval_support that the
    # point falls in (see the float kernels below).
    x_left, x_right, z_left, z_right, dz_left, dz_right, m = data
    x = x_left if x_left > y_prime else y_prime
    x = x_right if x_right < x else x
    if x <= y_prime:
        slope_lo = dz_left - m * (x - x_left)
    elif x <= y:
        slope_lo = m * x + b
    else:
        slope_lo = dz_right + m * (x_right - x)
    x = x_left if x_left > y else y
    x = x_right if x_right < x else x
    if x <= y_prime:
        slope_hi = dz_left - m * (x - x_left)
    elif x <= y:
        slope_hi = m * x + b
    else:
        slope_hi = dz_right + m * (x_right - x)
    # candidates left end, x_hat, right end; the leftmost wins a tie
    h, R, kind = x_left, z_left, LEFT_END
    x_hat = None
    if slope_lo * slope_hi < 0.0:
        # x_hat can round outside [y', y]; phi there comes from the piece it
        # falls in, as in _phi
        x_hat = -b / m
        if x_hat <= y_prime:
            value = z_left + dz_left * (x_hat - x_left) - 0.5 * m * (x_hat - x_left) ** 2
        elif x_hat <= y:
            value = 0.5 * m * x_hat * x_hat + b * x_hat + c
        else:
            value = z_right - dz_right * (x_right - x_hat) - 0.5 * m * (x_right - x_hat) ** 2
        if value < R:
            h, R, kind = x_hat, value, INTERIOR
    if z_right < R:
        h, R, kind = x_right, z_right, RIGHT_END
    return tuple.__new__(cls, (data, y_prime, y, b, c, x_hat,
                               tuple.__new__(Characteristic, (h, R, kind))))


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


# Plain-float kernels at one point of the interval, used by the scalar search
# path to skip the 0-d array round trip: `_phi` here; phi' at the two clamped
# knots and `_phi` at x_hat, written out in `_derive`; and `_phi` and `_clamp`
# at y', written out in `leftmost_zero`.  Each branch is the expression of the
# matching np.where arm of eval_support / eval_support_derivative, term for
# term, so both give the same bits for a scalar x.  (numpy squares a scalar
# with pow, as Python's ** does, but an array of several elements by
# multiplication, which differs in the last bit about once in a thousand
# squares.)

def _phi(s: SupportFunction, x: float) -> float:
    d = s.data
    if x <= s.y_prime:
        return d.z_left + d.dz_left * (x - d.x_left) - 0.5 * d.m * (x - d.x_left) ** 2
    if x <= s.y:
        return _middle_value(s, x)
    return d.z_right - d.dz_right * (d.x_right - x) - 0.5 * d.m * (d.x_right - x) ** 2


def _clamp(s: SupportFunction, x: float) -> float:
    return min(max(x, s.data.x_left), s.data.x_right)


def interior_stationary_point(s: SupportFunction) -> float | None:
    """Zero of phi' in [y', y] if the slope changes sign there, else None;
    derived when s was built."""
    return s.x_hat


def characteristic(s: SupportFunction) -> Characteristic:
    """Minimum of phi over the interval, ties broken toward the leftmost
    candidate; derived when s was built."""
    return s.char


def _smaller_root(m: float, B: float, C: float) -> float:
    # Smaller root t of 0.5*m*t^2 + B*t + C = 0, written to avoid
    # cancellation for either sign of B.  A discriminant that rounds slightly
    # below zero counts as zero; where it and B both vanish, the double root
    # is t = 0.
    disc = B ** 2 - 2.0 * m * C
    if disc < 0.0:
        scale = max(1.0, B ** 2, 2.0 * m * abs(C))
        if disc < -_DISC_SLACK * scale:
            raise NumericalDiscriminant(f"discriminant {disc} below -{_DISC_SLACK}*{scale}")
        disc = 0.0
    root = math.sqrt(disc)
    if B > 0.0:
        return (-B - root) / m
    denom = root - B
    return 2.0 * C / denom if denom > 0.0 else 0.0


def leftmost_zero(s: SupportFunction) -> float:
    """Smallest x in the interval with phi(x) = 0.

    Requires z_left >= 0 (raises ValueError otherwise; the search asks only
    about intervals whose left end precedes the first negative trial) and
    characteristic(s).R <= 0 (raises NoZero otherwise).  With z_left = 0 the
    zero is x_left itself, where phi = z_left.  Otherwise it is located
    in whichever piece crosses first: the left cap if phi(y') <= 0, otherwise
    the middle piece or the right cap depending on where the middle piece
    bottoms out.  That piece crosses zero at the smaller root t of one
    quadratic, in t = x_left - x (left cap), t = x (middle piece) or
    t = x_right - x (right cap); the crossing is clamped into the interval.
    """
    data, y_prime, y, b, c, x_hat, char = s
    x_left, x_right, z_left, z_right, dz_left, dz_right, m = data
    if z_left < 0.0:
        raise ValueError(f"leftmost_zero requires z_left >= 0, got {z_left}")
    if char.R > 0.0:
        raise NoZero("support function is strictly positive on the interval")
    if z_left == 0.0:
        return x_left
    # _phi(s, _clamp(s, y')), written out
    x = x_left if x_left > y_prime else y_prime
    x = x_right if x_right < x else x
    if x <= y_prime:
        phi = z_left + dz_left * (x - x_left) - 0.5 * m * (x - x_left) ** 2
    elif x <= y:
        phi = 0.5 * m * x * x + b * x + c
    else:
        phi = z_right - dz_right * (x_right - x) - 0.5 * m * (x_right - x) ** 2
    if phi <= 0.0:
        x = x_left - _smaller_root(m, dz_left, -z_left)
    elif (_middle_value(s, x_hat) if x_hat is not None else _phi(s, _clamp(s, y))) > 0.0:
        x = x_right - _smaller_root(m, dz_right, -z_right)
    else:
        x = _smaller_root(m, b, c)
    x = x_left if x_left > x else x
    return x_right if x_right < x else x
