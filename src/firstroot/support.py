"""Smooth piecewise-quadratic minorants over a single interval.

Given function values and derivatives at the two ends of an interval
[x_left, x_right] and a bound m on the Lipschitz constant of the derivative
there, a three-piece C^1 quadratic support function phi is constructed:

    phi(x) = z_left + dz_left*(x - x_left) - 0.5*m*(x - x_left)^2   on [x_left, y']
    phi(x) = 0.5*m*(x - vertex)^2 + q                               on (y', y]
    phi(x) = z_right - dz_right*(x_right - x) - 0.5*m*(x_right - x)^2  on (y, x_right]

The outer pieces are Taylor-form caps anchored at the endpoints, the middle
piece is the upward parabola that glues them with matching value and slope,
stored in vertex form: its minimum q sits at x = vertex.  Whenever m is a
valid bound, phi(x) <= f(x) on the whole interval, so the minimum of phi (its
"characteristic") certifies the absence of a zero when positive and locates a
candidate zero when non-positive.

The knots, the vertex and q are computed in u = x - x_left, with the width
w = x_right - x_left, and only then moved to x by adding x_left.  Every term
is then of the size of the interval and its data, not of |x|, so an interval
far from zero and narrow against |x| gets the minorant that it gets at zero.
For the same reason the middle piece is evaluated as the left cap plus
m*(x - y')^2, which equals the vertex form: where the slope is steep against
m the vertex lies far outside the interval, and 0.5*m*(x - vertex)^2 and q
would cancel.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateSlope, NonFinite, NoZero, NumericalDiscriminant

__all__ = [
    "IntervalData",
    "SupportFunction",
    "Characteristic",
    "LEFT_END",
    "INTERIOR",
    "RIGHT_END",
    "build_support",
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


class IntervalData(NamedTuple):
    """Endpoint samples of f over one interval plus a curvature bound m;
    `build_support` requires x_left < x_right and m > 0."""

    x_left: float
    x_right: float
    z_left: float
    z_right: float
    dz_left: float
    dz_right: float
    m: float


class Characteristic(NamedTuple):
    """Minimum of the support function over its interval.

    h is the minimizer, R the minimal value, kind identifies which of
    {left end, interior stationary point, right end} attained it.
    """

    h: float
    R: float
    kind: str


class SupportFunction(NamedTuple):
    """A built minorant: interval data, knots x_left <= y' <= y <= x_right,
    the middle piece 0.5*m*(x - vertex)^2 + q, and what `build_support`
    derives from them: x_hat, the vertex when it lies strictly between the
    knots (else None), and char, the minimum of phi over the interval.
    `interior_stationary_point` and `characteristic` return these two."""

    data: IntervalData
    y_prime: float
    y: float
    vertex: float
    q: float
    x_hat: float | None
    char: Characteristic


def build_support(data: IntervalData) -> SupportFunction:
    """Construct the three-piece minorant for one interval.

    Raises ValueError unless x_left < x_right and m > 0 (a NaN fails both
    tests), before any arithmetic.  Raises DegenerateSlope when
    m*(x_right - x_left) + dz_right - dz_left <= 0, which signals that m is
    below the derivative variation on the interval, or when a knot leaves the
    interval by more than 1e-9*max(1, width); knots within that tolerance are
    clamped onto the ends.  Raises NonFinite when a knot is not finite, as
    when m, or m times the squared width, overflows.
    """
    x_left, x_right, z_left, z_right, dz_left, dz_right, m = data
    if not x_left < x_right:
        raise ValueError(f"x_left={x_left} must be < x_right={x_right}")
    if not m > 0.0:
        raise ValueError(f"curvature bound m={m} must be positive")
    w = x_right - x_left
    denom = m * w + dz_right - dz_left
    if denom <= 0.0:
        raise DegenerateSlope(
            f"m={m} too small on [{x_left}, {x_right}]: "
            f"denominator {denom} <= 0; raise the curvature bound"
        )
    ratio = (z_left - z_right + dz_right * w + 0.5 * m * w * w) / denom
    half_span = w / 4.0 + (dz_right - dz_left) / (4.0 * m)
    u, u_prime = half_span + ratio, -half_span + ratio
    # a knot outside [0, w] fails this test, and so does a NaN knot (its
    # comparisons are false)
    if not (0.0 <= u_prime and u <= w):
        knots = (x_left + u_prime, x_left + u)
        if not (math.isfinite(u_prime) and math.isfinite(u)):
            raise NonFinite(
                f"m={m} on [{x_left}, {x_right}]: knots y'={knots[0]}, y={knots[1]} are "
                f"not finite; the curvature bound overflows, lower r or xi (a2) or K (a1), "
                f"or the domain is too wide for m*w**2"
            )
        tol = 1e-9 * max(1.0, w)
        if not (-tol <= u_prime and u <= w + tol):
            raise DegenerateSlope(
                f"m={m} too small on [{x_left}, {x_right}]: knots y'={knots[0]}, "
                f"y={knots[1]} leave the interval; raise the curvature bound"
            )
        u, u_prime = min(max(u, 0.0), w), min(max(u_prime, 0.0), w)
    v = 2.0 * u_prime - dz_left / m
    g = u_prime - v
    q = z_left + dz_left * u_prime - 0.5 * m * (u_prime * u_prime) - 0.5 * m * (g * g)
    return _derive(data, x_left + u_prime, x_left + u, x_left + v, q)


def _derive(data: IntervalData, y_prime: float, y: float, vertex: float,
            q: float) -> SupportFunction:
    # the one place x_hat and char are derived, in one pass: phi is smallest
    # at the left end, the vertex (where phi = q) when it lies between the
    # knots, or the right end; the leftmost wins a tie.
    x_hat = vertex if y_prime < vertex < y else None
    h, R, kind = data.x_left, data.z_left, LEFT_END
    if x_hat is not None and q < R:
        h, R, kind = x_hat, q, INTERIOR
    if data.z_right < R:
        h, R, kind = data.x_right, data.z_right, RIGHT_END
    return tuple.__new__(SupportFunction, (data, y_prime, y, vertex, q, x_hat,
                                           tuple.__new__(Characteristic, (h, R, kind))))


def _phi(s: SupportFunction, x: float) -> float:
    # phi at one point of the interval in plain floats.  Each branch is the
    # piece formula of the tests' reference `piece_values`, term for term, and
    # every square is a product, which rounds alike on a float and an array
    # (numpy squares a 0-d array with pow), so the two give the same bits.
    d = s.data
    u, t = x - d.x_left, d.x_right - x
    if x <= s.y:
        left = d.z_left + d.dz_left * u - 0.5 * d.m * (u * u)
        return left if x <= s.y_prime else left + d.m * ((x - s.y_prime) * (x - s.y_prime))
    return d.z_right - d.dz_right * t - 0.5 * d.m * (t * t)


def interior_stationary_point(s: SupportFunction) -> float | None:
    """The vertex of the middle piece if it lies strictly between the knots,
    else None; derived when s was built."""
    return s.x_hat


def characteristic(s: SupportFunction) -> Characteristic:
    """Minimum of phi over the interval, ties broken toward the leftmost
    candidate; derived when s was built."""
    return s.char


def _smaller_root(m: float, B: float, C: float) -> float:
    # Smaller root t of 0.5*m*t^2 + B*t + C = 0, written to avoid
    # cancellation for either sign of B.  A discriminant that rounds slightly
    # below zero counts as zero; where it and B both vanish, the double root
    # is t = 0.  B ** 2 is the form of the tests' reference root formulas.
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
    quadratic, in t = x_left - x (left cap), t = x - y' (middle piece) or
    t = x_right - x (right cap); the crossing is clamped into the interval.
    """
    data, y_prime, y, vertex, q, x_hat, char = s
    x_left, x_right, z_left, z_right, dz_left, dz_right, m = data
    if z_left < 0.0:
        raise ValueError(f"leftmost_zero requires z_left >= 0, got {z_left}")
    if char.R > 0.0:
        raise NoZero("support function is strictly positive on the interval")
    if z_left == 0.0:
        return x_left
    phi = _phi(s, y_prime)
    if phi <= 0.0:
        x = x_left - _smaller_root(m, dz_left, -z_left)
    elif (q if x_hat is not None else _phi(s, y)) > 0.0:
        x = x_right - _smaller_root(m, dz_right, -z_right)
    else:
        # the middle piece is phi(y') + m*(y' - vertex)*t + 0.5*m*t^2; its
        # discriminant is -2*m*q
        x = y_prime + _smaller_root(m, m * (y_prime - vertex), phi)
    x = x_left if x_left > x else x
    return x_right if x_right < x else x
