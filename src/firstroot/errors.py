"""Exception types raised by the firstroot package.  Each class names what
raises it: `solve` or `grid_search`, or only a helper on caller input."""


class FirstRootError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateSlope(FirstRootError):
    """The curvature bound m is too small for the interval's derivative change:
    the shared denominator m*(x_right - x_left) + dz_right - dz_left of the
    knot formulas is <= 0, or a knot leaves the interval.  Raised by
    `build_support`, and so by `solve`: under a1 with a K below f's curvature,
    and under a1 or a2 where rounding loses m*w against dz."""


class NoZero(FirstRootError):
    """leftmost_zero was called on a support function whose minimum is positive;
    raised only by `leftmost_zero`, on caller input: `solve` asks it about a
    minorant that reaches zero."""


class NumericalDiscriminant(FirstRootError):
    """A discriminant that is non-negative in exact arithmetic came out
    negative beyond the rounding tolerance; raised by `leftmost_zero`, and so
    by `solve`."""


class DegenerateInterval(FirstRootError):
    """Two trial abscissas are too close to form a usable interval; raised by
    `interval_curvature` and `build_curvature_table`, and so by `solve` under a2."""


class BadInitialCondition(FirstRootError):
    """The objective is not strictly positive at the left margin; raised by
    `initialize`, and so by `solve`."""


class NonFinite(FirstRootError):
    """A function or derivative evaluation produced a non-finite value, or a
    minorant's knots overflowed; raised by `solve`, `grid_search` and `build_support`."""


class DomainError(FirstRootError):
    """Argument outside the domain of a transfer function; raised only by the
    passband's P, P' and |H|, on caller input (omega <= 0)."""


class UnknownProblem(FirstRootError):
    """Problem identifier not present in the registry; raised only by
    `get_problem`, on caller input."""
