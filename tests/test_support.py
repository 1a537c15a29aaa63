import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from firstroot import (
    Characteristic,
    DegenerateSlope,
    IntervalData,
    NonFinite,
    NoZero,
    NumericalDiscriminant,
    OutOfInterval,
    build_support,
    characteristic,
    eval_support,
    eval_support_derivative,
    interior_stationary_point,
    leftmost_zero,
    registry,
)
from firstroot.support import INTERIOR, LEFT_END, RIGHT_END, _phi, _smaller_root

from helpers import (
    check_c1_gluing,
    check_endpoint_interpolation,
    data_scale,
    eq22_supports,
    hand_built_support,
    left_root_middle,
    piece_slopes,
    piece_values,
    random_interval_data,
    interval_from_testbed,
    right_root_left_cap,
    right_root_right_cap,
    x_rounding,
)


def _clamped(sf, x):
    return min(max(x, sf.data.x_left), sf.data.x_right)


# interior_stationary_point and leftmost_zero as they read with phi taken from
# the numpy path of eval_support and the middle piece's slope from
# tests/helpers.py, and leftmost_zero's crossing from the three per-piece root
# formulas there: the reference the float kernels must reproduce bit for bit.

def numpy_stationary_point(sf):
    """The vertex, where the middle piece's slope m*(x - vertex) changes sign
    between the knots."""
    slope_lo = piece_slopes(sf, sf.y_prime)[1]
    slope_hi = piece_slopes(sf, sf.y)[1]
    return sf.vertex if slope_lo * slope_hi < 0.0 else None


def numpy_characteristic(sf):
    """Minimum over the left end, the stationary point and the right end, the
    leftmost candidate winning a tie."""
    d = sf.data
    x_hat = numpy_stationary_point(sf)
    candidates = [(d.x_left, d.z_left, LEFT_END)]
    if x_hat is not None:
        # phi at the vertex is q, which eval_support gives up to rounding
        assert abs(eval_support(sf, x_hat) - sf.q) <= 1e-12 * data_scale(d) + x_rounding(d)
        candidates.append((x_hat, sf.q, INTERIOR))
    candidates.append((d.x_right, d.z_right, RIGHT_END))
    h, R, kind = min(candidates, key=lambda c: c[1])  # min keeps the first of equals
    return Characteristic(h=h, R=R, kind=kind)


def numpy_leftmost_zero(sf):
    if eval_support(sf, sf.y_prime) <= 0.0:
        return right_root_left_cap(sf)
    x_hat = numpy_stationary_point(sf)
    if x_hat is not None:
        if sf.q > 0.0:  # the middle piece's minimum
            return right_root_right_cap(sf)
        return left_root_middle(sf)
    if eval_support(sf, sf.y) > 0.0:
        return right_root_right_cap(sf)
    return left_root_middle(sf)


def assert_kernels_match_numpy(sf):
    """The float kernels, and the stationary point and characteristic that
    `build_support` derives, equal the numpy path with ==.  The numpy side gets a
    scalar x, as the search evaluates it; every square on both sides is a
    product, so an x inside an array gets the same bits
    (TestEval::test_a_float_and_an_array_give_the_same_bits)."""
    d = sf.data
    w = d.x_right - d.x_left
    xs = [d.x_left, d.x_right, sf.y_prime, sf.y,
          d.x_left + 0.3 * w, d.x_left + 0.5 * w, d.x_left + 0.9 * w]
    for x in xs:
        assert _phi(sf, x) == eval_support(sf, x)
    assert interior_stationary_point(sf) == numpy_stationary_point(sf)
    assert characteristic(sf) == numpy_characteristic(sf)
    # the search asks for a zero only where f > 0 at the left end
    if d.z_left > 0.0 and characteristic(sf).R <= 0.0:
        assert leftmost_zero(sf) == numpy_leftmost_zero(sf)


def symmetric_case():
    return build_support(IntervalData(
        x_left=0.0, x_right=1.0, z_left=1.0, z_right=1.0,
        dz_left=0.0, dz_right=0.0, m=4.0))


class TestBuild:
    def test_symmetric_knots_and_coefficients(self):
        sf = symmetric_case()
        assert (sf.y_prime, sf.y, sf.vertex, sf.q) == (0.25, 0.75, 0.5, 0.75)

    def test_left_endpoint_is_taylor_anchor(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sf = build_support(random_interval_data(rng))
            d = sf.data
            assert eval_support(sf, d.x_left) == pytest.approx(d.z_left, rel=1e-12, abs=1e-12)
            assert eval_support_derivative(sf, d.x_left) == pytest.approx(d.dz_left, rel=1e-12, abs=1e-12)

    def test_both_pieces_agree_at_y_prime(self):
        sf = symmetric_case()
        p1, p2, _ = piece_values(sf, sf.y_prime)
        assert p1 == pytest.approx(0.875, abs=1e-12)
        assert p2 == pytest.approx(0.875, abs=1e-12)

    @pytest.mark.parametrize("data", [
        IntervalData(0.0, 1.0, 1.0, 1.0, 1.0, -2.0, 0.5),
        # data whose knots would both lie left of the interval: denominators
        # -0.6 and -0.4
        IntervalData(0.5, 2.0, 1.0, -2.15, 0.5, -3.1, 2.0),
        IntervalData(0.5, 2.0, 1.0, -2.35, 0.5, -2.9, 2.0),
        # both right of it: the denominator is 0
        IntervalData(0.5, 2.0, 1.0, 1.5 * 3.1 - 1.25, 3.1, 3.1 - 3.0, 2.0),
        IntervalData(0.5, 2.0, 1.0, 1.5 * 2.9 - 1.25, 2.9, 2.9 - 3.0, 2.0),
    ])
    def test_degenerate_slope_raises(self, data):
        with pytest.raises(DegenerateSlope, match=r"denominator \S+ <= 0"):
            build_support(data)

    def test_right_knot_alone_leaving_the_interval_raises(self):
        # m*w + dz_right - dz_left = 3 > 0 passes the slope test, but f' rises
        # by 2 over a width of 1 under m = 1: y' = 5/12 is inside, y = 23/12 not
        with pytest.raises(DegenerateSlope, match=r"knots y'=0\.4166666666666667\d*, "
                                                  r"y=1\.9166666666666667 leave the interval"):
            build_support(IntervalData(x_left=0.0, x_right=1.0, z_left=1.0, z_right=-2.0,
                                       dz_left=-2.0, dz_right=0.0, m=1.0))

    @pytest.mark.parametrize("w", [0.5, 4.0, 1e3])
    def test_knot_tolerance_scales_with_the_width(self, w):
        # symmetric data with f'(0) = -a, f'(w) = a and m = 1 put the knots at
        # w/4 - a/2 and 3w/4 + a/2: each leaves [0, w] by delta for
        # a = w/2 + 2*delta.  Within 1e-9*max(1, w) both are clamped onto the
        # ends; past it the build raises.
        tol = 1e-9 * max(1.0, w)
        for delta, inside in ((0.5 * tol, True), (2.0 * tol, False)):
            a = 0.5 * w + 2.0 * delta
            data = IntervalData(x_left=0.0, x_right=w, z_left=1.0, z_right=1.0,
                                dz_left=-a, dz_right=a, m=1.0)
            if inside:
                sf = build_support(data)
                assert (sf.y_prime, sf.y) == (0.0, w)
            else:
                with pytest.raises(DegenerateSlope, match="leave the interval"):
                    build_support(data)

    @pytest.mark.parametrize("m", [math.inf, 1.2e308])
    def test_overflowing_bound_raises(self, m):
        # the knots come out NaN; the NaN-safe knot test rejects them
        with pytest.raises(NonFinite, match="overflows"):
            build_support(IntervalData(x_left=0.2, x_right=7.0, z_left=5.0, z_right=-42.0,
                                       dz_left=0.2, dz_right=-17.1, m=m))

    @pytest.mark.parametrize("x_left, x_right, m, message", [
        (1.0, 0.0, 1.0, "x_left=1.0 must be < x_right=0.0"),
        (1.0, 1.0, 1.0, "x_left=1.0 must be < x_right=1.0"),
        (0.0, 1.0, 0.0, "curvature bound m=0.0 must be positive"),
        (0.0, 1.0, -1.0, "curvature bound m=-1.0 must be positive"),
        (0.0, 1.0, math.nan, "curvature bound m=nan must be positive"),
    ])
    def test_bad_interval_data_rejected(self, x_left, x_right, m, message):
        data = IntervalData(x_left=x_left, x_right=x_right, z_left=0.0, z_right=0.0,
                            dz_left=0.0, dz_right=0.0, m=m)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_support(data)


class TestEval:
    def test_middle_piece_value(self):
        assert eval_support(symmetric_case(), 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_endpoint_values(self):
        sf = symmetric_case()
        assert eval_support(sf, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert eval_support(sf, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_out_of_interval(self):
        sf = symmetric_case()
        with pytest.raises(OutOfInterval):
            eval_support(sf, -0.1)
        with pytest.raises(OutOfInterval):
            eval_support_derivative(sf, 1.1)

    def test_out_of_interval_slack_scales_with_the_ends(self):
        # the slack is 1e-12*max(1, |x_left|, |x_right|): 1e-6 at x = 1e6
        sf = build_support(IntervalData(1e6, 1e6 + 1.0, 1.0, 1.0, 0.0, 0.0, 4.0))
        assert eval_support(sf, 1e6 + 1.0 + 5e-7) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(OutOfInterval):
            eval_support(sf, 1e6 + 1.0 + 2e-6)

    def test_derivative_values(self):
        sf = symmetric_case()
        assert eval_support_derivative(sf, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert eval_support_derivative(sf, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert eval_support_derivative(sf, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_array_evaluation_matches_scalar(self):
        sf = symmetric_case()
        xs = np.linspace(0.0, 1.0, 17)
        vals = eval_support(sf, xs)
        assert vals.shape == xs.shape
        for x, v in zip(xs, vals):
            assert v == eval_support(sf, float(x))

    def test_a_float_and_an_array_give_the_same_bits(self):
        # phi and phi' at 41 points of each of 700 random minorants, taken one
        # float at a time and as one array: with a square written as `**`,
        # numpy squares a 0-d array with pow and an array by multiplication,
        # and at this seed the 653rd minorant's phi differed in the last bit
        rng = np.random.default_rng(5)
        for _ in range(700):
            sf = build_support(random_interval_data(rng))
            xs = np.linspace(sf.data.x_left, sf.data.x_right, 41)
            for kernel in (eval_support, eval_support_derivative):
                values = kernel(sf, xs).tolist()
                assert [kernel(sf, x) for x in xs.tolist()] == values, kernel.__name__

    def test_float_kernels_match_numpy_path(self):
        rng = np.random.default_rng(53)
        zeros = 0
        for _ in range(2000):
            sf = build_support(random_interval_data(rng))
            assert_kernels_match_numpy(sf)
            zeros += sf.data.z_left > 0.0 and characteristic(sf).R <= 0.0
        assert zeros > 50


class TestStationaryPoint:
    def test_symmetric_midpoint(self):
        sf = symmetric_case()
        assert interior_stationary_point(sf) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_support_has_none(self):
        sf = build_support(IntervalData(x_left=0.0, x_right=1.0, z_left=0.0, z_right=2.0,
                                        dz_left=2.0, dz_right=2.0, m=0.5))
        assert interior_stationary_point(sf) is None

    def test_value_at_stationary_point(self):
        sf = symmetric_case()
        x_hat = interior_stationary_point(sf)
        assert x_hat == sf.vertex
        assert eval_support(sf, x_hat) == sf.q == pytest.approx(0.75, abs=1e-12)


class TestCharacteristic:
    def test_interior_minimum(self):
        ch = characteristic(symmetric_case())
        assert ch.kind == INTERIOR
        assert ch.h == pytest.approx(0.5)
        assert ch.R == pytest.approx(0.75)

    def test_right_end_minimum(self):
        sf = build_support(IntervalData(x_left=0.0, x_right=1.0, z_left=2.0, z_right=1.0,
                                        dz_left=-1.0, dz_right=-1.0, m=0.25))
        assert interior_stationary_point(sf) is None
        ch = characteristic(sf)
        assert (ch.kind, ch.h, ch.R) == (RIGHT_END, 1.0, 1.0)

    def test_tie_breaks_leftmost(self):
        # hand-assembled: equal endpoint values with a one-signed middle slope,
        # or a middle minimum equal to z_left, cannot arise from
        # build_support, but the argmin rule must still resolve each tie to
        # the leftmost candidate deterministically
        data = IntervalData(x_left=0.0, x_right=1.0, z_left=1.0, z_right=1.0,
                            dz_left=0.5, dz_right=0.5, m=0.1)
        sf = hand_built_support(data, y_prime=0.2, y=0.8, vertex=0.9, q=0.0)
        assert interior_stationary_point(sf) is None
        assert characteristic(sf) == (0.0, 1.0, LEFT_END)
        sf = hand_built_support(data, y_prime=0.2, y=0.8, vertex=0.5, q=1.0)
        assert interior_stationary_point(sf) == 0.5
        assert characteristic(sf) == (0.0, 1.0, LEFT_END)
        sf = hand_built_support(data._replace(z_left=2.0), 0.2, 0.8, 0.5, 1.0)
        assert characteristic(sf) == (0.5, 1.0, INTERIOR)

    def test_bound_on_random_data(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            sf = build_support(random_interval_data(rng))
            ch = characteristic(sf)
            assert ch.R <= min(sf.data.z_left, sf.data.z_right) + 1e-12 * data_scale(sf.data)


def quadratic_interval(M, p, q, x_left, x_right, m):
    """Endpoint data of 0.5*M*x**2 + p*x + q on [x_left, x_right] with bound
    m.  At m = M the minorant's middle piece is the quadratic itself, so the
    knots y' and y fall on the two ends, up to rounding; a smaller m pushes
    them outside, which build_support accepts up to its tolerance and clamps
    onto the ends."""
    f = lambda x: 0.5 * M * x * x + p * x + q  # noqa: E731
    df = lambda x: M * x + p  # noqa: E731
    return IntervalData(x_left=x_left, x_right=x_right, z_left=f(x_left), z_right=f(x_right),
                        dz_left=df(x_left), dz_right=df(x_right), m=m)


def smallest_valid_bound(M, p, q, x_left, x_right):
    """The smallest float m that build_support accepts for these data, found
    by bisection below M."""
    lo, hi = 0.99 * M, M
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        try:
            build_support(quadratic_interval(M, p, q, x_left, x_right, mid))
            hi = mid
        except DegenerateSlope:
            lo = mid


class TestKnotsAtTheEnds:
    """Knots that round onto the ends, or leave them by less than the
    tolerance 1e-9*max(1, width) and are clamped onto them: the stationary
    point and the characteristic must agree with the numpy path there.  The
    vertex decides x_hat only where it is near a knot, so some cases put the
    quadratic's vertex -p/M on an end or within the knots' tolerance of it."""

    CASES = {  # M, p, q, x_left, x_right, and the characteristic's kind at m = M
        "interior": (3.7, -2.1, 5.0, 0.2, 7.0, INTERIOR),
        "unit": (4.0, -1.0, 1.0, 0.0, 1.0, INTERIOR),
        "left_end": (0.3, 0.1, 2.0, 0.2, 7.0, LEFT_END),
        "right_end": (10.0, -30.0, 40.0, 1.0, 2.0, RIGHT_END),
        "vertex_on_left_end": (1.1, -1.1 * 0.2, 1.0, 0.2, 0.2 + 0.7, LEFT_END),
        "vertex_an_ulp_left_of_zero": (3.7, -3.7 * -5e-324, 1.0, 0.0, 1.0, LEFT_END),
        "vertex_within_tol_of_right_end": (0.3, -1.049999998767133, 1.0, 1.0, 3.5, RIGHT_END),
        "vertex_on_right_end": (7.3, -7.3 * 1.7, 5.0, 1.0, 1.0 + 0.7, RIGHT_END),
        # z_left > 0 and R <= 0: leftmost_zero takes phi(y') at the knot
        # y' = x_left.  In the first two phi(y') is 0.01, the sum of terms of
        # 8 to 20 in size.
        "root_just_right_of_x_left_below_zero": (4.0, -4.0, -15.99, -2.0, 2.0, INTERIOR),
        "root_just_right_of_x_left_above_zero": (4.0, -10.0, 12.01, 2.0, 3.5, INTERIOR),
        "root_before_a_negative_right_end": (2.6, -3.1, 0.4, -0.3, 1.1, RIGHT_END),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_smallest_valid_bound_and_an_ulp_above(self, case):
        M, p, q, x_left, x_right, kind = self.CASES[case]
        m_min = smallest_valid_bound(M, p, q, x_left, x_right)
        assert m_min < M
        for m in (m_min, math.nextafter(m_min, math.inf), M, math.nextafter(M, math.inf)):
            sf = build_support(quadratic_interval(M, p, q, x_left, x_right, m))
            tol = 1e-9 * max(1.0, x_right - x_left)
            assert x_left <= sf.y_prime < x_left + tol
            assert x_right - tol < sf.y <= x_right
            assert interior_stationary_point(sf) == numpy_stationary_point(sf)
            assert characteristic(sf) == numpy_characteristic(sf)
            assert_kernels_match_numpy(sf)
            if m == M:
                assert characteristic(sf).kind == kind
            if m == m_min:  # both knots outside and clamped onto the ends
                assert (sf.y_prime, sf.y) == (x_left, x_right)
        # a bound an ulp below m_min puts a knot past the tolerance
        with pytest.raises(DegenerateSlope, match="leave the interval"):
            build_support(quadratic_interval(M, p, q, x_left, x_right,
                                             math.nextafter(m_min, 0.0)))

    def test_stationary_point_rounding_below_the_left_knot(self):
        # the vertex falls on the left knot y' = x_left: no stationary point
        # lies strictly between the knots, and the left end is the minimum
        M = 3.7
        sf = build_support(quadratic_interval(M, -M * 0.2, 5.0, 0.2, 7.0,
                                              math.nextafter(M, math.inf)))
        assert sf.vertex == sf.y_prime == 0.2 and sf.x_hat is None
        assert characteristic(sf) == numpy_characteristic(sf) == (0.2, sf.data.z_left, LEFT_END)

    def test_vertex_within_the_knot_tolerance_of_an_end(self):
        # seeded quadratics whose vertex lies within the knot tolerance of an
        # end, at the four bounds of the test above
        rng = np.random.default_rng(11)
        for _ in range(500):
            M = float(10.0 ** rng.uniform(-1, 1))
            x_left = float(rng.uniform(-5.0, 5.0))
            x_right = x_left + float(10.0 ** rng.uniform(-1, 1))
            tol = 1e-9 * max(1.0, x_right - x_left)
            end = x_left if rng.random() < 0.5 else x_right
            vertex = end + float(rng.uniform(-1, 1) * tol * 10.0 ** rng.uniform(-9, 0))
            q = float(rng.uniform(0.5, 5.0))
            m_min = smallest_valid_bound(M, -M * vertex, q, x_left, x_right)
            for m in (m_min, math.nextafter(m_min, math.inf), M, math.nextafter(M, math.inf)):
                try:  # the knot test can reject m_min + ulp after accepting m_min
                    sf = build_support(quadratic_interval(M, -M * vertex, q, x_left, x_right, m))
                except DegenerateSlope:
                    continue
                assert interior_stationary_point(sf) == numpy_stationary_point(sf)
                assert characteristic(sf) == numpy_characteristic(sf), (M, vertex, m)

    def test_negative_zero_knot_on_a_zero_left_end(self):
        sf = build_support(quadratic_interval(*self.CASES["unit"][:5], 4.0))
        assert (sf.data.x_left, sf.y_prime, sf.y) == (0.0, 0.0, 1.0)
        signed = hand_built_support(sf.data, -0.0, sf.y, sf.vertex, sf.q)
        assert math.copysign(1.0, signed.y_prime) == -1.0
        assert interior_stationary_point(signed) == numpy_stationary_point(signed) == 0.25
        assert characteristic(signed) == numpy_characteristic(signed) == characteristic(sf)
        assert_kernels_match_numpy(signed)


class TestLeftmostZero:
    def test_left_cap_root(self):
        # endpoint data of f(x) = 1 - 3x; the left cap with m = 2 reaches zero
        # before the first knot, so the root comes from the cap quadratic
        sf = build_support(IntervalData(x_left=0.0, x_right=3.0, z_left=1.0, z_right=-8.0,
                                        dz_left=-3.0, dz_right=-3.0, m=2.0))
        assert eval_support(sf, sf.y_prime) <= 0.0
        x0 = leftmost_zero(sf)
        assert x0 == pytest.approx((-3.0 + math.sqrt(13.0)) / 2.0, abs=1e-12)
        assert 1.0 - 3.0 * x0 - x0**2 == pytest.approx(0.0, abs=1e-12)

    def test_zero_at_left_margin(self):
        sf = build_support(IntervalData(x_left=0.0, x_right=3.0, z_left=0.0, z_right=-3.0,
                                        dz_left=-1.0, dz_right=-1.0, m=1.0))
        assert leftmost_zero(sf) == 0.0

    @pytest.mark.parametrize("x_left", [0.0, -0.0, 2.5, -3.0])
    def test_zero_value_at_a_rising_left_end(self, x_left):
        # phi rises from phi(x_left) = z_left = 0, so R = 0 at the left end
        # while phi(y') and the middle minimum are positive: the zero is
        # x_left, not the right cap's crossing clamped to x_right
        sf = build_support(IntervalData(x_left, x_left + 1.0, 0.0, 1.0, 1.0, 1.0, 1.0))
        assert characteristic(sf) == Characteristic(h=x_left, R=0.0, kind=LEFT_END)
        assert eval_support(sf, sf.y_prime) > 0.0
        x0 = leftmost_zero(sf)
        assert x0 == x_left and math.copysign(1.0, x0) == math.copysign(1.0, x_left)
        assert eval_support(sf, x0) == 0.0

    def test_symmetric_shifted_down(self):
        sf = build_support(IntervalData(x_left=0.0, x_right=1.0, z_left=0.0, z_right=0.0,
                                        dz_left=0.0, dz_right=0.0, m=4.0))
        assert eval_support(sf, sf.y_prime) == pytest.approx(-0.125, abs=1e-12)
        assert leftmost_zero(sf) == pytest.approx(0.0, abs=1e-12)

    def test_requires_nonpositive_characteristic(self):
        with pytest.raises(NoZero):
            leftmost_zero(symmetric_case())

    def test_requires_nonnegative_left_value(self):
        # about half of these draws start below zero
        rng = np.random.default_rng(53)
        rejected = 0
        for _ in range(20000):
            data = random_interval_data(rng)
            if data.z_left < 0.0:
                with pytest.raises(ValueError, match="z_left >= 0"):
                    leftmost_zero(build_support(data))
                rejected += 1
        assert rejected > 5000

    def test_zero_correctness_on_random_data(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 300:
            data = random_interval_data(rng)
            if data.z_left <= 0.0:
                continue
            sf = build_support(data)
            ch = characteristic(sf)
            if ch.R > 0.0:
                continue
            checked += 1
            x0 = leftmost_zero(sf)
            scale = max(1.0, abs(data.z_left), abs(data.z_right))
            assert abs(eval_support(sf, x0)) <= 1e-9 * scale
            if x0 > data.x_left:
                ts = np.linspace(data.x_left, x0, 202)[:-2]
                vals = eval_support(sf, ts)
                if ch.R < 0.0:
                    assert np.all(vals > 0.0)
                else:
                    assert np.all(vals >= -1e-12 * scale)


# Inputs of the root formulas: half of them special values (signed zeros, the
# smallest subnormal, values near the ends of the float range, +-1), half
# magnitudes from 1e-20 to 1e20 of either sign.
SPECIAL = (0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e300, -1e300, 1.0, -1.0)


def _draw(rng):
    if rng.random() < 0.5:
        return rng.choice(SPECIAL)
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-20.0, 20.0)


def _outcome(f, signed):
    """f()'s value (with its sign when `signed`), or the type and text of the
    error it raises."""
    try:
        x = f()
    except (NumericalDiscriminant, OverflowError) as e:
        return type(e), str(e)
    if x != x:
        return ("nan",)
    return (x, math.copysign(1.0, x)) if signed else (x,)


class TestSmallerRoot:
    """`_smaller_root` is the crossing of both caps of the minorant: the left
    cap at x_left - t(m, dz_left, -z_left) and the right cap at
    x_right - t(m, dz_right, -z_right), each clamped into the interval."""

    @pytest.mark.parametrize("negative_zero_ends", [False, True])
    def test_each_piece_equals_its_own_root_formula(self, negative_zero_ends):
        # With an end at -0.0, a crossing on that end can come out as 0.0 in
        # one formula and -0.0 in the other; the values are equal.
        rng = random.Random(19)
        raised = 0
        for _ in range(20_000):
            m = abs(_draw(rng)) or 1.0
            x_left, x_right = sorted((_draw(rng), _draw(rng)))
            if not negative_zero_ends:
                x_left, x_right = x_left + 0.0, x_right + 0.0  # -0.0 becomes 0.0
            if not x_left < x_right:
                continue
            z_left, z_right, dz_left, dz_right = (_draw(rng) for _ in range(4))
            s = SimpleNamespace(data=IntervalData(x_left, x_right, z_left, z_right,
                                                  dz_left, dz_right, m))
            pieces = (
                (right_root_left_cap, lambda: x_left - _smaller_root(m, dz_left, -z_left)),
                (right_root_right_cap, lambda: x_right - _smaller_root(m, dz_right, -z_right)),
            )
            for oracle, crossing in pieces:
                expected = _outcome(lambda: oracle(s), not negative_zero_ends)
                assert _outcome(lambda: _clamped(s, crossing()), not negative_zero_ends) \
                    == expected, (oracle.__name__, s)
                raised += expected[0] is NumericalDiscriminant
        assert raised > 1000

    # m = 2: B = 10 puts the slack's scale at B^2 = 100, B = -1e-3 at 1
    @pytest.mark.parametrize("B", [10.0, -1e-3])
    def test_discriminant_within_the_slack_is_a_double_root(self, B):
        m = 2.0
        C = (B * B + 0.5e-12 * max(1.0, B * B)) / (2.0 * m)
        assert -1e-12 * max(1.0, B * B) < B ** 2 - 2.0 * m * C < 0.0
        assert _smaller_root(m, B, C) == pytest.approx(-B / m, rel=1e-6)

    @pytest.mark.parametrize("B", [10.0, -1e-3])
    def test_discriminant_past_the_slack_raises(self, B):
        m = 2.0
        C = (B * B + 1.5e-12 * max(1.0, B * B)) / (2.0 * m)
        assert B ** 2 - 2.0 * m * C < -1e-12 * max(1.0, B * B)
        with pytest.raises(NumericalDiscriminant, match="discriminant .* below -1e-12"):
            _smaller_root(m, B, C)


class TestModuleProperties:
    def test_endpoint_interpolation_and_gluing_bulk(self):
        rng = np.random.default_rng(101)
        for _ in range(2000):
            sf = build_support(random_interval_data(rng))
            ok, err = check_endpoint_interpolation(sf)
            assert ok, f"endpoint interpolation error {err}"
            ok, err = check_c1_gluing(sf)
            assert ok, f"gluing error {err}"

    def test_knot_ordering_under_adaptive_bounds(self):
        rng = np.random.default_rng(23)
        for problem in registry():
            for sf in eq22_supports(problem, rng):
                w = sf.data.x_right - sf.data.x_left
                assert sf.data.x_left - 1e-9 * w <= sf.y_prime <= sf.y <= sf.data.x_right + 1e-9 * w

    def test_support_is_minorant_on_testbed(self):
        rng = np.random.default_rng(37)
        for problem in registry():
            for _ in range(5):
                data = interval_from_testbed(problem, rng)
                sf = build_support(data)
                xs = np.linspace(data.x_left, data.x_right, 1000)
                gap = np.asarray(problem.f(xs), float) - eval_support(sf, xs)
                assert gap.min() >= -1e-9 * data_scale(data), (problem.id, gap.min())

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            data = random_interval_data(rng)
            sf = build_support(data)
            w = data.x_right - data.x_left
            h = 1e-6 * w
            for frac in (0.1, 0.45, 0.9):
                x = data.x_left + frac * w
                if min(abs(x - sf.y_prime), abs(x - sf.y)) < 2 * h:
                    continue
                if x - h < data.x_left or x + h > data.x_right:
                    continue
                fd = (eval_support(sf, x + h) - eval_support(sf, x - h)) / (2 * h)
                slope = eval_support_derivative(sf, x)
                assert fd == pytest.approx(slope, rel=1e-6, abs=1e-6 * data_scale(data) / w)


@given(
    x_left=st.floats(-5, 5),
    width=st.floats(1e-3, 10),
    coeffs=st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-5, 5)),
    wave=st.tuples(st.floats(1e-3, 5), st.floats(0.1, 8)),
    headroom=st.floats(1.05, 5.0),
    shift=st.sampled_from([0.0, 1e3, -1e3, 1e6, -1e6]),
)
# nearly linear data under a small m: the vertex lies about 7e4 left of the
# interval, where 0.5*m*(x - vertex)^2 + q would lose 2.6e-11 to cancellation
@example(x_left=0.0, width=0.00390625, coeffs=(0.0, 8.90625, 0.0),
         wave=(0.0078125, 0.1015625), headroom=1.5, shift=0.0)
# at -1e6 the slope gap at y' takes three roundings of x: y' twice, the vertex once
@example(x_left=-0.7980052084276954, width=1.8976325133707037,
         coeffs=(-4.58057706497657, -9.961484467565775, 0.36307095671635814),
         wave=(3.6714829533178452, 5.859356189089578), headroom=2.948555768067978,
         shift=-1e6)
@settings(max_examples=300, deadline=None)
def test_invariants_hypothesis(x_left, width, coeffs, wave, headroom, shift):
    # f is a quadratic plus a sinusoid in x - shift, on an interval moved by
    # shift: far from zero, an interval narrow against |x| must get the
    # minorant it gets at zero, up to the rounding of x itself
    alpha, beta, gamma = coeffs
    amp, freq = wave

    def f(x):
        u = x - shift
        return alpha + beta * u + 0.5 * gamma * u * u + amp * np.sin(freq * u)

    def df(x):
        u = x - shift
        return beta + gamma * u + amp * freq * np.cos(freq * u)

    m = (abs(gamma) + amp * freq * freq + 1e-6) * headroom
    x_left += shift
    x_right = x_left + width
    data = IntervalData(x_left=x_left, x_right=x_right,
                        z_left=float(f(x_left)), z_right=float(f(x_right)),
                        dz_left=float(df(x_left)), dz_right=float(df(x_right)), m=m)
    sf = build_support(data)
    # the rounding of x itself: moving x by half an ulp moves f, or phi with
    # its knots, by up to half of x_rounding
    slack = x_rounding(data)
    assert x_left - 1e-9 * width <= sf.y_prime <= sf.y <= x_right + 1e-9 * width
    ok, err = check_endpoint_interpolation(sf)
    assert ok, err
    ok, err = check_c1_gluing(sf, slack=1.5 * slack)
    assert ok, err
    ch = characteristic(sf)
    assert ch.R <= min(sf.data.z_left, sf.data.z_right) + 1e-9 * data_scale(sf.data)
    assert_kernels_match_numpy(sf)
    # phi <= f on a mesh, up to the rounding of x in f and in phi's knots and
    # the relative rounding of their terms
    xs = np.linspace(x_left, x_right, 201)
    gap = eval_support(sf, xs) - f(xs)
    assert gap.max() <= slack + 1e-12 * data_scale(data), gap.max()
