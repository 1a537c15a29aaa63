import dataclasses
import math

import numpy as np
import pytest

from firstroot import (
    ChebyshevParams,
    DomainError,
    NonFinite,
    NoRootGlobalMin,
    PassbandParams,
    Problem,
    SolverConfig,
    UnknownProblem,
    all_ids,
    chebyshev_transfer,
    curvature_bound,
    cutoff_objective,
    exact_lipschitz_oracle,
    find_fmax,
    get_problem,
    numeric_derivative,
    passband_transfer,
    registry,
    solve,
)
from firstroot.problems import CHEBYSHEV_DOMAIN, PASSBAND_DOMAIN


class TestRegistry:
    def test_twenty_problems_on_common_domain(self):
        probs = registry()
        assert len(probs) == 20
        assert [p.id for p in probs] == [f"t{i:02d}" for i in range(1, 21)]
        assert all(p.domain == (0.2, 7.0) for p in probs)

    def test_t01_metadata(self):
        p = get_problem("t01")
        assert p.reference_frl == 3.0117
        assert p.root_count == 1
        assert float(p.f(1.0)) == pytest.approx(5.0)

    def test_t10_metadata(self):
        p = get_problem("t10")
        assert p.root_count == 34
        assert p.reference_frl == 1.26554

    def test_t12_seam_is_c1(self):
        p = get_problem("t12")
        left = math.sin(5 * math.pi) + 2.0
        right = 5 * math.sin(math.pi) + 2.0
        assert left == pytest.approx(2.0, abs=1e-12)
        assert right == pytest.approx(2.0, abs=1e-12)
        assert float(p.f(math.pi)) == pytest.approx(2.0, abs=1e-12)
        assert 5 * math.cos(5 * math.pi) == pytest.approx(-5.0, abs=1e-12)
        assert 5 * math.cos(math.pi) == pytest.approx(-5.0, abs=1e-12)
        assert float(p.df(math.pi)) == pytest.approx(-5.0, abs=1e-12)

    def test_left_margin_positive_everywhere(self):
        for p in registry():
            assert float(p.f(0.2)) > 0.0, p.id

    def test_reference_roots_are_roots(self):
        for p in registry():
            if p.reference_frl is None:
                continue
            resid = abs(float(p.f(p.reference_frl)))
            scale = max(1.0, abs(float(p.df(p.reference_frl))))
            assert resid <= 1e-3 * scale, (p.id, resid)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(17)
        for p in registry():
            xs = rng.uniform(p.a, p.b, size=1000)
            if p.id == "t12":
                xs = xs[np.abs(xs - np.pi) > 1e-4]
            ana = np.asarray(p.df(xs), dtype=float)
            num = numeric_derivative(p.f, xs)
            denom = np.maximum(1.0, np.abs(ana))
            assert np.max(np.abs(ana - num) / denom) <= 1e-6, p.id

    def test_t02_has_no_root(self):
        p = get_problem("t02")
        xs = np.linspace(p.a, p.b, 1_000_001)
        assert float(np.min(p.f(xs))) > 0.0

    def test_unknown_problem(self):
        with pytest.raises(UnknownProblem):
            get_problem("t99")

    def test_all_ids(self):
        ids = all_ids()
        assert len(ids) == 22
        assert ids[-2:] == ["chebyshev", "passband"]


class TestChebyshevTransfer:
    def test_dc_value(self):
        assert chebyshev_transfer(0.0, ChebyshevParams(R=1, C=4, L=2)) == pytest.approx(0.5)

    def test_tail_decays_monotonically(self):
        ws = np.array([5.0, 10.0, 20.0, 40.0, 80.0])
        vals = chebyshev_transfer(ws)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-4

    def test_ripple_peak_value(self):
        # the response returns to its DC value exactly at omega = sqrt(3)/4
        assert chebyshev_transfer(math.sqrt(0.1875)) == pytest.approx(0.5, abs=1e-12)

    def test_positive_and_finite(self):
        ws = np.linspace(1e-3, 2.0, 10_001)
        vals = chebyshev_transfer(ws)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)


class TestPassbandTransfer:
    def test_rejects_nonpositive_omega(self):
        with pytest.raises(DomainError):
            passband_transfer(0.0)
        with pytest.raises(DomainError):
            passband_transfer(np.array([1.0, -2.0]))

    def test_vanishes_at_both_ends(self):
        mid = passband_transfer(80.0)
        assert passband_transfer(1e-3) < 1e-6 * mid
        assert passband_transfer(1e7) < 1e-6 * mid

    def test_positive_and_finite(self):
        ws = np.linspace(1.0, 1e4, 10_001)
        vals = passband_transfer(ws)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)


class TestFindFmax:
    def test_unimodal(self):
        fmax, arg = find_fmax(lambda w: 1.0 / (1.0 + (np.asarray(w) - 3.0) ** 2), (0.0, 10.0),
                              grid_points=100_000)
        assert fmax == pytest.approx(1.0, abs=1e-9)
        assert arg == pytest.approx(3.0, abs=1e-5)

    def test_constant_ties_to_left(self):
        fmax, arg = find_fmax(lambda w: 2.5 * np.ones_like(np.asarray(w, dtype=float)),
                              (1.0, 4.0), grid_points=1000)
        assert fmax == 2.5
        assert arg == 1.0

    def test_chebyshev_peak_is_half(self):
        fmax, _ = find_fmax(chebyshev_transfer, CHEBYSHEV_DOMAIN)
        assert fmax == pytest.approx(0.5, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_fmax(lambda w: w, (1.0, 1.0))
        with pytest.raises(ValueError):
            find_fmax(lambda w: w, (0.0, 1.0), grid_points=10)


class TestCutoffObjective:
    def test_chebyshev_positive_at_left_margin(self):
        p = get_problem("chebyshev")
        assert float(p.f(p.a)) > 0.0

    def test_passband_positive_at_left_margin(self):
        p = get_problem("passband")
        assert float(p.f(p.a)) > 0.0
        assert p.domain == PASSBAND_DOMAIN

    def test_constant_transfer_has_no_zero(self):
        prob = cutoff_objective(lambda w: 0.8 * np.ones_like(np.asarray(w, dtype=float)),
                                f_max=0.8, negate=False, pid="const", domain=(0.0, 1.0))
        res = solve(prob, SolverConfig(method="a2", sigma_fraction=1e-2))
        assert isinstance(res.outcome, NoRootGlobalMin)
        assert res.outcome.f_best == pytest.approx(0.5 * 0.8**2)

    def test_fmax_validation(self):
        with pytest.raises(ValueError):
            cutoff_objective(lambda w: w, f_max=0.0, negate=False)

    def test_filter_problems_cached(self):
        assert get_problem("chebyshev") is get_problem("chebyshev")


class TestNumericDerivative:
    def test_square(self):
        assert numeric_derivative(lambda x: np.asarray(x) ** 2, 3.0) == pytest.approx(6.0, rel=1e-6)

    def test_sine_at_zero(self):
        assert numeric_derivative(np.sin, 0.0) == pytest.approx(1.0, rel=1e-6)

    def test_constant(self):
        assert abs(numeric_derivative(lambda x: 4.2 * np.ones_like(np.asarray(x, dtype=float)), 1.3)) <= 1e-9

    def test_non_finite_detected(self):
        with pytest.raises(NonFinite):
            numeric_derivative(np.sqrt, 1e-12)

    def test_array_input(self):
        xs = np.array([1.0, 2.0, 3.0])
        out = numeric_derivative(lambda x: np.asarray(x) ** 2, xs)
        assert np.allclose(out, 2 * xs, rtol=1e-6)


class TestLipschitzOracle:
    def test_pure_quadratic(self):
        p = Problem(id="q", name="q", a=0.0, b=1.0,
                    f=lambda x: 0.5 * np.asarray(x, dtype=float) ** 2,
                    df=lambda x: np.asarray(x, dtype=float))
        assert exact_lipschitz_oracle(p) == pytest.approx(1.01, rel=1e-9)

    def test_sine(self):
        p = Problem(id="s", name="s", a=0.0, b=2 * math.pi,
                    f=lambda x: np.sin(x), df=lambda x: np.cos(x))
        assert exact_lipschitz_oracle(p) == pytest.approx(1.01, rel=1e-4)

    def test_scalar_valued_derivative(self):
        # df returns a float for an array: a line, whose f' does not vary
        p = Problem(id="line", name="1.1 - x", a=0, b=1, f=lambda x: 1.1 - x,
                    df=lambda x: -1.0)
        assert exact_lipschitz_oracle(p) == 0.0

    def test_t05_frozen_value(self):
        k = exact_lipschitz_oracle(get_problem("t05"))
        assert k == pytest.approx(25.25, rel=0.01)

    def test_stable_under_refinement(self):
        p = get_problem("t10")
        k1 = exact_lipschitz_oracle(p, grid_points=200_000)
        k2 = exact_lipschitz_oracle(p, grid_points=400_000)
        assert abs(k2 - k1) <= 0.01 * k1

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            exact_lipschitz_oracle(get_problem("t01"), grid_points=10)

    def test_curvature_bound_prefers_a_supplied_K(self):
        p = get_problem("t05")
        assert curvature_bound(p) == exact_lipschitz_oracle(p)
        assert curvature_bound(dataclasses.replace(p, lipschitz_K=2.5)) == 2.5


class TestParamsValidation:
    def test_chebyshev_params(self):
        with pytest.raises(ValueError):
            ChebyshevParams(R=0.0)

    def test_passband_params(self):
        with pytest.raises(ValueError):
            PassbandParams(C2=-1e-7)
