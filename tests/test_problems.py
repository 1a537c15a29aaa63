"""The problem catalog, the filter models and the dense-grid oracles.

`TestFilterValues` pins f and f' of both filter objectives, called on
scalars and on an array, to tests/data/filter_values.json (float.hex of
every value at 200 fixed points).  A change that is meant to move them must
regenerate the file, with `PYTHONPATH=src python tests/test_problems.py`,
and say why they moved.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import firstroot
from firstroot import (
    DomainError,
    NoRootGlobalMin,
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
    passband_transfer,
    registry,
    solve,
)
from firstroot.problems import (
    _FMAX_GRID,
    _MESH_BLOCK,
    _ORACLE_GRID,
    CHEBYSHEV_DOMAIN,
    FILTERS,
    PASSBAND_DOMAIN,
    TESTBED_DOMAIN,
    _mesh_slice,
    _piecewise,
    on_mesh,
)

from helpers import central_difference, cosines_problem, one_shot_fmax, one_shot_lipschitz


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
            num = central_difference(p.f, xs)
            denom = np.maximum(1.0, np.abs(ana))
            assert np.max(np.abs(ana - num) / denom) <= 1e-6, p.id

    def test_t14_is_the_catalog_sum(self):
        # f and f' skip the catalog's k = 0 term, which is zero: every value,
        # its sign bit included, equals the sum over k = 0..5 on a mesh and at
        # scalar points
        def f(x):
            return sum(k * np.cos((k + 1) * x + k) for k in range(6)) + 12.0

        def df(x):
            return -sum(k * (k + 1) * np.sin((k + 1) * x + k) for k in range(6))

        p = get_problem("t14")
        assert p.name == "sum_{k=0..5} k*cos((k+1)*x + k) + 12"
        xs = np.linspace(p.a, p.b, 200_001)
        for got, want in ((p.f(xs), f(xs)), (p.df(xs), df(xs))):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        for x in np.random.default_rng(14).uniform(p.a, p.b, 2000).tolist() + [p.a, p.b]:
            assert float(p.f(x)) == float(f(x))
            assert float(p.df(x)) == float(df(x))

    @pytest.mark.parametrize("pid", [
        pytest.param(pid, marks=pytest.mark.xfail(
            strict=True, reason="the catalog's root_count of 3 for t19 is wrong: "
                                "f = 1.6 - x - sin 3x changes sign once on [0.2, 7]"))
        if pid == "t19" else pid
        for pid in all_ids()[:20] if pid != "t17"])
    def test_root_count_is_the_number_of_sign_changes(self, pid):
        # every catalog root but t17's is simple (see the test below)
        p = get_problem(pid)
        assert sign_changes(p, 2_000_001) == (p.root_count or 0)

    def test_t17_root_count_counts_two_double_roots(self):
        # sqrt(x) sin(x)**2 touches zero at pi and 2 pi without a sign change:
        # f and f' vanish there and f'' = 2 sqrt(x) > 0, so each is a root of
        # multiplicity two and the catalog's 4 counts them with multiplicity
        p = get_problem("t17")
        assert p.root_count == 4
        assert sign_changes(p, 2_000_001) == 0
        assert float(np.min(p.f(np.linspace(p.a, p.b, 2_000_001)))) >= 0.0
        roots = np.array([math.pi, 2 * math.pi])
        for root in roots.tolist():
            assert abs(p.f(root)) <= 1e-30
            assert abs(p.df(root)) <= 1e-14
        assert central_difference(p.df, roots) == pytest.approx(2 * np.sqrt(roots), rel=1e-6)

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


def sign_changes(problem: Problem, n: int) -> int:
    """Sign changes of f between consecutive nonzero values on an n-point
    mesh of [a, b]."""
    signs = np.sign(problem.f(np.linspace(problem.a, problem.b, n)))
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


class TestProblemDomain:
    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (1.0, 1.0)])
    def test_rejects_an_infinite_or_empty_domain(self, a, b):
        with pytest.raises(ValueError, match="must be finite and non-empty"):
            Problem(id="p", name="p", a=a, b=b, f=np.cos, df=np.sin)


class TestChebyshevTransfer:
    def test_dc_value(self):
        # at omega = 0 the response is 1 / sqrt(2**2), whatever R, C and L
        assert chebyshev_transfer(0.0) == pytest.approx(0.5)

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

    @pytest.mark.parametrize("omega", [-0.0, -2.0, 0, -1, np.float64(0.0), np.array(-2.0),
                                       np.array([[3.0], [0.0]]), np.array([np.nan, -1.0])],
                             ids=["-0.0", "-2.0", "int 0", "int -1", "float64", "0-d", "2-d",
                                  "nan and -1"])
    def test_rejects_nonpositive_omega_on_both_paths(self, omega):
        with pytest.raises(DomainError, match="requires omega > 0"):
            passband_transfer(omega)

    def test_vanishes_at_both_ends(self):
        mid = passband_transfer(80.0)
        assert passband_transfer(1e-3) < 1e-6 * mid
        assert passband_transfer(1e7) < 1e-6 * mid

    def test_positive_and_finite(self):
        ws = np.linspace(1.0, 1e4, 10_001)
        vals = passband_transfer(ws)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)


FILTER_VALUES = Path(__file__).with_name("data") / "filter_values.json"


def filter_points(pid: str) -> list[float]:
    """200 points for a filter objective: 101 evenly spaced over its domain,
    ends included, and 99 log-spaced from a/1000 to 1000*b."""
    a, b = get_problem(pid).domain
    return np.linspace(a, b, 101).tolist() + np.geomspace(a / 1e3, b * 1e3, 99).tolist()


def filter_values(pid: str, xs: list[float]) -> dict:
    """float.hex of f and f' at each of xs, called on each float (scalar) and
    on the array of all of them."""
    p = get_problem(pid)
    mesh = np.array(xs)
    doc = {"x": [x.hex() for x in xs]}
    for name, fn in (("f", p.f), ("df", p.df)):
        doc[name + "_scalar"] = [fn(x).hex() for x in xs]
        doc[name + "_array"] = [v.hex() for v in fn(mesh).tolist()]
    return doc


@pytest.fixture(scope="module")
def filter_problems():
    return {pid: get_problem(pid) for pid in FILTERS}


TRANSFERS = {"chebyshev": chebyshev_transfer, "passband": passband_transfer}


def evaluators(problems):
    """(id, callable) for each filter's P, P', transfer function, f and f'."""
    return [(f"{pid}.{name}", fn)
            for pid, (_, (power, dpower), _, _) in FILTERS.items()
            for name, fn in (("power", power), ("dpower", dpower),
                             ("transfer", TRANSFERS[pid]), ("f", problems[pid].f),
                             ("df", problems[pid].df))]


def complex_step(fn, x: np.ndarray) -> np.ndarray:
    """The derivative of a real-analytic fn on the array x by the complex
    step Im fn(x + ih) / h, h = 1e-20 x: free of cancellation, so exact to
    rounding."""
    h = 1e-20 * x
    return fn(x + 1j * h).imag / h


class TestFilterValues:
    """Scalar calls take Python float arithmetic and array calls numpy's array
    loops; the one formula gives the same bits on both, the stored ones."""

    @pytest.mark.parametrize("pid", list(FILTERS))
    def test_values_equal_the_stored_ones(self, pid):
        stored = json.loads(FILTER_VALUES.read_text())[pid]
        assert len(stored["x"]) == 200
        assert stored["f_scalar"] == stored["f_array"]
        assert stored["df_scalar"] == stored["df_array"]
        assert filter_values(pid, [float.fromhex(x) for x in stored["x"]]) == stored

    @pytest.mark.parametrize("pid", list(FILTERS))
    def test_derivative_is_exact(self, filter_problems, pid):
        # f' = +-P' equals the complex-step derivative of P to rounding; a
        # central difference of f, off by 2e-10 to 2e-9 of max|f'| here, fails
        _, (power, _), (a, b), negate = FILTERS[pid]
        xs = np.linspace(a, b, 2001)
        df = filter_problems[pid].df(xs)
        reference = (-1.0 if negate else 1.0) * complex_step(power, xs)
        assert np.max(np.abs(df - reference)) <= 1e-13 * np.max(np.abs(df))

    def test_stored_points_are_the_generated_ones(self):
        doc = json.loads(FILTER_VALUES.read_text())
        assert sorted(doc) == sorted(FILTERS)
        for pid in FILTERS:
            assert doc[pid]["x"] == [x.hex() for x in filter_points(pid)]

    @pytest.mark.parametrize("omega", [1.5, 2, np.float64(1.5), np.array(1.5)],
                             ids=["float", "int", "float64", "0-d"])
    def test_a_scalar_gives_a_float(self, filter_problems, omega):
        for name, fn in evaluators(filter_problems):
            assert type(fn(omega)) is float, name

    @pytest.mark.parametrize("shape", [(1,), (5,), (2, 3)])
    def test_an_array_gives_an_array_of_its_shape(self, filter_problems, shape):
        omega = np.linspace(1.2, 1.9, math.prod(shape)).reshape(shape)
        for name, fn in evaluators(filter_problems):
            out = fn(omega)
            assert type(out) is np.ndarray and out.shape == shape and out.dtype == float, name
            scalars = [fn(w) for w in omega.ravel().tolist()]
            assert scalars == pytest.approx(out.ravel().tolist(), rel=1e-6), name

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("omega", [1e100, 1e200, 1e308, math.inf])
    def test_a_huge_omega_gives_zero(self, filter_problems, omega):
        # P is written with * only, which overflows to inf where a Python
        # float's ** would raise OverflowError; P' would be inf / inf from
        # about 1e61 on, so omega is capped at 1e55, where P and P' are 0.0
        for pid, transfer in TRANSFERS.items():
            assert transfer(omega) == 0.0
            assert transfer(np.array([omega])).tolist() == [0.0]
            assert math.isfinite(filter_problems[pid].f(omega))
            assert filter_problems[pid].df(omega) == 0.0
            assert filter_problems[pid].df(np.array([omega])).tolist() == [0.0]

    def test_no_warning_in_the_domain(self, filter_problems):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pid in FILTERS:
                xs = np.array(filter_points(pid)[:101])
                for name, fn in evaluators(filter_problems):
                    if name.startswith(pid):
                        fn(xs)
                        for x in xs.tolist():
                            fn(x)


class TestFindFmax:
    def test_unimodal(self):
        fmax, arg = find_fmax(lambda w: 1.0 / (1.0 + (np.asarray(w) - 3.0) ** 2), (0.0, 10.0))
        assert fmax == pytest.approx(1.0, abs=1e-9)
        assert arg == pytest.approx(3.0, abs=1e-5)

    def test_constant_ties_to_left(self):
        def transfer(w):
            return 2.5 * np.ones_like(np.asarray(w, dtype=float))

        fmax, arg = find_fmax(transfer, (1.0, 4.0))
        assert fmax == 2.5
        assert arg == 1.0
        assert (fmax, arg) == one_shot_fmax(transfer, (1.0, 4.0))

    def test_maximum_on_the_last_mesh_point(self):
        # the refinement bracket is clamped to the mesh at the right end too
        assert find_fmax(lambda w: np.asarray(w, dtype=float), (1.0, 2.0)) == (2.0, 2.0)

    def test_chebyshev_peak_is_half(self):
        fmax, _ = find_fmax(chebyshev_transfer, CHEBYSHEV_DOMAIN)
        assert fmax == pytest.approx(0.5, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_fmax(lambda w: w, (1.0, 1.0))


class TestCutoffObjective:
    def test_chebyshev_positive_at_left_margin(self):
        p = get_problem("chebyshev")
        assert float(p.f(p.a)) > 0.0

    def test_passband_positive_at_left_margin(self):
        p = get_problem("passband")
        assert float(p.f(p.a)) > 0.0
        assert p.domain == PASSBAND_DOMAIN

    def test_constant_transfer_has_no_zero(self):
        prob = cutoff_objective(lambda w: 0.64 * np.ones_like(np.asarray(w, dtype=float)),
                                lambda w: np.zeros_like(np.asarray(w, dtype=float)),
                                f_max=0.8, negate=False, pid="const", domain=(0.0, 1.0))
        res = solve(prob, SolverConfig(method="a2", sigma_fraction=1e-2))
        assert isinstance(res.outcome, NoRootGlobalMin)
        assert res.outcome.f_best == pytest.approx(0.5 * 0.8**2)

    def test_fmax_validation(self):
        with pytest.raises(ValueError):
            cutoff_objective(lambda w: w, lambda w: 1.0, f_max=0.0, negate=False)

    def test_filter_problems_cached(self):
        assert get_problem("chebyshev") is get_problem("chebyshev")


class TestOnMesh:
    @pytest.mark.parametrize("value", [-1.0, 2, np.float64(0.5), np.array(3.0), np.array([4.0])],
                             ids=["float", "int", "float64", "0-d", "1-element"])
    def test_other_shapes_are_broadcast_read_only(self, value):
        x = np.linspace(0.0, 1.0, 5)
        y = on_mesh(lambda _: value, x)
        assert y.shape == x.shape and y.dtype == float
        assert (y == float(np.ravel(value)[0])).all()
        assert not y.flags.writeable

    def test_an_x_shaped_result_is_passed_through(self):
        x = np.linspace(0.0, 1.0, 5)
        out = 2.0 * x
        y = on_mesh(lambda _: out, x)
        assert y is out and y.flags.writeable
        ints = on_mesh(lambda v: np.arange(len(v)), x)
        assert ints.dtype == float and ints.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


class TestPiecewise:
    """`_piecewise` with t12's pieces, each wrapped to record the points it is
    given."""

    @staticmethod
    def pieces():
        seen = {"left": [], "right": []}

        def left(x):
            seen["left"].append(np.array(x, copy=True))
            return np.sin(5 * x) + 2.0

        def right(x):
            seen["right"].append(np.array(x, copy=True))
            return 5 * np.sin(x) + 2.0

        return left, right, seen

    def test_each_piece_sees_only_its_own_points(self):
        left, right, seen = self.pieces()
        x = np.array([3.0, 3.2, np.pi, 3.1, 4.0])
        _piecewise(x, np.pi, left, right)
        assert [v.tolist() for v in seen["left"]] == [[3.0, np.pi, 3.1]]
        assert [v.tolist() for v in seen["right"]] == [[3.2, 4.0]]

    @pytest.mark.parametrize("x", [np.sort(np.append(np.linspace(2.5, 3.8, 1001), np.pi)),
                                   np.linspace(0.2, 3.0, 257), np.linspace(3.2, 7.0, 257),
                                   np.empty(0)],
                             ids=["across-pi", "below", "above", "empty"])
    def test_values_equal_both_pieces_everywhere(self, x):
        left, right, seen = self.pieces()
        got = _piecewise(x, np.pi, left, right)
        n = int((x <= np.pi).sum())
        assert [len(v) for v in seen["left"]] == [n]
        assert [len(v) for v in seen["right"]] == [len(x) - n]
        want = np.where(x <= np.pi, left(x), right(x))
        assert got.shape == x.shape and got.dtype == float
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

    @pytest.mark.parametrize("x, side", [(3.0, "left"), (math.pi, "left"), (4.0, "right"),
                                         (np.array(3.0), "left"), (np.array(4.0), "right")],
                             ids=["float-below", "float-at-x0", "float-above", "0-d-below",
                                  "0-d-above"])
    def test_a_scalar_evaluates_its_own_side_only(self, x, side):
        left, right, seen = self.pieces()
        got = _piecewise(x, np.pi, left, right)
        assert type(got) is np.float64
        assert [len(seen["left"]), len(seen["right"])] == ([1, 0] if side == "left" else [0, 1])
        assert got == (left if side == "left" else right)(float(x))


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
        # 1.01 * sup|f''| of (3x - 1.4) sin 18x + 1.7, sampled 20 times finer
        p = get_problem("t10")
        x = np.linspace(p.a, p.b, 4_000_001)
        d2 = 108 * np.cos(18 * x) - 324 * (3 * x - 1.4) * np.sin(18 * x)
        assert exact_lipschitz_oracle(p) == pytest.approx(1.01 * np.max(np.abs(d2)), rel=1e-6)

    def test_curvature_bound_prefers_a_supplied_K(self):
        p = get_problem("t05")
        assert curvature_bound(p) == exact_lipschitz_oracle(p)
        assert curvature_bound(dataclasses.replace(p, lipschitz_K=2.5)) == 2.5


def traced_peak_mib(fn) -> float:
    """Peak of the memory traced while fn runs, numpy buffers included, MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestBlockedOracles:
    """The dense oracles walk their meshes in blocks of _MESH_BLOCK points;
    every result equals that of one pass over the whole mesh bit for bit."""

    @pytest.mark.parametrize("pid", all_ids())
    def test_catalog_K_equals_one_shot(self, pid):
        p = get_problem(pid)
        assert exact_lipschitz_oracle(p) == one_shot_lipschitz(p)

    @pytest.mark.parametrize("f0, amps, freqs, phases, drift, length", [
        (3.0, (0.5, 0.3), (1.0, 2.1), (0.0, 1.0), 1.0, 20.0),
        (2.51, (0.14, 0.58, 0.51), (0.47, 2.03, 2.6), (3.72, 1.63, 5.27), 1.0, 20.0),
        (1.8, (0.87, 0.59, 0.44), (0.96, 2.05, 1.26), (1.67, 4.8, 5.8), 0.0, 6.5),
    ])
    def test_cosine_sums_K_equals_one_shot(self, f0, amps, freqs, phases, drift, length):
        p = cosines_problem(f0, amps, freqs, phases, drift, length)
        assert exact_lipschitz_oracle(p) == one_shot_lipschitz(p)

    @pytest.mark.parametrize("jump", [_MESH_BLOCK - 1, _MESH_BLOCK, _MESH_BLOCK + 1,
                                      3 * _MESH_BLOCK, 4 * _MESH_BLOCK - 1, 4 * _MESH_BLOCK,
                                      4 * _MESH_BLOCK + 1, 12 * _MESH_BLOCK, _ORACLE_GRID - 1])
    def test_largest_quotient_at_a_block_boundary(self, jump):
        # f' steps by 1 at mesh point `jump`: its one nonzero quotient pairs
        # mesh points jump - 1 and jump, the last quotient of a block when
        # jump is a multiple of the block size; the first block's end and
        # interior ones
        x_jump = np.linspace(0.0, 1.0, _ORACLE_GRID)[jump]
        p = Problem(id="step", name="step", a=0.0, b=1.0, f=np.abs,
                    df=lambda x: np.where(x >= x_jump, 1.0, 0.0))
        k = exact_lipschitz_oracle(p)
        assert k == one_shot_lipschitz(p)
        assert k == pytest.approx(1.01 * (_ORACLE_GRID - 1), rel=1e-9)

    def test_a_nan_quotient_makes_K_nan(self):
        x_nan = np.linspace(0.0, 1.0, _ORACLE_GRID)[5 * _MESH_BLOCK + 7]
        p = Problem(id="nan", name="nan", a=0.0, b=1.0, f=np.sin,
                    df=lambda x: np.where(x == x_nan, np.nan, np.cos(x)))
        assert math.isnan(exact_lipschitz_oracle(p))
        assert math.isnan(one_shot_lipschitz(p))

    @pytest.mark.parametrize("pid", list(FILTERS))
    def test_filter_fmax_equals_one_shot(self, pid):
        _, (power, _), domain, _ = FILTERS[pid]
        assert find_fmax(power, domain) == one_shot_fmax(power, domain)

    def test_the_first_nan_wins(self):
        # a finite peak in the first block, NaN at two points of late blocks:
        # the first NaN is the grid's argmax
        mesh = np.linspace(1.0, 4.0, _FMAX_GRID)
        first, second = mesh[20 * _MESH_BLOCK + 5], mesh[-3]

        def transfer(w):
            w = np.asarray(w, dtype=float)
            return np.where((w == first) | (w == second), np.nan, np.exp(-(w - 1.01) ** 2))

        got = find_fmax(transfer, (1.0, 4.0))
        assert [v.hex() for v in got] == [v.hex() for v in one_shot_fmax(transfer, (1.0, 4.0))]
        assert math.isnan(got[0]) and got[1] == first


def hexes(xs) -> list[str]:
    return [v.hex() for v in np.asarray(xs).tolist()]


class TestMeshSlice:
    """`_mesh_slice(lo, hi, n, start, stop)` is `np.linspace(lo, hi, n)[start:stop]`
    bit for bit.  The sweeps over whole grids compare the raw bytes of each
    block, which is what float.hex shows point by point, only cheaper."""

    @pytest.mark.parametrize("lo, hi", [TESTBED_DOMAIN, CHEBYSHEV_DOMAIN, PASSBAND_DOMAIN,
                                        (-1e6, -1e6 + 3.0)])
    @pytest.mark.parametrize("n, overlap", [(_FMAX_GRID, 0), (_ORACLE_GRID, 1)])
    def test_every_block_of_the_oracle_grids(self, lo, hi, n, overlap):
        # the blocks of find_fmax (n = _FMAX_GRID) and of the K oracle, whose
        # blocks share their boundary point
        mesh = np.linspace(lo, hi, n)
        starts = range(0, n - overlap, _MESH_BLOCK)
        for s in starts:
            stop = s + _MESH_BLOCK + overlap
            assert _mesh_slice(lo, hi, n, s, stop).tobytes() == mesh[s:stop].tobytes(), s
        assert s + _MESH_BLOCK + overlap >= n
        assert hexes(_mesh_slice(lo, hi, n, s, n)) == hexes(mesh[s:])

    @pytest.mark.parametrize("lo, hi", [TESTBED_DOMAIN, PASSBAND_DOMAIN, (-1e6, -1e6 + 3.0)])
    def test_single_points(self, lo, hi):
        mesh = np.linspace(lo, hi, _FMAX_GRID)
        for i in (0, 1, _MESH_BLOCK - 1, _MESH_BLOCK, _FMAX_GRID // 2, _FMAX_GRID - 2,
                  _FMAX_GRID - 1):
            assert hexes(_mesh_slice(lo, hi, _FMAX_GRID, i, i + 1)) == hexes(mesh[i:i + 1]), i
        # the last point is hi itself, which start + step * index can miss
        assert _mesh_slice(lo, hi, _FMAX_GRID, _FMAX_GRID - 1, _FMAX_GRID)[0] == hi

    def test_a_stop_past_the_end_is_clamped(self):
        mesh = np.linspace(1.0, 4.0, 1000)
        assert hexes(_mesh_slice(1.0, 4.0, 1000, 997, 1005)) == hexes(mesh[997:1005])

    def test_last_point_is_hi_where_the_product_misses_it(self):
        # (n - 1) * step + lo rounds away from hi on this mesh: the end point
        # is set, not computed
        (lo, hi), n = TESTBED_DOMAIN, 6
        assert (n - 1) * ((hi - lo) / (n - 1)) + lo != hi
        assert hexes(_mesh_slice(lo, hi, n, 0, n)) == hexes(np.linspace(lo, hi, n))
        assert hexes(_mesh_slice(lo, hi, n, n - 1, n)) == [hi.hex()]

    @pytest.mark.parametrize("lo, hi", [(0.0, 2.5e-322), (-1.5e-322, 1e-322)])
    def test_a_step_that_underflows_to_zero(self, lo, hi):
        # (hi - lo) / (n - 1) is 0.0: linspace scales index / (n - 1) by
        # hi - lo instead, and so does the slice
        n = 1001
        assert (hi - lo) / (n - 1) == 0.0
        mesh = np.linspace(lo, hi, n)
        assert len(set(mesh.tolist())) > 2
        assert hexes(_mesh_slice(lo, hi, n, 0, n)) == hexes(mesh)
        assert hexes(_mesh_slice(lo, hi, n, 300, 700)) == hexes(mesh[300:700])


class TestOracleMemory:
    """No array holds a whole mesh: each block is generated and its temporaries
    are block-sized, so the traced peak is a few blocks.  One pass over the
    whole mesh traced 53.4 MiB for passband's F_max and 6.1 MiB for the K of
    t14, and a whole mesh scanned in blocks still 9.6 and 2.3 MiB."""

    def test_passband_fmax_peak(self):
        assert traced_peak_mib(lambda: find_fmax(passband_transfer, PASSBAND_DOMAIN)) < 2.0

    def test_catalog_oracle_peak(self):
        p = get_problem("t14")
        assert traced_peak_mib(lambda: exact_lipschitz_oracle(p)) < 1.0

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(),
                        reason="reads the resident set size from /proc/self/statm")
    def test_building_the_filters_leaves_no_mesh_resident(self):
        # In a fresh interpreter: a freed 8 MB mesh raises glibc's mmap
        # threshold, so a second mesh of that size would come from the heap
        # and stay resident (11.1 MB when each scan built its whole mesh)
        code = (
            "import os, firstroot\n"
            "def rss():\n"
            "    with open('/proc/self/statm') as f:\n"
            "        return int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
            "before = rss()\n"
            "firstroot.get_problem('chebyshev')\n"
            "firstroot.get_problem('passband')\n"
            "print((rss() - before) / 1e6)\n")
        src = str(Path(firstroot.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert float(out.stdout) < 3.0


if __name__ == "__main__":
    doc = {pid: filter_values(pid, filter_points(pid)) for pid in FILTERS}
    FILTER_VALUES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(v['x']) for v in doc.values())} points to {FILTER_VALUES}")
