import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from firstroot import (
    DegenerateInterval,
    EstimationParams,
    Trial,
    build_curvature_table,
    interval_curvature,
    registry,
)
from firstroot.curvature import iter_bounds

from helpers import table_from


def trial(x, z, dz, birth=0):
    return Trial(x=x, z=z, dz=dz, birth=birth)


class TestIntervalCurvature:
    def test_linear_data_has_zero_curvature(self):
        # f(x) = x: the bracket and the radical both vanish
        assert interval_curvature(trial(0, 0, 1), trial(1, 1, 1)) == 0.0

    def test_quadratic_data_is_exact(self):
        # f(x) = 0.5*x^2 on [-1, 1]: the estimate equals f'' = 1 regardless of width
        assert interval_curvature(trial(-1, 0.5, -1), trial(1, 0.5, 1)) == pytest.approx(1.0, rel=1e-14)
        # and on an asymmetric interval
        assert interval_curvature(trial(0, 0, 0), trial(1, 0.5, 1)) == pytest.approx(1.0, rel=1e-14)

    def test_flat_data(self):
        assert interval_curvature(trial(0, 2, 0), trial(1, 2, 0)) == 0.0

    def test_cubic_data_frozen_value(self):
        # f(x) = x^3 on [0, 1]: bracket = 2(0-1)+3 = 1, radical = sqrt(1+9)
        v = interval_curvature(trial(0, 0, 0), trial(1, 1, 3))
        assert v == pytest.approx(1.0 + math.sqrt(10.0), rel=1e-14)

    def test_degenerate_interval(self):
        with pytest.raises(DegenerateInterval):
            interval_curvature(trial(1.0, 0, 0), trial(1.0 + 1e-16, 0, 0))


def reference(table, params):
    """The columns of the bound formula for the v and widths of `table`,
    whose bounds m must equal the reference's."""
    ref = table_from(table.v, table.gaps, params)
    assert table.m == ref.m
    return ref


class TestCurvatureTable:
    """`build_curvature_table` against the hand-computed values, with
    lambda, gamma and the global estimate read from the reference formula
    `helpers.table_from`, whose m the table must equal."""

    def test_single_interval(self):
        params = EstimationParams(r=1.2, xi=1e-6)
        ts = [trial(0, 0, 0), trial(1, 0.5, 1)]
        table = build_curvature_table(ts, params)
        ref = reference(table, params)
        assert table.v == (pytest.approx(1.0),)
        assert ref.lam == table.v
        assert ref.gamma == (pytest.approx(1.0),)
        assert table.m == (pytest.approx(1.2),)

    def test_linear_trials_hit_the_floor(self):
        # exactly linear data gives v = 0 everywhere, so the xi floor rules
        params = EstimationParams(r=1.2, xi=1e-6)
        ts = [trial(0, 0, 1), trial(0.5, 0.5, 1), trial(1.0, 1.0, 1)]
        table = build_curvature_table(ts, params)
        assert table.v == (0.0, 0.0)
        assert reference(table, params).m_global == 0.0
        assert table.m == (pytest.approx(1.2e-6), pytest.approx(1.2e-6))

    def test_floor_always_respected(self):
        rng = np.random.default_rng(3)
        params = EstimationParams(r=1.5, xi=1e-4)
        for _ in range(100):
            xs = np.sort(rng.uniform(0, 10, size=6))
            xs += np.arange(6) * 1e-3  # keep gaps non-degenerate
            ts = [trial(float(x), float(rng.normal()), float(rng.normal()), i)
                  for i, x in enumerate(xs)]
            table = build_curvature_table(ts, params)
            for m in table.m:
                assert m >= params.r * params.xi - 1e-18

    def test_upper_bound_by_global_estimate(self):
        rng = np.random.default_rng(5)
        params = EstimationParams()
        for _ in range(100):
            xs = np.sort(rng.uniform(0, 10, size=8)) + np.arange(8) * 1e-3
            ts = [trial(float(x), float(rng.normal()), float(rng.normal()), i)
                  for i, x in enumerate(xs)]
            table = build_curvature_table(ts, params)
            cap = params.r * max(params.xi, reference(table, params).m_global)
            for m in table.m:
                assert m <= cap * (1 + 1e-12)

    def test_sliding_window(self):
        # perturbing trial j changes lambda only on intervals j-2 .. j+1
        params = EstimationParams()
        xs = np.linspace(0.0, 7.0, 9)
        base = [trial(float(x), math.sin(x), math.cos(x), i) for i, x in enumerate(xs)]
        before = reference(build_curvature_table(base, params), params)
        j = 4
        bumped = list(base)
        bumped[j] = trial(base[j].x, base[j].z + 0.5, base[j].dz - 0.3, j)
        after = reference(build_curvature_table(bumped, params), params)
        for p in range(len(before.lam)):
            touched = j - 2 <= p <= j + 1
            if not touched:
                assert after.lam[p] == before.lam[p], p

    def test_scaling_homogeneity(self):
        # multiplying z and dz by alpha scales v, lambda, gamma by alpha
        params = EstimationParams(r=1.2, xi=1e-12)
        xs = np.linspace(0.0, 3.0, 6)
        ts = [trial(float(x), math.sin(2 * x) + 2, 2 * math.cos(2 * x), i)
              for i, x in enumerate(xs)]
        scaled = [trial(t.x, 3.0 * t.z, 3.0 * t.dz, t.birth) for t in ts]
        t1 = build_curvature_table(ts, params)
        t2 = build_curvature_table(scaled, params)
        for a, b in zip(t1.v, t2.v):
            assert b == pytest.approx(3.0 * a, rel=1e-12)
        for a, b in zip(t1.m, t2.m):
            assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_global_estimate_bounded_under_refinement(self):
        # on the benchmark functions the global estimate converges toward the
        # true curvature bound instead of blowing up with the mesh
        params = EstimationParams()
        for problem in registry()[:6]:
            caps = []
            for n in (20, 80, 320):
                xs = np.linspace(problem.a, problem.b, n)
                ts = [trial(float(x), float(problem.f(x)), float(problem.df(x)), i)
                      for i, x in enumerate(xs)]
                caps.append(reference(build_curvature_table(ts, params), params).m_global)
            assert caps[2] <= 1.5 * caps[0] + 1.0, (problem.id, caps)

    def test_requires_two_trials(self):
        with pytest.raises(ValueError):
            build_curvature_table([trial(0, 0, 0)], EstimationParams())

    def test_params_validation(self):
        with pytest.raises(ValueError):
            EstimationParams(r=1.0)
        with pytest.raises(ValueError):
            EstimationParams(xi=0.0)
        # a non-finite r or xi would make every bound infinite or NaN
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                EstimationParams(r=bad)
            with pytest.raises(ValueError):
                EstimationParams(xi=bad)


@hst.composite
def curvature_columns(draw):
    """Estimates v and widths of 1 to 10 intervals, with zeros and ties
    among the v drawn often."""
    n = draw(hst.integers(1, 10))
    ties = draw(hst.lists(hst.floats(0.0, 10.0), min_size=1, max_size=2))
    v = draw(hst.lists(hst.one_of(hst.just(0.0), hst.sampled_from(ties), hst.floats(0.0, 1e6)),
                       min_size=n, max_size=n))
    gaps = draw(hst.lists(hst.one_of(hst.just(1.0), hst.floats(1e-9, 1e3)),
                          min_size=n, max_size=n))
    return v, gaps


class TestBoundsFrom:
    """The bounds of `iter_bounds` are the reference `helpers.table_from(...).m`
    computed in one pass: equal with `==`, for lists and for tuples."""

    # name -> (v, gaps, xi, the term of max(lambda, gamma, xi) that must exceed
    # the other two on some interval; None where lambda and gamma tie)
    CASES = {
        "one interval": ([2.0], [0.5], 1e-6, None),
        "two intervals": ([0.5, 3.0], [1.0, 0.25], 1e-6, "lam"),
        "all zero": ([0.0, 0.0, 0.0], [0.1, 0.2, 0.3], 1e-6, "xi"),
        "ties": ([1.5, 1.5, 0.0, 1.5, 1.5], [1.0, 1.0, 2.0, 1.0, 1.0], 1e-6, "lam"),
        "one dominant v": ([0.1, 0.2, 1e6, 0.3, 0.1, 0.2], [1.0] * 6, 1e-6, "gamma"),
        "gamma wins on the widest gap": ([100.0, 0.0, 0.0, 0.0], [0.1, 0.1, 0.1, 10.0],
                                         1e-6, "gamma"),
        "xi wins over small v": ([1e-3, 2e-3, 0.0], [1.0, 2.0, 3.0], 0.5, "xi"),
    }

    @staticmethod
    def check(v, gaps, params):
        expected = table_from(v, gaps, params).m
        assert tuple(iter_bounds(v, gaps, params)) == expected
        assert tuple(iter_bounds(tuple(v), tuple(gaps), params)) == expected

    @pytest.mark.parametrize("name", list(CASES))
    def test_named_cases(self, name):
        v, gaps, xi, winner = self.CASES[name]
        params = EstimationParams(r=1.2, xi=xi)
        self.check(v, gaps, params)
        if winner is None:
            return
        table = table_from(v, gaps, params)
        terms = {"lam": table.lam, "gamma": table.gamma, "xi": [xi] * len(v)}
        others = [t for t in terms if t != winner]
        assert any(all(w > terms[o][p] for o in others) for p, w in enumerate(terms[winner]))

    @given(columns=curvature_columns(), r=hst.floats(1.0, 1e4, exclude_min=True),
           xi=hst.floats(1e-12, 1e3))
    @settings(max_examples=300, deadline=None)
    def test_equals_table_from(self, columns, r, xi):
        v, gaps = columns
        self.check(v, gaps, EstimationParams(r=r, xi=xi))
