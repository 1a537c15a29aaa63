"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench/tests"""

import math

import numpy as np
import pytest
import workloads as wl
from layers import LayerTimer, self_times
from run import MIN_SAMPLES_BEYOND, Gate, Result, classify, percentile, run_one

import firstroot.solver as solver_module


def test_deep_generator_is_deterministic():
    x = np.linspace(0.0, wl.DEEP_LENGTH, 101)
    first, again, other = wl.deep_problems(3), wl.deep_problems(3), wl.deep_problems(4)
    for p, q in zip(first, again):
        assert p.id == q.id
        assert np.array_equal(p.f(x), q.f(x)) and np.array_equal(p.df(x), q.df(x))
    assert not np.array_equal(first[0].f(x), other[0].f(x))


def test_deep_generator_roots():
    problems = wl.deep_problems(0)
    assert len(problems) == 2 * wl.DEEP_PAIRS
    tail_start = (1.0 - wl.DEEP_TAIL) * wl.DEEP_LENGTH
    for i, p in enumerate(problems):
        root = wl.reference_root(p)
        if i % 2 == 0:
            assert root is None
        else:
            assert tail_start < root < wl.DEEP_LENGTH


def test_deep_derivative_is_analytic():
    p = wl.deep_problems(5)[1]
    x = np.linspace(1.0, wl.DEEP_LENGTH - 1.0, 57)
    h = 1e-6
    numeric = (p.f(x + h) - p.f(x - h)) / (2 * h)
    assert np.allclose(p.df(x), numeric, rtol=1e-6, atol=1e-6)


SIGMA = 1e-3


@pytest.mark.parametrize("tag, point, reference, failed", [
    ("first_root", 1.0, 1.0 + 1.9 * SIGMA, False),
    ("first_root", 1.0, 1.0 + 2.5 * SIGMA, True),
    ("first_root", 1.0, None, True),
    ("no_root_global_min", 2.0, None, False),
    ("no_root_global_min", 2.0, 1.5, True),
    ("precision_exhausted", 3.1, None, False),
    ("precision_exhausted", 3.1, 3.1, True),
    ("budget_exhausted", 1.0, None, True),
    ("budget_exhausted", 1.0, 1.0, True),
    ("raised DegenerateSlope: m too small", None, 1.0, True),
])
def test_classify(tag, point, reference, failed):
    why = classify(tag, point, reference, SIGMA)
    assert (why is not None) == failed


def test_percentile_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 90.0) == 90.0
    assert sum(v > percentile(values, 90.0) for v in values) == MIN_SAMPLES_BEYOND


def test_percentile_refuses_thin_tail():
    with pytest.raises(ValueError):
        percentile([float(v) for v in range(99)], 90.0)
    assert percentile([3.0], 50.0) == 3.0


@pytest.fixture(scope="module")
def bed():
    return wl.prepare("bed", 0)


@pytest.mark.parametrize("pid, method", [("t05", "a1"), ("t11", "a2"), ("chebyshev", "a2")])
def test_layer_self_times_sum_to_wall(bed, pid, method):
    problem = next(p for p in bed.problems if p.id == pid)
    timer = LayerTimer()
    wrapped = timer.problem(problem)
    original = solver_module.build_support
    with timer.installed():
        assert solver_module.build_support is not original
        stats = timer.start()
        traced = run_one(bed, wrapped, method)
    assert solver_module.build_support is original
    layers = self_times(stats, traced.seconds)
    assert all(t >= 0.0 for t in layers.values())
    assert math.isclose(sum(layers.values()), traced.seconds, rel_tol=1e-12)
    assert stats.calls["f"] == stats.calls["df"] == traced.trials
    assert 0 < stats.new_intervals <= stats.calls["build_support"]
    assert traced.answer == run_one(bed, problem, method).answer


def test_gate_counts_pairs_not_repeats(bed):
    gate = Gate(bed)
    passing = Result("t05", "a1", "first_root", gate.references["t05"], 9, 1e-3, 5e-4)
    failing = Result("t17", "a2", "budget_exhausted", 1.0, 7, 1e-3, 5e-4)
    gate.check([passing, failing])
    once = (gate.attempted, gate.failed)
    gate.check([passing, failing, passing])
    assert (gate.attempted, gate.failed) == once == (2, 1)
    assert (gate.solves, gate.failed_solves) == (5, 2)
    assert gate.fail_ratio == 0.5 and gate.correct and not gate.errors
