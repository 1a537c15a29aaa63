import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import firstroot.solver as solver_module
from firstroot import (
    BadInitialCondition,
    BudgetExhausted,
    Characteristic,
    CurvatureTable,
    DegenerateSlope,
    EstimationParams,
    FirstRootFound,
    IntervalData,
    NoRootGlobalMin,
    Outcome,
    PrecisionExhausted,
    Problem,
    SearchState,
    SolveResult,
    SolverConfig,
    SupportFunction,
    Trial,
    build_curvature_table,
    build_support,
    exact_lipschitz_oracle,
    get_problem,
    grid_search,
    solve,
)
from firstroot.errors import NonFinite
from firstroot.solver import TraceRecord, initialize, scan_characteristics, step
from firstroot.support import INTERIOR, LEFT_END, RIGHT_END

from helpers import effective_points, table_from


def state_from(xs, zs, dzs, sigma=1e-4):
    trials = [Trial(x=float(x), z=float(z), dz=float(d), birth=i)
              for i, (x, z, d) in enumerate(zip(xs, zs, dzs))]
    k, b_n = effective_points(trials)
    return SearchState(trials=trials, sigma=sigma, k=k, b_n=b_n)


def next_trial_point(st):
    """Where the solver places the next trial: the candidate in the interval
    it selects."""
    return solver_module._candidate(st, solver_module._select_interval(st))


def cosines_problem(f0, amps, freqs, phases, drift, length):
    """f(x) = f0 + sum_j a_j (cos(w_j x + phi_j) - cos(phi_j)) on [0, length],
    minus drift * max(0, x - 0.8 * length)**2: f(0) = f0 > 0; rootless when
    f0 exceeds twice the sum of the amplitudes and drift is 0, with several
    negative dips when f0 is small, and with a late root when only the drift
    reaches below zero."""
    a, w, phi = (np.asarray(v, dtype=float) for v in (amps, freqs, phases))
    x0 = 0.8 * length

    def f(x):
        x = np.asarray(x, dtype=float)
        u = np.maximum(x - x0, 0.0)
        waves = a * (np.cos(w * x[..., None] + phi) - np.cos(phi))
        return f0 + waves.sum(axis=-1) - drift * u * u

    def df(x):
        x = np.asarray(x, dtype=float)
        u = np.maximum(x - x0, 0.0)
        return -(a * w * np.sin(w * x[..., None] + phi)).sum(axis=-1) - 2.0 * drift * u

    return Problem(id="cos", name="sum of cosines", a=0.0, b=length, f=f, df=df)


def linear_problem(slope=-1.0, offset=0.5, a=0.0, b=1.0, pid="lin"):
    return Problem(id=pid, name="line", a=a, b=b,
                   f=lambda x: offset + slope * np.asarray(x, dtype=float),
                   df=lambda x: slope * np.ones_like(np.asarray(x, dtype=float)))


class TestEffectivePoints:
    """The reference count k and margin b_n of `helpers.effective_points`,
    which TestSplicedState holds the solver's state.k and state.b_n to."""

    def test_first_negative_cuts_the_set(self):
        st = state_from([0, 1, 2, 3], [3, 1, -2, 5], [0, 0, 0, 0])
        assert (st.k, st.b_n) == (3, 2.0)

    def test_all_positive_keeps_everything(self):
        st = state_from([0, 1, 2, 3], [3, 1, 2, 5], [0, 0, 0, 0])
        assert (st.k, st.b_n) == (4, 3.0)

    def test_two_points(self):
        st = state_from([0, 1], [3, -1], [0, 0])
        assert (st.k, st.b_n) == (2, 1.0)


class TestInitialize:
    def test_endpoints_evaluated(self):
        st = initialize(get_problem("t01"), SolverConfig())
        assert [t.x for t in st.trials] == [0.2, 7.0]
        assert st.k == 2
        assert st.trials[0].z > 0

    def test_rejects_nonpositive_left_margin(self):
        bad = Problem(id="bad", name="bad", a=0.0, b=1.0,
                      f=lambda x: np.asarray(x, dtype=float) - 1.0,
                      df=lambda x: np.ones_like(np.asarray(x, dtype=float)))
        with pytest.raises(BadInitialCondition):
            initialize(bad, SolverConfig())

    def test_negative_right_margin_is_fine(self):
        st = initialize(linear_problem(), SolverConfig())
        assert st.k == 2
        assert st.b_n == 1.0


class TestScan:
    def test_all_positive_scans_every_interval(self):
        st = state_from([0, 1, 2], [1, 1, 1], [0, 0, 0])
        scan_characteristics(st, [1.0, 1.0])
        assert st.first_nonpositive is None
        assert len(st.scan) == 2

    def test_halts_at_first_nonpositive(self):
        # a large bound makes the first minorant dip below zero; the second
        # interval must stay unscanned
        st = state_from([0, 1, 2], [1, 0.5, 2], [-0.6, -0.6, 2.9])
        scan_characteristics(st, [30.0, 30.0])
        assert st.first_nonpositive == 0
        assert len(st.scan) == 1

    def test_symmetric_interval_classified_interior(self):
        st = state_from([0, 1], [1, 1], [0, 0])
        scan_characteristics(st, [4.0])
        sf = st.scan[0]
        assert isinstance(sf, SupportFunction)
        assert sf.char.kind == INTERIOR
        assert next_trial_point(st) == -sf.b / sf.data.m == 0.5
        assert st.R[0] == sf.char.R == pytest.approx(0.75)

    def test_second_scan_without_a_step_keeps_the_flag(self, monkeypatch):
        # the flagged entry of a scan that no step followed still stops the
        # next scan with the same bounds, which rebuilds nothing
        st = state_from([0, 1, 2], [1, 0.5, 2], [-0.6, -0.6, 2.9])
        scan_characteristics(st, [30.0, 30.0])
        first = (st.first_nonpositive, list(st.scan), list(st.R), list(st.m))
        assert first[0] == 0
        built = []
        original = solver_module.build_support

        def counting(data):
            built.append(data)
            return original(data)

        monkeypatch.setattr(solver_module, "build_support", counting)
        scan_characteristics(st, [30.0, 30.0])
        assert (st.first_nonpositive, st.scan, st.R, st.m) == first
        assert built == []


class TestNextTrialPoint:
    def test_interior_point_of_single_interval(self):
        st = state_from([0, 1], [1, 1], [0, 0])
        scan_characteristics(st, [4.0])
        assert next_trial_point(st) == pytest.approx(0.5)

    def test_minimal_characteristic_wins(self):
        # interval 1 has an interior minimum 0.75; interval 2 carries data of
        # f(x) = 1 - 0.8*(x-1)^2, decreasing to z = 0.2, and wins the argmin
        st = state_from([0, 1, 2], [1, 1, 0.2], [0, 0, -1.6])
        scan_characteristics(st, [4.0, 2.0])
        assert st.first_nonpositive is None
        sf = st.scan[1]
        assert st.R[1] == sf.char.R == pytest.approx(0.2)
        assert sf.char.kind == RIGHT_END and sf.x_hat is None
        assert next_trial_point(st) == sf.y

    def test_left_knot_of_increasing_interval(self):
        # data of f(x) = 1 + x: phi rises over the whole interval, so it has
        # no interior stationary point and its minimum is the left end
        st = state_from([0, 1], [1, 2], [1, 1])
        scan_characteristics(st, [1.0])
        sf = st.scan[0]
        assert sf.char.kind == LEFT_END and sf.x_hat is None
        assert next_trial_point(st) == sf.y_prime

    def test_stationary_point_beats_an_end_minimum(self):
        # phi dips to a local minimum inside the interval, above z_left: the
        # characteristic is the left end, and the trial still goes to x_hat
        st = state_from([0, 1], [0.68, 1.22], [2.3, 2.1])
        scan_characteristics(st, [8.0])
        sf = st.scan[0]
        assert sf.char.kind == LEFT_END and sf.x_hat is not None
        assert sf.y_prime < sf.x_hat < sf.y
        assert next_trial_point(st) == sf.x_hat

    def test_leftmost_zero_of_flagged_interval(self):
        st = state_from([0, 3], [1, -8], [-3, -3])
        scan_characteristics(st, [2.0])
        assert st.first_nonpositive == 0
        assert next_trial_point(st) == pytest.approx((-3 + math.sqrt(13)) / 2, abs=1e-12)


class TestMinorantReuse:
    def test_cache_holds_only_the_last_scan(self):
        # a large reliability multiplier r keeps a2's bounds loose, so the
        # rootless t06 takes hundreds of steps
        p = get_problem("t06")
        cfg = SolverConfig(method="a2", max_trials=2000, params=EstimationParams(r=1e4))
        state = initialize(p, cfg)
        steps = 0
        while step(state, p, cfg) is None:
            steps += 1
            assert len(state.scan) <= state.k - 1
        assert steps > 300

    def test_a1_builds_only_the_split_halves(self, monkeypatch):
        built = []
        original = solver_module.build_support

        def counting(data):
            built.append((data.x_left, data.x_right))
            return original(data)

        monkeypatch.setattr(solver_module, "build_support", counting)
        # rootless, so every scan covers every interval: one minorant for the
        # first scan, then the two halves of the split interval per step
        p = get_problem("t02")
        out = solve(p, SolverConfig(method="a1", lipschitz=exact_lipschitz_oracle(p))).outcome
        assert isinstance(out, NoRootGlobalMin)
        assert len(built) == 1 + 2 * (out.trials_used - 2)
        assert len(set(built)) == len(built)

    def test_a2_rebuilds_only_new_slots_and_moved_bounds(self, monkeypatch):
        built = []
        original = solver_module.build_support

        def counting(data):
            built.append((data.x_left, data.x_right, data.m))
            return original(data)

        monkeypatch.setattr(solver_module, "build_support", counting)
        complete_steps = moved_total = 0
        for pid in ("t02", "t06"):  # rootless; t02 flags most scans, t06 none
            p = get_problem(pid)
            cfg = SolverConfig(method="a2")
            state = initialize(p, cfg)
            kept = {}  # (x_left, x_right) -> m of every entry the last scan left
            outcome = None
            while outcome is None:
                k = state.k
                xs = [t.x for t in state.trials[:k]]
                m = build_curvature_table(state.trials[:k], cfg.params).m
                built.clear()
                outcome = step(state, p, cfg)
                last = state.first_nonpositive
                scanned = list(zip(zip(xs, xs[1:]), m))[:k - 1 if last is None else last + 1]
                rebuilt = [(*key, mp) for key, mp in scanned if kept.get(key) != mp]
                assert built == rebuilt
                moved = sum(key in kept for key, mp in scanned if kept.get(key) != mp)
                if kept and len(kept) == len(scanned) - 1 == k - 2:
                    # both this scan and the last covered every interval: the
                    # two halves of the split plus the survivors whose m moved
                    assert len(built) == 2 + moved
                    complete_steps += 1
                moved_total += moved
                kept = dict(scanned)
        assert complete_steps > 0 and moved_total > 0


class TestSplicedState:
    """After every step the spliced a2 table equals a full rebuild over the
    effective trials, and v is computed for effective intervals only."""

    @staticmethod
    def drive(problem, cfg, monkeypatch) -> int:
        """Step to the end, checking the spliced state after every step;
        returns how many steps made k smaller."""
        measured = []
        original = solver_module.interval_curvature

        def recording(lo, hi):
            measured.append(hi.x)
            return original(lo, hi)

        monkeypatch.setattr(solver_module, "interval_curvature", recording)
        state = initialize(problem, cfg)
        shrinks = 0
        while True:
            k = state.k
            measured.clear()
            outcome = step(state, problem, cfg)
            if outcome is not None:
                return shrinks
            shrinks += state.k < k
            assert (state.k, state.b_n) == effective_points(state.trials)
            assert len(measured) <= 2
            assert all(x <= state.b_n for x in measured)
            full = build_curvature_table(state.trials[:state.k], cfg.params)
            ref = table_from(full.v, full.gaps, cfg.params)
            assert state.v == list(full.v)
            assert state.gaps == list(full.gaps)
            assert solver_module._interval_bounds_m(state, cfg) == full.m == ref.m
            assert all(lam == max(full.v[max(0, p - 1):p + 2])
                       for p, lam in enumerate(ref.lam))
            assert len(state.scan) <= state.k - 1
            assert len(state.R) == len(state.m) == len(state.scan)
            for p, sf in enumerate(state.scan):
                if sf is not None:
                    lo, hi = state.trials[p], state.trials[p + 1]
                    d = sf.data
                    assert (d.x_left, d.x_right, d.z_left, d.z_right, d.dz_left, d.dz_right) \
                        == (lo.x, hi.x, lo.z, hi.z, lo.dz, hi.dz)
                    assert state.R[p] == sf.char.R
                    assert state.m[p] == d.m

    @given(f0=hst.floats(0.05, 4.0),
           waves=hst.lists(hst.tuples(hst.floats(0.1, 1.0), hst.floats(0.3, 3.0),
                                      hst.floats(0.0, 2 * math.pi)), min_size=1, max_size=3),
           drift=hst.sampled_from([0.0, 1.0]),
           length=hst.floats(5.0, 30.0))
    @example(f0=3.0, waves=[(0.5, 1.0, 0.0), (0.3, 2.1, 1.0)], drift=1.0, length=20.0)
    @example(f0=4.0, waves=[(0.5, 1.0, 0.0), (0.3, 2.1, 1.0)], drift=0.0, length=20.0)
    @settings(max_examples=40, deadline=None)
    def test_spliced_table_equals_full_build(self, f0, waves, drift, length):
        amps, freqs, phases = zip(*waves)
        problem = cosines_problem(f0, amps, freqs, phases, drift, length)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.drive(problem, SolverConfig(method="a2"), monkeypatch)

    def test_a_negative_trial_shrinks_k(self, monkeypatch):
        # several negative dips: a trial in one left of the last found cuts k
        problem = cosines_problem(0.2, (0.8, 0.5, 0.3), (1.0, 1.7, 2.9), (0.5, 2.0, 4.0),
                                  0.0, 20.0)
        assert self.drive(problem, SolverConfig(method="a2"), monkeypatch) > 0


class TestLayerNames:
    # perfbench/layers.py times a solve by replacing these names on
    # firstroot.solver, and its --trace 1 metrics divide by their call counts
    NAMES = ("build_support", "characteristic", "interior_stationary_point",
             "leftmost_zero", "build_curvature_table")

    def test_solver_calls_each_name_through_its_module(self, monkeypatch):
        p = get_problem("t05")
        configs = [SolverConfig(method="a1", lipschitz=exact_lipschitz_oracle(p)),
                   SolverConfig(method="a2")]
        expected = [solve(p, cfg) for cfg in configs]
        calls = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            def counted(*args, _name=name, _fn=getattr(solver_module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(solver_module, name, counted)
        assert [solve(p, cfg) for cfg in configs] == expected
        assert isinstance(expected[0].outcome, FirstRootFound)
        assert all(count > 0 for count in calls.values()), calls


class TestStopCheck:
    def test_threshold(self):
        # a step stops, without spending a trial, when the selected interval
        # is no wider than sigma, and otherwise adds a trial inside it
        one = Problem(id="one", name="f = 1", a=0.0, b=1.0,
                      f=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                      df=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        cfg = SolverConfig(method="a1", lipschitz=1.0)
        for width, stops in ((6.7e-4, True), (2 * 6.8e-4, False), (6.8e-4, True)):
            st = state_from([0.0, width], [1, 1], [0, 0], sigma=6.8e-4)
            outcome = step(st, one, cfg)
            assert (outcome is not None) == stops, width
            assert len(st.trials) == (2 if stops else 3), width


class TestSolveOutcomes:
    def test_root_found_on_t01(self):
        res = solve(get_problem("t01"), SolverConfig(method="a2"))
        out = res.outcome
        assert isinstance(out, FirstRootFound)
        assert out.x_sigma == pytest.approx(3.011691, abs=2e-3)
        p = get_problem("t01")
        assert float(p.f(out.x_sigma)) >= 0.0

    def test_no_root_on_constant(self):
        const = Problem(id="const5", name="f = 5", a=0.0, b=1.0,
                        f=lambda x: 5.0 * np.ones_like(np.asarray(x, dtype=float)),
                        df=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        # certifying a constant's minimum to accuracy sigma needs ~1/sigma
        # trials (every point is a global minimizer), so keep sigma coarse
        res = solve(const, SolverConfig(method="a1", lipschitz=1.0, sigma_fraction=1e-2))
        out = res.outcome
        assert isinstance(out, NoRootGlobalMin)
        assert out.f_best == 5.0

    def test_precision_exhausted_on_touching_root(self):
        # The name is kept so that the test keeps its node ID; the outcome it
        # checks is now the sigma-root, not precision_exhausted.
        # sqrt(x)*sin(x)^2 touches zero at pi without crossing: the flagged
        # interval shrinks below sigma with positive ends, and its left end is
        # reported as the sigma-root (no smaller sigma gives a sign change)
        res = solve(get_problem("t17"), SolverConfig(method="a2"))
        out = res.outcome
        assert isinstance(out, FirstRootFound)
        sigma = 1e-4 * 6.8
        assert out.x_sigma <= math.pi <= out.x_sigma + sigma
        assert float(get_problem("t17").f(out.x_sigma)) > 0.0

    def test_near_miss_below_resolution_is_a_sigma_root(self):
        # (x - pi)^2 + eps has no root.  At eps = 1e-9 its minimum lies below
        # what a2's minorant resolves on a sigma-wide interval, so a2 reports
        # the sigma-root next to pi; at eps = 1e-6 it certifies the minimum
        def near_miss(eps):
            return Problem(id="near", name="(x - pi)^2 + eps", a=0.2, b=7.0,
                           f=lambda x: (np.asarray(x, dtype=float) - math.pi) ** 2 + eps,
                           df=lambda x: 2.0 * (np.asarray(x, dtype=float) - math.pi))
        sigma = 1e-4 * 6.8
        out = solve(near_miss(1e-9), SolverConfig(method="a2")).outcome
        assert isinstance(out, FirstRootFound)
        assert out.x_sigma <= math.pi <= out.x_sigma + sigma
        out = solve(near_miss(1e-6), SolverConfig(method="a2")).outcome
        assert isinstance(out, NoRootGlobalMin)
        assert abs(out.x_best - math.pi) <= sigma

    def test_floor_zero_is_not_a_root(self):
        # f is constant and tiny, so a2's bound is the floor r*xi everywhere
        # and the minorant reaches zero only because of that floor
        tiny = Problem(id="tiny", name="f = 3e-30", a=0.0, b=1.0,
                       f=lambda x: 3e-30 * np.ones_like(np.asarray(x, dtype=float)),
                       df=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        out = solve(tiny, SolverConfig(method="a2")).outcome
        assert isinstance(out, PrecisionExhausted)
        lo, hi = out.interval
        assert 0.0 <= lo < hi <= lo + 1e-4

    def test_a1_keeps_a_tiny_bound(self):
        # the passband objective is of order 1e-35 and its K about 1.8e-37:
        # a1 must use that K rather than the floor meant for K = 0, and then
        # reaches the model's own first crossing
        p = get_problem("passband")
        cfg = SolverConfig(method="a1", lipschitz=exact_lipschitz_oracle(p))
        out = solve(p, cfg).outcome
        assert isinstance(out, FirstRootFound)
        sigma = cfg.resolve_sigma(p.a, p.b)
        left = np.linspace(p.a, out.x_sigma, 100_001)
        assert float(np.min(p.f(left))) >= 0.0
        assert float(p.f(out.x_sigma + sigma)) < 0.0

    def test_budget_exhausted(self):
        res = solve(get_problem("t01"), SolverConfig(method="a2", max_trials=3))
        assert isinstance(res.outcome, BudgetExhausted)
        assert res.outcome.trials_used == 3

    def test_a1_requires_bound(self):
        with pytest.raises(ValueError):
            solve(get_problem("t01"), SolverConfig(method="a1"))

    def test_point_of_each_outcome(self):
        assert FirstRootFound(trials_used=5, x_sigma=1.5).point == 1.5
        assert NoRootGlobalMin(trials_used=5, x_best=2.5, f_best=0.1).point == 2.5
        assert PrecisionExhausted(trials_used=5, interval=(3.5, 3.6)).point == 3.5
        assert BudgetExhausted(trials_used=5, best_so_far=4.5).point == 4.5


def shifted_problem(problem, t):
    """problem moved right by t: f(x - t) on [a + t, b + t]."""
    return Problem(id=f"{problem.id}+{t:g}", name=f"{problem.name}, shifted by {t:g}",
                   a=problem.a + t, b=problem.b + t,
                   f=lambda x: problem.f(np.asarray(x, dtype=float) - t),
                   df=lambda x: problem.df(np.asarray(x, dtype=float) - t))


def scaled_problem(problem, c):
    """problem with f and f' multiplied by c: the same roots and extrema."""
    return Problem(id=f"{problem.id}*{c:g}", name=f"{problem.name}, scaled by {c:g}",
                   a=problem.a, b=problem.b,
                   f=lambda x: c * problem.f(x), df=lambda x: c * problem.df(x))


class TestKnownDefects:
    """Valid inputs on which the solver is not yet invariant to where f sits
    or how large it is.  Two end in an internal exception rather than an
    Outcome: `build_support` places its knots in absolute x, and the
    cancellation in its coefficients grows with |x|**2, so on an interval that
    is narrow against |x| the knots land outside it and the build raises
    DegenerateSlope.  Two return an Outcome that differs from the unscaled
    one: a2's curvature floor r*xi is absolute, so when f is scaled down far
    enough the floor, not the data, sets the bounds.  Each test states what a
    fixed solver must return; the xfail is strict, so a fix turns it into a
    failure until the mark goes."""

    @pytest.mark.xfail(raises=DegenerateSlope, strict=True)
    def test_a2_at_a_small_absolute_sigma(self):
        # rootless t02: the search narrows to width 6e-10 near x = 0.2249
        out = solve(get_problem("t02"), SolverConfig(method="a2", sigma_abs=1e-9)).outcome
        assert isinstance(out, Outcome)

    @pytest.mark.xfail(raises=DegenerateSlope, strict=True)
    @pytest.mark.parametrize("method", ["a1", "a2"])
    def test_shifted_far_from_zero(self, method):
        p = get_problem("t05")
        shift = 1e6
        cfg = SolverConfig(method=method,
                           lipschitz=exact_lipschitz_oracle(p) if method == "a1" else None)
        ref = solve(p, cfg).outcome
        out = solve(shifted_problem(p, shift), cfg).outcome
        assert type(out) is type(ref)
        assert out.point == pytest.approx(ref.point + shift, abs=cfg.resolve_sigma(p.a, p.b))

    # t05*1e-30 stops at 0.2 after 9 trials with PrecisionExhausted; t05*1e-10
    # finds the root, but after 85 trials
    @pytest.mark.xfail(raises=AssertionError, strict=True)
    @pytest.mark.parametrize("c", [1e-30, 1e-10])
    def test_a2_scaled_down(self, c):
        p = get_problem("t05")
        cfg = SolverConfig(method="a2")
        ref = solve(p, cfg).outcome
        assert isinstance(ref, FirstRootFound) and ref.trials_used == 15
        out = solve(scaled_problem(p, c), cfg).outcome
        assert type(out) is type(ref)
        assert out.trials_used == ref.trials_used
        assert out.point == pytest.approx(ref.point, abs=cfg.resolve_sigma(p.a, p.b))


class TestTraceInvariants:
    def test_trace_matches_trials_used(self):
        res = solve(get_problem("t10"), SolverConfig(method="a2"))
        assert len(res.trace) == res.outcome.trials_used
        assert [r.iter for r in res.trace] == list(range(len(res.trace)))

    def test_trial_abscissas_unique_and_in_domain(self):
        res = solve(get_problem("t10"), SolverConfig(method="a2"))
        xs = [r.x for r in res.trace]
        assert len(set(xs)) == len(xs)
        assert all(0.2 <= x <= 7.0 for x in xs)

    def test_right_margin_non_increasing(self):
        res = solve(get_problem("t09"), SolverConfig(method="a2"))
        b_ns = [r.b_n for r in res.trace]
        assert all(b2 <= b1 for b1, b2 in zip(b_ns, b_ns[1:]))

    def test_bracketing_monotone(self):
        # every trial left of the current right margin carries positive f
        res = solve(get_problem("t09"), SolverConfig(method="a2"))
        final_b_n = res.trace[-1].b_n
        for r in res.trace:
            if r.x < final_b_n:
                assert r.f > 0.0

    def test_determinism(self):
        r1 = solve(get_problem("t10"), SolverConfig(method="a2"))
        r2 = solve(get_problem("t10"), SolverConfig(method="a2"))
        assert r1.trace == r2.trace
        assert r1.outcome == r2.outcome


class TestGridSearch:
    def test_t01_step_count(self):
        p = get_problem("t01")
        res = grid_search(p, 1e-4 * (p.b - p.a))
        assert isinstance(res.outcome, FirstRootFound)
        assert res.outcome.trials_used == 4135
        assert res.outcome.x_sigma == pytest.approx(3.01112, abs=1e-5)

    def test_rootless_runs_to_cap(self):
        p = get_problem("t02")
        res = grid_search(p, 1e-4 * (p.b - p.a))
        assert isinstance(res.outcome, NoRootGlobalMin)
        assert res.outcome.trials_used == 10_000
        assert res.outcome.f_best > 0.0

    def test_cap_short_of_the_root_is_not_rootless(self):
        p = get_problem("t01")
        sigma = 1e-4 * (p.b - p.a)
        res = grid_search(p, sigma, cap=100)
        assert isinstance(res.outcome, BudgetExhausted)
        assert res.outcome.trials_used == len(res.trace) == 100
        best = min(res.trace, key=lambda rec: rec.f)
        assert res.outcome.best_so_far == best.x

    def test_cap_beyond_coverage_is_clamped(self):
        p = get_problem("t02")
        sigma = 1e-4 * (p.b - p.a)
        res = grid_search(p, sigma, cap=10**9)
        assert res == grid_search(p, sigma)
        assert isinstance(res.outcome, NoRootGlobalMin)
        assert res.outcome.trials_used == 10_000

    @pytest.mark.parametrize("pid, sigma, trials", [("t02", None, 10_000),
                                                     ("t08", 7e-4, 9715)])
    def test_mesh_stops_at_b(self, pid, sigma, trials):
        # a + cap*sigma is 7.000000000000001 on t02 and 7.0005 on t08
        p = get_problem(pid)
        res = grid_search(p, sigma or 1e-4 * (p.b - p.a))
        assert res.trace[-1].x == p.b
        assert res.trace[-2].x < p.b
        assert isinstance(res.outcome, NoRootGlobalMin)
        assert res.outcome.trials_used == len(res.trace) == trials

    def test_stop_on_the_clamped_point_reports_b(self):
        # the last step of sigma = 0.3 from 0 would land on 1.2, where f < 0;
        # at b = 1, f = 0.1 and its tangent reaches zero within sigma/2, so the
        # scan stops on b itself
        p = Problem(id="clamp", name="root just past b", a=0.0, b=1.0,
                    f=lambda x: 1.1 - x, df=lambda x: -np.ones_like(x))
        res = grid_search(p, 0.3)
        assert isinstance(res.outcome, FirstRootFound)
        assert res.outcome.trials_used == 4
        assert res.outcome.x_sigma == p.b == res.trace[-1].x

    def test_scalar_valued_derivative(self):
        # df returns a float for an array; a1 (K = 0) and a2 solve it too
        p = Problem(id="line", name="1.1 - x", a=0, b=1, f=lambda x: 1.1 - x,
                    df=lambda x: -1.0)
        res = grid_search(p, 1e-4)
        assert res.outcome == NoRootGlobalMin(trials_used=10_000, x_best=1.0,
                                              f_best=pytest.approx(0.1))
        assert [type(v) for v in res.trace[-1]] == [int, float, float, float, int, float]
        assert all(rec.fprime == -1.0 for rec in res.trace)
        for cfg in (SolverConfig(method="a1", lipschitz=0.0), SolverConfig(method="a2")):
            out = solve(p, cfg).outcome
            assert isinstance(out, NoRootGlobalMin) and out.point == res.outcome.point

    @pytest.mark.parametrize("end", [int, np.float64], ids=["int", "float64"])
    def test_domain_ends_become_floats(self, end):
        # every method reports points of the domain, its ends included, as
        # Python floats, whatever type the ends were given in
        p = Problem(id="line", name="1.1 - x", a=end(0), b=end(1), f=lambda x: 1.1 - x,
                    df=lambda x: -1.0)
        assert type(p.a) is float and type(p.b) is float
        for res in (solve(p, SolverConfig(method="a1", lipschitz=0.0)),
                    solve(p, SolverConfig(method="a2")), grid_search(p, 1e-4)):
            out = res.outcome
            assert isinstance(out, NoRootGlobalMin) and out.x_best == 1.0
            assert type(out.x_best) is float and type(out.f_best) is float
            assert all(type(rec.x) is float and type(rec.b_n) is float for rec in res.trace)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            grid_search(get_problem("t01"), sigma=0.1, cap=0)

    @pytest.mark.parametrize("sigma", [math.inf, 1e10 * 6.8])
    def test_sigma_wider_than_the_interval_takes_one_step_to_b(self, sigma):
        # f(7) < 0 on t01: the single step lands on b and the sigma-root is a,
        # as a1 and a2 report it at sigma_abs = inf
        res = grid_search(get_problem("t01"), sigma)
        assert res.outcome == FirstRootFound(trials_used=1, x_sigma=0.2)
        assert [rec.x for rec in res.trace] == [7.0]
        for cfg in (SolverConfig(method="a1", lipschitz=1e3, sigma_abs=math.inf),
                    SolverConfig(method="a2", sigma_abs=math.inf)):
            out = solve(get_problem("t01"), cfg).outcome
            assert out == FirstRootFound(trials_used=2, x_sigma=0.2)

    def test_non_finite_value_raises(self):
        # NaN within 1e-3 of 0.5; the minimum, 1.4 at 0.6, lies in the first
        # 4096-point chunk, which holds the NaN too
        def f(x):
            x = np.asarray(x, dtype=float)
            y = np.where(x < 0.6, 2.0 - x, x + 0.8)
            return np.where(np.abs(x - 0.5) < 1e-3, np.nan, y)

        p = Problem(id="nan", name="NaN near 0.5", a=0.0, b=1.0, f=f,
                    df=lambda x: np.where(np.asarray(x, dtype=float) < 0.6, -1.0, 1.0))
        with pytest.raises(NonFinite, match="f=nan"):
            grid_search(p, 1e-4)
        with pytest.raises(NonFinite):
            solve(p, SolverConfig(method="a2"))

    @pytest.mark.parametrize("bad, raises", [(0.25, True), (0.5, True), (0.75, False)],
                             ids=["before-the-stop", "at-the-stop", "past-the-stop"])
    def test_non_finite_derivative_up_to_the_stop(self, bad, raises):
        # f steps from 1 to -1 at 0.5, so the scan with sigma = 0.05 stops at
        # step 10, x = 0.5; f' is infinite at the one mesh point `bad`
        p = Problem(id="step", name="step down at 0.5", a=0.0, b=1.0,
                    f=lambda x: np.where(np.asarray(x, dtype=float) < 0.5, 1.0, -1.0),
                    df=lambda x: np.where(np.asarray(x, dtype=float) == bad, np.inf, 0.0))
        if raises:
            with pytest.raises(NonFinite, match=f"x={bad}: f=.*, f'=inf"):
                grid_search(p, 0.05)
        else:
            assert grid_search(p, 0.05).outcome == FirstRootFound(trials_used=10,
                                                                 x_sigma=0.45)

    def test_immediate_sign_change(self):
        res = grid_search(linear_problem(), sigma=0.6)
        assert isinstance(res.outcome, FirstRootFound)
        assert res.outcome.trials_used == 1
        assert res.outcome.x_sigma == 0.0

    def test_trace_length_equals_trials(self):
        p = get_problem("t05")
        res = grid_search(p, 1e-4 * (p.b - p.a))
        assert len(res.trace) == res.outcome.trials_used

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            grid_search(get_problem("t01"), sigma=0.0)


def eager_grid_trace(problem, sigma, cap, steps):
    """The first `steps` records of a grid scan built one by one, as a list:
    the mesh that grid_search evaluates, in chunks of _GRID_CHUNK points up to
    `cap`, with a last point past b clamped to b."""
    a, b = problem.a, problem.b
    records = []
    for j in range(1, cap + 1, solver_module._GRID_CHUNK):
        hi = min(j + solver_module._GRID_CHUNK - 1, cap)
        xs = np.minimum(a + np.arange(j, hi + 1, dtype=float) * sigma, b)
        fs, dfs = problem.f(xs), problem.df(xs)
        for i, step_no in enumerate(range(j, hi + 1)):
            x = float(xs[i])
            records.append(TraceRecord(iter=step_no, x=x, f=float(fs[i]), fprime=float(dfs[i]),
                                       k=step_no, b_n=x))
    return records[:steps]


class TestGridTrace:
    """The grid trace, built from the scan's arrays on first read, equals the
    records built one by one, field types included; the outcome's fields stay
    Python floats."""

    @pytest.mark.parametrize("pid, cap, outcome, steps", [
        ("t01", None, FirstRootFound, 4135),     # stops past the first chunk
        ("t02", None, NoRootGlobalMin, 10_000),  # three chunks, last point at b
        ("t01", 100, BudgetExhausted, 100),
    ])
    def test_equals_the_eager_build(self, pid, cap, outcome, steps):
        p = get_problem(pid)
        sigma = 1e-4 * (p.b - p.a)
        res = grid_search(p, sigma, cap=cap)
        assert type(res.outcome) is outcome and res.outcome.trials_used == steps
        assert len(res.trace) == steps
        ref = eager_grid_trace(p, sigma, cap or 10_000, steps)
        assert len(ref) == steps
        for rec, want in zip(res.trace, ref):
            assert rec == want
            assert type(rec) is TraceRecord
            assert [type(v) for v in rec] == [type(v) for v in want]
        assert [type(v) for v in ref[-1]] == [int, float, float, float, int, float]
        assert res.trace[-1] == ref[-1] and res.trace[-steps] == ref[0]
        assert res.trace[-1] is res.trace[steps - 1]  # built once
        assert list(res.trace) == list(res.trace) == ref
        assert res.trace == ref and ref == res.trace and res.trace != ref[:-1]
        assert res == grid_search(p, sigma, cap=cap)
        assert res == SolveResult(outcome=res.outcome, trace=ref)
        points = {k: v for k, v in vars(res.outcome).items() if k != "trials_used"}
        assert points and all(type(v) is float for v in points.values())


def _record_kwargs():
    data = dict(x_left=0.0, x_right=1.0, z_left=1.0, z_right=1.0,
                dz_left=0.0, dz_right=0.0, m=4.0)
    sf = build_support(IntervalData(**data))
    return {
        IntervalData: data,
        SupportFunction: dict(data=sf.data, y_prime=sf.y_prime, y=sf.y, b=sf.b, c=sf.c),
        Characteristic: dict(h=0.5, R=0.75, kind="interior"),
        Trial: dict(x=0.5, z=1.0, dz=-2.0, birth=3),
        TraceRecord: dict(iter=3, x=0.5, f=1.0, fprime=-2.0, k=4, b_n=1.0),
        CurvatureTable: dict(v=(1.0, 2.0), gaps=(0.5, 0.5), m=(2.4, 2.4)),
    }


class TestRecords:
    """The records built per interval, trial or step: keyword construction,
    immutability and hashing."""

    @pytest.mark.parametrize("cls", list(_record_kwargs()), ids=lambda cls: cls.__name__)
    def test_contract(self, cls):
        kwargs = _record_kwargs()[cls]
        rec = cls(**kwargs)
        assert {name: getattr(rec, name) for name in kwargs} == kwargs
        for name, value in kwargs.items():
            with pytest.raises(AttributeError):
                setattr(rec, name, value)
        twin = cls(**_record_kwargs()[cls])
        assert twin == rec and hash(twin) == hash(rec)

    def test_support_function_derives_on_construction(self):
        sf = build_support(IntervalData(**_record_kwargs()[IntervalData]))
        assert SupportFunction(**_record_kwargs()[SupportFunction]) == sf
        assert (sf.x_hat, sf.char) == (0.5, Characteristic(h=0.5, R=0.75, kind="interior"))

    def test_trace_record_as_dict(self):
        kwargs = _record_kwargs()[TraceRecord]
        d = TraceRecord(**kwargs).as_dict()
        assert list(d) == ["iter", "x", "f", "fprime", "k", "b_n"]
        assert d == kwargs


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            SolverConfig(method="a3")

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            SolverConfig(sigma_fraction=0.0)
        with pytest.raises(ValueError):
            SolverConfig(sigma_abs=-1.0)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            SolverConfig(max_trials=1)

    @pytest.mark.parametrize("lipschitz", [None, -1.0, math.nan, math.inf])
    def test_bad_lipschitz(self, lipschitz):
        with pytest.raises(ValueError, match="lipschitz"):
            SolverConfig(method="a1", lipschitz=lipschitz)

    def test_sigma_abs_overrides_fraction(self):
        cfg = SolverConfig(sigma_abs=0.25, sigma_fraction=1e-4)
        assert cfg.resolve_sigma(0.0, 100.0) == 0.25
