import dataclasses
import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import firstroot.solver as solver_module
from firstroot import (
    BadInitialCondition,
    BudgetExhausted,
    DegenerateInterval,
    DegenerateSlope,
    EstimationParams,
    FirstRootFound,
    NoRootGlobalMin,
    PrecisionExhausted,
    Problem,
    SearchState,
    SolveResult,
    SolverConfig,
    Trial,
    all_ids,
    curvature_bound,
    exact_lipschitz_oracle,
    get_problem,
    grid_search,
    solve,
)
from firstroot.curvature import CurvatureTable, build_curvature_table
from firstroot.errors import FirstRootError, NonFinite
from firstroot.solver import TraceRecord, initialize, scan_characteristics, step
from firstroot.support import (INTERIOR, LEFT_END, RIGHT_END, Characteristic, IntervalData,
                               SupportFunction, build_support)

from helpers import (cosines_problem, deep_problems, effective_points, hand_built_support,
                     table_from)


def state_from(xs, zs, dzs):
    trials = [Trial(x=float(x), z=float(z), dz=float(d), birth=i)
              for i, (x, z, d) in enumerate(zip(xs, zs, dzs))]
    return SearchState(trials)


def next_trial_point(st, flag):
    """Where the solver places the next trial after a scan that returned
    `flag`: the candidate in the interval it selects, the flagged one or else
    the leftmost of the minimal characteristics."""
    p = flag if flag is not None else st.R.index(min(st.R))
    return solver_module._candidate(st, p, flag)


def linear_problem(slope=-1.0, offset=0.5, a=0.0, b=1.0, pid="lin"):
    return Problem(id=pid, name="line", a=a, b=b,
                   f=lambda x: offset + slope * np.asarray(x, dtype=float),
                   df=lambda x: slope * np.ones_like(np.asarray(x, dtype=float)))


class TestEffectivePoints:
    """The count k and margin b_n that a state derives from its trials, as
    `helpers.effective_points` counts them, which TestDerivedState and
    TestSplicedState hold the solver's state.k and state.b_n to."""

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
        st = initialize(get_problem("t01"))
        assert [t.x for t in st.trials] == [0.2, 7.0]
        assert st.k == 2
        assert st.trials[0].z > 0

    def test_rejects_nonpositive_left_margin(self):
        bad = Problem(id="bad", name="bad", a=0.0, b=1.0,
                      f=lambda x: np.asarray(x, dtype=float) - 1.0,
                      df=lambda x: np.ones_like(np.asarray(x, dtype=float)))
        with pytest.raises(BadInitialCondition):
            initialize(bad)

    def test_negative_right_margin_is_fine(self):
        st = initialize(linear_problem())
        assert st.k == 2
        assert st.b_n == 1.0


class TestScan:
    def test_all_positive_scans_every_interval(self):
        st = state_from([0, 1, 2], [1, 1, 1], [0, 0, 0])
        assert scan_characteristics(st, enumerate([1.0, 1.0])) is None
        assert None not in st.scan
        assert st.pending == (0, 0)

    def test_halts_at_first_nonpositive(self):
        # a large bound makes the first minorant dip below zero; the second
        # interval must stay unscanned
        st = state_from([0, 1, 2], [1, 0.5, 2], [-0.6, -0.6, 2.9])
        assert scan_characteristics(st, enumerate([30.0, 30.0])) == 0
        assert st.scan[1] is None
        assert st.pending == (0, 2)

    @pytest.mark.parametrize("bounds, flag", [((8.0, 30.0, 30.0), 1), ((8.0, 8.0, 30.0), 2),
                                              ((8.0, 8.0, 8.0), None)])
    def test_returns_the_leftmost_nonpositive_slot(self, bounds, flag):
        # with the bound 30 every minorant dips below zero, with 8 none does;
        # the scan returns the leftmost slot that dips, or None
        st = state_from([0, 1, 2, 3], [1, 1, 0.5, 2], [0, -0.6, -0.6, 2.9])
        assert scan_characteristics(st, enumerate(bounds)) == flag
        assert all(R > 0.0 for R in (st.R if flag is None else st.R[:flag]))
        if flag is not None:
            assert st.R[flag] <= 0.0

    @pytest.mark.parametrize("zs, k", [([1, 1, 1, 1], 4), ([1, 1, -1, 1], 3), ([1, -1], 2)])
    def test_a_built_state_has_k_minus_1_empty_pending_slots(self, zs, k):
        st = state_from(range(len(zs)), zs, [0] * len(zs))
        assert st.k == k
        assert st.scan == [None] * (k - 1)
        assert len(st.R) == k - 1
        assert all(math.isnan(value) for value in st.R)
        assert st.pending == (0, k - 1)

    def test_symmetric_interval_classified_interior(self):
        st = state_from([0, 1], [1, 1], [0, 0])
        flag = scan_characteristics(st, enumerate([4.0]))
        sf = st.scan[0]
        assert isinstance(sf, SupportFunction)
        assert sf.char.kind == INTERIOR
        assert next_trial_point(st, flag) == sf.vertex == 0.5
        assert st.R[0] == sf.char.R == pytest.approx(0.75)

    def test_second_scan_without_a_step_keeps_the_flag(self, monkeypatch):
        # the flagged entry of a scan that no step followed still stops the
        # next scan with the same bounds, which rebuilds nothing
        st = state_from([0, 1, 2], [1, 0.5, 2], [-0.6, -0.6, 2.9])
        flag = scan_characteristics(st, enumerate([30.0, 30.0]))
        bounds = [sf.data.m for sf in st.scan if sf is not None]
        first = (flag, list(st.scan), list(st.R), bounds)
        assert bounds == [30.0]
        assert first[0] == 0
        built = []
        original = solver_module.build_support

        def counting(data):
            built.append(data)
            return original(data)

        monkeypatch.setattr(solver_module, "build_support", counting)
        flag = scan_characteristics(st, enumerate([30.0, 30.0]))
        assert (flag, st.scan, st.R, [sf.data.m for sf in st.scan if sf is not None]) == first
        assert built == []

    def test_a_flag_outside_the_pending_run_becomes_the_run(self):
        # a slot rebuilt because its bound moved lies outside the empty
        # pending run; when it flags, the run is that slot alone, so a walk
        # over the run finds the flag again
        st = state_from([0, 1, 2], [1, 0.5, 2], [-0.6, -0.6, 2.9])
        assert scan_characteristics(st, enumerate([8.0, 8.0])) is None
        assert st.pending == (0, 0)
        assert scan_characteristics(st, enumerate([8.0, 30.0])) == 1
        assert st.pending == (1, 2)
        assert scan_characteristics(st, zip(range(*st.pending), repeat(30.0))) == 1

    @pytest.mark.parametrize("bound", [0.0, -1.0, math.nan])
    def test_a_bound_that_is_not_positive_raises_interval_data_error(self, bound):
        # the scan skips IntervalData's constructor only where its checks
        # hold; the first slot is built, the second one raises
        st = state_from([0, 1, 2], [1, 1, 1], [0, 0, 0])
        with pytest.raises(ValueError, match=rf"^curvature bound m={bound} must be positive$"):
            scan_characteristics(st, [(0, 1.0), (1, bound)])
        assert isinstance(st.scan[0], SupportFunction) and st.scan[1] is None

    @pytest.mark.parametrize("xs, left, right", [([0, 2, 1], 2.0, 1.0), ([0, 1, 1], 1.0, 1.0)])
    def test_trials_that_do_not_increase_raise_interval_data_error(self, xs, left, right):
        st = state_from(xs, [1, 1, 1], [0, 0, 0])
        with pytest.raises(ValueError, match=rf"^x_left={left} must be < x_right={right}$"):
            scan_characteristics(st, enumerate([1.0, 1.0]))
        assert isinstance(st.scan[0], SupportFunction) and st.scan[1] is None


class TestNextTrialPoint:
    def test_interior_point_of_single_interval(self):
        st = state_from([0, 1], [1, 1], [0, 0])
        flag = scan_characteristics(st, enumerate([4.0]))
        assert next_trial_point(st, flag) == pytest.approx(0.5)

    def test_minimal_characteristic_wins(self):
        # interval 1 has an interior minimum 0.75; interval 2 carries data of
        # f(x) = 1 - 0.8*(x-1)^2, decreasing to z = 0.2, and wins the argmin
        st = state_from([0, 1, 2], [1, 1, 0.2], [0, 0, -1.6])
        flag = scan_characteristics(st, enumerate([4.0, 2.0]))
        assert flag is None
        sf = st.scan[1]
        assert st.R[1] == sf.char.R == pytest.approx(0.2)
        assert sf.char.kind == RIGHT_END and sf.x_hat is None
        assert next_trial_point(st, flag) == sf.y

    def test_left_knot_of_increasing_interval(self):
        # data of f(x) = 1 + x: phi rises over the whole interval, so it has
        # no interior stationary point and its minimum is the left end
        st = state_from([0, 1], [1, 2], [1, 1])
        flag = scan_characteristics(st, enumerate([1.0]))
        sf = st.scan[0]
        assert sf.char.kind == LEFT_END and sf.x_hat is None
        assert next_trial_point(st, flag) == sf.y_prime

    def test_stationary_point_beats_an_end_minimum(self):
        # phi dips to a local minimum inside the interval, above z_left: the
        # characteristic is the left end, and the trial still goes to x_hat
        st = state_from([0, 1], [0.68, 1.22], [2.3, 2.1])
        flag = scan_characteristics(st, enumerate([8.0]))
        sf = st.scan[0]
        assert sf.char.kind == LEFT_END and sf.x_hat is not None
        assert sf.y_prime < sf.x_hat < sf.y
        assert next_trial_point(st, flag) == sf.x_hat

    def test_leftmost_zero_of_flagged_interval(self):
        st = state_from([0, 3], [1, -8], [-3, -3])
        flag = scan_characteristics(st, enumerate([2.0]))
        assert flag == 0
        assert next_trial_point(st, flag) == pytest.approx((-3 + math.sqrt(13)) / 2, abs=1e-12)


# positive up to the drift that starts at x = 16, with the first root at 17.8
LATE_ROOT = cosines_problem(2.51, (0.14, 0.58, 0.51), (0.47, 2.03, 2.6), (3.72, 1.63, 5.27),
                            1.0, 20.0)


class TestMinorantReuse:
    def test_cache_holds_only_the_last_scan(self):
        # a large reliability multiplier r keeps a2's bounds loose, so the
        # rootless t06 takes hundreds of steps
        p = get_problem("t06")
        cfg = SolverConfig(method="a2", max_trials=2000, params=EstimationParams(r=1e4))
        state = initialize(p)
        steps = 0
        while step(state, p, cfg) is None:
            steps += 1
            assert len(state.scan) == state.k - 1
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
        flags = []
        scan = solver_module.scan_characteristics

        def flagging(state, walk):
            flags.append(scan(state, walk))
            return flags[-1]

        monkeypatch.setattr(solver_module, "scan_characteristics", flagging)
        complete_steps = moved_total = kept_right = 0
        # rootless t02 flags most scans, t06 none; the late root of the sum
        # of cosines leaves minorants right of a flag that later walks reach
        for p in (get_problem("t02"), get_problem("t06"), LATE_ROOT):
            cfg = SolverConfig(method="a2")
            state = initialize(p)
            kept = {}  # (x_left, x_right) -> m of every minorant the lists hold
            outcome = None
            while outcome is None:
                k = state.k
                xs = [t.x for t in state.trials[:k]]
                intervals = list(zip(xs, xs[1:]))
                m = build_curvature_table(state.trials[:k], cfg.params).m
                # a minorant stays, right of a flag too, while its interval is
                # effective; the last step split one interval and may have cut k
                kept = {key: mp for key, mp in kept.items() if key in set(intervals)}
                assert kept == {(sf.data.x_left, sf.data.x_right): sf.data.m
                                for sf in state.scan if sf is not None}
                built.clear()
                outcome = step(state, p, cfg)
                last = flags[-1]
                scanned = list(zip(intervals, m))[:k - 1 if last is None else last + 1]
                rebuilt = [(*key, mp) for key, mp in scanned if kept.get(key) != mp]
                assert built == rebuilt
                moved = sum(key in kept for key, mp in scanned if kept.get(key) != mp)
                if len(kept) == len(scanned) - 2 == k - 3:
                    # this scan covered every interval and the lists held all
                    # but the two halves of the split: those two are built,
                    # plus the survivors whose m moved
                    assert len(built) == 2 + moved
                    complete_steps += 1
                if last is not None:
                    kept_right += sum(key[0] > xs[last] for key in kept)
                moved_total += moved
                kept.update(scanned)
        assert complete_steps > 0 and moved_total > 0 and kept_right > 0

    def test_a2_never_builds_a_minorant_twice(self, monkeypatch):
        # a late root: walks stop at flagged minorants left of minorants that
        # a later walk reaches again, with the bound they were built with
        built = []
        original = solver_module.build_support

        def counting(data):
            built.append((data.x_left, data.x_right, data.m))
            return original(data)

        monkeypatch.setattr(solver_module, "build_support", counting)
        out = solve(LATE_ROOT, SolverConfig(method="a2")).outcome
        assert isinstance(out, FirstRootFound) and out.x_sigma > 0.8 * LATE_ROOT.b
        assert len(set(built)) == len(built)


class TestSplicedState:
    """After every step the spliced a2 estimates and widths equal a full
    rebuild over the effective trials, v is computed for effective intervals
    only, and every scan, a1's and a2's, leaves the minorants it reached built
    with the right bounds (for a2, those of the oracle `helpers.table_from`)
    and every empty slot in the pending run."""

    @staticmethod
    def check_scan(state, flag, cfg) -> None:
        """The lists hold k - 1 slots, every minorant up to and including the
        flagged slot (every one, with no flag) was built with the oracle's
        bound, every minorant the lists keep, right of the flag too, is built
        on its two trials, and the pending run starts at the flag and holds
        every empty slot."""
        if cfg.method == "a1":
            bounds = [cfg.lipschitz] * (state.k - 1)
        else:
            full = build_curvature_table(state.trials[:state.k], cfg.params)
            bounds = table_from(full.v, full.gaps, cfg.params).m
            assert full.m == bounds
        reached = state.k - 1 if flag is None else flag + 1
        assert len(state.scan) == len(state.R) == state.k - 1
        assert all(state.scan[p].data.m == bounds[p] for p in range(reached))
        start, stop = state.pending
        assert start == stop if flag is None else start == flag < stop
        for p, sf in enumerate(state.scan):
            if sf is None:
                assert reached <= p < stop
                continue
            lo, hi = state.trials[p], state.trials[p + 1]
            d = sf.data
            assert (d.x_left, d.x_right, d.z_left, d.z_right, d.dz_left, d.dz_right) \
                == (lo.x, hi.x, lo.z, hi.z, lo.dz, hi.dz)
            assert state.R[p] == sf.char.R

    @classmethod
    def drive(cls, problem, cfg, monkeypatch) -> int:
        """Step to the end, checking the state after every scan and every
        step; returns how many steps made k smaller."""
        measured = []
        original = solver_module.interval_curvature
        scan = solver_module.scan_characteristics

        def recording(lo, hi):
            measured.append(hi.x)
            return original(lo, hi)

        def checked(state, walk):
            flag = scan(state, walk)
            cls.check_scan(state, flag, cfg)
            return flag

        monkeypatch.setattr(solver_module, "interval_curvature", recording)
        monkeypatch.setattr(solver_module, "scan_characteristics", checked)
        state = initialize(problem)
        shrinks = 0
        while True:
            k = state.k
            measured.clear()
            outcome = step(state, problem, cfg)
            if outcome is not None:
                return shrinks
            shrinks += state.k < k
            assert (state.k, state.b_n) == effective_points(state.trials)
            assert len(state.scan) == len(state.R) == state.k - 1
            assert len(measured) <= 2
            assert all(x <= state.b_n for x in measured)
            if cfg.method == "a2":
                full = build_curvature_table(state.trials[:state.k], cfg.params)
                assert state.v == list(full.v)
                assert state.gaps == list(full.gaps)
                assert all(lam == max(full.v[max(0, p - 1):p + 2]) for p, lam
                           in enumerate(table_from(full.v, full.gaps, cfg.params).lam))
            for p, sf in enumerate(state.scan):
                if sf is not None:
                    lo, hi = state.trials[p], state.trials[p + 1]
                    assert (sf.data.x_left, sf.data.x_right) == (lo.x, hi.x)

    @given(f0=hst.floats(0.05, 4.0),
           waves=hst.lists(hst.tuples(hst.floats(0.1, 1.0), hst.floats(0.3, 3.0),
                                      hst.floats(0.0, 2 * math.pi)), min_size=1, max_size=3),
           drift=hst.sampled_from([0.0, 1.0]),
           length=hst.floats(5.0, 30.0))
    @example(f0=3.0, waves=[(0.5, 1.0, 0.0), (0.3, 2.1, 1.0)], drift=1.0, length=20.0)
    @example(f0=4.0, waves=[(0.5, 1.0, 0.0), (0.3, 2.1, 1.0)], drift=0.0, length=20.0)
    # the fourth trial is negative in an interval no flag chose, and cuts k
    @example(f0=1.8, waves=[(0.87, 0.96, 1.67), (0.59, 2.05, 4.8), (0.44, 1.26, 5.8)],
             drift=0.0, length=6.5)
    @settings(max_examples=40, deadline=None)
    def test_spliced_table_equals_full_build(self, f0, waves, drift, length):
        amps, freqs, phases = zip(*waves)
        problem = cosines_problem(f0, amps, freqs, phases, drift, length)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.drive(problem, SolverConfig(method="a2"), monkeypatch)

    @given(f0=hst.floats(0.05, 4.0),
           waves=hst.lists(hst.tuples(hst.floats(0.1, 1.0), hst.floats(0.3, 3.0),
                                      hst.floats(0.0, 2 * math.pi)), min_size=1, max_size=3),
           drift=hst.sampled_from([0.0, 1.0]),
           length=hst.floats(5.0, 30.0))
    @example(f0=0.16, waves=[(0.4, 2.5, 5.7), (0.3, 2.1, 4.6), (0.9, 2.9, 5.3)], drift=0.0,
             length=20.0)
    @settings(max_examples=40, deadline=None)
    def test_a1_walk_reaches_every_empty_slot(self, f0, waves, drift, length):
        # K bounds |f''| by the sum of a_j w_j**2 plus twice the drift
        amps, freqs, phases = zip(*waves)
        problem = cosines_problem(f0, amps, freqs, phases, drift, length)
        bound = sum(a * w * w for a, w in zip(amps, freqs)) + 2.0 * drift
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.drive(problem, SolverConfig(method="a1", lipschitz=bound), monkeypatch)

    def test_a_negative_trial_shrinks_k(self, monkeypatch):
        # several negative dips: a trial in one left of the last found cuts k,
        # here twice before the end game stops on a sigma-wide bracket
        problem = cosines_problem(0.16, (0.4, 0.3, 0.9), (2.5, 2.1, 2.9), (5.7, 4.6, 5.3),
                                  0.0, 20.0)
        assert self.drive(problem, SolverConfig(method="a2"), monkeypatch) == 2


def _sorted_trials():
    # x increasing, f(x_0) > 0 and each later f of either sign, zero included
    n = hst.integers(2, 12)
    return n.flatmap(lambda n: hst.tuples(
        hst.lists(hst.floats(-1e3, 1e3), min_size=n, max_size=n, unique=True),
        hst.floats(1e-3, 10.0),
        hst.lists(hst.one_of(hst.floats(-10.0, 10.0), hst.sampled_from([0.0, -0.0])),
                  min_size=n - 1, max_size=n - 1),
    )).map(lambda t: [Trial(x=x, z=z, dz=0.0, birth=i)
                      for i, (x, z) in enumerate(zip(sorted(t[0]), [t[1], *t[2]]))])


class TestDerivedState:
    """A SearchState takes its trials and nothing else, no sigma either: it
    derives k and b_n from the trials and lays out k - 1 empty slots, all
    pending."""

    @given(trials=_sorted_trials())
    @example(trials=[Trial(0.0, 1.0, 0.0, 0), Trial(1.0, 0.0, 0.0, 1), Trial(2.0, -1.0, 0.0, 2)])
    @example(trials=[Trial(0.0, 1.0, 0.0, 0), Trial(1.0, -1.0, 0.0, 1), Trial(2.0, -1.0, 0.0, 2)])
    @settings(max_examples=100, deadline=None)
    def test_built_from_trials(self, trials):
        st = SearchState(trials)
        k, b_n = effective_points(trials)
        assert (st.k, st.b_n) == (k, b_n)
        assert st.scan == [None] * (k - 1)
        assert len(st.R) == k - 1 and all(math.isnan(value) for value in st.R)
        assert st.pending == (0, k - 1)
        assert st.v == st.gaps == []

    def test_takes_no_sigma(self):
        # sigma is a setting of the search, read from the config at each step
        trials = [Trial(0.0, 1.0, 0.0, 0), Trial(1.0, 1.0, 0.0, 1)]
        with pytest.raises(TypeError):
            SearchState(trials, 1e-4)
        with pytest.raises(TypeError):
            SearchState(trials, sigma=1e-4)

    def test_takes_no_derived_value(self):
        trials = [Trial(0.0, 1.0, 0.0, 0), Trial(1.0, 1.0, 0.0, 1)]
        with pytest.raises(TypeError):
            SearchState(trials, k=2)
        st = SearchState(trials)
        with pytest.raises(AttributeError):
            st.b_n = 1.0


# The benchmark's deep objectives for seed 3
DEEP_SEED_3 = deep_problems(3)


class TestHandBuiltState:
    """A SearchState built by hand from trials is sized like any other: k - 1
    empty slots, all pending.  A minorant is a pure function of its interval
    and bound, so a state built from the first trials of a solve, in any
    order of birth, from those trials and nothing else, has the solve's k and
    b_n at that cut and steps on to the rest of the solve's trace and its outcome."""

    @staticmethod
    def check_every_cut(p, method):
        cfg = SolverConfig(method=method, lipschitz=curvature_bound(p) if method == "a1" else None)
        res = solve(p, cfg)
        for j in range(2, len(res.trace) + 1):
            trials = sorted((Trial(x=r.x, z=r.f, dz=r.fprime, birth=r.iter) for r in res.trace[:j]),
                            key=lambda t: t.x)
            state = SearchState(trials)
            last = res.trace[j - 1]
            assert (state.k, state.b_n) == effective_points(trials) == (last.k, last.b_n), j
            assert state.pending == (0, state.k - 1)
            margins = []
            while (outcome := step(state, p, cfg)) is None:
                margins.append((state.k, state.b_n))
            assert outcome == res.outcome, j
            added = sorted(state.trials, key=lambda t: t.birth)[j:]
            assert [(t.birth, t.x, t.z, t.dz, k, b_n) for t, (k, b_n)
                    in zip(added, margins, strict=True)] == res.trace[j:], j

    @pytest.mark.parametrize("method", ["a1", "a2"])
    @pytest.mark.parametrize("pid", all_ids())
    def test_a_state_built_from_a_prefix_of_a_solve_continues_it(self, pid, method):
        self.check_every_cut(get_problem(pid), method)

    @pytest.mark.parametrize("method", ["a1", "a2"])
    @pytest.mark.parametrize("i", range(len(DEEP_SEED_3)))
    def test_a_deep_solve_continues_from_every_cut(self, i, method):
        self.check_every_cut(DEEP_SEED_3[i], method)


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


# f = 1 on [0, 1], so sigma = sigma_fraction exactly
ONE = Problem(id="one", name="f = 1", a=0.0, b=1.0,
              f=lambda x: np.ones_like(np.asarray(x, dtype=float)),
              df=lambda x: np.zeros_like(np.asarray(x, dtype=float)))


class TestStopCheck:
    def test_threshold(self):
        # a step stops, without spending a trial, when the selected interval
        # is no wider than sigma, and otherwise adds a trial inside it
        cfg = SolverConfig(method="a1", lipschitz=1.0, sigma_fraction=6.8e-4)
        assert cfg.resolve_sigma(ONE.a, ONE.b) == 6.8e-4
        for width, stops in ((6.7e-4, True), (2 * 6.8e-4, False), (6.8e-4, True)):
            st = state_from([0.0, width], [1, 1], [0, 0])
            outcome = step(st, ONE, cfg)
            assert (outcome is not None) == stops, width
            assert len(st.trials) == (2 if stops else 3), width

    def test_one_state_stops_at_each_configs_sigma(self):
        # the state holds no sigma: one hand-built state, its interval 5e-3
        # wide, stops under a config whose sigma is that wide, and the same
        # state stepped under a config whose sigma is narrower takes a trial
        st = state_from([0.0, 5e-3], [1, 1], [0, 0])
        wide, narrow = (SolverConfig(method="a1", lipschitz=1.0, sigma_fraction=fraction)
                        for fraction in (5e-3, 4.9e-3))
        assert step(st, ONE, wide) == NoRootGlobalMin(trials_used=2, x_best=0.0, f_best=1.0)
        assert step(st, ONE, narrow) is None
        assert [t.x for t in st.trials] == [0.0, 2.5e-3, 5e-3]


class TestEndGame:
    """Once the flagged minorant's leftmost zero lies within sigma of the
    interval's left end lo, the next trial goes to the largest float p with
    p - lo <= sigma; where no float above lo is that close, the quarter clamp
    applies as elsewhere."""

    @staticmethod
    def clamp(lo, hi, sigma, x, flagged=True):
        st = state_from([lo, hi], [1.0, -1.0], [0.0, 0.0])
        return solver_module._clamp_candidate(st, 0, 0 if flagged else None, x, sigma)

    def test_the_trial_is_the_largest_float_within_sigma(self):
        rng = np.random.default_rng(15)
        checked = 0
        for _ in range(2000):
            lo = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, 12))
            sigma = float(max(1.0, abs(lo)) * 10.0 ** rng.uniform(-15, -1))
            hi = lo + 4.0 * sigma
            x = lo + float(rng.uniform(0.0, 1.0)) * sigma
            if x - lo > sigma or not lo + sigma > lo:
                continue
            p = self.clamp(lo, hi, sigma, x)
            assert lo < p < hi, (lo, sigma, x)
            assert p - lo <= sigma < math.nextafter(p, math.inf) - lo, (lo, sigma, x)
            checked += 1
        assert checked > 1900

    # lo + sigma itself overshoots sigma by an ulp, is exact, or (sigma wider
    # than |lo|) falls an ulp short
    @pytest.mark.parametrize("lo, sigma, naive", [
        (0.2, 6.8e-4, "over"), (-3.0, 1e-9, "over"), (-1e12, 1e-2, "over"),
        (1e6, 1e-4, "exact"), (0.0, 1e-300, "exact"),
        (-0.0014537068827577089, 0.015210689404794753, "short")])
    def test_lo_plus_sigma_is_stepped_onto_the_edge(self, lo, sigma, naive):
        p = self.clamp(lo, lo + 3.0 * sigma, sigma, lo)
        assert p - lo <= sigma < math.nextafter(p, math.inf) - lo
        assert (p < lo + sigma, p == lo + sigma, p > lo + sigma) == (
            naive == "over", naive == "exact", naive == "short")

    def test_only_a_flagged_zero_within_sigma_moves(self):
        lo, hi, sigma = 1.0, 2.0, 1e-3
        # unflagged, a candidate near lo takes the quarter clamp
        assert self.clamp(lo, hi, sigma, lo, flagged=False) == lo + 0.25
        # a zero beyond sigma is kept as it is
        assert self.clamp(lo, hi, sigma, lo + 2 * sigma) == lo + 2 * sigma

    @pytest.mark.parametrize("lo", [1e6, -1e6, 1.0])
    def test_sigma_below_half_an_ulp_of_lo_takes_the_quarter_clamp(self, lo):
        sigma = 1e-17  # lo + sigma rounds to lo
        assert lo + sigma == lo
        assert self.clamp(lo, lo + 1.0, sigma, lo) == lo + 0.25

    @pytest.mark.parametrize("method", ["a1", "a2"])
    @pytest.mark.parametrize("a", [1e6, -1e6])
    def test_a_solve_at_such_a_sigma_never_duplicates_a_trial(self, a, method, monkeypatch):
        # f = eps - (x - a) has its root within half an ulp of a, so every
        # flagged zero rounds onto the left end and lo + sigma onto lo: each
        # placement is the quarter clamp.  a1 narrows the flagged interval to
        # an ulp or two, where the last quarter rounds onto lo, and stops in
        # PrecisionExhausted.  a2 stops earlier, in DegenerateInterval: its
        # curvature estimate refuses a gap below a threshold scaled by |x|
        # (ROADMAP direction 2).  Neither repeats an abscissa.
        problem = Problem(id="edge", name="eps - (x - a)", a=a, b=a + 1.0,
                          f=lambda x: 1e-18 - (np.asarray(x, dtype=float) - a),
                          df=lambda x: -np.ones_like(np.asarray(x, dtype=float)))
        cfg = SolverConfig(method=method, lipschitz=1.0 if method == "a1" else None,
                           sigma_fraction=1e-17)
        placed = []
        original = solver_module._clamp_candidate

        def recording(state, p, flag, x, sigma):
            lo, hi = state.trials[p].x, state.trials[p + 1].x
            out = original(state, p, flag, x, sigma)
            if flag is not None and x - lo <= sigma:
                placed.append((lo, hi, out))
            return out

        monkeypatch.setattr(solver_module, "_clamp_candidate", recording)
        if method == "a1":
            res = solve(problem, cfg)
            assert isinstance(res.outcome, PrecisionExhausted)
            assert res.outcome.cause == "no_float_inside"
            assert res.outcome.trials_used == len(res.trace) == 18
            xs = [r.x for r in res.trace]
            assert len(set(xs)) == len(xs)
        else:
            with pytest.raises(DegenerateInterval, match="too small for curvature estimation"):
                solve(problem, cfg)
        # the placements that `_advance` accepted, strictly inside their interval
        accepted = [(lo, hi, out) for lo, hi, out in placed if lo < out < hi]
        assert accepted
        assert all(out == lo + 0.25 * (hi - lo) for lo, hi, out in accepted)

    def test_no_float_inside_the_interval_ends_in_precision_exhausted(self):
        # At a = 1 the quarter clamp narrows the flagged interval to one ulp,
        # [1, 1 + 2**-52], still wider than sigma; lo + width/4 then rounds
        # onto lo, and the solve stops instead of repeating that abscissa.
        # (a2 raises DegenerateSlope on this input first: m*w falls below the
        # rounding of dz_right in the denominator m*w + dz_right - dz_left.)
        a = 1.0
        problem = Problem(id="edge", name="eps - (x - 1)", a=a, b=a + 1.0,
                          f=lambda x: 1e-18 - (np.asarray(x, dtype=float) - a),
                          df=lambda x: -np.ones_like(np.asarray(x, dtype=float)))
        res = solve(problem, SolverConfig(method="a1", lipschitz=1.0, sigma_fraction=1e-17))
        out = res.outcome
        assert isinstance(out, PrecisionExhausted)
        assert out.cause == "no_float_inside"
        assert out.interval == (a, math.nextafter(a, math.inf))
        assert out.trials_used == len(res.trace)
        xs = [r.x for r in res.trace]
        assert len(set(xs)) == len(xs)

    def test_a_negative_trial_at_the_edge_stops_on_a_sigma_bracket(self):
        p = get_problem("t01")
        cfg = SolverConfig(method="a1", lipschitz=curvature_bound(p))
        res = solve(p, cfg)
        out, last = res.outcome, res.trace[-1]
        assert isinstance(out, FirstRootFound)
        assert last.f < 0.0
        assert 0.0 < last.x - out.x_sigma <= cfg.resolve_sigma(p.a, p.b)


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
        assert out.cause == "curvature_floor"
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

    def test_budget_stop_after_a_bracket(self):
        # trials 0.2, 2.11 and 7.0, where f = -42.7: the best point so far is
        # the trial left of the first negative one, not the lowest trial
        p = get_problem("t01")
        res = solve(p, SolverConfig(method="a1", lipschitz=exact_lipschitz_oracle(p),
                                    max_trials=3))
        assert res.outcome == BudgetExhausted(trials_used=3, best_so_far=2.109973219031608)
        assert res.trace[1].x == 7.0 and res.trace[1].f < 0.0

    def test_a1_requires_bound(self):
        with pytest.raises(ValueError):
            solve(get_problem("t01"), SolverConfig(method="a1"))

    def test_a1_bound_below_the_curvature_is_named(self):
        # K is a tenth of sum a_j w_j^2 + 2*drift, and the first minorant,
        # over the whole domain, cannot be built with it
        p = cosines_problem(3.0, (0.5, 0.3), (1.0, 2.1), (0.0, 1.0), 1.0, 20.0)
        with pytest.raises(DegenerateSlope, match=r"^config\.lipschitz = 0\.3823 is below "
                                                  r"the curvature of f: m=0\.3823 too small "
                                                  r"on \[0\.0, 20\.0\]") as info:
            solve(p, SolverConfig(method="a1", lipschitz=0.3823))
        assert type(info.value.__cause__) is DegenerateSlope
        assert str(info.value).endswith(str(info.value.__cause__))

    @pytest.mark.parametrize("method", ["a1", "a2"])
    def test_a_domain_whose_squares_overflow_raises_non_finite(self, method):
        # m*w**2 overflows in the first minorant's knots; the error names the
        # interval and m
        far = Problem(id="far", name="far line", a=1e200, b=2e200,
                      f=lambda x: 1.5e200 - x, df=lambda x: -1.0 + 0 * x)
        cfg = SolverConfig(method=method, lipschitz=1.0 if method == "a1" else None)
        m = "1.0" if method == "a1" else "1.2e-06"
        with pytest.raises(NonFinite, match=rf"^m={m} on \[1e\+200, 2e\+200\]: knots "
                                            r"y'=inf, y=inf are not finite; .* too wide "
                                            r"for m\*w\*\*2$"):
            solve(far, cfg)

    def test_point_of_each_outcome(self):
        assert FirstRootFound(trials_used=5, x_sigma=1.5).point == 1.5
        assert NoRootGlobalMin(trials_used=5, x_best=2.5, f_best=0.1).point == 2.5
        assert PrecisionExhausted(trials_used=5, interval=(3.5, 3.6),
                                  cause="curvature_floor").point == 3.5
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


def t10_right():
    """t10's f and f' on [2.78, 7.0], where f(2.78) = 0.148, and the mesh
    points (400 001 of them) on either side of f's first sign change."""
    t10 = get_problem("t10")
    p = Problem(id="t10r", name="t10 right", a=2.78, b=7.0, f=t10.f, df=t10.df)
    xs = np.linspace(p.a, p.b, 400_001)
    i = int(np.argmax(p.f(xs) < 0.0))
    return p, (float(xs[i - 1]), float(xs[i]))


class TestFarFromZero:
    """Minorants are built in u = x - x_left, so their terms have the size of
    the interval and its data, not of |x|: an interval narrow against |x|, or
    a domain far from zero, gets the minorant it gets at zero."""

    def test_a2_at_a_small_absolute_sigma(self):
        # rootless t02: the search narrows to width 6e-10 near x = 0.2249
        p = get_problem("t02")  # sigma = 1e-9 exactly
        out = solve(p, SolverConfig(method="a2", sigma_fraction=1e-9 / (p.b - p.a))).outcome
        assert isinstance(out, NoRootGlobalMin)

    @pytest.mark.parametrize("method", ["a1", "a2"])
    @pytest.mark.parametrize("pid", [f"t{i:02d}" for i in range(1, 21)])
    def test_shifted_far_from_zero(self, pid, method):
        p = get_problem(pid)
        cfg = SolverConfig(method=method,
                           lipschitz=exact_lipschitz_oracle(p) if method == "a1" else None)
        ref = solve(p, cfg).outcome
        for shift in (1e3, -1e3, 1e6, -1e6):
            out = solve(shifted_problem(p, shift), cfg).outcome
            assert (out.tag, out.trials_used) == (ref.tag, ref.trials_used), shift
            assert out.point - shift == pytest.approx(ref.point,
                                                      abs=cfg.resolve_sigma(p.a, p.b)), shift


class TestKnownDefects:
    """Valid inputs on which the solver is not yet invariant to how large f
    is, or on which a2 gives a wrong answer.  Two return an Outcome that
    differs from the unscaled one: a2's curvature floor r*xi is absolute, so
    when f is scaled down far enough the floor, not the data, sets the
    bounds.  One is a first root that a2 reports right of four sign changes
    of t10's f: the paper's a2 estimates its curvature bounds from the
    trials, there the estimates fall below the curvature of f, and a
    minorant stays positive over roots (a1 with the oracle K finds the
    first root).  And at a small sigma, a1 with a valid bound raises
    instead of returning an Outcome.
    Each test states what a fixed solver must return; the xfail is strict, so
    a fix turns it into a failure until the mark goes."""

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="the paper's a2 estimates the curvature from the trials; on "
                              "t10 right of 2.78 the estimates fall below it after 5 trials "
                              "and a2 reports a first root at 3.675, past the sign changes "
                              "at 2.98, 3.13, 3.33 and 3.48")
    def test_a2_finds_the_first_root_of_t10_right_of_2_78(self):
        p, (lo, hi) = t10_right()
        cfg = SolverConfig(method="a2")
        out = solve(p, cfg).outcome
        assert isinstance(out, FirstRootFound)
        assert lo - cfg.resolve_sigma(p.a, p.b) <= out.x_sigma <= hi

    def test_a1_finds_the_first_root_of_t10_right_of_2_78(self):
        # the twin of the a2 miss above: a1 with the oracle K brackets the
        # root between mesh points 2.9796904 and 2.97970095 in 9 trials
        p, (lo, hi) = t10_right()
        cfg = SolverConfig(method="a1", lipschitz=curvature_bound(p))
        out = solve(p, cfg).outcome
        assert isinstance(out, FirstRootFound) and out.trials_used == 9
        assert lo - cfg.resolve_sigma(p.a, p.b) <= out.x_sigma <= hi

    # t05*1e-30 stops at 0.2 after 3 trials with PrecisionExhausted; t05*1e-10
    # finds the root, but after 78 trials
    @pytest.mark.xfail(raises=AssertionError, strict=True)
    @pytest.mark.parametrize("c", [1e-30, 1e-10])
    def test_a2_scaled_down(self, c):
        p = get_problem("t05")
        cfg = SolverConfig(method="a2")
        ref = solve(p, cfg).outcome
        assert isinstance(ref, FirstRootFound) and ref.trials_used == 10
        out = solve(scaled_problem(p, c), cfg).outcome
        assert type(out) is type(ref)
        assert out.trials_used == ref.trials_used
        assert out.point == pytest.approx(ref.point, abs=cfg.resolve_sigma(p.a, p.b))

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="a valid a1 bound is reported as too small once K*w reaches the "
                              "rounding noise of f': at sigma_fraction 1e-9, 10 of the 40 "
                              "solves, all a1 with the oracle K, raise DegenerateSlope; they "
                              "should end in PrecisionExhausted")
    def test_every_bed_solve_at_sigma_fraction_1e_9_ends_in_an_outcome(self):
        raised = []
        for pid in [f"t{i:02d}" for i in range(1, 21)]:
            p = get_problem(pid)
            for method in ("a1", "a2"):
                cfg = SolverConfig(method=method, sigma_fraction=1e-9,
                                   lipschitz=curvature_bound(p) if method == "a1" else None)
                try:
                    solve(p, cfg)
                except FirstRootError as exc:
                    raised.append((pid, method, type(exc).__name__))
        assert raised == []


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

    @pytest.mark.parametrize("method", ["a1", "a2"])
    @pytest.mark.parametrize("pid", all_ids())
    def test_step_reproduces_solve(self, pid, method):
        # `solve` builds its trace as it goes; driving `step` from `initialize`
        # by hand must give the same trials, k and b_n after each insertion,
        # and the same outcome: one engine behind both
        p = get_problem(pid)
        cfg = SolverConfig(method=method, lipschitz=curvature_bound(p) if method == "a1" else None)
        res = solve(p, cfg)
        state = initialize(p)
        rows = [(t, state.k, state.b_n) for t in state.trials]
        while (outcome := step(state, p, cfg)) is None:
            rows.append((max(state.trials, key=lambda t: t.birth), state.k, state.b_n))
        assert outcome == res.outcome
        assert sorted(state.trials, key=lambda t: t.birth) == [t for t, _, _ in rows]
        assert res.trace == [(t.birth, t.x, t.z, t.dz, k, b_n) for t, k, b_n in rows]
        assert {tuple(map(type, r)) for r in res.trace} == {(int, float, float, float, int, float)}
        # built with tuple.__new__, the records are still of their own classes
        assert all(type(r) is TraceRecord for r in res.trace)
        assert all(type(t) is Trial for t in state.trials)
        assert all(type(sf.data) is IntervalData for sf in state.scan if sf is not None)


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

    @pytest.mark.parametrize("excess, steps, last", [(1e-7, 1000, 0.9999999998999999),
                                                     (1e-5, 1001, 1.0)])
    def test_mesh_short_of_b_by_rounding_covers_it(self, excess, steps, last):
        # (b - a)/sigma = 1000 + excess: a mesh that stops short of b by no
        # more than 1e-9 of its steps covers [a, b]; one that stops shorter
        # takes one more step, to b
        p = Problem(id="rise", name="1 + x", a=0.0, b=1.0, f=lambda x: 1.0 + x,
                    df=lambda x: 1.0)
        res = grid_search(p, 1.0 / (1000.0 + excess))
        assert type(res.outcome) is NoRootGlobalMin and res.outcome.trials_used == steps
        assert res.trace[-1].x == last

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

    @pytest.mark.parametrize("cap", [2.5, True])
    def test_cap_that_is_no_integer_is_refused_before_any_evaluation(self, cap):
        # 2.5 used to give a trace whose len raised TypeError, and True to
        # report trials_used=True
        calls = []
        p = linear_problem()
        counted = dataclasses.replace(p, f=lambda x: calls.append(x) or p.f(x))
        with pytest.raises(TypeError, match=rf"^cap must be an integer, got {cap!r}$"):
            grid_search(counted, 6.8e-4, cap=cap)
        assert calls == []

    def test_cap_may_be_a_numpy_integer(self):
        p = get_problem("t02")
        assert grid_search(p, 6.8e-4, cap=np.int64(50)) == grid_search(p, 6.8e-4, cap=50)

    @pytest.mark.parametrize("sigma", [math.inf, 1e10 * 6.8])
    def test_sigma_wider_than_the_interval_takes_one_step_to_b(self, sigma):
        # f(7) < 0 on t01: the single step lands on b and the sigma-root is a,
        # as a1 and a2 report it at sigma = inf
        res = grid_search(get_problem("t01"), sigma)
        assert res.outcome == FirstRootFound(trials_used=1, x_sigma=0.2)
        assert [rec.x for rec in res.trace] == [7.0]
        for cfg in (SolverConfig(method="a1", lipschitz=1e3, sigma_fraction=math.inf),
                    SolverConfig(method="a2", sigma_fraction=math.inf)):
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

    @pytest.mark.parametrize("pid, steps, points", [("t05", 913, 914), ("passband", 57, 58)])
    def test_derivative_taken_up_to_the_first_negative_value(self, pid, steps, points):
        # both stop on the tangent test one step before f first turns
        # negative; f is taken on the whole first chunk, f' up to that first
        # negative f and no further
        p = get_problem(pid)
        f_sizes, df_sizes = [], []

        def f(x):
            f_sizes.append(len(x))
            return p.f(x)

        def df(x):
            df_sizes.append(len(x))
            return p.df(x)

        res = grid_search(dataclasses.replace(p, f=f, df=df), 1e-4 * (p.b - p.a))
        assert res == grid_search(p, 1e-4 * (p.b - p.a))
        assert res.outcome.trials_used == steps and res.trace[-1].f >= 0.0
        assert f_sizes == [solver_module._GRID_CHUNK] == [4096]
        assert df_sizes == [points]
        assert float(p.f(np.minimum(p.a + points * 1e-4 * (p.b - p.a), p.b))) < 0.0

    def test_derivative_past_the_first_negative_value_is_not_taken(self):
        # f steps from 1 to -1 at 0.5, so the scan with sigma = 0.05 stops at
        # step 10, x = 0.5, its first negative f; f' raises past it
        def df(x):
            x = np.asarray(x, dtype=float)
            if (x > 0.5).any():
                raise ArithmeticError("f' past the first negative f")
            return np.zeros_like(x)

        p = Problem(id="step", name="step down at 0.5", a=0.0, b=1.0,
                    f=lambda x: np.where(np.asarray(x, dtype=float) < 0.5, 1.0, -1.0), df=df)
        res = grid_search(p, 0.05)
        assert res.outcome == FirstRootFound(trials_used=10, x_sigma=0.45)
        assert [rec.fprime for rec in res.trace] == [0.0] * 10

    def test_scan_and_length_join_no_array(self, monkeypatch):
        # t02 is rootless: three chunks, none cut short
        p = get_problem("t02")

        def join(*args, **kwargs):
            raise AssertionError("the trace joined its arrays")

        with monkeypatch.context() as patch:
            patch.setattr(np, "concatenate", join)
            res = grid_search(p, 1e-4 * (p.b - p.a))
            assert len(res.trace) == res.outcome.trials_used == 10_000
        assert "_records" not in vars(res.trace)
        assert res.trace[-1].x == p.b and "_records" in vars(res.trace)

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
        SupportFunction: sf._asdict(),
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

    def test_build_support_derives_the_characteristic(self):
        # the records check nothing; build_support derives x_hat and char, and
        # a minorant built by hand from its knots and middle piece equals it
        sf = build_support(IntervalData(**_record_kwargs()[IntervalData]))
        assert (sf.x_hat, sf.char) == (0.5, Characteristic(h=0.5, R=0.75, kind="interior"))
        assert hand_built_support(sf.data, sf.y_prime, sf.y, sf.vertex, sf.q) == sf

    def test_trace_record_fields(self):
        # the keys of a JSONL trace line, in order
        assert TraceRecord._fields == ("iter", "x", "f", "fprime", "k", "b_n")

    def test_search_state_holds_only_its_fields(self):
        # a state is built from its trials alone; the other fields are
        # derived, and b_n is a property, not a field
        st = state_from([0, 1], [1, 1], [0, 0])
        fields = dataclasses.fields(st)
        assert [f.name for f in fields] == ["trials", "k", "scan", "R", "pending", "v", "gaps"]
        assert [f.name for f in fields if f.init] == ["trials"]
        with pytest.raises(AttributeError):
            st.extra = 1


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            SolverConfig(method="a3")

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            SolverConfig(sigma_fraction=0.0)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            SolverConfig(max_trials=1)

    @pytest.mark.parametrize("max_trials", [2.5, True])
    def test_budget_that_is_no_integer_is_refused(self, max_trials):
        # 2.5 used to be accepted, and the solve stopped after 3 trials
        with pytest.raises(TypeError, match=rf"^max_trials must be an integer, got {max_trials!r}$"):
            SolverConfig(method="a2", max_trials=max_trials)

    @pytest.mark.parametrize("lipschitz", [None, -1.0, math.nan, math.inf])
    def test_bad_lipschitz(self, lipschitz):
        with pytest.raises(ValueError, match="lipschitz"):
            SolverConfig(method="a1", lipschitz=lipschitz)

    @pytest.mark.parametrize("lipschitz", [0.0, 3.0])
    def test_a2_refuses_a_bound_it_would_ignore(self, lipschitz):
        with pytest.raises(ValueError, match=r"^a2 estimates its own bounds; "
                                             r"config\.lipschitz applies to a1 only$"):
            SolverConfig(method="a2", lipschitz=lipschitz)
