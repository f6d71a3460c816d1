"""Threshold search and growth-rate fits for coverage targets."""

import math
import tracemalloc
from decimal import localcontext
from fractions import Fraction

import numpy as np
import pytest

from hypercov import rng, simulate, sweep
from hypercov.design import DesignSpec, Units
from hypercov.errors import GuardExceededError, InvalidModeError, StructuralError
from hypercov.sampling import SampleKind
from hypercov.sweep import (
    SweepMode,
    closed_form_k,
    fit_slope,
    full_coverage_k,
    run_sweep,
    simulated_k,
)
from hypercov.simulate import SimPlan, summarize
from test_simulate import drawn_curve


def long_curve_stops(spec, kind, t, reps, seed):
    """Each replicate's full-coverage stop, read from one draw long
    enough to cover: the reference the chunked walks must match."""
    universe, stops = Units(t).universe(spec), []
    for r in range(1, reps + 1):
        curve = drawn_curve(spec, kind, rng.fold(seed, r), 40 * spec.n ** (t - 1), Units(t))
        stops.append(int(np.argmax(curve == universe)) + 1)
        assert curve[stops[-1] - 1] == universe
    return stops


class TestClosedFormThreshold:
    @pytest.mark.parametrize(
        "n,t,level,k_star",
        [
            (100, 2, 0.5, 69),
            (16, 3, 0.5, 178),
            (10, 1, 0.9, 1),  # width-1 slices are covered by any trial
            (2, 2, 0.5, 1),
            (2, 2, 0.75, 2),
        ],
    )
    def test_frozen_thresholds(self, n, t, level, k_star):
        assert closed_form_k(n, t, level) == k_star

    @pytest.mark.parametrize("n,t,level", [(7, 2, 0.3), (12, 2, 0.8), (5, 3, 0.62)])
    def test_threshold_is_a_crossing(self, n, t, level):
        # k* is minimal: the expected fraction reaches the level at k*
        # and not one trial earlier. Each trial covers n of the n^t
        # cells, so the per-cell miss base is 1 - n^(1-t). Checked in
        # exact arithmetic.
        k = closed_form_k(n, t, level)
        miss = Fraction(n ** (t - 1) - 1, n ** (t - 1))

        def covered(j):
            return 1 - miss**j

        assert covered(k) >= Fraction(level).limit_denominator(10**12)
        if k > 1:
            assert covered(k - 1) < Fraction(level).limit_denominator(10**12)

    def test_threshold_grows_linearly_in_n_for_pairs(self):
        ks = [closed_form_k(n, 2, 0.5) for n in (50, 100, 200)]
        # Doubling n should about double k at fixed level.
        assert 1.8 < ks[1] / ks[0] < 2.2
        assert 1.8 < ks[2] / ks[1] < 2.2

    @pytest.mark.parametrize("shift", [-3, 0, 3])
    def test_walk_settles_from_any_start(self, monkeypatch, shift):
        # level = 1 - (3/4)^5 exactly, so k* = 5 is a tie that the
        # decimal crossing overshoots by a hair: the walk starts at 6 and
        # steps down. Starts 3 below and above walk up and down to it.
        real, starts = sweep._crossing, []

        def shifted(base, level, k):
            with localcontext() as ctx:
                ctx.prec = 100  # the default 28 digits would round the hair away
                x = real(base, level, k) + shift
            starts.append(math.ceil(x))
            return x

        monkeypatch.setattr(sweep, "_crossing", shifted)
        assert closed_form_k(4, 2, 0.7626953125) == 5
        assert starts == [6 + shift]

    def test_level_validation(self):
        with pytest.raises(InvalidModeError):
            closed_form_k(8, 2, 1.0)
        with pytest.raises(InvalidModeError):
            closed_form_k(8, 2, 0.0)


class TestSimulatedThreshold:
    def test_matches_closed_form_on_small_design(self):
        got = simulated_k(DesignSpec(2, 8), SampleKind.LHS, 2, 0.5, reps=100, seed=1)
        assert got == closed_form_k(8, 2, 0.5)

    def test_determinism(self):
        a = simulated_k(DesignSpec(2, 6), SampleKind.LHS, 2, 0.4, reps=60, seed=9)
        b = simulated_k(DesignSpec(2, 6), SampleKind.LHS, 2, 0.4, reps=60, seed=9)
        assert a == b

    def test_os_kind_accepted(self):
        got = simulated_k(DesignSpec(2, 4, p=2), SampleKind.OS, 2, 0.5, reps=80, seed=2)
        assert got >= 1


class TestFullCoverage:
    def test_small_design_stopping_time(self):
        got = full_coverage_k(DesignSpec(2, 4), SampleKind.LHS, 2, reps=50, seed=1)
        # Collecting all 16 cells takes at least universe/n = 4 trials.
        assert got >= 4
        assert got == full_coverage_k(DesignSpec(2, 4), SampleKind.LHS, 2, reps=50, seed=1)

    @pytest.mark.parametrize(
        "spec,kind,exact",
        [
            (DesignSpec(2, 3), SampleKind.LHS, Fraction(73, 10)),
            (DesignSpec(2, 4), SampleKind.LHS, Fraction(1365160189, 111546435)),
            (DesignSpec(2, 4, p=2), SampleKind.OS, Fraction(537421, 45045)),
        ],
    )
    def test_mean_stop_matches_the_exact_expectation(self, spec, kind, exact):
        # The exact mean number of i.i.d. trials to cover the full 2-axis
        # grid: sum over nonempty cell sets S of (-1)^(|S|+1) / (1 - q_S),
        # q_S the share of oracle.enumerate_trials' trials that miss S.
        reps = 2000
        start = sweep._first_draw(spec, kind, 2, 1.0, reps)
        stops = sweep._stops(SimPlan(spec, kind, start, reps, targets=(Units(2),), seed=11))
        assert len(stops) == reps
        assert full_coverage_k(spec, kind, 2, reps=reps, seed=11) == math.fsum(stops) / reps
        stats = summarize(stops)
        assert abs(stats.mean - exact) <= 4 * stats.se

    @pytest.mark.parametrize(
        "spec,kind,t",
        [
            (DesignSpec(2, 4), SampleKind.LHS, 2),
            (DesignSpec(2, 8), SampleKind.LHS, 2),
            (DesignSpec(2, 4, p=2), SampleKind.OS, 2),
            (DesignSpec(3, 4), SampleKind.LHS, 2),
        ],
    )
    @pytest.mark.parametrize("start", [None, 1, 3])
    def test_chunks_stop_where_one_long_curve_does(self, monkeypatch, spec, kind, t, start):
        # A tiny start puts every stop in a later chunk; the
        # coupon-collector start leaves some in the first.
        reps, seed = 12, 17
        stops = long_curve_stops(spec, kind, t, reps, seed)
        if start is not None:
            monkeypatch.setattr(sweep, "_first_draw", lambda *args: start)
        else:
            first = sweep._first_draw(spec, kind, t, 1.0, reps)
            assert min(stops) <= first < max(stops)
        assert full_coverage_k(spec, kind, t, reps=reps, seed=seed) == math.fsum(stops) / reps

    def test_huge_universe_refused_before_the_bitmap(self):
        # U = 10^15 cells: the first chunk's key guard refuses the cell
        # before a bool map of U cells (or any trial) is allocated.
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError, match="^k\\*n = "):
                full_coverage_k(DesignSpec(3, 10**5), SampleKind.LHS, 3, reps=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_find_k_dispatch(self):
        # Full coverage rows are mean stopping counts; the others count trials.
        grid = [4, 5, 6]
        full, half = run_sweep(2, 2, SampleKind.LHS, [1.0, 0.5], grid, SweepMode.SIMULATED, reps=30, seed=3)
        assert [type(ks) for _, ks in full.rows] == [float] * 3
        assert [type(ks) for _, ks in half.rows] == [int] * 3
        (closed,) = run_sweep(2, 2, SampleKind.LHS, [0.5], grid, SweepMode.CLOSED_FORM)
        assert closed.rows == tuple((n, closed_form_k(n, 2, 0.5)) for n in grid)
        with pytest.raises(InvalidModeError, match="^full coverage has no closed form; use simulated mode$"):
            run_sweep(2, 2, SampleKind.LHS, [0.5, 1.0], grid, SweepMode.CLOSED_FORM)


class TestBatchSize:
    """How many replicates share a draw (SimPlan.batch) changes no result:
    trial t of replicate r is fold(fold(seed, r), t) in any batch."""

    @pytest.mark.parametrize("kind", list(SampleKind))
    @pytest.mark.parametrize("level", [0.5, 0.9, 1.0])
    def test_batch_size_changes_no_result(self, monkeypatch, kind, level):
        spec, t, reps, seed = DesignSpec(3, 8, p=2), 2, 23, 3  # 23 = 3 * 7 + 2
        entries = sweep._first_draw(spec, kind, t, level, reps) * t * spec.n  # a first curve's
        batches, real = [], simulate.replicate_batches
        def spy(plan, ids, first=1):
            batches.append(plan.batch)
            return real(plan, ids, first)

        monkeypatch.setattr(simulate, "replicate_batches", spy)
        results = []
        for budget, want in [(0, 1), (7 * entries, 7), (reps * entries, reps)]:
            monkeypatch.setattr(simulate, "BATCH_ENTRIES", budget)
            batches.clear()
            if level == 1.0:
                results.append(full_coverage_k(spec, kind, t, reps=reps, seed=seed))
            else:
                results.append(simulated_k(spec, kind, t, level, reps=reps, seed=seed))
            assert batches[0] == want
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("kind", list(SampleKind))
    def test_batched_later_chunks_stop_where_one_long_curve_does(self, monkeypatch, kind):
        # A first chunk of one trial puts every stop in a later chunk, which
        # the replicates of a batch still running draw together.
        spec, t, reps, seed = DesignSpec(3, 8, p=2), 2, 23, 3
        want = long_curve_stops(spec, kind, t, reps, seed)
        monkeypatch.setattr(sweep, "_first_draw", lambda *args: 1)
        results = []
        for batch in (1, 7, reps):
            monkeypatch.setattr(simulate, "BATCH_ENTRIES", batch * t * spec.n)  # a chunk's entries
            plan = SimPlan(spec, kind, 1, reps, targets=(Units(t),), seed=seed)
            assert plan.batch == batch
            assert sweep._stops(plan) == want
            results.append(full_coverage_k(spec, kind, t, reps=reps, seed=seed))
        assert results == [math.fsum(want) / reps] * 3


class TestDoublingSearch:
    def test_short_start_doubles_to_the_same_k(self, monkeypatch):
        # Curves of one seed agree on shared prefixes, so a start below
        # k* doubles (5, 10, 20, 40) to the k* a start above it finds.
        spec = DesignSpec(2, 8)
        want = simulated_k(spec, SampleKind.LHS, 2, 0.9, reps=20, seed=4)
        assert want > 16
        monkeypatch.setattr(sweep, "closed_form_k", lambda n, t, level: 1)
        assert simulated_k(spec, SampleKind.LHS, 2, 0.9, reps=20, seed=4) == want

    def test_guard_stops_both_searches(self, monkeypatch):
        lengths = []

        def never_covers(plan, k, cols, covered=None):
            lengths.append(k)
            return np.zeros((k // plan.k, plan.k), np.int64)

        monkeypatch.setattr(simulate, "coverage_curve", never_covers)
        monkeypatch.setattr(sweep, "SIM_K_GUARD", 64)
        with pytest.raises(GuardExceededError, match="^k search passed guard 64$"):
            simulated_k(DesignSpec(2, 8), SampleKind.LHS, 2, 0.5, reps=2, seed=0)
        # Starts at closed_form_k + 4 = 10 and doubles while within the
        # guard, both replicates' curves counted in one call.
        assert lengths == [20, 40, 80]
        lengths.clear()
        with pytest.raises(GuardExceededError, match="^full coverage passed guard 64$"):
            full_coverage_k(DesignSpec(2, 4), SampleKind.LHS, 2, reps=2, seed=0)
        # Both replicates, in one batch counted by one call, take the
        # coupon-collector chunk of 14 trials, then chunks of 3 and a last
        # one that ends at the guard.
        assert lengths == [28] + [6] * 16 + [4]


class TestFitSlope:
    def test_exact_power_law(self):
        rows = [(10, 3.0 * 10**1.5), (100, 3.0 * 100**1.5), (1000, 3.0 * 1000**1.5)]
        fit = fit_slope(rows)
        assert fit.slope == pytest.approx(1.5, abs=1e-12)
        assert fit.intercept == pytest.approx(0.4771212547196626, abs=1e-12)
        assert fit.residual < 1e-12

    def test_flat_line(self):
        fit = fit_slope([(10, 7.0), (100, 7.0), (1000, 7.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_rows(self):
        with pytest.raises(StructuralError):
            fit_slope([(10, 5.0), (20, 9.0)])


class TestRunSweep:
    def test_closed_form_pair_slice(self):
        res = run_sweep(
            d=3, t=2, kind=SampleKind.LHS, levels=[0.5],
            n_grid=[64, 128, 256, 512], mode=SweepMode.CLOSED_FORM,
        )
        assert len(res) == 1
        r = res[0]
        assert r.rows == ((64, 45), (128, 89), (256, 178), (512, 355))
        assert abs(r.slope - 1.0) < 0.05

    def test_closed_form_triple_slice(self):
        r = run_sweep(
            d=3, t=3, kind=SampleKind.LHS, levels=[0.5],
            n_grid=[64, 128, 256, 512], mode=SweepMode.CLOSED_FORM,
        )[0]
        assert abs(r.slope - 2.0) < 0.05

    def test_multiple_levels(self):
        res = run_sweep(
            d=2, t=2, kind=SampleKind.LHS, levels=[0.25, 0.5],
            n_grid=[16, 32, 64], mode=SweepMode.CLOSED_FORM,
        )
        assert [r.level for r in res] == [0.25, 0.5]
        # Higher level needs more trials at every n.
        for (_, k_lo), (_, k_hi) in zip(res[0].rows, res[1].rows):
            assert k_lo < k_hi

    def test_simulated_mode_runs(self):
        r = run_sweep(
            d=2, t=2, kind=SampleKind.LHS, levels=[0.5],
            n_grid=[4, 8, 16], mode=SweepMode.SIMULATED, reps=60, seed=5,
        )[0]
        assert len(r.rows) == 3
        assert 0.5 < r.slope < 1.5

    def test_os_grid_infers_block_side(self):
        r = run_sweep(
            d=2, t=2, kind=SampleKind.OS, levels=[0.5],
            n_grid=[4, 9, 16], mode=SweepMode.SIMULATED, reps=60, seed=5,
        )[0]
        assert len(r.rows) == 3
