"""Monte Carlo coverage estimation against exact references.

Small designs make several quantities deterministic (a single trial
covers a known number of cells), which pins the counting pipeline
before any statistics enter.
"""

import dataclasses
import itertools
import math
import statistics
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercov import oracle, rng, simulate
from hypercov.cli import parse_target
from hypercov.design import DesignSpec, Units
from hypercov.errors import GuardExceededError, StructuralError, UnsupportedSpecError
from hypercov.sampling import SampleKind, trial_columns
from hypercov.simulate import (
    SimPlan,
    _keys_for_target,
    coverage_curve,
    simulate_coverage,
    summarize,
)
from hypercov.laws import projection_lambda

SEED = 1106


def edge(i, j, pi, pj):
    return Units(2, (i, j), coarse=(pi, pj))


def drawn_curve(spec, kind, seed, k, target):
    """coverage_curve of trials 1..k of a run drawn from seed by
    sampling.trial_columns, on the target's axes."""
    plan = SimPlan(spec, kind, k, reps=1, targets=(target,))
    return coverage_curve(plan, k, trial_columns(spec, kind, seed, k, plan.axes))[0]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Sizes of the process pools asked for; a fake executor runs the
    chunks here, so no process is started whatever size is asked."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    return sizes


class TestTargets:
    def test_labels(self):
        assert Units().label == "full"
        assert Units(2).label == "proj:2"
        assert Units(2, dims=(1, 3)).label == "proj:2@1,3"
        assert edge(1, 2, 1, 1).label == "edge:1,2,1,1"

    def test_universe(self):
        spec = DesignSpec(3, 4)
        assert Units().universe(spec) == 64
        assert Units(2).universe(spec) == 16
        bspec = DesignSpec(3, 8, p=2)
        assert edge(1, 2, 1, 1).universe(bspec) == 16

    def test_lambda(self):
        # A target's per-key rate is projection_lambda at its axis count;
        # a coarse edge target has two axes.
        def rate(spec, target):
            return projection_lambda(spec.n, len(target.axes(spec)))

        spec = DesignSpec(3, 4)
        assert rate(spec, Units()) == pytest.approx(4.0**-2)
        assert rate(spec, Units(2)) == pytest.approx(0.25)
        bspec = DesignSpec(3, 8, p=2)
        assert rate(bspec, edge(1, 2, 1, 1)) == pytest.approx(1 / 8)

    def test_plan_validation(self):
        spec = DesignSpec(2, 4)
        with pytest.raises(StructuralError):
            SimPlan(spec, SampleKind.LHS, k=0, reps=1, seed=0)
        with pytest.raises(StructuralError):
            SimPlan(spec, SampleKind.LHS, k=1, reps=0, seed=0)
        with pytest.raises(StructuralError):
            SimPlan(spec, SampleKind.LHS, k=1, reps=1, targets=(Units(3),), seed=0)
        with pytest.raises(UnsupportedSpecError):
            SimPlan(spec, SampleKind.LHS, k=1, reps=1, targets=(edge(1, 2, 1, 1),), seed=0)

    def test_memory_guard(self):
        with pytest.raises(GuardExceededError):
            SimPlan(DesignSpec(2, 2**20), SampleKind.LHS, k=100, reps=1, seed=0)


class TestDeterministicCases:
    def test_single_trial_covers_exactly_n_tuples(self):
        # One Latin trial has n points, all distinct, so the covered
        # fraction is n/n^d with no randomness in it.
        for d, n in ((2, 2), (2, 5), (3, 3)):
            plan = SimPlan(DesignSpec(d, n), SampleKind.LHS, k=1, reps=6, seed=SEED)
            rep = simulate_coverage(plan)[0]
            assert rep.fractions == tuple([n / n**d] * 6)
            assert rep.sd < 1e-15

    def test_single_trial_projected_slice(self):
        # Projection keeps all n points distinct (Latin columns), so
        # every width also covers exactly n cells.
        spec = DesignSpec(4, 3)
        targets = (Units(2), Units(3), Units())
        plan = SimPlan(spec, SampleKind.LHS, k=1, reps=4, targets=targets, seed=SEED)
        reports = simulate_coverage(plan)
        for t, rep in zip((2, 3, 4), reports):
            assert rep.fractions == tuple([3 / 3**t] * 4)

    def test_orthogonal_subblock_rectangle_is_exact(self):
        # An orthogonal trial places exactly p^(d-2) points in each
        # coarse rectangle of an axis pair.
        spec = DesignSpec(3, 8, p=2)
        plan = SimPlan(spec, SampleKind.OS, k=1, reps=5, targets=(edge(1, 2, 1, 1),), seed=SEED)
        rep = simulate_coverage(plan)[0]
        assert rep.fractions == tuple([2 / 16] * 5)

    def test_full_width_projection_equals_full_tuple(self):
        spec = DesignSpec(3, 4)
        plan = SimPlan(
            spec, SampleKind.LHS, k=3, reps=10, targets=(Units(), Units(3)), seed=SEED
        )
        full, proj = simulate_coverage(plan)
        assert full.fractions == proj.fractions
        assert full.ref_iid == proj.ref_iid


class TestStatisticalAgreement:
    def test_mean_tracks_iid_reference(self):
        # The simulator draws i.i.d. trials, for which the iid law is exact.
        spec = DesignSpec(2, 8)
        plan = SimPlan(spec, SampleKind.LHS, k=6, reps=400, seed=SEED)
        rep = simulate_coverage(plan)[0]
        want = 1 - (1 - 1 / 8) ** 6
        assert rep.ref_iid == pytest.approx(want, rel=1e-15)
        assert abs(rep.mean - want) < 4 * rep.se

    def test_lhs_and_os_agree_on_shared_grid(self):
        spec = DesignSpec(2, 9, p=3)
        lhs = simulate_coverage(SimPlan(spec, SampleKind.LHS, k=5, reps=300, seed=SEED))[0]
        os_ = simulate_coverage(SimPlan(spec, SampleKind.OS, k=5, reps=300, seed=SEED))[0]
        assert abs(lhs.mean - os_.mean) <= 4 * (lhs.se + os_.se)

    def test_projection_axes_are_exchangeable(self):
        spec = DesignSpec(3, 4)
        targets = (Units(2, dims=(1, 2)), Units(2, dims=(2, 3)))
        plan = SimPlan(spec, SampleKind.LHS, k=3, reps=300, targets=targets, seed=SEED)
        a, b = simulate_coverage(plan)
        assert abs(a.mean - b.mean) <= 4 * (a.se + b.se)

    def test_mean_is_iid_not_multiset_at_d2_n2(self):
        # Two trials only: k=2 i.i.d. draws cover 3/4 of the cells on
        # average, a uniform 2-multiset of the trials 2/3.
        plan = SimPlan(DesignSpec(2, 2), SampleKind.LHS, k=2, reps=5000, seed=SEED)
        rep = simulate_coverage(plan)[0]
        assert rep.ref_iid == pytest.approx(0.75, rel=1e-15)
        assert abs(rep.mean - rep.ref_iid) < 4 * rep.se
        assert abs(rep.mean - 2 / 3) > 10 * rep.se

    def test_lhs_subblock_edge_reference(self):
        spec = DesignSpec(2, 4, p=2)
        plan = SimPlan(spec, SampleKind.LHS, k=2, reps=200, targets=(edge(1, 2, 1, 2),), seed=SEED)
        rep = simulate_coverage(plan)[0]
        want = 1 - (1 - 1 / 4) ** 2  # each fine pair lies in a trial with rate 1/n
        assert rep.ref_iid == pytest.approx(want)
        assert abs(rep.mean - want) < 4 * rep.se


    @pytest.mark.parametrize("d,n,k", [(2, 4, 3), (2, 10, 10)])
    def test_lhs_sd_matches_exact(self, d, n, k):
        # U, the uncovered cells of N = n^d, has E[U] = N(1 - lam)^k. Two
        # cells that share no coordinate lie in one Latin trial together
        # with probability mu; two that share one never do. So
        # E[U^2] = E[U] + N(n-1)^d (1 - 2lam + mu)^k
        #                + (N(N-1) - N(n-1)^d)(1 - 2lam)^k,
        # and the coverage fraction 1 - U/N has sd sd(U)/N.
        big_n = n**d
        lam, mu = Fraction(1, n ** (d - 1)), Fraction(1, (n * (n - 1)) ** (d - 1))
        apart = big_n * (n - 1) ** d  # ordered pairs of cells sharing no coordinate
        eu = big_n * (1 - lam) ** k
        eu2 = (
            eu
            + apart * (1 - 2 * lam + mu) ** k
            + (big_n * (big_n - 1) - apart) * (1 - 2 * lam) ** k
        )
        want = math.sqrt(eu2 - eu**2) / big_n
        plan = SimPlan(DesignSpec(d, n), SampleKind.LHS, k=k, reps=4000, seed=SEED)
        rep = simulate_coverage(plan)[0]
        # The sample sd's standard error from the fourth central moment,
        # which holds however the fraction is distributed, not only if normal.
        x = np.array(rep.fractions)
        r, dev = x.size, x - x.mean()
        m2, m4 = np.mean(dev**2), np.mean(dev**4)
        se = math.sqrt((m4 - m2**2 * (r - 3) / (r - 1)) / r) / (2 * rep.sd)
        assert abs(rep.sd - want) < 4 * se


class TestCurve:
    def test_curve_shape_and_monotonicity(self):
        spec = DesignSpec(2, 5)
        c = drawn_curve(spec, SampleKind.LHS, 9, 8, Units())
        assert len(c) == 8
        assert c[0] == 5  # first trial always covers n cells
        assert np.all(np.diff(c) >= 0)
        assert c[-1] <= 25

    def test_curve_matches_replicate_fraction(self):
        spec = DesignSpec(2, 4)
        plan = SimPlan(spec, SampleKind.LHS, k=5, reps=3, seed=SEED)
        rep = simulate_coverage(plan)[0]
        for r in range(1, 4):
            c = drawn_curve(spec, SampleKind.LHS, rng.fold(SEED, r), 5, Units())
            assert c[-1] / 16 == rep.fractions[r - 1]

    @pytest.mark.parametrize(
        "spec,kind,target",
        [
            (DesignSpec(2, 4), SampleKind.LHS, Units()),
            (DesignSpec(3, 8, p=2), SampleKind.OS, Units(2)),
            (DesignSpec(3, 8, p=2), SampleKind.LHS, Units(2, (3, 1))),
            (DesignSpec(3, 8, p=2), SampleKind.OS, Units(2, (3, 1))),
            (DesignSpec(3, 8, p=2), SampleKind.OS, edge(1, 3, 2, 1)),
        ],
    )
    def test_chunks_with_a_covered_map_add_up_to_one_curve(self, spec, kind, target):
        # Each chunk counts only keys the map does not hold yet, so the
        # chunks' curves, stacked, are the curve of one long draw.
        plan = SimPlan(spec, kind, 12, reps=1, targets=(target,))
        cols = trial_columns(spec, kind, 5, 12, plan.axes)
        whole = coverage_curve(plan, 12, cols)[0]
        covered = np.zeros((1, target.universe(spec)), dtype=bool)
        got, parts = 0, []
        for first, k in [(1, 3), (4, 1), (5, 8)]:
            part = coverage_curve(dataclasses.replace(plan, k=k), k, cols[first - 1 : first - 1 + k], covered)[0]
            parts.append(got + part)
            got += int(part[-1])
        assert np.array_equal(np.concatenate(parts), whole)
        assert np.count_nonzero(covered) == whole[-1]


class TestUnitEncoders:
    """The oracle's per-trial projection (`oracle._cells`) and the
    simulator's numpy key encoder count the same cells on the same trials."""

    FORMS = ["full", "proj:1", "proj:2", "proj:3", "proj:2@1,3", "proj:2@3,2"]
    FORMS += ["edge:1,2,1,1", "edge:1,3,2,1", "edge:2,3,2,2"]

    @staticmethod
    def counts(spec, kind, units, seed, k):
        cols = trial_columns(spec, kind, seed, k)
        naive = frozenset().union(*oracle._cells(spec, cols.tolist(), units))
        return len(naive), simulate._covered_counts(cols, spec, units)[0]

    @pytest.mark.parametrize("kind", list(SampleKind))
    @pytest.mark.parametrize("text", FORMS)
    def test_distinct_counts_agree(self, kind, text):
        spec = DesignSpec(3, 8, p=2)
        for seed in (1, 2, 3, 4):
            naive, fast = self.counts(spec, kind, parse_target(text), seed, k=4)
            assert naive == fast

    def test_row_keys_agree(self):
        # n^d > 2^63, so the simulator counts distinct rows, not codes.
        naive, fast = self.counts(DesignSpec(4, 2**16), SampleKind.LHS, Units(), seed=5, k=2)
        assert naive == fast

    def test_os_row_keys_agree(self):
        naive, fast = self.counts(DesignSpec(4, 2**16, p=16), SampleKind.OS, Units(), seed=6, k=2)
        assert naive == fast

    def test_multi_word_row_keys_agree(self):
        # n^(t-1) = 2^64 also exceeds int64, so the rest of a row takes
        # two words and each bucket is lexsorted.
        naive, fast = self.counts(DesignSpec(5, 2**16), SampleKind.LHS, Units(), seed=7, k=2)
        assert naive == fast

    def test_edge_counts_agree_when_trials_add_no_key(self):
        spec, units = DesignSpec(2, 4, p=2), edge(1, 2, 1, 1)
        cols = trial_columns(spec, SampleKind.LHS, 2, 8)
        _, per_trial = _keys_for_target(cols, spec, units)
        assert per_trial.tolist() == [0, 0, 0, 1, 1, 1, 1, 1]
        naive, fast = self.counts(spec, SampleKind.LHS, units, seed=2, k=8)
        assert naive == fast
        assert simulate._covered_counts(cols[:3], spec, units) == [0]
        # Two replicates of one keyless trial each: a batch with no key.
        assert simulate._covered_counts(cols[:2], spec, units, reps=2) == [0, 0]

    @pytest.mark.parametrize(
        "spec, kind, text",
        [
            (DesignSpec(3, 8, p=2), SampleKind.LHS, "full"),
            (DesignSpec(3, 8, p=2), SampleKind.OS, "proj:2"),
            (DesignSpec(2, 4, p=2), SampleKind.LHS, "edge:1,2,1,1"),
            (DesignSpec(4, 2**16), SampleKind.LHS, "full"),
            (DesignSpec(5, 2**16), SampleKind.LHS, "full"),
        ],
    )
    def test_curve_entries_are_prefix_counts(self, spec, kind, text):
        # Seed 2 gives the edge unit three leading trials with no key.
        units, k = parse_target(text), 6
        curve = drawn_curve(spec, kind, 2, k, units)
        cols = trial_columns(spec, kind, 2, k)
        prefix = [simulate._covered_counts(cols[:i], spec, units)[0] for i in range(1, k + 1)]
        assert curve.tolist() == prefix

    @pytest.mark.parametrize("text", ["full", "proj:2", "proj:2@1,3", "edge:1,2,1,1"])
    def test_label_round_trip(self, text):
        assert parse_target(text).label == text


class TestDistinctCount:
    """The one sort behind counts and curves against Python sets, and its
    tagged entries against a dict of each key's first trial."""

    @staticmethod
    def check(keys, counts, trial_keys):
        """trial_keys lists (trial, key) for every key, in any order."""
        first = {}
        for i, key in trial_keys:
            first[key] = min(i, first.get(key, i))
        new, _ = simulate._distinct_keys(keys.copy(), counts)
        assert np.count_nonzero(new) == len(first)
        new, trial = simulate._distinct_keys(keys, counts, tagged=True)
        assert trial[new].tolist() == [first[key] for key in sorted(first)]

    @given(
        st.lists(st.integers(0, 3) | st.integers(-(2**63), 2**63 - 1), max_size=40),
        st.integers(1, 3),
    )
    @settings(max_examples=200)
    def test_codes_match_set(self, values, copies):
        # One trial per code, so a key's first trial is its first index.
        codes = np.array(values * copies, dtype=np.int64)
        self.check(codes, np.ones(codes.size, dtype=np.int64), list(enumerate(codes.tolist())))

    @given(
        buckets=st.integers(0, 5),
        per_bucket=st.integers(0, 6),
        n_words=st.integers(1, 3),
        high=st.sampled_from([1, 3, 2**63 - 1]),
        data=st.data(),
    )
    @settings(max_examples=100)
    def test_bucketed_rows_match_set_of_tuples(self, buckets, per_bucket, n_words, high, data):
        # Row i * buckets + b is trial i's key in bucket b, k = per_bucket.
        size = buckets * per_bucket
        words = [
            np.array(data.draw(st.lists(st.integers(0, high), min_size=size, max_size=size)), dtype=np.int64)
            for _ in range(n_words)
        ]
        keys = np.stack(words, axis=1)
        rows = [(r // buckets, (r % buckets, *keys[r].tolist())) for r in range(size)]
        self.check(keys, np.full(per_bucket, buckets), rows)

    @given(
        d=st.integers(2, 4),
        n=st.integers(2, 4),
        k=st.integers(0, 6),
        seed=st.integers(0, 2**32),
        repeat=st.booleans(),
    )
    @settings(max_examples=100)
    def test_latin_rows_match_set_of_tuples(self, d, n, k, seed, repeat):
        spec = DesignSpec(d, n)
        cols = trial_columns(spec, SampleKind.LHS, seed, k)
        if repeat:  # every row then appears twice
            cols = np.concatenate([cols, cols])
        # A universe past 2^63 sends these small trials down the row path.
        with mock.patch.object(Units, "universe", return_value=2**64):
            keys, counts = _keys_for_target(cols, spec, Units())
        assert keys.ndim == 2
        trials = cols.transpose(0, 2, 1).tolist()  # trial i's rows
        rows = [(i, tuple(row)) for i, trial in enumerate(trials) for row in trial]
        self.check(keys, counts, rows)


class TestDirectAddress:
    """Codes counted by direct address (a map of the universe) and by the
    sort give the same counts and curves, on both sides of DIRECT_RATIO."""

    FORMS = ["full", "proj:1", "proj:2", "proj:2@3,1", "edge:1,3,2,1", "edge:2,3,1,1"]

    @staticmethod
    def both(monkeypatch, fn):
        """fn() with every count sorted, then with every 1-D count mapped."""
        out = []
        for ratio in (0, 2**62):
            monkeypatch.setattr(simulate, "DIRECT_RATIO", ratio)
            out.append(fn())
        return out

    @pytest.mark.parametrize("kind", list(SampleKind))
    @pytest.mark.parametrize("text", FORMS)
    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_counts_and_curves_agree(self, monkeypatch, kind, text, k):
        spec, units = DesignSpec(3, 8, p=2), parse_target(text)
        cols = trial_columns(spec, kind, 6, k)
        counts = self.both(monkeypatch, lambda: simulate._covered_counts(cols, spec, units)[0])
        curves = self.both(monkeypatch, lambda: drawn_curve(spec, kind, 6, k, units).tolist())
        assert counts[0] == counts[1] == curves[0][-1]
        assert curves[0] == curves[1]

    @pytest.mark.parametrize("kind", list(SampleKind))
    @pytest.mark.parametrize("text", ["full", "proj:2", "edge:1,3,2,1"])
    def test_chunked_curves_agree(self, monkeypatch, kind, text):
        # Later chunks leave out the keys the covered map holds, on both paths.
        spec, units = DesignSpec(3, 8, p=2), parse_target(text)
        plan = SimPlan(spec, kind, 34, reps=1, targets=(units,))
        cols = trial_columns(spec, kind, 5, 34, plan.axes)

        def chunks():
            covered = np.zeros((1, units.universe(spec)), dtype=bool)
            return [
                coverage_curve(dataclasses.replace(plan, k=k), k, cols[first - 1 : first - 1 + k], covered)[0].tolist()
                for first, k in [(1, 3), (4, 1), (5, 30)]
            ]

        sorted_, mapped = self.both(monkeypatch, chunks)
        assert sorted_ == mapped

    @pytest.mark.parametrize("k, direct", [(15, False), (16, True), (17, True)])
    @pytest.mark.parametrize("kind", list(SampleKind))
    def test_either_side_of_the_ratio_matches_sets(self, monkeypatch, k, direct, kind):
        # Universe 8^3 = 512 against 8k keys: 4 keys per cell at k = 16.
        spec, units = DesignSpec(3, 8, p=2), Units()
        sorts = []
        real = simulate._distinct_keys
        monkeypatch.setattr(simulate, "_distinct_keys", lambda *a, **kw: sorts.append(1) or real(*a, **kw))
        cols = trial_columns(spec, kind, 2, k)
        curve = drawn_curve(spec, kind, 2, k, units)
        prefix = [len(frozenset().union(*oracle._cells(spec, cols[:i].tolist(), units))) for i in range(1, k + 1)]
        assert curve.tolist() == prefix
        assert simulate._covered_counts(cols, spec, units)[0] == prefix[-1]
        assert sorts == ([] if direct else [1, 1])

    def test_map_type_holds_k(self, monkeypatch):
        # k = 300 needs 16 bits; an 8-bit map would wrap the trial index.
        spec, units, k = DesignSpec(2, 2), Units(), 300
        curves = self.both(monkeypatch, lambda: drawn_curve(spec, SampleKind.LHS, 4, k, units).tolist())
        assert curves[0] == curves[1]

    @pytest.mark.parametrize("curve", [False, True])
    def test_os_proj2_draws_only_two_axes(self, monkeypatch, curve):
        # d = 3, p = 3: two counted axes take 2 * p fine permutations per trial.
        spec, k, perm_rows = DesignSpec(3, 27, p=3), 5, []
        real = rng.permutations_from_seeds
        monkeypatch.setattr(rng, "permutations_from_seeds", lambda s, n: perm_rows.append(np.size(s)) or real(s, n))
        if curve:  # a sweep's chunk, drawn from a later trial
            plan = SimPlan(spec, SampleKind.OS, k=k, reps=1, targets=(Units(2),))
            ((_, cols),) = simulate.replicate_batches(plan, [1], first=3)
            coverage_curve(plan, k, cols)
        else:
            plan = SimPlan(spec, SampleKind.OS, k=k, reps=1, targets=(Units(2), parse_target("proj:2@2,1")))
            simulate._replicate_counts(plan, [1])
        assert perm_rows == [k * 2 * 3]

    def test_plan_axes_are_the_union_of_the_targets(self):
        spec = DesignSpec(4, 16, p=2)
        targets = (parse_target("proj:2@4,2"), parse_target("edge:1,4,1,2"))
        assert SimPlan(spec, SampleKind.OS, k=1, reps=1, targets=targets).axes == (1, 2, 4)
        assert SimPlan(spec, SampleKind.OS, k=1, reps=1).axes == (1, 2, 3, 4)


class TestBatches:
    """A batch of replicates, drawn in one call and counted with offset
    codes, gives each replicate the count of its own trials drawn alone:
    trial t of replicate r from fold(fold(seed, r), t)."""

    TARGETS = [("full",), ("proj:2",), ("proj:2@3,1",), ("edge:1,3,2,1",), ("full", "proj:1", "edge:2,3,1,1")]

    @staticmethod
    def plan(spec, kind, texts, k, reps):
        return SimPlan(spec, kind, k=k, reps=reps, targets=tuple(map(parse_target, texts)), seed=SEED)

    @staticmethod
    def alone(plan, r):
        cols = trial_columns(plan.spec, plan.kind, rng.fold(plan.seed, r), plan.k, axes=plan.axes)
        return tuple(simulate._covered_counts(cols, plan.spec, t, plan.axes)[0] for t in plan.targets)

    def check(self, plan, rep_ids):
        got = simulate._replicate_counts(plan, rep_ids)
        assert got == [(r, self.alone(plan, r)) for r in rep_ids]

    @pytest.mark.parametrize("kind", list(SampleKind))
    @pytest.mark.parametrize("texts", TARGETS)
    @pytest.mark.parametrize("ratio", [0, 2**62], ids=["sorted", "direct"])
    @pytest.mark.parametrize("reps", [1, 3, 4, 5])  # a batch holds 4
    def test_counts_are_each_replicates_own(self, monkeypatch, kind, texts, ratio, reps):
        monkeypatch.setattr(simulate, "DIRECT_RATIO", ratio)
        plan = self.plan(DesignSpec(3, 8, p=2), kind, texts, 3, reps)
        monkeypatch.setattr(simulate, "BATCH_ENTRIES", 4 * plan.replicate_bytes // 8)
        assert plan.batch == 4
        self.check(plan, list(range(1, reps + 1)))
        self.check(plan, list(range(2, 3 * reps + 2, 3)))  # a worker's stride

    @pytest.mark.parametrize("kind", list(SampleKind))
    def test_last_batch_at_the_real_budget(self, kind):
        plan = self.plan(DesignSpec(3, 8, p=2), kind, ("full", "proj:2"), 3, 1)
        plan = dataclasses.replace(plan, reps=plan.batch + 1)
        assert plan.batch == simulate.BATCH_ENTRIES // (3 * 3 * 8)
        self.check(plan, list(range(1, plan.reps + 1)))

    @pytest.mark.parametrize(
        "spec, kind, k",
        [(DesignSpec(16, 16), SampleKind.LHS, 2), (DesignSpec(4, 2**16, p=16), SampleKind.OS, 1)],
    )
    def test_row_keys_go_one_replicate_at_a_time(self, spec, kind, k):
        # n^d > 2^63: offset codes would not fit int64, however small the
        # replicate's columns (16 * 16 * 2 entries at d = n = 16).
        plan = self.plan(spec, kind, ("full", "proj:2"), k, 3)
        assert plan.batch == 1
        self.check(plan, [1, 2, 3])

    def test_draws_and_keys_total_what_single_replicates_did(self, monkeypatch):
        # The counts perfbench takes from these calls: permutation rows,
        # trials and keys. Two counted axes of p = 3 bands each per trial.
        totals = {}

        def spy(module, name, count):
            real = getattr(module, name)

            def wrapper(*args):
                out = real(*args)
                totals[name] = totals.get(name, 0) + count(out)
                return out

            monkeypatch.setattr(module, name, wrapper)

        spy(rng, "permutations_from_seeds", lambda out: out.size // out.shape[-1])
        spy(simulate, "points_batch", lambda out: out.shape[0])
        spy(simulate, "_keys_for_target", lambda out: out[0].shape[0])
        k, reps = 5, 7
        plan = SimPlan(DesignSpec(3, 27, p=3), SampleKind.OS, k=k, reps=reps, targets=(Units(2),), seed=SEED)
        assert plan.batch >= reps
        simulate._replicate_counts(plan, list(range(1, reps + 1)))
        assert totals == {
            "permutations_from_seeds": reps * k * 2 * 3,
            "points_batch": reps * k,
            "_keys_for_target": reps * k * 27,
        }


class TestBatchedCurves:
    """One coverage_curve call counts every curve of a batch in one pass,
    the codes offset by replicate and the trials numbered within the
    batch, and each row is the curve of that replicate counted alone."""

    @pytest.fixture
    def sorts(self, monkeypatch):
        """The `bits` of each block _sort_rows sorts, None for a lexsort."""
        seen, real = [], simulate._sort_rows

        def spy(words, new, trial, bits):
            seen.append(bits)
            real(words, new, trial, bits)

        monkeypatch.setattr(simulate, "_sort_rows", spy)
        return seen

    @staticmethod
    def check(plan, sorts, covered=None):
        """Assert that plan's one batch, counted in one call, gives the
        stacked curves (and maps) of its replicates counted alone; return
        the batch's curves and the sorts of both ways."""
        ((ids, cols),) = simulate.replicate_batches(plan, range(1, plan.reps + 1))
        k, one = plan.k, dataclasses.replace(plan, reps=1)
        maps = [None if covered is None else covered[i : i + 1].copy() for i in range(len(ids))]
        sorts.clear()
        alone = [coverage_curve(one, k, cols[i * k : (i + 1) * k], maps[i])[0] for i in range(len(ids))]
        alone_sorts = sorts[:]
        sorts.clear()
        got, batch_sorts = coverage_curve(plan, len(ids) * k, cols, covered), sorts[:]
        assert got.shape == (plan.reps, k)
        assert np.array_equal(got, np.stack(alone))
        if covered is not None:
            assert np.array_equal(covered, np.concatenate(maps))
        else:  # and those are the counts of each replicate's prefixes
            (target,), trials = plan.targets, cols.reshape(len(ids), k, *cols.shape[1:])
            count = lambda c: simulate._covered_counts(c, plan.spec, target, plan.axes)[0]
            assert got.tolist() == [[count(c[:i]) for i in range(1, k + 1)] for c in trials]
        return got, alone_sorts, batch_sorts

    @pytest.mark.parametrize("kind", list(SampleKind))
    @pytest.mark.parametrize("text", ["full", "proj:2", "edge:1,3,2,1"])  # an LHS trial holds 0-4 edge keys
    @pytest.mark.parametrize("ratio", [0, 2**62], ids=["tagged", "direct"])
    def test_rows_are_the_replicates_curves(self, monkeypatch, sorts, kind, text, ratio):
        monkeypatch.setattr(simulate, "DIRECT_RATIO", ratio)
        plan = SimPlan(DesignSpec(3, 8, p=2), kind, k=5, reps=4, targets=(parse_target(text),), seed=SEED)
        _, _, batch_sorts = self.check(plan, sorts)
        assert batch_sorts == ([(4 * 5 - 1).bit_length()] if ratio == 0 else [])

    def test_offset_codes_past_the_tag_room_take_the_lexsort(self, monkeypatch, sorts):
        # U = 2^60. Alone, 2 trials take 1 tag bit and the codes fit the
        # 2^62 left; a batch's 6 trials take 3 bits, and the offset codes
        # of its second and third replicates pass the 2^60 left.
        monkeypatch.setattr(simulate, "BATCH_ENTRIES", 1 << 20)
        plan = SimPlan(DesignSpec(4, 2**15), SampleKind.LHS, k=2, reps=3, seed=SEED)
        assert plan.batch >= 3
        _, alone_sorts, batch_sorts = self.check(plan, sorts)
        assert (alone_sorts, batch_sorts) == ([1, 1, 1], [None])

    @pytest.mark.parametrize("kind", list(SampleKind))
    @pytest.mark.parametrize("ratio", [0, 2**62], ids=["sorted", "direct"])
    def test_covered_rows_are_each_replicates_own(self, monkeypatch, sorts, kind, ratio):
        # The first map is empty, the second partly filled, the third full.
        monkeypatch.setattr(simulate, "DIRECT_RATIO", ratio)
        spec, units = DesignSpec(3, 8, p=2), Units(2)
        plan = SimPlan(spec, kind, k=6, reps=3, targets=(units,), seed=SEED)
        covered = np.zeros((3, units.universe(spec)), dtype=bool)
        covered[1, ::3] = covered[2] = True
        got, _, _ = self.check(plan, sorts, covered)
        assert got[0, 0] == spec.n and 0 < got[1, -1] < got[0, -1] and not got[2].any()
        assert covered[2].all()

    def test_row_keys_take_batches_of_one(self):
        spec, units = DesignSpec(16, 16), Units()  # n^d = 2^64: Latin-bucket rows
        plan = SimPlan(spec, SampleKind.LHS, k=2, reps=3, seed=SEED)
        assert plan.batch == 1
        for r, (ids, cols) in enumerate(simulate.replicate_batches(plan, [1, 2, 3]), 1):
            prefix = [simulate._covered_counts(cols[:i], spec, units, plan.axes)[0] for i in (1, 2)]
            assert list(ids) == [r] and coverage_curve(plan, plan.k, cols).tolist() == [prefix]


class TestKeyContract:
    """What the traced run's key counters assume of `_keys_for_target`:
    one key per row of `keys`, and 2-D keys exactly when the universe
    passes 2^63."""

    @pytest.mark.parametrize(
        "spec, kind, text",
        [
            (DesignSpec(3, 8, p=2), SampleKind.LHS, "full"),
            (DesignSpec(3, 8, p=2), SampleKind.OS, "proj:2"),
            (DesignSpec(3, 8, p=2), SampleKind.LHS, "proj:2@3,1"),
            (DesignSpec(3, 8, p=2), SampleKind.OS, "edge:1,3,2,1"),
            (DesignSpec(4, 2**16), SampleKind.LHS, "full"),
            (DesignSpec(4, 2**16, p=16), SampleKind.OS, "proj:4@4,2,3,1"),
            (DesignSpec(5, 2**16), SampleKind.LHS, "full"),
        ],
    )
    def test_one_key_per_row_and_rows_past_int64(self, spec, kind, text):
        units = parse_target(text)
        keys, counts = _keys_for_target(trial_columns(spec, kind, 4, 3), spec, units)
        assert keys.shape[0] == counts.sum()
        assert (keys.ndim == 2) == (units.universe(spec) > 2**63)

    def test_rows_are_trial_major(self):
        # Trial i's key whose first-axis value is b is row i * n + b,
        # holding the other axes packed base n.
        spec, k, n = DesignSpec(4, 5), 3, 5
        cols = trial_columns(spec, SampleKind.LHS, 8, k)
        with mock.patch.object(Units, "universe", return_value=2**64):
            keys, counts = _keys_for_target(cols, spec, Units(4, (2, 4, 1, 3)))
        assert counts.tolist() == [n] * k
        want = np.empty((n * k, 1), dtype=np.int64)
        for i in range(k):
            for r in range(n):
                want[i * n + cols[i, 1, r]] = (cols[i, 3, r] * n + cols[i, 0, r]) * n + cols[i, 2, r]
        assert np.array_equal(keys, want)


class TestMemory:
    def test_replicate_peak_below_its_charge(self):
        # One row-key replicate holds its (k, d, n) int32 columns, the
        # trial-major key words, the count's flags and one block of keys
        # copied to bucket order at a time: 0.88 times the k * d * n * 8
        # bytes that MAX_REPLICATE_BYTES charges, on one thread or two.
        # Digits are packed a trial at a time.
        spec, k = DesignSpec(4, 2**16), 8
        plan = SimPlan(spec, SampleKind.LHS, k=k, reps=1, seed=SEED)
        tracemalloc.start()
        try:
            simulate._replicate_counts(plan, [1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < k * spec.d * spec.n * 8

    def test_threads_keep_the_replicate_peak_below_the_same_bound(self, monkeypatch, pools):
        # Each thread adds its own trial's packed digits and block's temporaries.
        monkeypatch.setattr(rng, "usable_cpus", lambda: 2)
        monkeypatch.setattr(rng, "PARALLEL_KEYS", 1)
        self.test_replicate_peak_below_its_charge()
        assert pools and set(pools) == {2}

    def test_replicate_bytes_guard_names_the_largest_k(self):
        # k*n is within MAX_TRACKED_KEYS at both k; the columns are not.
        spec = DesignSpec(16, 20_000)
        fits = SimPlan(spec, SampleKind.LHS, k=419, reps=1)
        assert fits.replicate_bytes == 419 * 16 * 20_000 * 8 <= simulate.MAX_REPLICATE_BYTES
        with pytest.raises(GuardExceededError, match="largest k that fits is 419$"):
            SimPlan(spec, SampleKind.LHS, k=420, reps=1)
        with pytest.raises(GuardExceededError, match="2560000000 bytes"):
            SimPlan(spec, SampleKind.LHS, k=1000, reps=1)

    def test_replicate_bytes_count_only_the_drawn_axes(self):
        # A proj:2 replicate draws 2 of the 16 axes, so only those count.
        spec = DesignSpec(16, 4096)
        plan = SimPlan(spec, SampleKind.LHS, k=2049, reps=1, targets=(Units(2),))
        assert plan.replicate_bytes == 2049 * 2 * 4096 * 8
        with pytest.raises(GuardExceededError, match="1074266112 bytes"):
            SimPlan(spec, SampleKind.LHS, k=2049, reps=1)

    def test_total_work_guard_names_the_largest_reps(self):
        # Only plans are built here; no replicate is drawn.
        spec = DesignSpec(2, 100)
        per_rep = 100 * 100 + simulate.REPLICATE_KEYS
        most = simulate.MAX_TOTAL_KEYS // per_rep
        SimPlan(spec, SampleKind.LHS, k=100, reps=most)
        with pytest.raises(GuardExceededError, match=f"the largest reps that fits is {most}$"):
            SimPlan(spec, SampleKind.LHS, k=100, reps=most + 1)
        with pytest.raises(GuardExceededError, match=f"= {10**9 * per_rep} keys exceed"):
            SimPlan(spec, SampleKind.LHS, k=100, reps=10**9)
        # Tiny replicates still cost their fixed part.
        with pytest.raises(GuardExceededError):
            SimPlan(DesignSpec(2, 2), SampleKind.LHS, k=1, reps=10**9)


class TestSummarize:
    def test_constant_series(self):
        s = summarize([0.5, 0.5, 0.5])
        assert s.mean == 0.5
        assert s.sd == 0.0
        assert s.se == 0.0

    def test_two_point_series(self):
        s = summarize([0.0, 1.0])
        assert s.mean == 0.5
        assert s.sd == pytest.approx(0.7071067811865476)
        assert s.se == pytest.approx(0.5)


class TestWorkers:
    def test_parallel_equals_sequential(self):
        spec = DesignSpec(2, 6)
        plan = SimPlan(spec, SampleKind.LHS, k=4, reps=30, targets=(Units(), Units(2)), seed=SEED)
        seq = simulate_coverage(plan, workers=1)
        par = simulate_coverage(plan, workers=2)
        for a, b in zip(seq, par):
            assert a.fractions == b.fractions
            assert a.mean == b.mean

    def test_pool_never_exceeds_cpus(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(rng, "usable_cpus", lambda: 3)
        plan = SimPlan(DesignSpec(2, 6), SampleKind.LHS, k=4, reps=30, seed=SEED)
        seq = simulate_coverage(plan, workers=1)
        assert simulate_coverage(plan, workers=10_000)[0].fractions == seq[0].fractions
        assert simulate_coverage(plan, workers=2)[0].fractions == seq[0].fractions
        assert pool_sizes == [3, 2]

    def test_one_usable_cpu_starts_no_pool(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(rng, "usable_cpus", lambda: 1)
        plan = SimPlan(DesignSpec(2, 6), SampleKind.LHS, k=4, reps=30, seed=SEED)
        seq = simulate_coverage(plan, workers=1)
        assert simulate_coverage(plan, workers=2)[0].fractions == seq[0].fractions
        assert pool_sizes == []

    def test_workers_split_draws_that_use_threads(self):
        # Each replicate draws d = 2 rows of PARALLEL_KEYS keys in one call,
        # so each worker process shares that draw among threads when it has
        # 2 CPUs. A pool forked while a thread holds a lock would hang; the
        # timeout turns that into a failure.
        n = rng.PARALLEL_KEYS
        argv = f"simulate --kind lhs --d 2 --n {n} --k 1 --reps 4 --seed {SEED} --target full".split()

        def run(workers):
            proc = subprocess.run(
                [sys.executable, "-m", "hypercov.cli", *argv, "--workers", str(workers)],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        assert run(2) == run(1)

    def test_pool_of_batches_equals_one_process(self):
        # Neither the run nor either worker's stride is whole batches.
        plan = SimPlan(DesignSpec(2, 6), SampleKind.LHS, k=4, reps=1, targets=(Units(), Units(1)), seed=SEED)
        plan = dataclasses.replace(plan, reps=2 * plan.batch + 3)
        assert plan.batch > 1
        seq = simulate_coverage(plan, workers=1)
        par = simulate_coverage(plan, workers=2)
        assert [a.fractions for a in seq] == [b.fractions for b in par]

    def test_pool_holds_no_more_replicates_than_the_byte_guard(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(rng, "usable_cpus", lambda: 8)
        plan = SimPlan(DesignSpec(2, 6), SampleKind.LHS, k=4, reps=30, seed=SEED)
        seq = simulate_coverage(plan, workers=1)
        batch_bytes = plan.batch * plan.replicate_bytes  # a worker holds a batch
        monkeypatch.setattr(simulate, "MAX_REPLICATE_BYTES", 3 * batch_bytes + 1)
        assert simulate_coverage(plan, workers=8)[0].fractions == seq[0].fractions
        monkeypatch.setattr(simulate, "MAX_REPLICATE_BYTES", batch_bytes)
        assert simulate_coverage(plan, workers=8)[0].fractions == seq[0].fractions
        assert pool_sizes == [3]  # one batch at a time runs without a pool


class TestThreads:
    """Latin-bucket row keys are built and counted on threads (rng.share):
    trials, then blocks of buckets. No byte may depend on how many."""

    CASES = [
        (DesignSpec(4, 2**16), SampleKind.LHS),  # one word
        (DesignSpec(4, 2**16, p=16), SampleKind.OS),
        (DesignSpec(5, 2**16), SampleKind.LHS),  # two words, lexsorted
    ]

    @staticmethod
    def outputs(spec, kind, cols):
        keys, counts = _keys_for_target(cols, spec, Units())
        if cols.shape[0]:
            curve = coverage_curve(SimPlan(spec, kind, cols.shape[0], reps=1), cols.shape[0], cols)
        else:  # a plan has k >= 1; count the keys of no trial directly
            curve = simulate._new_per_trial(keys, counts, Units().universe(spec))
        return keys.copy(), simulate._covered_counts(cols, spec, Units()), curve

    # k = 3 and 10 leave a last block of 1 and 6 buckets (65,536 buckets,
    # CHUNK_KEYS // k a block).
    @pytest.mark.parametrize("spec, kind", CASES)
    @pytest.mark.parametrize("k", [0, 1, 3, 10])
    def test_any_thread_count_gives_the_same_bytes(self, monkeypatch, pools, spec, kind, k):
        monkeypatch.setattr(rng, "usable_cpus", lambda: 1)
        cols = trial_columns(spec, kind, 9, k)
        keys, count, curve = self.outputs(spec, kind, cols)
        assert keys.shape == (k * spec.n, 1 + (spec.d == 5))
        assert pools == []
        monkeypatch.setattr(rng, "PARALLEL_KEYS", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, more of them than cores
        try:
            for cpus in (1, 2, 3, 8):
                monkeypatch.setattr(rng, "usable_cpus", lambda: cpus)
                got = self.outputs(spec, kind, cols)
                assert got[0].tobytes() == keys.tobytes()
                assert got[1] == count
                assert np.array_equal(got[2], curve)
        finally:
            sys.setswitchinterval(interval)
        assert (max(pools, default=1) > 1) == (k > 1)  # one trial is one part and one block: nothing to share

    def test_the_rule_is_one_thread_per_cpu_part_and_parallel_keys(self, monkeypatch, pools):
        spec, k = DesignSpec(4, 2**16), 3
        cols = trial_columns(spec, SampleKind.LHS, 9, k)
        monkeypatch.setattr(rng, "usable_cpus", lambda: 8)
        # One key short of two thresholds: the caller's thread alone.
        monkeypatch.setattr(rng, "PARALLEL_KEYS", k * spec.n // 2 + 1)
        keys, counts = _keys_for_target(cols, spec, Units())
        want = simulate._distinct_keys(keys, counts)[0]
        assert pools == []
        # Exactly two: a pool of two for the scatter and the sort.
        monkeypatch.setattr(rng, "PARALLEL_KEYS", k * spec.n // 2)
        keys, counts = _keys_for_target(cols, spec, Units())
        assert np.array_equal(simulate._distinct_keys(keys, counts)[0], want)
        assert pools == [2, 2]
        # Every key its own threshold: one thread per trial, then per block.
        monkeypatch.setattr(rng, "PARALLEL_KEYS", 1)
        keys, counts = _keys_for_target(cols, spec, Units())
        assert np.array_equal(simulate._distinct_keys(keys, counts)[0], want)
        assert pools == [2, 2, 3, 4]

    def test_a_failing_share_raises_and_leaves_no_thread(self, monkeypatch, pools):
        spec = DesignSpec(4, 2**16)
        cols = trial_columns(spec, SampleKind.LHS, 9, 3)
        monkeypatch.setattr(rng, "PARALLEL_KEYS", 1)
        monkeypatch.setattr(rng, "usable_cpus", lambda: 3)
        before = threading.active_count()

        def fail_once(name, at):
            real, calls = getattr(simulate, name), itertools.count()

            def fn(*args):
                if next(calls) == at:
                    raise ValueError(f"{name} failed")
                return real(*args)

            monkeypatch.setattr(simulate, name, fn)

        pack = simulate._pack
        fail_once("_pack", 1)  # the second trial's
        with pytest.raises(ValueError, match="_pack failed"):
            _keys_for_target(cols, spec, Units())
        assert threading.active_count() == before
        monkeypatch.setattr(simulate, "_pack", pack)
        keys, counts = _keys_for_target(cols, spec, Units())
        fail_once("_sort_rows", 2)  # the third block's
        with pytest.raises(ValueError, match="_sort_rows failed"):
            simulate._distinct_keys(keys, counts)
        assert threading.active_count() == before
        assert pools == [3, 3, 3]


class TestSubblockUniformity:
    """Orthogonal trials spread evenly over the coarse rectangles of an
    axis pair; the counts come from the edge target's per-trial keys."""

    @staticmethod
    def rectangle_counts(spec, cols):
        cells = [edge(1, 2, pi, pj) for pi in range(1, spec.p + 1) for pj in range(1, spec.p + 1)]
        return tuple(int(_keys_for_target(cols, spec, e)[1].sum()) for e in cells)

    def test_single_orthogonal_trial_is_flat(self):
        spec = DesignSpec(2, 4, p=2)
        trials = trial_columns(spec, SampleKind.OS, 5, 1)
        assert self.rectangle_counts(spec, trials) == (1, 1, 1, 1)

    def test_counts_pool_across_trials(self):
        spec = DesignSpec(2, 4, p=2)
        trials = trial_columns(spec, SampleKind.OS, 5, 3)
        counts = self.rectangle_counts(spec, trials)
        assert sum(counts) == 12
        assert counts == (3, 3, 3, 3)

    def test_orthogonal_flatter_than_latin(self):
        # Stratification should show up as a smaller spread of
        # per-rectangle counts, averaged over many single-trial draws.
        spec = DesignSpec(2, 4, p=2)
        reps = 400

        def chi_square(trials):
            counts = np.array(self.rectangle_counts(spec, trials))
            return float(((counts - counts.mean()) ** 2).sum() / counts.mean())

        chi_os = []
        chi_lh = []
        for r in range(reps):
            chi_os.append(chi_square(trial_columns(spec, SampleKind.OS, 1000 + r, 1)))
            chi_lh.append(chi_square(trial_columns(spec, SampleKind.LHS, 1000 + r, 1)))
        assert statistics.mean(chi_os) < statistics.mean(chi_lh)
        assert statistics.mean(chi_os) == 0.0
