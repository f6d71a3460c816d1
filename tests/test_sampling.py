"""Sampler postconditions, determinism, and uniformity at scale."""

import numpy as np
import pytest
from scipy.stats import chi2

from reference_checks import columns, is_latin, is_orthogonal, point_set, rows

from hypercov import rng
from hypercov.design import DesignSpec, Units
from hypercov.errors import StructuralError
from hypercov.sampling import SampleKind, orthogonal_columns, points_batch, trial_columns
from hypercov.simulate import SimPlan, replicate_batches

# Uniformity runs draw one trial per seed; batch generation keeps the
# 10k and 32k draws below a second each.
LH_UNIFORMITY_DRAWS = 10_000
OS_UNIFORMITY_DRAWS = 32_000
CHI2_ALPHA = 0.001


def draw(spec, seed, kind=SampleKind.LHS):
    """The 0-based (d, n) columns of the trial the sampler draws at this seed."""
    return points_batch(spec, kind, np.array([seed], dtype=np.uint64))[0]


def assemble(p, fine_perms):
    """The orthogonal trial, as 1-based rows, that `orthogonal_columns`
    assembles from explicit 1-based fine permutations: fine_perms[(i, j)]
    is the permutation of axis i, coarse band j."""
    d = max(i for i, _ in fine_perms)
    axes, bands = range(1, d + 1), range(1, p + 1)
    fines = np.array([[fine_perms[(i, j)] for j in bands] for i in axes], dtype=np.int64) - 1
    return rows(orthogonal_columns(fines[None], p, None, d)[0])


class TestLatinSampler:
    @pytest.mark.parametrize("d,n", [(2, 2), (2, 5), (3, 4), (4, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_output_is_latin(self, d, n, seed):
        t = draw(DesignSpec(d, n), seed)
        assert is_latin(t)

    def test_frozen_trial(self):
        t = draw(DesignSpec(2, 4), 42)
        assert rows(t) == ((4, 3), (1, 4), (3, 1), (2, 2))

    def test_determinism(self):
        spec = DesignSpec(3, 6)
        assert np.array_equal(draw(spec, 99), draw(spec, 99))

    def test_seed_sensitivity(self):
        spec = DesignSpec(3, 6)
        assert point_set(draw(spec, 1)) != point_set(draw(spec, 2))

    def test_batch_matches_scalar(self):
        spec = DesignSpec(3, 5)
        seeds = np.array([0, 7, 123], dtype=np.uint64)
        batch = points_batch(spec, SampleKind.LHS, seeds)
        assert batch.shape == (3, 3, 5)
        for trial, s in zip(batch, [0, 7, 123]):
            assert np.array_equal(trial, draw(spec, s))


class TestOrthogonalSampler:
    @pytest.mark.parametrize("d,p", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_output_is_orthogonal(self, d, p, seed):
        spec = DesignSpec(d, p**d, p=p)
        t = draw(spec, seed, SampleKind.OS)
        assert is_latin(t)
        assert is_orthogonal(t, p)

    def test_frozen_trials(self):
        t = draw(DesignSpec(2, 4, p=2), 42, SampleKind.OS)
        assert rows(t) == ((1, 2), (2, 3), (3, 1), (4, 4))
        t3 = draw(DesignSpec(3, 8, p=2), 7, SampleKind.OS)
        assert rows(t3) == (
            (3, 3, 2), (4, 4, 8), (2, 7, 1), (1, 8, 5),
            (6, 1, 3), (7, 2, 7), (5, 6, 4), (8, 5, 6),
        )

    def test_requires_block_structure(self):
        for k in (0, 1):
            with pytest.raises(StructuralError, match="needs a coarse base p"):
                trial_columns(DesignSpec(2, 4), SampleKind.OS, 0, k)

    def test_batch_matches_scalar(self):
        spec = DesignSpec(2, 9, p=3)
        seeds = np.array([3, 1000], dtype=np.uint64)
        batch = points_batch(spec, SampleKind.OS, seeds)
        for trial, s in zip(batch, [3, 1000]):
            assert np.array_equal(trial, draw(spec, s, SampleKind.OS))

    def test_assemble_identity_permutations(self):
        ident = (1, 2)
        perms = {(i, j): ident for i in (1, 2) for j in (1, 2)}
        t = assemble(2, perms)
        # Sub-blocks in lex order, slot counters starting at the first
        # fine value: block (1,1) gets (1,1), block (1,2) gets (2,3)...
        assert t == ((1, 1), (2, 3), (3, 2), (4, 4))
        assert is_orthogonal(columns(t), 2)

    @pytest.mark.parametrize("d,p", [(2, 3), (3, 2)])
    def test_assembly_follows_the_documented_rule(self, d, p):
        # Sub-blocks in lexicographic order; on each axis a point takes
        # the next unused value of its band's fine permutation.
        from itertools import product

        w = p ** (d - 1)
        gen = np.random.default_rng(5)
        perms = {
            (i, j): tuple(int(v) + 1 for v in gen.permutation(w))
            for i in range(1, d + 1)
            for j in range(1, p + 1)
        }
        used = dict.fromkeys(perms, 0)
        want = []
        for block in product(range(1, p + 1), repeat=d):
            row = []
            for i, j in enumerate(block, start=1):
                row.append((j - 1) * w + perms[(i, j)][used[(i, j)]])
                used[(i, j)] += 1
            want.append(tuple(row))
        assert assemble(p, perms) == tuple(want)

    def test_assemble_is_injective(self):
        from itertools import permutations, product

        keys = [(i, j) for i in (1, 2) for j in (1, 2)]
        seen = set()
        for combo in product(permutations((1, 2)), repeat=4):
            seen.add(frozenset(assemble(2, dict(zip(keys, combo)))))
        assert len(seen) == 16


class TestTrialStreams:
    def test_run_uses_folded_seeds(self):
        spec = DesignSpec(2, 5)
        run = trial_columns(spec, SampleKind.LHS, 77, 4)
        assert len(run) == 4
        for t, trial in enumerate(run, start=1):
            assert np.array_equal(trial, draw(spec, rng.fold(77, t)))

    @pytest.mark.parametrize("spec,kind", [(DesignSpec(3, 5), SampleKind.LHS), (DesignSpec(2, 9, p=3), SampleKind.OS)])
    @pytest.mark.parametrize("first", [1, 2, 7])
    def test_a_later_start_extends_the_run(self, spec, kind, first):
        # Trial t of replicate r is fold(fold(seed, r), t) whatever the
        # replicate's length, start or batch.
        ((_, cols),) = replicate_batches(SimPlan(spec, kind, 4, reps=2, seed=31), [2, 5], first)
        for r, got in zip([2, 5], cols.reshape(2, 4, *cols.shape[1:])):
            run = trial_columns(spec, kind, rng.fold(31, r), 12)
            assert np.array_equal(got, run[first - 1 : first + 3])

    @pytest.mark.parametrize(
        "spec,kind,axes",
        [
            (spec, kind, axes)
            for spec, kind in [
                (DesignSpec(4, 5), SampleKind.LHS),
                (DesignSpec(4, 16, p=2), SampleKind.OS),
                (DesignSpec(4, 1, p=1), SampleKind.LHS),
                (DesignSpec(4, 1, p=1), SampleKind.OS),
            ]
            for axes in [(1,), (3,), (2, 3), (1, 3), (2, 4), (1, 2, 4), (1, 2, 3, 4)]
        ]
        + [(DesignSpec(3, 27, p=3), SampleKind.OS, axes) for axes in [(2,), (1, 3), (2, 3)]],
    )
    def test_an_axis_subset_is_those_columns_of_the_full_draw(self, spec, kind, axes):
        # Each axis has its own substreams, so drawing a subset leaves
        # every value the same, also for a replicate extended from a later
        # trial, whose plan draws the axes its target counts.
        full = trial_columns(spec, kind, rng.fold(13, 1), 6)
        assert np.array_equal(trial_columns(spec, kind, rng.fold(13, 1), 3, axes), full[:3, np.array(axes) - 1])
        plan = SimPlan(spec, kind, 3, reps=1, targets=(Units(len(axes), axes),), seed=13)
        for first in (1, 4):
            ((_, sub),) = replicate_batches(plan, [1], first)
            assert np.array_equal(sub, full[first - 1 : first + 2, np.array(axes) - 1])

    def test_empty_run(self):
        # k = 0 gives no trials, in the shape and type of any other draw,
        # for either sampler and for a subset of the axes.
        cases = [
            (DesignSpec(2, 3), SampleKind.LHS, None, (0, 2, 3)),
            (DesignSpec(3, 4), SampleKind.LHS, (1, 3), (0, 2, 4)),
            (DesignSpec(2, 9, p=3), SampleKind.OS, None, (0, 2, 9)),
            (DesignSpec(3, 8, p=2), SampleKind.OS, (2,), (0, 1, 8)),
        ]
        for spec, kind, axes, shape in cases:
            cols = trial_columns(spec, kind, 0, 0, axes=axes)
            assert cols.shape == shape
            assert cols.dtype == np.int32

    def test_negative_k_refused(self):
        with pytest.raises(StructuralError, match="k must be >= 0, got -1"):
            trial_columns(DesignSpec(2, 3), SampleKind.LHS, 0, -1)


class TestUniformity:
    def test_lh_two_by_two_split(self):
        # d=2, n=2 has exactly two Latin trials; each should appear
        # about half the time over many seeds.
        spec = DesignSpec(2, 2)
        cols = points_batch(spec, SampleKind.LHS, np.arange(LH_UNIFORMITY_DRAWS, dtype=np.uint64))
        # Column 1 is always the identity after sorting rows; the trial
        # is determined by the axis-2 value paired with axis-1 value 0.
        first = cols[:, 1][np.arange(len(cols)), np.argmax(cols[:, 0] == 0, axis=1)]
        frac_diag = float(np.mean(first == 0))
        assert abs(frac_diag - 0.5) < 0.02

    def test_os_all_sixteen_trials_uniform(self):
        spec = DesignSpec(2, 4, p=2)
        cols = points_batch(spec, SampleKind.OS, np.arange(OS_UNIFORMITY_DRAWS, dtype=np.uint64))
        order = np.argsort(cols[:, 0], axis=1)
        col2 = np.take_along_axis(cols[:, 1], order, axis=1)
        codes = (col2 * (4 ** np.arange(4))[::-1]).sum(axis=1)
        _, counts = np.unique(codes, return_counts=True)
        assert len(counts) == 16
        expected = OS_UNIFORMITY_DRAWS / 16
        sigma = np.sqrt(expected * (1 - 1 / 16))
        assert np.all(np.abs(counts - expected) < 3.5 * sigma)
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(1 - CHI2_ALPHA, df=15)

    def test_lh_cell_occupancy_uniform(self):
        # Each grid cell of a d=2, n=4 design is hit by a point with
        # probability 1/n.
        spec = DesignSpec(2, 4)
        draws = 8_000
        cols = points_batch(spec, SampleKind.LHS, np.arange(draws, dtype=np.uint64))
        codes = cols[:, 0] * 4 + cols[:, 1]
        counts = np.bincount(codes.ravel(), minlength=16)
        expected = draws * 4 / 16
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(1 - CHI2_ALPHA, df=15)
