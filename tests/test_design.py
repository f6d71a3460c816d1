"""Design specs, the sub-block split, trials as columns, and the unit
families the oracle projects them onto."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_checks import columns, is_latin, is_orthogonal, point_set

from hypercov import oracle, rng
from hypercov.design import DesignSpec, Units, band_width
from hypercov.errors import StructuralError
from hypercov.sampling import SampleKind, trial_columns

# Two hand-checked 8-point designs on a 2x2x2 block structure: both are
# Latin, only the second also lands one point in every sub-block.
LATIN_ONLY = ((1, 2, 1), (2, 3, 3), (3, 1, 2), (4, 7, 8), (5, 8, 5), (6, 5, 4), (7, 4, 6), (8, 6, 7))
ORTHOGONAL = ((1, 3, 2), (2, 4, 6), (3, 5, 3), (4, 7, 8), (5, 1, 1), (6, 2, 7), (7, 8, 4), (8, 6, 5))
# A 4-point orthogonal design of d=2, p=2: one point per sub-block.
SMALL_ORTHOGONAL = ((1, 3), (2, 1), (3, 4), (4, 2))


def cells(spec, cols, units):
    """The oracle's cells of the family on one trial of 0-based columns."""
    return oracle._cells(spec, [np.asarray(cols).tolist()], units)[0]


def band(v, p, d):
    """Coarse band of a 1-based axis value, read off the split
    v = (q - 1) * p^(d-1) + x with x in [p^(d-1)]."""
    w = band_width(p, d)
    return next(q for q in range(1, p + 1) if (q - 1) * w < v <= q * w)


class TestDesignSpec:
    def test_valid_specs(self):
        DesignSpec(2, 2)
        DesignSpec(16, 2)
        DesignSpec(3, 27, p=3)
        DesignSpec(2, 1, p=1)  # degenerate single-cell block structure

    @pytest.mark.parametrize(
        "d,n,p",
        [
            (1, 4, None),  # too few axes
            (17, 4, None),  # too many axes
            (2, 1, None),  # side below 2 without a block structure
            (2, 2**20 + 1, None),  # side above the cap
            (2, 4, 3),  # p^d != n
            (2, 4, 0),  # p must be positive
            (3, 8, 3),  # 3^3 != 8
        ],
    )
    def test_invalid_specs(self, d, n, p):
        with pytest.raises(StructuralError):
            DesignSpec(d, n, p=p)

    def test_require_p(self):
        assert DesignSpec(2, 9, p=3).require_p() == 3
        with pytest.raises(StructuralError, match="needs a coarse base p"):
            DesignSpec(2, 9).require_p()


class TestSubblockCodec:
    """The sub-block split of an axis value into a coarse band and a fine
    offset. The orthogonal sampler writes each band and the oracle's
    coarse filter reads it back; both must follow the split."""

    def test_band_width(self):
        assert band_width(2, 2) == 2
        assert band_width(2, 3) == 4
        assert band_width(3, 2) == 3
        assert band_width(3, 3) == 9

    @pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4)])
    def test_round_trip_exhaustive(self, p, d):
        # An orthogonal trial puts p^(d-2) points in each coarse cell of
        # an axis pair, and the coarse filter finds every one of them.
        spec = DesignSpec(d, p**d, p)
        cols = trial_columns(spec, SampleKind.OS, 3, 1)[0]
        seen = set()
        for bands in product(range(1, p + 1), repeat=2):
            got = cells(spec, cols, Units(2, (1, 2), coarse=bands))
            assert len(got) == p ** (d - 2)
            assert all((band(a, p, d), band(b, p, d)) == bands for a, b in got)
            seen |= got
        assert seen == {pt[:2] for pt in point_set(cols)}

    def test_known_decodes(self):
        # p=2, d=2: values 1, 2 form band 1 and values 3, 4 band 2.
        spec, cols = DesignSpec(2, 4, p=2), columns(SMALL_ORTHOGONAL)
        want = {(1, 1): {(2, 1)}, (1, 2): {(1, 3)}, (2, 1): {(4, 2)}, (2, 2): {(3, 4)}}
        for bands, got in want.items():
            assert cells(spec, cols, Units(2, (1, 2), coarse=bands)) == got

    @pytest.mark.parametrize("v", [0, 5, -1])
    def test_decode_out_of_range(self, v):
        # Bands lie in [1, p]; a coarse cell outside them is refused.
        spec = DesignSpec(2, 4, p=2)
        for bands in ((v, 1), (1, v)):
            with pytest.raises(StructuralError):
                Units(2, (1, 2), coarse=bands).validate_for(spec)

    @given(
        p=st.integers(min_value=2, max_value=4),
        d=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, p, d, seed):
        # Each value has exactly one band, so the p^2 coarse cells of an
        # axis pair split a Latin trial's cells on that pair.
        spec = DesignSpec(d, p**d, p)
        cols = trial_columns(spec, SampleKind.LHS, seed, 1)[0]
        parts = [cells(spec, cols, Units(2, (1, 2), coarse=q)) for q in product(range(1, p + 1), repeat=2)]
        assert sum(map(len, parts)) == spec.n
        assert frozenset().union(*parts) == cells(spec, cols, Units(2, (1, 2)))

    def test_coarse_tuple(self):
        # Each point's pair on axes (1, 3) lies in the coarse cell of its
        # two values' bands, and in no other.
        spec = DesignSpec(3, 8, p=2)
        cols = columns(ORTHOGONAL)
        for a, _, c in ORTHOGONAL:
            bands = (band(a, 2, 3), band(c, 2, 3))
            for q in product((1, 2), repeat=2):
                assert ((a, c) in cells(spec, cols, Units(2, (1, 3), coarse=q))) == (q == bands)


class TestTrial:
    """A trial is an array (d, n): row j is axis j + 1, a permutation
    of 0..n-1 for the samplers' trials, which draw int32 (n <= MAX_N)."""

    def test_shape_validation(self):
        for spec, kind in ((DesignSpec(3, 5), SampleKind.LHS), (DesignSpec(2, 9, p=3), SampleKind.OS)):
            for axes in (None, (1, 2)):
                trials = trial_columns(spec, kind, 0, 3, axes=axes)
                assert trials.shape == (3, spec.d if axes is None else len(axes), spec.n)
                assert trials.dtype == np.int32
                assert trials.min() >= 0 and trials.max() < spec.n

    def test_trial_accepts_non_latin_points(self):
        # The oracle projects any point set; Latin-ness is a separate
        # predicate.
        cols = columns(((1, 1), (1, 1)))
        assert not is_latin(cols)
        assert cells(DesignSpec(2, 2), cols, Units()) == {(1, 1)}

    def test_equality_ignores_row_order(self):
        # Trials are told apart by their point sets, not their row order.
        a = columns(((1, 2), (2, 3), (3, 1)))
        b = columns(((3, 1), (1, 2), (2, 3)))
        c = columns(((1, 3), (2, 1), (3, 2)))
        assert point_set(a) == point_set(b) != point_set(c)

    def test_column(self):
        # Axis j of Latin trial t is the permutation drawn from
        # fold(fold(seed, t), j).
        spec = DesignSpec(3, 6)
        cols = trial_columns(spec, SampleKind.LHS, 11, 2)
        for t in (1, 2):
            for j in (1, 2, 3):
                seed = np.array([rng.fold(rng.fold(11, t), j)], dtype=np.uint64)
                want = rng.permutations_from_seeds(seed, spec.n)[0]
                assert np.array_equal(cols[t - 1, j - 1], want)


class TestClassification:
    def test_latin_only_example(self):
        t = columns(LATIN_ONLY)
        assert is_latin(t)
        assert not is_orthogonal(t, 2)

    def test_orthogonal_example(self):
        t = columns(ORTHOGONAL)
        assert is_latin(t)
        assert is_orthogonal(t, 2)

    def test_small_orthogonal_example(self):
        assert is_orthogonal(columns(SMALL_ORTHOGONAL), 2)

    def test_latin_but_not_orthogonal_small(self):
        # Both points of the low band share the right band of axis 2,
        # so one sub-block holds two points.
        assert not is_orthogonal(columns(((1, 3), (2, 4), (3, 1), (4, 2))), 2)

    def test_not_latin(self):
        assert not is_latin(columns(((1, 1), (2, 1), (3, 2))))

    def test_orthogonal_requires_block_structure(self):
        with pytest.raises(ValueError):
            is_orthogonal(columns(((1, 2), (2, 3), (3, 1))), 2)


class TestProjections:
    def test_project_edges_full(self):
        got = cells(DesignSpec(3, 2), columns(((1, 2, 1), (2, 1, 2))), Units(2, (1, 3)))
        assert got == frozenset({(1, 1), (2, 2)})

    def test_project_edges_with_coarse_filter(self):
        spec = DesignSpec(3, 8, p=2)
        got = cells(spec, columns(ORTHOGONAL), Units(2, (1, 2), coarse=(1, 1)))
        # Orthogonal designs put exactly p^(d-2) = 2 points in each
        # coarse rectangle of an axis pair.
        assert got == {(1, 3), (2, 4)}

    def test_edge_projection_validation(self):
        spec = DesignSpec(3, 8, p=2)
        with pytest.raises(StructuralError):
            Units(2, (2, 2)).validate_for(spec)
        with pytest.raises(StructuralError):
            Units(2, (1, 4)).validate_for(spec)
        with pytest.raises(StructuralError):
            Units(2, (1, 2), coarse=(3, 1)).validate_for(spec)

    def test_units_validation(self):
        spec = DesignSpec(3, 8, p=2)
        bad_units = (
            Units(0),
            Units(4),
            Units(2, (1,)),
            Units(2, (1, 2), coarse=(1,)),
            Units(3, (1, 2, 3), coarse=(1, 1)),
        )
        for bad in bad_units:
            with pytest.raises(StructuralError):
                bad.validate_for(spec)
        with pytest.raises(StructuralError, match="needs a coarse base p"):
            Units(2, (1, 2), coarse=(1, 1)).validate_for(DesignSpec(3, 8))
