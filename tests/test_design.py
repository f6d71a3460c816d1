"""Design containers, the sub-block codec, and trial classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercov.design import (
    DesignSpec,
    Trial,
    Units,
    band_width,
    coarse_tuple,
    decode_subblock_value,
    encode_subblock_value,
    is_latin,
    is_orthogonal,
)
from hypercov.errors import StructuralError, UnsupportedSpecError

# Two hand-checked 8-point designs on a 2x2x2 block structure: both are
# Latin, only the second also lands one point in every sub-block.
LATIN_ONLY = ((1, 2, 1), (2, 3, 3), (3, 1, 2), (4, 7, 8), (5, 8, 5), (6, 5, 4), (7, 4, 6), (8, 6, 7))
ORTHOGONAL = ((1, 3, 2), (2, 4, 6), (3, 5, 3), (4, 7, 8), (5, 1, 1), (6, 2, 7), (7, 8, 4), (8, 6, 5))


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
        with pytest.raises(UnsupportedSpecError):
            DesignSpec(2, 9).require_p()


class TestSubblockCodec:
    def test_band_width(self):
        assert band_width(2, 2) == 2
        assert band_width(2, 3) == 4
        assert band_width(3, 2) == 3
        assert band_width(3, 3) == 9

    @pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4)])
    def test_round_trip_exhaustive(self, p, d):
        n = p**d
        w = band_width(p, d)
        seen = set()
        for v in range(1, n + 1):
            q, x = decode_subblock_value(v, p, d)
            assert 1 <= q <= p
            assert 1 <= x <= w
            assert encode_subblock_value(q, x, p, d) == v
            seen.add((q, x))
        assert len(seen) == n

    def test_known_decodes(self):
        # p=2, d=2: values 1..4 split into bands {1,2} and {3,4}.
        assert decode_subblock_value(1, 2, 2) == (1, 1)
        assert decode_subblock_value(2, 2, 2) == (1, 2)
        assert decode_subblock_value(3, 2, 2) == (2, 1)
        assert decode_subblock_value(4, 2, 2) == (2, 2)

    @pytest.mark.parametrize("v", [0, 5, -1])
    def test_decode_out_of_range(self, v):
        with pytest.raises(StructuralError):
            decode_subblock_value(v, 2, 2)

    @given(
        p=st.integers(min_value=1, max_value=5),
        d=st.integers(min_value=2, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=80)
    def test_round_trip_property(self, p, d, data):
        n = p**d
        v = data.draw(st.integers(min_value=1, max_value=n))
        q, x = decode_subblock_value(v, p, d)
        assert encode_subblock_value(q, x, p, d) == v

    def test_coarse_tuple(self):
        spec = DesignSpec(2, 4, p=2)
        assert coarse_tuple((1, 3), spec) == (1, 2)
        assert coarse_tuple((4, 2), spec) == (2, 1)


class TestTrial:
    def test_shape_validation(self):
        spec = DesignSpec(2, 3)
        with pytest.raises(StructuralError):
            Trial(spec, ((1, 2), (2, 3)))  # wrong row count
        with pytest.raises(StructuralError):
            Trial(spec, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))  # wrong width
        with pytest.raises(StructuralError):
            Trial(spec, ((0, 2), (2, 3), (3, 1)))  # coordinate below 1

    def test_trial_accepts_non_latin_points(self):
        # The container stores any in-range point set; Latin-ness is a
        # separate predicate.
        spec = DesignSpec(2, 2)
        t = Trial(spec, ((1, 1), (1, 1)))
        assert not is_latin(t)

    def test_equality_ignores_row_order(self):
        spec = DesignSpec(2, 3)
        a = Trial(spec, ((1, 2), (2, 3), (3, 1)))
        b = Trial(spec, ((3, 1), (1, 2), (2, 3)))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_across_specs(self):
        a = Trial(DesignSpec(2, 4), ((1, 1), (2, 2), (3, 3), (4, 4)))
        b = Trial(DesignSpec(2, 4, p=2), ((1, 1), (2, 2), (3, 3), (4, 4)))
        assert a != b

    def test_column(self):
        t = Trial(DesignSpec(2, 3), ((1, 2), (2, 3), (3, 1)))
        assert t.column(1) == (1, 2, 3)
        assert t.column(2) == (2, 3, 1)


class TestClassification:
    def test_latin_only_example(self):
        t = Trial(DesignSpec(3, 8, p=2), LATIN_ONLY)
        assert is_latin(t)
        assert not is_orthogonal(t)

    def test_orthogonal_example(self):
        t = Trial(DesignSpec(3, 8, p=2), ORTHOGONAL)
        assert is_latin(t)
        assert is_orthogonal(t)

    def test_small_orthogonal_example(self):
        spec = DesignSpec(2, 4, p=2)
        assert is_orthogonal(Trial(spec, ((1, 3), (2, 1), (3, 4), (4, 2))))

    def test_latin_but_not_orthogonal_small(self):
        # Both points of the low band share the right band of axis 2,
        # so one sub-block holds two points.
        spec = DesignSpec(2, 4, p=2)
        assert not is_orthogonal(Trial(spec, ((1, 3), (2, 4), (3, 1), (4, 2))))

    def test_not_latin(self):
        t = Trial(DesignSpec(2, 3), ((1, 1), (2, 1), (3, 2)))
        assert not is_latin(t)

    def test_orthogonal_requires_block_structure(self):
        t = Trial(DesignSpec(2, 3), ((1, 2), (2, 3), (3, 1)))
        with pytest.raises(UnsupportedSpecError):
            is_orthogonal(t)


class TestProjections:
    def test_project_edges_full(self):
        t = Trial(DesignSpec(3, 2), ((1, 2, 1), (2, 1, 2)))
        got = Units(2, (1, 3)).cells(t)
        assert got == frozenset({(1, 1), (2, 2)})

    def test_project_edges_with_coarse_filter(self):
        spec = DesignSpec(3, 8, p=2)
        t = Trial(spec, ORTHOGONAL)
        e = Units(2, (1, 2), coarse=(1, 1))
        got = e.cells(t)
        # Orthogonal designs put exactly p^(d-2) = 2 points in each
        # coarse rectangle of an axis pair.
        assert len(got) == 2
        for a, b in got:
            assert a <= 4 and b <= 4

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
        with pytest.raises(UnsupportedSpecError):
            Units(2, (1, 2), coarse=(1, 1)).validate_for(DesignSpec(3, 8))
