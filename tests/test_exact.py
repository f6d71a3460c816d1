"""Exact counts, intersection moments, and multiset coverage.

Every frozen fraction below is cross-checked against brute-force
enumeration over the complete trial set (see test_oracle.py); the
literals here keep the fast path honest when the enumeration guard
makes the oracle too slow to run inline.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_checks import paper_kind_params

from hypercov import exact
from hypercov.design import DesignSpec
from hypercov.errors import GuardExceededError, HypercovError, StructuralError
from hypercov.exact import (
    BIGINT_GUARD_BITS,
    DEFAULT_COVERAGE_CAP,
    IntersectionKind,
    _rising_product,
    coverage_float,
    expected_coverage_multiset,
    expected_intersection,
    kind_params,
    miss_ratio,
)

F = Fraction

# Shapes for the paper's formulas, most of them past the oracle's ENUM_GUARD.
LATIN_SHAPES = [DesignSpec(d, n) for d in range(2, 7) for n in range(2, 41)]
SUBBLOCK_SHAPES = [DesignSpec(d, p**d, p) for d in (2, 3) for p in range(1, 6)]


class TestCounting:
    @pytest.mark.parametrize(
        "d,n,count",
        [(2, 2, 2), (2, 3, 6), (3, 2, 4), (3, 3, 36), (2, 4, 24)],
    )
    def test_count_lh_trials(self, d, n, count):
        assert kind_params(IntersectionKind.LHS_TUPLE, DesignSpec(d, n)).b == count

    @pytest.mark.parametrize(
        "d,p,count",
        [(2, 2, 16), (2, 3, 46656), (3, 2, 24**6), (2, 1, 1)],
    )
    def test_count_os_trials(self, d, p, count):
        assert kind_params(IntersectionKind.OS_TUPLE, DesignSpec(d, p**d, p=p)).b == count

    def test_count_trials_containing_tuple(self):
        assert kind_params(IntersectionKind.LHS_TUPLE, DesignSpec(2, 3)).a == 2
        assert kind_params(IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2)).a == 4

    def test_count_trials_containing_edge(self):
        assert kind_params(IntersectionKind.LH_EDGE_ALL, DesignSpec(3, 2)).a == 2
        # d=2 degenerates to the tuple count.
        assert kind_params(IntersectionKind.LH_EDGE_ALL, DesignSpec(2, 3)).a == 2

    def test_containment_never_exceeds_total(self):
        for n in (2, 3, 4, 5):
            kp = kind_params(IntersectionKind.LHS_TUPLE, DesignSpec(3, n))
            assert kp.a <= kp.b


class TestKindParams:
    @pytest.mark.parametrize(
        "kind,spec,a,b,scale",
        [
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), 1, 2, 4),
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), 2, 6, 9),
            (IntersectionKind.LHS_TUPLE, DesignSpec(3, 2), 1, 4, 8),
            (IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2), 4, 16, 16),
            (IntersectionKind.LH_EDGE_ALL, DesignSpec(3, 2), 2, 4, 12),
            (IntersectionKind.LH_EDGE_SUBBLOCK, DesignSpec(2, 4, p=2), 6, 24, 4),
        ],
    )
    def test_frozen_params(self, kind, spec, a, b, scale):
        kp = kind_params(kind, spec)
        assert (kp.a, kp.b, kp.scale) == (a, b, scale)

    @pytest.mark.parametrize("kind", list(IntersectionKind), ids=lambda k: k.value)
    def test_rule_matches_the_paper_formulas(self, kind):
        # kind_params derives a from b and the units' axes; the paper
        # counts each kind's a, b and scale on its own.
        on_sub_blocks = kind in (IntersectionKind.OS_TUPLE, IntersectionKind.LH_EDGE_SUBBLOCK)
        for spec in SUBBLOCK_SHAPES if on_sub_blocks else LATIN_SHAPES:
            kp = kind_params(kind, spec)
            assert (kp.a, kp.b, kp.scale) == paper_kind_params(kind.value, spec.d, spec.n, spec.p), spec

    def test_os_kinds_require_p(self):
        with pytest.raises(StructuralError, match="needs a coarse base p"):
            kind_params(IntersectionKind.OS_TUPLE, DesignSpec(2, 4))
        with pytest.raises(StructuralError, match="needs a coarse base p"):
            kind_params(IntersectionKind.LH_EDGE_SUBBLOCK, DesignSpec(2, 4))

    def test_edge_all_needs_two_axes(self):
        kp = kind_params(IntersectionKind.LH_EDGE_ALL, DesignSpec(2, 3))
        assert kp.scale == 9  # single axis pair


class TestExpectedIntersection:
    @pytest.mark.parametrize(
        "kind,spec,m,value",
        [
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), 1, F(2)),
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), 2, F(4, 3)),
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), 1, F(3)),
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), 2, F(9, 7)),
            (IntersectionKind.LHS_TUPLE, DesignSpec(3, 2), 2, F(4, 5)),
            (IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2), 1, F(4)),
            (IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2), 2, F(20, 17)),
            (IntersectionKind.LH_EDGE_ALL, DesignSpec(3, 2), 1, F(6)),
            (IntersectionKind.LH_EDGE_ALL, DesignSpec(3, 2), 2, F(18, 5)),
            (IntersectionKind.LH_EDGE_SUBBLOCK, DesignSpec(2, 4, p=2), 1, F(1)),
            (IntersectionKind.LH_EDGE_SUBBLOCK, DesignSpec(2, 4, p=2), 2, F(7, 25)),
        ],
    )
    def test_frozen_values(self, kind, spec, m, value):
        assert expected_intersection(kind, spec, m) == value

    def test_m_one_is_scale_times_lambda(self):
        for kind, spec in [
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 5)),
            (IntersectionKind.OS_TUPLE, DesignSpec(2, 9, p=3)),
            (IntersectionKind.LH_EDGE_ALL, DesignSpec(4, 3)),
            (IntersectionKind.LH_EDGE_SUBBLOCK, DesignSpec(3, 8, p=2)),
        ]:
            kp = kind_params(kind, spec)
            assert expected_intersection(kind, spec, 1) == kp.scale * F(kp.a, kp.b)

    def test_decreasing_in_m(self):
        spec = DesignSpec(2, 4)
        vals = [expected_intersection(IntersectionKind.LHS_TUPLE, spec, m) for m in range(1, 6)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_m_zero_rejected(self):
        with pytest.raises(StructuralError):
            expected_intersection(IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), 0)

    def test_ratio_is_falling_product(self):
        spec = DesignSpec(2, 3)
        kp = kind_params(IntersectionKind.LHS_TUPLE, spec)
        want = F(kp.a, kp.b) * F(kp.a + 1, kp.b + 1) * F(kp.a + 2, kp.b + 2)
        assert expected_intersection(IntersectionKind.LHS_TUPLE, spec, 3) == kp.scale * want


class TestExpectedCoverage:
    @pytest.mark.parametrize(
        "kind,spec,k,value",
        [
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), 1, F(1, 2)),
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), 2, F(2, 3)),
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), 3, F(3, 4)),
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), 1, F(1, 3)),
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), 2, F(11, 21)),
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), 3, F(9, 14)),
            (IntersectionKind.LHS_TUPLE, DesignSpec(3, 2), 2, F(2, 5)),
            (IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2), 2, F(29, 68)),
            (IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2), 3, F(113, 204)),
            (IntersectionKind.LH_EDGE_ALL, DesignSpec(3, 2), 2, F(7, 10)),
            (IntersectionKind.LH_EDGE_SUBBLOCK, DesignSpec(2, 4, p=2), 2, F(43, 100)),
            (IntersectionKind.LH_EDGE_SUBBLOCK, DesignSpec(2, 4, p=2), 3, F(73, 130)),
        ],
    )
    def test_frozen_values(self, kind, spec, k, value):
        assert expected_coverage_multiset(kind, spec, k) == value

    def test_k_zero_covers_nothing(self):
        assert expected_coverage_multiset(IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), 0) == 0

    def test_k_one_is_lambda(self):
        for kind, spec in [
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 6)),
            (IntersectionKind.OS_TUPLE, DesignSpec(2, 9, p=3)),
            (IntersectionKind.LH_EDGE_ALL, DesignSpec(3, 4)),
        ]:
            kp = kind_params(kind, spec)
            assert expected_coverage_multiset(kind, spec, 1) == F(kp.a, kp.b)

    def test_increasing_in_k(self):
        spec = DesignSpec(2, 3)
        vals = [expected_coverage_multiset(IntersectionKind.LHS_TUPLE, spec, k) for k in range(0, 12)]
        assert all(x < y for x, y in zip(vals, vals[1:]))
        assert all(0 <= v < 1 for v in vals)

    @pytest.mark.parametrize(
        "kind,spec",
        [
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 3)),
            (IntersectionKind.LHS_TUPLE, DesignSpec(3, 2)),
            (IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2)),
            (IntersectionKind.LH_EDGE_ALL, DesignSpec(3, 2)),
            (IntersectionKind.LH_EDGE_SUBBLOCK, DesignSpec(2, 4, p=2)),
        ],
    )
    def test_drawing_without_order_identity(self, kind, spec):
        # A k-multiset misses a unit when all of it comes from the b - a
        # trials without the unit: C(b-a+k-1, k) of the C(b+k-1, k)
        # multisets. Checking the product against the binomial ratio at
        # larger k guards its bookkeeping.
        # The inclusion-exclusion sum over m-fold intersections is a third
        # route to the same value.
        kp = kind_params(kind, spec)
        for k in (1, 2, 5, 13, 40):
            direct = expected_coverage_multiset(kind, spec, k)
            closed = 1 - F(comb(kp.b - kp.a + k - 1, k), comb(kp.b + k - 1, k))
            alternating = sum(
                (-1) ** (m + 1) * comb(k, m) * expected_intersection(kind, spec, m) / kp.scale
                for m in range(1, k + 1)
            )
            assert direct == closed == alternating

    def test_universe_sizes(self):
        # Coverage of each kind is a fraction of `scale` units.
        assert kind_params(IntersectionKind.LHS_TUPLE, DesignSpec(2, 3)).scale == 9
        assert kind_params(IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2)).scale == 16
        assert kind_params(IntersectionKind.LH_EDGE_ALL, DesignSpec(3, 2)).scale == 12
        assert kind_params(IntersectionKind.LH_EDGE_SUBBLOCK, DesignSpec(2, 4, p=2)).scale == 4

    @given(k=st.integers(min_value=1, max_value=60))
    @settings(max_examples=40)
    def test_coverage_in_unit_interval(self, k):
        v = expected_coverage_multiset(IntersectionKind.LHS_TUPLE, DesignSpec(2, 4), k)
        assert 0 < v < 1


class TestRisingProduct:
    @given(
        lo=st.integers(min_value=0, max_value=2**600),
        m=st.integers(min_value=0, max_value=DEFAULT_COVERAGE_CAP),
    )
    @example(lo=0, m=0)  # math.perm(-1, 0) would raise
    @example(lo=0, m=3)  # a = b: the miss product is 0
    @example(lo=7, m=0)
    @example(lo=7, m=1)
    @example(lo=2**525 - 3, m=DEFAULT_COVERAGE_CAP)
    @example(lo=2**600, m=DEFAULT_COVERAGE_CAP)
    @settings(max_examples=60, deadline=None)
    def test_perm_equals_sequential_product(self, lo, m):
        want = 1
        for i in range(m):
            want *= lo + i
        assert _rising_product(lo, m) == want

    def test_miss_ratio_is_the_unreduced_pair(self):
        # 1 - miss/den is the coverage, and den is prod (b+i) unreduced.
        spec = DesignSpec(2, 3)
        kp = kind_params(IntersectionKind.LHS_TUPLE, spec)
        miss, den = miss_ratio(IntersectionKind.LHS_TUPLE, spec, 3)
        assert den == kp.b * (kp.b + 1) * (kp.b + 2)
        assert 1 - F(miss, den) == expected_coverage_multiset(IntersectionKind.LHS_TUPLE, spec, 3)


def product_float(kind, spec, k):
    """(den - miss) / den of both rising products, the float to match."""
    miss, den = miss_ratio(kind, spec, k)
    return (den - miss) / den


FLOAT_SHAPES = [
    (IntersectionKind.LHS_TUPLE, DesignSpec(2, 30)),
    (IntersectionKind.OS_TUPLE, DesignSpec(2, 9, p=3)),
    (IntersectionKind.LH_EDGE_ALL, DesignSpec(3, 8)),
    (IntersectionKind.LH_EDGE_SUBBLOCK, DesignSpec(2, 16, p=4)),
    (IntersectionKind.OS_TUPLE, DesignSpec(2, 1, p=1)),  # a = b: every k >= 1 covers all
    (IntersectionKind.LHS_TUPLE, DesignSpec(16, 2)),  # a/b = 2^-15
]
FLOAT_KS = [0, 1, 16, 17, 64, 256, 512]


class TestCoverageFloat:
    @pytest.mark.parametrize("kind,spec", FLOAT_SHAPES)
    @pytest.mark.parametrize("k", FLOAT_KS)
    def test_equals_the_products_float(self, kind, spec, k):
        assert coverage_float(kind, spec, k) == product_float(kind, spec, k)

    def test_equals_the_products_float_at_the_guard(self):
        # b has 8,530 bits, so the products of k = 117 are just under the guard.
        spec = DesignSpec(2, 1000)
        assert coverage_float(IntersectionKind.LHS_TUPLE, spec, 117) == product_float(
            IntersectionKind.LHS_TUPLE, spec, 117
        )

    @given(
        kind=st.sampled_from(list(IntersectionKind)),
        d=st.integers(min_value=2, max_value=4),
        size=st.integers(min_value=1, max_value=20),
        k=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_products_float_on_random_shapes(self, kind, d, size, k):
        if kind in (IntersectionKind.OS_TUPLE, IntersectionKind.LH_EDGE_SUBBLOCK):
            p = 1 + size % (3 if d == 2 else 2)
            spec = DesignSpec(d, p**d, p)
        else:
            spec = DesignSpec(d, 1 + size if d == 2 else 2 + size % 6)
        assert coverage_float(kind, spec, k) == product_float(kind, spec, k)

    @pytest.mark.parametrize(
        "kind,spec,k",
        [
            (IntersectionKind.OS_TUPLE, DesignSpec(2, 4), 1),  # os needs p: kind_params first
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), -1),
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), DEFAULT_COVERAGE_CAP + 1),
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 1000), 118),
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 1_000_000), 1),
        ],
    )
    def test_refuses_as_the_products_do(self, kind, spec, k):
        with pytest.raises(HypercovError) as want:
            miss_ratio(kind, spec, k)
        with pytest.raises(type(want.value)) as got:
            coverage_float(kind, spec, k)
        assert str(got.value) == str(want.value)

    def test_retries_then_builds_the_products(self, monkeypatch):
        # Without INTERVAL_BITS, lhs d=2 n=30 k=64 starts at 12 working
        # bits, too few to tell its float; so do 24 and 48, while 96 are
        # enough. One try must fall back to the products, four must not,
        # and every path must give the products' float.
        kind, spec, k = IntersectionKind.LHS_TUPLE, DesignSpec(2, 30), 64
        want = product_float(kind, spec, k)
        calls = []

        def counted(*args):
            calls.append(args)
            return miss_ratio(*args)

        monkeypatch.setattr(exact, "miss_ratio", counted)
        monkeypatch.setattr(exact, "INTERVAL_BITS", 0)
        for tries, products in ((1, 1), (3, 1), (4, 0)):
            calls.clear()
            monkeypatch.setattr(exact, "INTERVAL_TRIES", tries)
            assert coverage_float(kind, spec, k) == want
            assert len(calls) == products, tries

    @pytest.mark.parametrize("kind,spec", FLOAT_SHAPES)
    @pytest.mark.parametrize("tries", [1, 2])
    def test_few_working_bits_give_the_same_float(self, monkeypatch, kind, spec, tries):
        monkeypatch.setattr(exact, "INTERVAL_BITS", 0)
        monkeypatch.setattr(exact, "INTERVAL_TRIES", tries)
        for k in FLOAT_KS:
            assert coverage_float(kind, spec, k) == product_float(kind, spec, k), k


class TestEdgeTupleAgreement:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_two_axes_edge_equals_tuple(self, n, m):
        # With d=2 the single axis pair is the whole point, so both
        # intersection families must agree exactly.
        spec = DesignSpec(2, n)
        lhs = expected_intersection(IntersectionKind.LHS_TUPLE, spec, m)
        edge = expected_intersection(IntersectionKind.LH_EDGE_ALL, spec, m)
        assert lhs == edge


class TestGuards:
    def test_coverage_cap(self):
        with pytest.raises(GuardExceededError, match="^k=513 exceeds cap 512; "):
            expected_coverage_multiset(IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), 513)

    def test_intersection_cap(self):
        # One term cap for both rising products.
        spec = DesignSpec(2, 3)
        assert 0 < expected_intersection(IntersectionKind.LHS_TUPLE, spec, DEFAULT_COVERAGE_CAP)
        with pytest.raises(GuardExceededError, match=f"^m={DEFAULT_COVERAGE_CAP + 1} exceeds cap {DEFAULT_COVERAGE_CAP}$"):
            expected_intersection(IntersectionKind.LHS_TUPLE, spec, DEFAULT_COVERAGE_CAP + 1)

    def test_bigint_guard(self):
        with pytest.raises(GuardExceededError):
            kind_params(IntersectionKind.LHS_TUPLE, DesignSpec(2, 1_000_000))

    @pytest.mark.parametrize("name", ["k", "m"])
    def test_product_guard_names_the_largest_q(self, name):
        # 512 terms of lhs d=2 n=1000 are 4.4M bits, which unguarded ran past
        # 120 s. The q named is the largest with q * bits(b) in the guard.
        spec = DesignSpec(2, 1000)
        bits = kind_params(IntersectionKind.LHS_TUPLE, spec).b.bit_length()
        value_of = expected_coverage_multiset if name == "k" else expected_intersection
        with pytest.raises(GuardExceededError) as info:
            value_of(IntersectionKind.LHS_TUPLE, spec, DEFAULT_COVERAGE_CAP)
        fit = BIGINT_GUARD_BITS // bits
        assert f"{name}={fit} is the largest that fits" in str(info.value)
        assert fit * bits <= BIGINT_GUARD_BITS < (fit + 1) * bits
        with pytest.raises(GuardExceededError):
            value_of(IntersectionKind.LHS_TUPLE, spec, fit + 1)

    def test_product_guard_refuses_before_any_product(self, monkeypatch):
        def no_product(lo, m):
            raise AssertionError("product built before the guard")

        monkeypatch.setattr(exact, "_rising_product", no_product)
        spec = DesignSpec(2, 1000)
        for value_of in (expected_coverage_multiset, expected_intersection, miss_ratio):
            with pytest.raises(GuardExceededError):
                value_of(IntersectionKind.LHS_TUPLE, spec, 118)
