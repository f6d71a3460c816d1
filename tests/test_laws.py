"""Closed-form coverage laws, rarity rates, and asymptotic error bounds."""

import math
from fractions import Fraction

import pytest

from reference_checks import paper_kind_params

from hypercov import exact
from hypercov.design import DesignSpec
from hypercov.errors import StructuralError, UnsupportedSpecError
from hypercov.exact import (
    IntersectionKind,
    expected_coverage_multiset,
    kind_axes,
    kind_params,
)
from hypercov.laws import (
    asymptotic_coverage,
    bracket_exact_vs_asymptotic,
    error_bounds,
    iid_coverage,
    lambda_for,
    projection_lambda,
)


def paper_rate(kind: IntersectionKind, spec: DesignSpec) -> Fraction:
    """a/b of the kind by the paper's counting formulas."""
    a, b, _ = paper_kind_params(kind.value, spec.d, spec.n, spec.p)
    return Fraction(a, b)


class TestLambda:
    @pytest.mark.parametrize(
        "kind,spec,value",
        [
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 5), Fraction(1, 5)),
            (IntersectionKind.LHS_TUPLE, DesignSpec(3, 4), Fraction(1, 16)),
            (IntersectionKind.OS_TUPLE, DesignSpec(2, 9, p=3), Fraction(1, 9)),
            (IntersectionKind.OS_TUPLE, DesignSpec(3, 8, p=2), Fraction(1, 64)),
            (IntersectionKind.LH_EDGE_ALL, DesignSpec(4, 6), Fraction(1, 6)),
            (IntersectionKind.LH_EDGE_SUBBLOCK, DesignSpec(3, 8, p=2), Fraction(1, 8)),
        ],
    )
    def test_reduced_rate(self, kind, spec, value):
        # a/b collapses to the single-cell hit rate: n^-(d-1) for full
        # tuples, 1/n for axis pairs. Exact rational equality, so the
        # factorial towers in a and b must cancel perfectly.
        assert paper_rate(kind, spec) == value
        kp = kind_params(kind, spec)
        assert Fraction(kp.a, kp.b) == value

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_lh_and_os_rates_match_on_shared_grid(self, p, d):
        spec = DesignSpec(d, p**d, p=p)
        lh = paper_rate(IntersectionKind.LHS_TUPLE, spec)
        os_ = paper_rate(IntersectionKind.OS_TUPLE, spec)
        assert lh == os_ == Fraction(1, spec.n ** (d - 1))

    def test_lambda_for_is_float_of_fraction(self):
        spec = DesignSpec(2, 7)
        assert lambda_for(IntersectionKind.LHS_TUPLE, spec) == float(Fraction(1, 7))

    @pytest.mark.parametrize(
        "kind,spec",
        [(IntersectionKind.LHS_TUPLE, DesignSpec(d, n)) for d in (2, 3, 4) for n in range(2, 13)]
        + [(IntersectionKind.OS_TUPLE, DesignSpec(d, p**d, p)) for d in (2, 3) for p in (2, 3, 4)]
        + [(IntersectionKind.LH_EDGE_ALL, DesignSpec(d, n)) for d in (3, 4, 5) for n in (2, 3, 5)]
        + [(IntersectionKind.LH_EDGE_SUBBLOCK, DesignSpec(d, p**d, p)) for d in (2, 3) for p in (2, 3)],
    )
    def test_every_kind_is_one_over_n_to_the_t_minus_1(self, kind, spec):
        # The counting side's a/b and the closed form's float agree:
        # a/b = 1/n^(t-1) exactly, and lambda_for is its rounded double.
        t = kind_axes(kind, spec)
        assert t == (spec.d if kind.value in ("lhs", "os") else 2)
        assert paper_rate(kind, spec) == Fraction(1, spec.n ** (t - 1))
        assert lambda_for(kind, spec) == float(paper_rate(kind, spec))

    def test_lambda_for_builds_no_factorial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kind_params called")

        monkeypatch.setattr(exact, "kind_params", refuse)
        monkeypatch.setattr("hypercov.laws.kind_params", refuse)
        assert lambda_for(IntersectionKind.LHS_TUPLE, DesignSpec(2, 100_000)) == 1e-05

    @pytest.mark.parametrize(
        "kind", [IntersectionKind.OS_TUPLE, IntersectionKind.LH_EDGE_SUBBLOCK]
    )
    def test_kinds_on_sub_blocks_need_p(self, kind):
        with pytest.raises(UnsupportedSpecError, match="needs a coarse base p"):
            lambda_for(kind, DesignSpec(2, 9))

    def test_projection_lambda_is_correctly_rounded(self):
        # libm pow misrounds n^(1-t) at 71 of these pairs, first at n=1923, t=2.
        bad = [
            (n, t)
            for n in range(2, 5001)
            for t in range(2, 17)
            if projection_lambda(n, t) != float(Fraction(1, n ** (t - 1)))
        ]
        assert bad == []
        assert projection_lambda(1923, 2) == 0.0005200208008320333

    @pytest.mark.parametrize("n,t", [(2, 1075), (2, 1076), (3, 679), (3, 680), (10, 324), (10, 325)])
    def test_projection_lambda_at_the_underflow_edge(self, n, t):
        assert projection_lambda(n, t) == float(Fraction(1, n ** (t - 1)))

    def test_projection_lambda_past_the_double_range_builds_no_power(self):
        # 10^(10^9) would take seconds and hundreds of MB to build.
        assert projection_lambda(10, 10**9) == 0.0
        assert projection_lambda(2**1000, 3) == 0.0


class TestClosedForms:
    def test_iid_frozen(self):
        assert iid_coverage(0.01, 100) == pytest.approx(
            1 - 0.99**100, rel=1e-12
        )
        assert iid_coverage(0.01, 100) == pytest.approx(0.6339676587, abs=1e-9)

    def test_asymptotic_frozen(self):
        assert asymptotic_coverage(0.01, 100) == pytest.approx(
            -math.expm1(-1.0), rel=1e-12
        )

    def test_conjecture_frozen(self):
        # t=2 slice of a 27-wide design: same exponential family with
        # rate n^(1-t).
        got = iid_coverage(projection_lambda(27, 2), 27)
        assert got == pytest.approx(1 - (1 - 1 / 27) ** 27, rel=1e-12)

    def test_k_zero(self):
        assert iid_coverage(0.3, 0) == 0.0
        assert asymptotic_coverage(0.3, 0) == 0.0

    def test_full_rate_saturates(self):
        assert iid_coverage(1.0, 3) == 1.0

    def test_iid_monotone_in_k(self):
        vals = [iid_coverage(0.05, k) for k in range(0, 40)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_small_k_precision(self):
        # k*lam near 1e-12 must not cancel to zero.
        v = iid_coverage(1e-12, 1)
        assert v == pytest.approx(1e-12, rel=1e-6)
        assert v > 0

    def test_law_validation(self):
        with pytest.raises(StructuralError):
            iid_coverage(0.0, 3)
        with pytest.raises(StructuralError):
            iid_coverage(1.5, 3)
        with pytest.raises(StructuralError):
            iid_coverage(0.5, -1)

    @pytest.mark.parametrize("law", [iid_coverage, asymptotic_coverage])
    def test_k_beyond_float_refused(self, law):
        # 2^1024 - 1 rounds up past the largest double; 2^1023 still fits.
        assert law(0.5, 2**1023) == 1.0
        with pytest.raises(StructuralError, match="k must fit a float, got a 1024-bit k"):
            law(0.5, 2**1024 - 1)

    def test_conjecture_validation(self):
        with pytest.raises(StructuralError):
            projection_lambda(10, 4, d=3)
        assert projection_lambda(10, 3, d=3) == pytest.approx(10.0**-2)


class TestErrorBounds:
    def test_frozen_values(self):
        eb = error_bounds(IntersectionKind.LHS_TUPLE, DesignSpec(3, 8), 10)
        assert eb.valid
        assert eb.e1_bound == pytest.approx(4.142284744081294e-06, rel=1e-12)
        assert eb.e2_bound == pytest.approx(0.002088245427996637, rel=1e-12)

    def test_validity_flag(self):
        # k(k-1) <= a is the precondition for the first bound; at
        # d=2, n=2 even k=2 breaks it.
        assert error_bounds(IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), 1).valid
        assert not error_bounds(IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), 2).valid

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    @pytest.mark.parametrize("k", [1, 2, 5, 10, 50, 200])
    def test_second_bound_controls_iid_vs_asymptotic(self, n, k):
        lam = lambda_for(IntersectionKind.LHS_TUPLE, DesignSpec(3, n))
        gap = abs(
            iid_coverage(lam, k) - asymptotic_coverage(lam, k)
        )
        assert gap <= math.exp(-k * lam) * k * lam * lam + 1e-15


class TestBracket:
    def test_smallest_case(self):
        r = bracket_exact_vs_asymptotic(IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), 1)
        assert r.lam == 0.5
        assert r.p_multiset == 0.5
        assert r.p_iid == 0.5
        assert r.p_asym == pytest.approx(-math.expm1(-0.5), rel=1e-12)
        assert r.valid
        assert abs(r.p_multiset - r.p_asym) <= r.e1_bound + r.e2_bound

    @pytest.mark.parametrize("k", [2, 4, 8, 16, 32])
    def test_bounds_hold_when_valid(self, k):
        r = bracket_exact_vs_asymptotic(IntersectionKind.LHS_TUPLE, DesignSpec(3, 8), k)
        assert r.valid
        assert abs(r.p_multiset - r.p_asym) <= r.e1_bound + r.e2_bound

    def test_invalid_case_reports_flag(self):
        r = bracket_exact_vs_asymptotic(IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), 2)
        assert not r.valid

    def test_multiset_column_matches_exact_module(self):
        r = bracket_exact_vs_asymptotic(IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2), 2)
        assert r.p_multiset == pytest.approx(
            float(expected_coverage_multiset(IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2), 2)),
            rel=1e-15,
        )

    @pytest.mark.parametrize(
        "kind,spec",
        [
            (IntersectionKind.LHS_TUPLE, DesignSpec(2, 30)),
            (IntersectionKind.OS_TUPLE, DesignSpec(2, 9, p=3)),
            (IntersectionKind.LH_EDGE_ALL, DesignSpec(3, 8)),
            (IntersectionKind.LH_EDGE_SUBBLOCK, DesignSpec(2, 16, p=4)),
        ],
    )
    def test_multiset_float_is_the_reduced_fractions(self, kind, spec):
        # The bracket divides the unreduced products; the float must be
        # bit-identical to float() of the reduced Fraction.
        for k in (0, 1, 16, 17, 64, 256, 512):
            r = bracket_exact_vs_asymptotic(kind, spec, k)
            assert r.p_multiset == float(expected_coverage_multiset(kind, spec, k))

    def test_multiset_converges_to_iid_as_trials_grow(self):
        # Fixed k, growing n: sampling without replacement looks more
        # and more like independent draws.
        gaps = []
        for n in (4, 8, 16, 32):
            r = bracket_exact_vs_asymptotic(IntersectionKind.LHS_TUPLE, DesignSpec(2, n), 3)
            gaps.append(abs(r.p_multiset - r.p_iid))
        assert all(x > y for x, y in zip(gaps, gaps[1:]))
