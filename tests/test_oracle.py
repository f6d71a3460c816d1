"""Brute-force enumeration oracle and its agreement with the fast path.

The oracle averages over every trial of a small design, so it contains
none of the closed-form algebra it is checking.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from reference_checks import is_latin, is_orthogonal, point_set

from hypercov import oracle
from hypercov.design import DesignSpec, Units
from hypercov.errors import GuardExceededError
from hypercov.exact import (
    IntersectionKind,
    expected_coverage_multiset,
    expected_intersection,
    kind_params,
)
from hypercov.oracle import (
    default_verification_suite,
    enumerate_trials,
    occurrence_counts,
    oracle_expected_coverage,
    oracle_expected_intersection,
)
from hypercov.sampling import SampleKind

# The pooled axis-pair family of d = 3: every pair's value pairs.
ALL_PAIRS_D3 = (Units(2, (1, 2)), Units(2, (1, 3)), Units(2, (2, 3)))


def shape(trials):
    """(b, d, n) of trials held as nested tuples of 0-based values,
    which must have that one shape throughout."""
    b, d, n = len(trials), len(trials[0]), len(trials[0][0])
    assert all(len(t) == d and all(len(axis) == n for axis in t) for t in trials)
    return b, d, n


class TestEnumeration:
    @pytest.mark.parametrize("d,n,count", [(2, 2, 2), (2, 3, 6), (3, 2, 4), (2, 4, 24)])
    def test_lh_enumeration_count(self, d, n, count):
        ts = enumerate_trials(DesignSpec(d, n), SampleKind.LHS)
        assert shape(ts.trials) == (count, d, n)
        assert all(is_latin(t) for t in ts.trials)
        assert len({point_set(t) for t in ts.trials}) == count

    def test_os_enumeration_count(self):
        ts = enumerate_trials(DesignSpec(2, 4, p=2), SampleKind.OS)
        assert shape(ts.trials) == (16, 2, 4)
        assert all(is_orthogonal(t, 2) for t in ts.trials)
        assert len({point_set(t) for t in ts.trials}) == 16

    @pytest.mark.parametrize("d,p", [(2, 2), (2, 1), (3, 1)])
    def test_os_enumeration_is_the_orthogonal_latin_trials(self, d, p):
        # The definition, independent of any assembly: the Latin trials
        # that put one point in every sub-block.
        spec = DesignSpec(d, p**d, p)
        latin = enumerate_trials(spec, SampleKind.LHS).trials
        want = {point_set(t) for t in latin if is_orthogonal(t, p)}
        assert {point_set(t) for t in enumerate_trials(spec, SampleKind.OS).trials} == want

    @pytest.mark.parametrize("p,b", [(2, 16), (3, 46656)])
    def test_os_trials_are_distinct_point_sets(self, p, b):
        spec = DesignSpec(2, p**2, p)
        ts = enumerate_trials(spec, SampleKind.OS)
        assert kind_params(IntersectionKind.OS_TUPLE, spec).b == b
        assert shape(ts.trials) == (b, 2, p**2)
        assert len({point_set(t) for t in ts.trials}) == b

    def test_enumeration_guard(self):
        with pytest.raises(GuardExceededError):
            enumerate_trials(DesignSpec(2, 10), SampleKind.LHS)

    def test_enumeration_guard_override(self, monkeypatch):
        # d=2 n=5 has 120 trials: a guard of 119 refuses them, 120 admits.
        monkeypatch.setattr(oracle, "ENUM_GUARD", 119)
        with pytest.raises(GuardExceededError, match="120 trials exceed enumeration guard 119"):
            enumerate_trials(DesignSpec(2, 5), SampleKind.LHS)
        monkeypatch.setattr(oracle, "ENUM_GUARD", 120)
        ts = enumerate_trials(DesignSpec(2, 5), SampleKind.LHS)
        assert len(ts.trials) == 120


class TestOracleAgainstFastPath:
    # The full cross-check grid lives in default_verification_suite;
    # these spot checks keep the direct API wired.
    def test_intersection_spot_checks(self):
        ts = enumerate_trials(DesignSpec(2, 3), SampleKind.LHS)
        for m in (1, 2, 3):
            assert oracle_expected_intersection(ts, m) == expected_intersection(
                IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), m
            )

    def test_coverage_spot_checks(self):
        ts = enumerate_trials(DesignSpec(2, 2), SampleKind.LHS)
        for k in (1, 2, 3):
            assert oracle_expected_coverage(ts, k) == expected_coverage_multiset(
                IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), k
            )

    def test_os_coverage_spot_check(self):
        ts = enumerate_trials(DesignSpec(2, 4, p=2), SampleKind.OS)
        assert oracle_expected_coverage(ts, 2) == Fraction(29, 68)

    def test_edge_projection_routes(self):
        ts = enumerate_trials(DesignSpec(3, 2), SampleKind.LHS)
        spec = DesignSpec(3, 2)
        assert oracle_expected_intersection(ts, 1, projection=ALL_PAIRS_D3) == expected_intersection(
            IntersectionKind.LH_EDGE_ALL, spec, 1
        )
        assert oracle_expected_coverage(ts, 2, projection=ALL_PAIRS_D3) == expected_coverage_multiset(
            IntersectionKind.LH_EDGE_ALL, spec, 2
        )
        # A single axis pair sees the same coverage as the pooled
        # average by symmetry.
        assert oracle_expected_coverage(ts, 1, projection=Units(2, (1, 2))) == Fraction(1, 2)

    def test_multiset_guard(self):
        ts = enumerate_trials(DesignSpec(2, 4), SampleKind.LHS)
        with pytest.raises(GuardExceededError):
            oracle_expected_coverage(ts, 50)


class TestOccurrenceCounts:
    def test_every_tuple_equally_often(self):
        ts = enumerate_trials(DesignSpec(2, 3), SampleKind.LHS)
        counts = occurrence_counts(ts, Units())
        assert len(counts) == 9
        assert set(counts.values()) == {2}

    def test_os_tuples_equally_often(self):
        ts = enumerate_trials(DesignSpec(2, 4, p=2), SampleKind.OS)
        counts = occurrence_counts(ts, Units())
        assert len(counts) == 16
        assert set(counts.values()) == {4}

    def test_every_edge_pair_equally_often(self):
        ts = enumerate_trials(DesignSpec(3, 2), SampleKind.LHS)
        for pair in ((1, 2), (1, 3), (2, 3)):
            counts = occurrence_counts(ts, Units(2, pair))
            assert len(counts) == 4
            assert set(counts.values()) == {2}

    # A cell of a t-axis projection lies in a fraction n^(1-t) of the
    # Latin trials, on every choice of t axes; the projection law rests
    # on that rate. (n, trials, {t: trials containing each cell})
    @pytest.mark.parametrize(
        "n,trials,per_cell", [(2, 8, {2: 4, 3: 2}), (3, 216, {2: 72, 3: 24})]
    )
    def test_t_axis_cells_equally_often(self, n, trials, per_cell):
        ts = enumerate_trials(DesignSpec(4, n), SampleKind.LHS)
        assert len(ts.trials) == trials
        for t, want in per_cell.items():
            assert want * n ** (t - 1) == trials
            for dims in combinations(range(1, 5), t):
                counts = occurrence_counts(ts, Units(t, dims))
                assert len(counts) == n**t
                assert set(counts.values()) == {want}, dims


class TestVerificationSuite:
    def test_all_checks_match(self):
        suite = default_verification_suite()
        assert len(suite) >= 20
        failures = [c for c in suite if not c.match]
        assert failures == []

    def test_check_names_unique(self):
        suite = default_verification_suite()
        names = [c.name for c in suite]
        assert len(names) == len(set(names))
