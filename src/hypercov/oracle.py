"""Brute-force oracles: enumerate whole trial ensembles and average.

Everything here is deliberately naive: trials and multisets of trials
are enumerated outright with itertools, and expectations are exact
Fraction averages. The oracle checks the sampler's ensembles and the
closed-form module, so it shares no code with the sampler and imports
no numpy; it keeps a second form of a trial on purpose, d tuples of
0-based values (the sampler's (b, d, n) columns as nested tuples).
The units counted are a `design.Units` family, or a tuple of families
pooled together; `_cells` projects trials onto them with plain tuple
code on 1-based values. One walk over the multisets serves both
expectations: it joins each multiset's unit sets by & for the units
common to all its trials, or by | for the units any of them covers.
Guards refuse anything that would not finish at a desk: the point is
small instances, not scale.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

from .design import DesignSpec, SampleKind, Units, band_width
from .errors import GuardExceededError, StructuralError
from .exact import (
    IntersectionKind,
    expected_coverage_multiset,
    expected_intersection,
    kind_params,
)

ENUM_GUARD = 100_000
MULTISET_GUARD = 10_000_000

# d axes of 0-based values, axis j + 1 at place j.
Trial = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EnumeratedTrialSet:
    spec: DesignSpec
    trials: tuple[Trial, ...]


def enumerate_trials(spec: DesignSpec, kind: SampleKind) -> EnumeratedTrialSet:
    """Every distinct trial of the ensemble, exactly once: the product of
    each axis's choices of column, in itertools order.

    Latin trials are in canonical form: sorting rows by the first
    coordinate pins axis 1 to 0..n-1 and leaves axes 2..d free. An
    orthogonal axis i takes one column per choice of its p fine
    permutations, put together by the sampling docstring's rule: row r
    lies in coarse band digit i of r in base p, and takes slot (r with
    digit i removed) of that band's fine permutation.
    """
    if kind is SampleKind.OS:
        p = spec.require_p()
    # The tuple kinds share their sampler's value; b counts the trials.
    total = kind_params(IntersectionKind(kind.value), spec).b
    if total > ENUM_GUARD:
        raise GuardExceededError(f"{total} trials exceed enumeration guard {ENUM_GUARD}")
    d, n = spec.d, spec.n
    if kind is SampleKind.LHS:
        choices = [[tuple(range(n))]] + [list(permutations(range(n)))] * (d - 1)
    else:
        w = band_width(p, d)
        choices = []
        for i in range(d):
            s = p ** (d - 1 - i)  # place value of digit i
            band_slot = [(r // s % p, r // (s * p) * s + r % s) for r in range(n)]
            choices.append([
                tuple(q * w + fines[q][slot] for q, slot in band_slot)
                for fines in product(permutations(range(w)), repeat=p)
            ])
    return EnumeratedTrialSet(spec, tuple(product(*choices)))


def _cells(spec: DesignSpec, trials: tuple[Trial, ...], units: Units) -> list[frozenset[tuple[int, ...]]]:
    """Each trial's distinct cells of the family, as 1-based value tuples
    on the projected axes; with coarse bands, only the cells whose bands
    are the coarse cell. Without coarse a Latin trial covers exactly n
    cells, because any one axis already separates its points."""
    units.validate_for(spec)
    axes = [a - 1 for a in units.axes(spec)]
    sets = [frozenset(zip(*([v + 1 for v in trial[a]] for a in axes))) for trial in trials]
    if units.coarse is not None:
        w = band_width(spec.require_p(), spec.d)
        sets = [frozenset(c for c in s if tuple((v - 1) // w + 1 for v in c) == units.coarse) for s in sets]
    return sets


def _unit_sets(ts: EnumeratedTrialSet, projection: Units | tuple[Units, ...]) -> list[frozenset]:
    """Each trial's covered units. A tuple of families pools them, each
    cell tagged with its family's place so the families stay disjoint."""
    if isinstance(projection, Units):
        return _cells(ts.spec, ts.trials, projection)
    rows = zip(*(_cells(ts.spec, ts.trials, units) for units in projection))
    return [frozenset((f, cell) for f, cells in enumerate(row) for cell in cells) for row in rows]


def check_walk(name: str, b: int, m: int) -> None:
    """Refuse m < 1, or a walk over the m-multisets of b trials above
    MULTISET_GUARD, which bounds multisets * m: each costs O(m) to walk."""
    if m < 1:
        raise StructuralError(f"{name} must be >= 1, got {m}")
    count = math.comb(b + m - 1, m)
    if count * m > MULTISET_GUARD:
        raise GuardExceededError(
            f"{count} multisets of {m} trials exceed guard {MULTISET_GUARD} on multisets * m"
        )


def _multiset_mean(
    name: str, ts: EnumeratedTrialSet, q: int, projection: Units | tuple[Units, ...], intersect: bool
) -> Fraction:
    """Average number of units common to all trials of a q-multiset
    (intersect) or covered by any of them, over the C(b+q-1, q) multisets."""
    b = len(ts.trials)
    check_walk(name, b, q)
    units = _unit_sets(ts, projection)
    total = 0
    for combo in combinations_with_replacement(range(b), q):
        got = units[combo[0]]
        for i in set(combo[1:]):
            got = got & units[i] if intersect else got | units[i]
        total += len(got)
    return Fraction(total, math.comb(b + q - 1, q))


def oracle_expected_intersection(
    ts: EnumeratedTrialSet,
    m: int,
    projection: Units | tuple[Units, ...] = Units(),
) -> Fraction:
    """Average number of units common to all trials of an m-multiset."""
    return _multiset_mean("m", ts, m, projection, intersect=True)


def oracle_expected_coverage(
    ts: EnumeratedTrialSet,
    k: int,
    projection: Units | tuple[Units, ...] = Units(),
) -> Fraction:
    """Average fraction of the unit universe covered by a k-multiset."""
    families = (projection,) if isinstance(projection, Units) else projection
    return _multiset_mean("k", ts, k, projection, intersect=False) / sum(u.universe(ts.spec) for u in families)


def occurrence_counts(ts: EnumeratedTrialSet, units: Units) -> dict[tuple[int, ...], int]:
    """How many trials of the ensemble contain each value tuple on the
    family's axes (zeros kept; with coarse bands, tuples outside the
    coarse cell count 0)."""
    units.validate_for(ts.spec)
    n, t = ts.spec.n, len(units.axes(ts.spec))
    counts: Counter = Counter()
    for cells in _cells(ts.spec, ts.trials, units):
        counts.update(cells)
    return {cell: counts.get(cell, 0) for cell in product(range(1, n + 1), repeat=t)}


def _valid_trial_count(ts: EnumeratedTrialSet, orthogonal: bool) -> int:
    """Distinct trials of the ensemble, as point sets, that are Latin
    (each axis a permutation of 0..n-1) and, if orthogonal, hold one
    point in each of the n sub-blocks."""
    n = ts.spec.n
    w = band_width(ts.spec.require_p(), ts.spec.d) if orthogonal else 0
    valid = set()
    for trial in ts.trials:
        points = frozenset(zip(*trial))
        if any(sorted(axis) != list(range(n)) for axis in trial):
            continue
        if orthogonal and len({tuple(v // w for v in point) for point in points}) != n:
            continue
        valid.add(points)
    return len(valid)


# --- verification suite -----------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    oracle: str
    expected: str
    match: bool


def exact_check(
    name: str,
    ts: EnumeratedTrialSet,
    kind: IntersectionKind,
    mode: str,
    q: int,
    projection: Units | tuple[Units, ...] = Units(),
    divisor: int = 1,
) -> CheckResult:
    """Oracle vs exact value of the expected intersection of q trials
    (mode "intersect", the exact side divided by divisor) or the expected
    coverage of q trials (mode "cover"). The exact side runs first, so
    its term cap refuses q before the oracle walks any multiset."""
    if mode == "intersect":
        want = expected_intersection(kind, ts.spec, q) / divisor
        got = oracle_expected_intersection(ts, q, projection)
    else:
        want = expected_coverage_multiset(kind, ts.spec, q)
        got = oracle_expected_coverage(ts, q, projection)
    return CheckResult(name, str(got), str(want), got == want)


def constant_count_check(name: str, counts: dict, want: int) -> CheckResult:
    """MATCH when every unit occurs in exactly `want` trials."""
    distinct = sorted(set(counts.values()))
    got = str(distinct[0]) if len(distinct) == 1 else f"varies {distinct}"
    return CheckResult(name, got, str(want), distinct == [want])


def default_verification_suite() -> list[CheckResult]:
    """Oracle vs exact-count agreement on the standard tiny instances."""
    d2p2 = DesignSpec(2, 4, 2)
    lhs_d2n2 = enumerate_trials(DesignSpec(2, 2), SampleKind.LHS)
    lhs_d2n3 = enumerate_trials(DesignSpec(2, 3), SampleKind.LHS)
    lhs_d3n2 = enumerate_trials(DesignSpec(3, 2), SampleKind.LHS)
    lhs_d2p2 = enumerate_trials(d2p2, SampleKind.LHS)
    os_d2p2 = enumerate_trials(d2p2, SampleKind.OS)

    lhs, os_ = IntersectionKind.LHS_TUPLE, IntersectionKind.OS_TUPLE
    edges, band = IntersectionKind.LH_EDGE_ALL, IntersectionKind.LH_EDGE_SUBBLOCK
    pairs = tuple(Units(2, pair) for pair in combinations(range(1, 4), 2))
    cell = Units(2, (1, 2), coarse=(1, 1))
    checks = [
        exact_check(f"intersection lhs d=2 n=2 m={m}", lhs_d2n2, lhs, "intersect", m)
        for m in (1, 2, 3)
    ]
    for m in (1, 2):
        for label, ts, kind, units in (
            ("lhs d=2 n=3", lhs_d2n3, lhs, Units()),
            ("lhs d=3 n=2", lhs_d3n2, lhs, Units()),
            ("os d=2 p=2", os_d2p2, os_, Units()),
            ("edges d=3 n=2", lhs_d3n2, edges, pairs),
            ("sub-block edge d=2 p=2", lhs_d2p2, band, cell),
        ):
            checks.append(exact_check(f"intersection {label} m={m}", ts, kind, "intersect", m, units))
    for k in (1, 2, 3):
        checks.append(exact_check(f"coverage lhs d=2 n=2 k={k}", lhs_d2n2, lhs, "cover", k))
    checks.append(exact_check("coverage os d=2 p=2 k=2", os_d2p2, os_, "cover", 2))
    checks.append(exact_check("coverage sub-block edge d=2 p=2 k=2", lhs_d2p2, band, "cover", 2, cell))
    for label, ts, kind, orthogonal, want in (
        ("count os d=2 p=2", os_d2p2, os_, True, 16),
        ("count lhs d=2 n=3", lhs_d2n3, lhs, False, 6),
    ):
        # "v of t" when only v of the t enumerated trials are valid and distinct.
        valid, b = _valid_trial_count(ts, orthogonal), kind_params(kind, ts.spec).b
        got = str(valid) if valid == len(ts.trials) else f"{valid} of {len(ts.trials)}"
        checks.append(CheckResult(label, got, str(b), got == str(b) and b == want))
    for label, ts, kind, units in (
        ("cell occurrence lhs d=2 n=3", lhs_d2n3, lhs, Units()),
        ("cell occurrence os d=2 p=2", os_d2p2, os_, Units()),
        *((f"edge occurrence lhs d=3 n=2 axes=({i},{j})", lhs_d3n2, edges, Units(2, (i, j)))
          for i, j in combinations(range(1, 4), 2)),
    ):
        # Every unit occurs in a of the b trials.
        checks.append(constant_count_check(label, occurrence_counts(ts, units), kind_params(kind, ts.spec).a))
    return checks
