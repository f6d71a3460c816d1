"""Exact expected intersection and coverage counts, as rationals.

Every quantity here reduces to one pattern. Fix a family of "units"
(cells of the full grid, or axis-pair value pairs), a trial ensemble of
b equally likely trials, and suppose each unit lies in exactly a of
them. Every value here is exact for one model: the m (or k) trials
form a uniform multiset, each of the C(b+m-1, m) multisets of the b
trials being equally likely, which is what the oracle enumerates. (The
simulator draws k ordered i.i.d. trials instead; the iid law in the
laws module is exact for that model.) The expected number of units
common to all m trials of the multiset is

    x_m = scale * prod_{i=0}^{m-1} (a + i) / (b + i)

where scale is the number of units. The rising-product form is exact
and never evaluates a factorial of a shifted argument. A k-multiset
misses a unit exactly when it is drawn from the b - a trials that avoid
the unit, so the expected fraction of units covered is

    P(k) = 1 - prod_{i=0}^{k-1} (b - a + i) / (b + i)

Parameters (n levels, d axes, coarse base p where n = p^d). b counts
the sampler's trials alone: n!^(d-1) Latin trials for lhs, edge and
edge-subblock, and (p^(d-1))!^(dp) orthogonal trials for os. The units
are design.Units families, each of t axes:

    kind               families                               t
    LHS_TUPLE          Units(), the n^d cells of the grid     d
    OS_TUPLE           Units(), the n^d cells of the grid     d
    LH_EDGE_ALL        Units(2, (i, j)) for every i < j       2
    LH_EDGE_SUBBLOCK   Units(2, (1, 2), (1, 1))               2

The last is the p^(2d-2) value pairs of one coarse cell of axes (1, 2).
scale is the sum of the families' universes, and a follows from the
paper's equal-rate result: a cell of a t-axis projection lies in the
same share n^(1-t) of Latin and of orthogonal trials, so a = b / n^(t-1),
an exact division. Coverage is always reported against scale, so it
lies in [0, 1]; the laws module's rates (kind_axes) need no factorial.

miss_ratio returns both k-term products as the unreduced pair, and the
rational payloads reduce it once, with one gcd.

The bracket in the laws module prints only the float of P(k), and
coverage_float gives it without either product. It carries a floor and
a ceiling of 2^P * r, r = miss/den, through the k steps, each one small
multiply and one division by b + i, and converts both bounds of 1 - r
by integer true division, which is correctly rounded. Rounding is
monotone, so when the two floats are equal that float is the correctly
rounded P(k): the float() of the reduced Fraction, which CPython also
takes by integer true division. P = INTERVAL_BITS + bits(k) + bits(b//a)
covers the k roundings and the cancellation in 1 - r >= a/b. Bounds
that straddle a rounding boundary double P; a P(k) at or next to a
midpoint of two floats uses up INTERVAL_TRIES, and the products decide.

One guard bounds every integer here: the factorials of kind_params by
d*n*log2(n) bits, and the two q-term rising products by about
q*bits(b), their size, both at BIGINT_GUARD_BITS. A product above it is
refused before any multiplication, naming the largest q that fits;
check_terms refuses a whole list of q that way. coverage_float builds
both products only when its INTERVAL_TRIES fail, yet it calls
check_terms first, as its callers do: a k whose products would pass
the guard is refused even where the interval settles without them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .design import DesignSpec, Units, band_width
from .errors import GuardExceededError, StructuralError

# Refuse exact work whose integers would exceed this many bits. Near the
# bound (lhs d=2 n=1000 k=117, 998,010 bits) `exact --format rational`
# took 1.5-1.7 s in a whole process, which builds both products (0.2 s),
# takes the gcd (1.05 s) and prints both integers (0.2 s), and as long
# with the decimal column (2-vCPU VM, Python 3.11.7); `law --model
# bracket` took 0.08 s, since its interval rounding settles before the
# products it would fall back to, which the guard bounds.
BIGINT_GUARD_BITS = 1_000_000

# Working bits of coverage_float's first try, past bits(k) + bits(b//a),
# and its tries, each at twice the bits, before it builds the products.
INTERVAL_BITS = 80
INTERVAL_TRIES = 3

# Term cap of both rising products; beyond it the closed-form laws apply.
DEFAULT_COVERAGE_CAP = 512


class IntersectionKind(str, Enum):
    LHS_TUPLE = "lhs"
    OS_TUPLE = "os"
    LH_EDGE_ALL = "edge"
    LH_EDGE_SUBBLOCK = "edge-subblock"


@dataclass(frozen=True)
class KindParams:
    a: int  # trials containing a fixed unit
    b: int  # total trials
    scale: int  # number of units


def _check_bigint_guard(spec: DesignSpec) -> None:
    bits = math.ceil(spec.d * spec.n * math.log2(max(spec.n, 2)))
    if bits > BIGINT_GUARD_BITS:
        raise GuardExceededError(
            f"factorial work near {bits} bits exceeds guard of {BIGINT_GUARD_BITS}"
        )


def _families(kind: IntersectionKind, spec: DesignSpec) -> tuple[Units, ...]:
    """The unit families the kind counts; the kinds on sub-blocks need p."""
    if kind is IntersectionKind.LH_EDGE_ALL:
        return tuple(Units(2, pair) for pair in itertools.combinations(range(1, spec.d + 1), 2))
    if kind is not IntersectionKind.LHS_TUPLE:
        spec.require_p()
    return (Units(2, (1, 2), (1, 1)),) if kind is IntersectionKind.LH_EDGE_SUBBLOCK else (Units(),)


def kind_params(kind: IntersectionKind, spec: DesignSpec) -> KindParams:
    """(a, b, scale) for the kind, by the module docstring's rule."""
    _check_bigint_guard(spec)
    families = _families(kind, spec)
    if kind is IntersectionKind.OS_TUPLE:
        b = math.factorial(band_width(spec.p, spec.d)) ** (spec.d * spec.p)
    else:
        b = math.factorial(spec.n) ** (spec.d - 1)
    t = len(families[0].axes(spec))
    return KindParams(a=b // spec.n ** (t - 1), b=b, scale=sum(u.universe(spec) for u in families))


def kind_axes(kind: IntersectionKind, spec: DesignSpec) -> int:
    """Axes t of the kind's units (d for cells, 2 for pairs): a/b = n^(1-t)."""
    return len(_families(kind, spec)[0].axes(spec))


def _rising_product(lo: int, m: int) -> int:
    """prod_{i=0}^{m-1} (lo + i). math.perm splits the product into
    balanced halves; it refuses perm(-1, 0), which lo = 0 (a = b) asks."""
    return math.perm(lo + m - 1, m) if m else 1


def check_terms(
    name: str, qs: Iterable[int], least: int, kind: IntersectionKind, spec: DesignSpec
) -> KindParams | None:
    """The kind's params for two q-term rising products at every q of qs
    (None when qs is empty). Refuse the first q outside [least, cap], or
    whose products exceed the bigint guard, before any multiplication."""
    kp = None
    for q in qs:
        if q < least:
            raise StructuralError(f"{name} must be >= {least}, got {q}")
        if q > DEFAULT_COVERAGE_CAP:
            advice = "; use the closed-form coverage laws for large k" if name == "k" else ""
            raise GuardExceededError(f"{name}={q} exceeds cap {DEFAULT_COVERAGE_CAP}{advice}")
        kp = kp or kind_params(kind, spec)
        bits = kp.b.bit_length()
        if q * bits > BIGINT_GUARD_BITS:
            raise GuardExceededError(
                f"{name}={q} needs rising products near {q * bits} bits, above the guard "
                f"of {BIGINT_GUARD_BITS}; {name}={BIGINT_GUARD_BITS // bits} is the largest that fits"
            )
    return kp


def miss_ratio(kind: IntersectionKind, spec: DesignSpec, k: int) -> tuple[int, int]:
    """Unreduced (miss, den): a uniform k-multiset of trials misses a unit
    with probability miss/den = prod_{i=0}^{k-1} (b-a+i)/(b+i)."""
    kp = check_terms("k", (k,), 0, kind, spec)
    return _rising_product(kp.b - kp.a, k), _rising_product(kp.b, k)


def expected_intersection(kind: IntersectionKind, spec: DesignSpec, m: int) -> Fraction:
    """Expected number of units common to an m-multiset of trials; m above
    the cap or the bigint guard is refused."""
    kp = check_terms("m", (m,), 1, kind, spec)
    return kp.scale * Fraction(_rising_product(kp.a, m), _rising_product(kp.b, m))


def expected_coverage_multiset(kind: IntersectionKind, spec: DesignSpec, k: int) -> Fraction:
    """Expected fraction of units covered by at least one of k pooled trials.

    Exact for a uniform k-multiset of trials. k above the cap or the
    bigint guard is refused; use the closed-form laws module for large k.
    """
    return 1 - Fraction(*miss_ratio(kind, spec, k))


def coverage_float(kind: IntersectionKind, spec: DesignSpec, k: int) -> float:
    """The correctly rounded float of expected_coverage_multiset, equal to
    (den - miss) / den of miss_ratio, by interval rounding (docstring)."""
    kp = check_terms("k", (k,), 0, kind, spec)
    bits = INTERVAL_BITS + k.bit_length() + (kp.b // kp.a).bit_length()
    for _ in range(INTERVAL_TRIES):
        one = lo = hi = 1 << bits
        for i in range(k):
            lo = lo * (kp.b - kp.a + i) // (kp.b + i)
            hi = -(-hi * (kp.b - kp.a + i) // (kp.b + i))
        if (one - hi) / one == (one - lo) / one:
            return (one - lo) / one
        bits *= 2
    miss, den = miss_ratio(kind, spec, k)
    return (den - miss) / den
