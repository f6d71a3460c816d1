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

Parameter table (n levels, d axes, coarse base p where n = p^d):

    kind               a                                b              scale
    LHS_TUPLE          (n-1)!^(d-1)                     n!^(d-1)       n^d
    OS_TUPLE           p^(d(d-1)(p-1)) (p^(d-1)-1)!^(dp) (p^(d-1))!^(dp) p^(d^2)
    LH_EDGE_ALL        (n-1)!^(d-1) n^(d-2)             n!^(d-1)       n^2 C(d,2)
    LH_EDGE_SUBBLOCK   (p^d-1)!^(d-1) p^(d^2-2d)        (p^d)!^(d-1)   p^(2d-2)

For the tuple kinds, a is the number of trials containing a fixed grid
cell and scale the number of cells. For the edge kinds, units are value
pairs on axis pairs: a is the number of Latin trials containing a fixed
pair (equal to (n-1)! n!^(d-2)), and scale counts the pairs in play:
all n^2 C(d,2) of them, or the p^(2d-2) pairs of a single coarse cell
of one axis pair's quotient grid. Coverage is always reported against
scale, so it lies in [0, 1]. Every a/b reduces to n^(1-t), t the
units' axes (kind_axes); the laws module's rates need no factorial.

Both k-term products are built as balanced product trees: runs of
PRODUCT_LEAF_TERMS factors are multiplied one by one, and halves of
about equal size meet in each multiplication above them, which costs
far less than growing one operand a term at a time. They are the same
integers either way. miss_ratio returns the unreduced pair, and the
rational payloads reduce it once, with one gcd. The bracket in the laws
module reads its float from the unreduced quotient (den - miss) / den
and skips that gcd. The float is bit-identical to float() of the
reduced Fraction: CPython converts a Fraction by integer true division
of its numerator and denominator, and that division is correctly
rounded, so every pair with the same ratio gives the same float.

One guard bounds every integer here: the factorials of kind_params by
d*n*log2(n) bits, and the two q-term rising products by about
q*bits(b), their size, both at BIGINT_GUARD_BITS. A product above it is
refused before any multiplication, naming the largest q that fits;
check_terms refuses a whole list of q that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .design import DesignSpec
from .errors import CapExceededError, GuardExceededError, StructuralError

# Refuse exact work whose integers would exceed this many bits. Near the
# bound (lhs d=2 n=1000 k=117, 998,010 bits) the CLI took 0.75 s for
# `law --model bracket`, which multiplies only, and 6.1 s for `exact
# --format rational`, which also takes the gcd and prints both integers;
# 10.4 s with the decimal column (2-vCPU Xeon VM, Python 3.11).
BIGINT_GUARD_BITS = 1_000_000

# Factors multiplied one by one at the leaves of a product tree.
PRODUCT_LEAF_TERMS = 16

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


def kind_params(kind: IntersectionKind, spec: DesignSpec) -> KindParams:
    """(a, b, scale) for the kind; see the module docstring table."""
    _check_bigint_guard(spec)
    n, d = spec.n, spec.d
    if kind is IntersectionKind.LHS_TUPLE:
        return KindParams(
            a=math.factorial(n - 1) ** (d - 1),
            b=math.factorial(n) ** (d - 1),
            scale=n**d,
        )
    if kind is IntersectionKind.OS_TUPLE:
        p = spec.require_p()
        w = p ** (d - 1)
        return KindParams(
            a=p ** (d * (d - 1) * (p - 1)) * math.factorial(w - 1) ** (d * p),
            b=math.factorial(w) ** (d * p),
            scale=p ** (d * d),
        )
    if kind is IntersectionKind.LH_EDGE_ALL:
        return KindParams(
            a=math.factorial(n - 1) ** (d - 1) * n ** (d - 2),
            b=math.factorial(n) ** (d - 1),
            scale=n * n * math.comb(d, 2),
        )
    if kind is IntersectionKind.LH_EDGE_SUBBLOCK:
        p = spec.require_p()
        return KindParams(
            a=math.factorial(p**d - 1) ** (d - 1) * p ** (d * d - 2 * d),
            b=math.factorial(p**d) ** (d - 1),
            scale=p ** (2 * d - 2),
        )
    raise StructuralError(f"unknown kind {kind!r}")


def kind_axes(kind: IntersectionKind, spec: DesignSpec) -> int:
    """Axes t of the kind's units (d for cells, 2 for pairs): a/b = n^(1-t)."""
    if kind in (IntersectionKind.OS_TUPLE, IntersectionKind.LH_EDGE_SUBBLOCK):
        spec.require_p()
    return spec.d if kind in (IntersectionKind.LHS_TUPLE, IntersectionKind.OS_TUPLE) else 2


def _rising_product(lo: int, m: int) -> int:
    """prod_{i=0}^{m-1} (lo + i), as a balanced product tree."""
    if m <= PRODUCT_LEAF_TERMS:
        out = 1
        for i in range(m):
            out *= lo + i
        return out
    half = m // 2
    return _rising_product(lo, half) * _rising_product(lo + half, m - half)


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
            raise CapExceededError(f"{name}={q} exceeds cap {DEFAULT_COVERAGE_CAP}{advice}")
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
