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
scale, so it lies in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .design import DesignSpec
from .errors import CapExceededError, GuardExceededError, StructuralError

# Refuse factorial work whose operands would exceed this many bits.
BIGINT_GUARD_BITS = 1_000_000

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


def _rising_ratio(top: int, bottom: int, m: int) -> Fraction:
    """prod_{i=0}^{m-1} (top+i)/(bottom+i), reduced once at the end."""
    num = den = 1
    for i in range(m):
        num *= top + i
        den *= bottom + i
    return Fraction(num, den)


def _check_terms(name: str, q: int, least: int) -> None:
    """Both rising products take q terms; refuse q outside [least, cap]."""
    if q < least:
        raise StructuralError(f"{name} must be >= {least}, got {q}")
    if q > DEFAULT_COVERAGE_CAP:
        advice = "; use the closed-form coverage laws for large k" if name == "k" else ""
        raise CapExceededError(f"{name}={q} exceeds cap {DEFAULT_COVERAGE_CAP}{advice}")


def expected_intersection(kind: IntersectionKind, spec: DesignSpec, m: int) -> Fraction:
    """Expected number of units common to an m-multiset of trials; m above
    the cap is refused."""
    _check_terms("m", m, 1)
    kp = kind_params(kind, spec)
    return kp.scale * _rising_ratio(kp.a, kp.b, m)


def expected_coverage_multiset(kind: IntersectionKind, spec: DesignSpec, k: int) -> Fraction:
    """Expected fraction of units covered by at least one of k pooled trials.

    Exact for a uniform k-multiset of trials. k above the cap is refused;
    use the closed-form laws module for large k.
    """
    _check_terms("k", k, 0)
    kp = kind_params(kind, spec)
    return 1 - _rising_ratio(kp.b - kp.a, kp.b, k)
