"""Closed-form coverage laws and the error bounds that bracket them.

All laws are functions of the per-unit hit rate lambda = a/b and the
pooled trial count k:

    IID_EXACT       1 - (1 - lambda)^k     exact for k i.i.d. trials (the
                                           simulator's model), by linearity
    ASYMPTOTIC_EXP  1 - exp(-k lambda)     large-n limit law
    CONJECTURE_T    1 - (1 - n^-(t-1))^k   t-axis projections, 2 <= t <= d;
                                           proved for t = 2 and t = d,
                                           conjectured in between

(1 - lambda)^k is evaluated as exp(k * log1p(-lambda)) to keep
precision at tiny lambda.

The exact module's coverage is for a uniform multiset of k trials, which
weights a pool with repeated trials as much as one without, so it
differs from IID_EXACT. Writing P_multiset = 1 - exp(-k lambda)
+ E1 + E2 splits the discrepancy into a combinatorial remainder E1,
bounded by exp(k lambda) k(k-1)/a whenever k(k-1) <= a, and the
Poissonization gap E2 = exp(-k lambda) - (1-lambda)^k, bounded by
exp(-k lambda) k lambda^2. When the validity flag holds,

    |P_multiset - (1 - exp(-k lambda))| <= e1_bound + e2_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .design import DesignSpec
from .errors import StructuralError
from .exact import (
    DEFAULT_COVERAGE_CAP,
    IntersectionKind,
    expected_coverage_multiset,
    kind_params,
)


class LawModel(str, Enum):
    IID_EXACT = "iid"
    ASYMPTOTIC_EXP = "asymptotic"
    CONJECTURE_T = "conjecture"


@dataclass(frozen=True)
class CoverageLaw:
    model: LawModel
    lam: float
    k: int
    t: int | None = None  # projection width, CONJECTURE_T only

    def __post_init__(self) -> None:
        if not (0.0 < self.lam <= 1.0):
            raise StructuralError(f"lambda must be in (0, 1], got {self.lam}")
        if self.k < 0:
            raise StructuralError(f"k must be >= 0, got {self.k}")
        if self.model is LawModel.CONJECTURE_T:
            if self.t is None or self.t < 2:
                raise StructuralError("CONJECTURE_T needs t >= 2")


def lambda_fraction(kind: IntersectionKind, spec: DesignSpec) -> Fraction:
    """Exact per-unit hit rate a/b for the kind."""
    kp = kind_params(kind, spec)
    return Fraction(kp.a, kp.b)


def lambda_for(kind: IntersectionKind, spec: DesignSpec) -> float:
    return float(lambda_fraction(kind, spec))


def iid_law(lam: float, k: int) -> CoverageLaw:
    return CoverageLaw(LawModel.IID_EXACT, lam, k)


def asymptotic_law(lam: float, k: int) -> CoverageLaw:
    return CoverageLaw(LawModel.ASYMPTOTIC_EXP, lam, k)


def conjecture_law(n: int, t: int, k: int, d: int | None = None) -> CoverageLaw:
    """Projection-coverage conjecture at width t: lambda = n^-(t-1)."""
    if d is not None and not (2 <= t <= d):
        raise StructuralError(f"t must be in [2, {d}], got {t}")
    if t < 2:
        raise StructuralError(f"t must be >= 2, got {t}")
    if n < 2:
        raise StructuralError(f"n must be >= 2, got {n}")
    return CoverageLaw(LawModel.CONJECTURE_T, float(n) ** (1 - t), k, t=t)


def coverage_closed_form(law: CoverageLaw) -> float:
    """Evaluate the law; exact 0.0 at k = 0."""
    if law.k == 0:
        return 0.0
    if law.model is LawModel.ASYMPTOTIC_EXP:
        return -math.expm1(-law.k * law.lam)
    if law.lam >= 1.0:
        return 1.0
    return -math.expm1(law.k * math.log1p(-law.lam))


@dataclass(frozen=True)
class ErrorBounds:
    e1_bound: float
    e2_bound: float
    a: int
    valid: bool  # k(k-1) <= a, the hypothesis behind e1_bound


def error_bounds(kind: IntersectionKind, spec: DesignSpec, k: int) -> ErrorBounds:
    if k < 0:
        raise StructuralError(f"k must be >= 0, got {k}")
    kp = kind_params(kind, spec)
    lam = Fraction(kp.a, kp.b)
    klam = float(k * lam)
    e1 = math.exp(klam) * float(Fraction(k * (k - 1), kp.a))
    e2 = math.exp(-klam) * k * float(lam * lam)
    return ErrorBounds(e1_bound=e1, e2_bound=e2, a=kp.a, valid=k * (k - 1) <= kp.a)


@dataclass(frozen=True)
class BracketReport:
    kind: IntersectionKind
    d: int
    n: int
    k: int
    lam: float
    p_multiset: float
    p_iid: float
    p_asym: float
    e1_bound: float
    e2_bound: float
    valid: bool
    within_bounds: bool | None  # None when the validity flag is off


def bracket_exact_vs_asymptotic(
    kind: IntersectionKind, spec: DesignSpec, k: int, cap: int = DEFAULT_COVERAGE_CAP
) -> BracketReport:
    """Exact multiset coverage next to both closed forms, with bounds.

    When the validity flag holds, |p_multiset - p_asym| is guaranteed to
    sit inside e1_bound + e2_bound; within_bounds records the check.
    """
    lam = lambda_for(kind, spec)
    p_multiset = float(expected_coverage_multiset(kind, spec, k, cap=cap))
    p_iid = coverage_closed_form(iid_law(lam, k)) if k > 0 else 0.0
    p_asym = coverage_closed_form(asymptotic_law(lam, k)) if k > 0 else 0.0
    eb = error_bounds(kind, spec, k)
    within = None
    if eb.valid:
        within = abs(p_multiset - p_asym) <= eb.e1_bound + eb.e2_bound
    return BracketReport(
        kind=kind,
        d=spec.d,
        n=spec.n,
        k=k,
        lam=lam,
        p_multiset=p_multiset,
        p_iid=p_iid,
        p_asym=p_asym,
        e1_bound=eb.e1_bound,
        e2_bound=eb.e2_bound,
        valid=eb.valid,
        within_bounds=within,
    )
