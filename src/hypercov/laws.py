"""Closed-form coverage laws and the error bounds that bracket them.

Both laws are plain functions of the per-unit hit rate lambda = a/b and
the pooled trial count k:

    iid_coverage(lam, k)         1 - (1 - lambda)^k   exact for k i.i.d. trials
                                                      (the simulator's model),
                                                      by linearity
    asymptotic_coverage(lam, k)  1 - exp(-k lambda)   large-n limit law

A cell of a t-axis projection lies in a fraction n^(1-t) of the trials,
since each trial has one row per axis-1 value and that row's other
coordinates are uniform; projection_lambda(n, t) is that rate, and every
hit rate here, lambda_for's at the kind's t (exact.kind_axes) too. The
paper's projection law (the CLI's `conjecture` model, a name kept so
payloads and config hashes stay put) is iid_coverage at it, so it is
exact for k i.i.d. trials at every t, by linearity, once the rate holds.
The oracle confirms the rate by enumeration for Latin trials; for
orthogonal trials with d >= 3 it rests on the sub-block argument and
simulation, since those ensembles are too large to enumerate.

(1 - lambda)^k is evaluated as exp(k * log1p(-lambda)) to keep
precision at tiny lambda.

The exact module's coverage is for a uniform multiset of k trials, which
weights a pool with repeated trials as much as one without, so it
differs from iid_coverage. Writing P_multiset = 1 - exp(-k lambda)
+ E1 + E2 splits the discrepancy into a combinatorial remainder E1,
bounded by exp(k lambda) k(k-1)/a whenever k(k-1) <= a, and the
Poissonization gap E2 = exp(-k lambda) - (1-lambda)^k, bounded by
exp(-k lambda) k lambda^2. When the validity flag holds,

    |P_multiset - (1 - exp(-k lambda))| <= e1_bound + e2_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .design import DesignSpec
from .errors import StructuralError
from .exact import IntersectionKind, coverage_float, kind_axes, kind_params


def lambda_for(kind: IntersectionKind, spec: DesignSpec) -> float:
    """The kind's per-unit hit rate a/b = n^(1-t), t its units' axes,
    as a float, without kind_params' factorials."""
    return projection_lambda(spec.n, kind_axes(kind, spec))


def projection_lambda(n: int, t: int, d: int | None = None) -> float:
    """Per-cell hit rate of one trial on a t-axis projection: n^(1-t),
    the correctly rounded double of the rational 1/n^(t-1)."""
    if t < 1:
        raise StructuralError(f"t must be >= 1, got {t}")
    if d is not None and t > d:
        raise StructuralError(f"t must be in [1, {d}], got {t}")
    try:
        float(n)
    except OverflowError:
        raise StructuralError(f"n must fit a float, got a {n.bit_length()}-bit n") from None
    # n^(t-1) >= 2^1075 rounds to 0.0, half the least subnormal or below.
    if (n.bit_length() - 1) * (t - 1) >= 1075:
        return 0.0
    return float(Fraction(1, n ** (t - 1)))


def _check_law(lam: float, k: int) -> None:
    if not (0.0 < lam <= 1.0):
        raise StructuralError(f"lambda must be in (0, 1], got {lam}")
    if k < 0:
        raise StructuralError(f"k must be >= 0, got {k}")
    try:
        float(k)
    except OverflowError:
        raise StructuralError(f"k must fit a float, got a {k.bit_length()}-bit k") from None


def iid_coverage(lam: float, k: int) -> float:
    """1 - (1 - lam)^k, exact for k i.i.d. trials; exact 0.0 at k = 0."""
    _check_law(lam, k)
    if k == 0:
        return 0.0
    if lam >= 1.0:
        return 1.0
    return -math.expm1(k * math.log1p(-lam))


def asymptotic_coverage(lam: float, k: int) -> float:
    """1 - exp(-k lam), the large-n limit; exact 0.0 at k = 0."""
    _check_law(lam, k)
    if k == 0:
        return 0.0
    return -math.expm1(-k * lam)


@dataclass(frozen=True)
class ErrorBounds:
    e1_bound: float
    e2_bound: float
    valid: bool  # k(k-1) <= a, the hypothesis behind e1_bound


def error_bounds(kind: IntersectionKind, spec: DesignSpec, k: int) -> ErrorBounds:
    if k < 0:
        raise StructuralError(f"k must be >= 0, got {k}")
    kp = kind_params(kind, spec)
    lam = Fraction(kp.a, kp.b)
    klam = float(k * lam)
    e1 = math.exp(klam) * float(Fraction(k * (k - 1), kp.a))
    e2 = math.exp(-klam) * k * float(lam * lam)
    return ErrorBounds(e1_bound=e1, e2_bound=e2, valid=k * (k - 1) <= kp.a)


@dataclass(frozen=True)
class BracketReport:
    lam: float
    p_multiset: float
    p_iid: float
    p_asym: float
    e1_bound: float
    e2_bound: float
    valid: bool


def bracket_exact_vs_asymptotic(
    kind: IntersectionKind, spec: DesignSpec, k: int
) -> BracketReport:
    """Exact multiset coverage next to both closed forms, with bounds.

    When the validity flag holds, |p_multiset - p_asym| is guaranteed to
    sit inside e1_bound + e2_bound.
    """
    lam = lambda_for(kind, spec)
    # The float of the reduced Fraction, mostly without its products (exact module).
    p_multiset = coverage_float(kind, spec, k)
    p_iid = iid_coverage(lam, k)
    p_asym = asymptotic_coverage(lam, k)
    eb = error_bounds(kind, spec, k)
    return BracketReport(
        lam=lam,
        p_multiset=p_multiset,
        p_iid=p_iid,
        p_asym=p_asym,
        e1_bound=eb.e1_bound,
        e2_bound=eb.e2_bound,
        valid=eb.valid,
    )
