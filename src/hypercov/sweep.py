"""Threshold sweeps: smallest trial count k* reaching a coverage level,
swept over n, with a log-log slope fit.

Closed-form mode inverts 1 - (1 - 1/base)^k >= level, base = n^(t-1),
then verifies the boundary pair (k*-1 fails, k* meets) without float
trust: exactly with Fractions while the bit cost stays small, otherwise
with stdlib decimal logarithms. Those carry 60 + digits(base) + digits(k)
significant digits: ln(1 - 1/base) loses digits(base) of them to
cancellation, and k * ln(1 - 1/base) must be told apart from its
neighbours at k - 1 and k + 1. The start of the boundary walk takes
digits(base) + 2 in place of digits(k), since k* <= 37 * base + 1 for
any float level below 1 (-ln(1 - level) <= 53 ln 2).

Simulated mode estimates the mean coverage curve over replicates
(nested trial prefixes, so one pass yields every k) and takes the first
crossing; the curve length grows exponentially until it brackets the
level. level = 1.0 is the coupon-collector regime: each replicate runs
until its t-axis projection is fully covered and k* is the mean
stopping count, a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import rng
from .design import DesignSpec, Units
from .errors import GuardExceededError, InvalidModeError, StructuralError
from .sampling import SampleKind, replicate_seed
from .simulate import coverage_curve

EXACT_VERIFY_BITS = 200_000
SIM_K_GUARD = 1_000_000


class SweepMode(str, Enum):
    CLOSED_FORM = "closed-form"
    SIMULATED = "simulated"


def _crossing(base: int, level: float, k: int) -> Decimal:
    """ln(1 - level) / ln(1 - 1/base): the real k at which
    1 - (1 - 1/base)^k equals level, accurate enough to compare with any
    trial count of at most as many digits as k."""
    with localcontext() as ctx:
        ctx.prec = 60 + Decimal(base).adjusted() + Decimal(k).adjusted() + 2
        return (1 - Decimal(level)).ln() / (Decimal(base - 1) / base).ln()


def _meets_level(n: int, t: int, k: int, level: float) -> bool:
    """Does 1 - (1 - n^-(t-1))^k reach level? Exact or high-precision."""
    if k <= 0:
        return False
    if t == 1:
        return True  # lambda = 1, one trial covers everything
    base = n ** (t - 1)
    bits = k * (t - 1) * math.log2(n)
    if bits <= EXACT_VERIFY_BITS:
        return Fraction(base - 1, base) ** k <= 1 - Fraction(level)
    return k >= _crossing(base, level, k)


def closed_form_k(n: int, t: int, level: float) -> int:
    """Smallest k with 1 - (1 - n^-(t-1))^k >= level."""
    if not (0.0 < level < 1.0):
        raise InvalidModeError(f"closed form needs level in (0, 1), got {level}")
    if n < 2:
        raise StructuralError(f"n must be >= 2, got {n}")
    if t < 1:
        raise StructuralError(f"t must be >= 1, got {t}")
    if t == 1:
        return 1
    base = n ** (t - 1)
    # A float start is off by more than the walk once k* passes 2^53;
    # 100 * base has digits(base) + 2 digits and exceeds every k*.
    k = max(1, math.ceil(_crossing(base, level, 100 * base)))
    for _ in range(10_000):
        if not _meets_level(n, t, k, level):
            k += 1
        elif _meets_level(n, t, k - 1, level):
            k -= 1
        else:
            return k
    raise GuardExceededError("closed-form boundary walk did not settle")


def _mean_curve(
    spec: DesignSpec, kind: SampleKind, t: int, k: int, reps: int, seed: int
) -> np.ndarray:
    total = np.zeros(k, dtype=np.int64)
    target = Units(t)
    for r in range(1, reps + 1):
        total += coverage_curve(spec, kind, replicate_seed(seed, r), k, target)
    return total / (reps * target.universe(spec))


def _first_k(curve_at: Callable[[int], np.ndarray], goal: float, k: int, what: str) -> int:
    """First 1-based k at which curve_at(k) reaches goal, doubling the
    curve length k until it does; refused past SIM_K_GUARD."""
    while True:
        hit = np.nonzero(curve_at(k) >= goal)[0]
        if hit.size:
            return int(hit[0]) + 1
        k *= 2
        if k > SIM_K_GUARD:
            raise GuardExceededError(f"{what} passed guard {SIM_K_GUARD}")


def simulated_k(
    spec: DesignSpec,
    kind: SampleKind,
    t: int,
    level: float,
    reps: int,
    seed: int,
) -> int:
    """Smallest k whose mean simulated coverage over reps reaches level."""
    if not (0.0 < level < 1.0):
        raise InvalidModeError(f"threshold search needs level in (0, 1), got {level}")
    return _first_k(
        lambda k: _mean_curve(spec, kind, t, k, reps, seed),
        level,
        max(4, 2 * closed_form_k(spec.n, t, level)),
        "k search",
    )


def full_coverage_k(
    spec: DesignSpec,
    kind: SampleKind,
    t: int,
    reps: int,
    seed: int,
) -> float:
    """Mean number of trials until the t-axis projection is fully covered."""
    target = Units(t)
    universe = target.universe(spec)
    # coupon-collector scale estimate; doubled on demand per replicate
    start = max(8, int(2 * universe * (math.log(universe) + 1) / spec.n) + 4)
    stops = [
        _first_k(
            lambda k: coverage_curve(spec, kind, replicate_seed(seed, r), k, target),
            universe,
            start,
            "full coverage",
        )
        for r in range(1, reps + 1)
    ]
    return math.fsum(stops) / len(stops)


def _check_cell(level: float, mode: SweepMode, reps: int) -> None:
    """Refuse a level or replicate count that no sweep cell can use."""
    if not (0.0 < level <= 1.0):  # also refuses nan
        raise StructuralError(f"level must be in (0, 1], got {level}")
    if mode is SweepMode.SIMULATED and reps < 1:
        raise StructuralError(f"reps must be >= 1, got {reps}")


def find_k_for_target(
    spec: DesignSpec,
    kind: SampleKind,
    t: int,
    level: float,
    mode: SweepMode,
    reps: int = 400,
    seed: int = 0,
) -> int | float:
    """k* for one (spec, t, level) cell. Full coverage (level = 1.0) is
    simulation-only and returns the mean stopping count as a float."""
    Units(t).validate_for(spec)
    _check_cell(level, mode, reps)
    if level == 1.0:
        if mode is SweepMode.CLOSED_FORM:
            raise InvalidModeError("full coverage has no closed form; use simulated mode")
        return full_coverage_k(spec, kind, t, reps, seed)
    if mode is SweepMode.CLOSED_FORM:
        return closed_form_k(spec.n, t, level)
    return simulated_k(spec, kind, t, level, reps, seed)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float  # L2 norm of log10 residuals


def _check_grid(n_grid: Sequence[int]) -> None:
    if len(n_grid) < 3:
        raise StructuralError(f"need >= 3 grid points, got {len(n_grid)}")
    if len(set(n_grid)) < 2:
        raise StructuralError("all grid points share one n; slope undefined")


def fit_slope(rows: Sequence[tuple[int, float]]) -> FitResult:
    """Least squares fit of log10(k*) against log10(n)."""
    _check_grid([n for n, _ in rows])
    xs = [math.log10(n) for n, _ in rows]
    ys = [math.log10(ks) for _, ks in rows]
    xm = math.fsum(xs) / len(xs)
    ym = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - xm) ** 2 for x in xs)
    sxy = math.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ym - slope * xm
    residual = math.sqrt(
        math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    )
    return FitResult(slope, intercept, residual)


@dataclass(frozen=True)
class SweepResult:
    level: float
    t: int
    d: int
    kind: SampleKind
    mode: SweepMode
    rows: tuple[tuple[int, float], ...]  # (n, k_star)
    slope: float
    intercept: float
    residual: float


def _cell_seed(seed: int, t: int, n: int, level: float) -> int:
    return rng.fold(seed, t, n, round(level * 10**9))


def _spec_for(d: int, n: int, kind: SampleKind) -> DesignSpec:
    if kind is SampleKind.OS:
        p = round(n ** (1.0 / d))
        for cand in (p - 1, p, p + 1):
            if cand >= 1 and cand**d == n:
                return DesignSpec(d, n, cand)
        raise StructuralError(f"orthogonal sweep needs n = p**d, got n={n}, d={d}")
    return DesignSpec(d, n)


def run_sweep(
    d: int,
    t: int,
    kind: SampleKind,
    levels: Sequence[float],
    n_grid: Sequence[int],
    mode: SweepMode,
    reps: int = 400,
    seed: int = 0,
) -> list[SweepResult]:
    """One SweepResult per level, over the same n grid."""
    for level in levels:
        _check_cell(level, mode, reps)  # before any cell seed rounds the level
    _check_grid(n_grid)
    specs = [_spec_for(d, n, kind) for n in n_grid]
    results = []
    for level in levels:
        rows = []
        for n, spec in zip(n_grid, specs):
            ks = find_k_for_target(
                spec, kind, t, level, mode, reps=reps, seed=_cell_seed(seed, t, n, level)
            )
            rows.append((n, float(ks) if isinstance(ks, float) else ks))
        fit = fit_slope(rows)
        results.append(
            SweepResult(
                level=level,
                t=t,
                d=d,
                kind=kind,
                mode=mode,
                rows=tuple(rows),
                slope=fit.slope,
                intercept=fit.intercept,
                residual=fit.residual,
            )
        )
    return results
