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
crossing. The simulator draws k i.i.d. trials, the model the closed form
is exact for, so the curve starts at closed-form k* plus max(4, k*/16)
and doubles only if the mean has not crossed by then. level = 1.0 is the
coupon-collector regime: each replicate runs until its t-axis projection
is fully covered and k* is the mean stopping count, a float. A replicate
is extended in chunks, never redrawn: the first is the coupon-collector
mean U (ln U + gamma) / n for a universe of U cells, each later one a
fifth of it, and a bool map of the U cells carries the covered keys from
chunk to chunk. simulate.replicate_batches draws a cell's curves, or
each chunk of a group's replicates still running, in SimPlan.batch
groups, and one simulate.coverage_curve call counts a batch's curves.
Trial i of replicate r is fold(fold(seed, r), i) whatever the batching
and chunking, so k* does not depend on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from . import lazy
from .design import MAX_D, MAX_N, DesignSpec, SampleKind, SweepMode, Units
from .errors import GuardExceededError, StructuralError

# Only simulated cells use these; a closed-form sweep never imports numpy.
rng = lazy("rng")
simulate = lazy("simulate")

EXACT_VERIFY_BITS = 200_000
SIM_K_GUARD = 1_000_000
EULER_GAMMA = 0.5772156649015329


def _crossing(base: int, level: float, k: int) -> Decimal:
    """ln(1 - level) / ln(1 - 1/base): the real k at which
    1 - (1 - 1/base)^k equals level, accurate enough to compare with any
    trial count of at most as many digits as k."""
    with localcontext() as ctx:
        ctx.prec = 60 + Decimal(base).adjusted() + Decimal(k).adjusted() + 2
        return (1 - Decimal(level)).ln() / (Decimal(base - 1) / base).ln()


def _meets_level(n: int, t: int, k: int, level: float) -> bool:
    """Does 1 - (1 - n^-(t-1))^k reach level, t >= 2? Exact or high-precision."""
    if k <= 0:
        return False
    base = n ** (t - 1)
    bits = k * (t - 1) * math.log2(n)
    if bits <= EXACT_VERIFY_BITS:
        return Fraction(base - 1, base) ** k <= 1 - Fraction(level)
    return k >= _crossing(base, level, k)


def closed_form_k(n: int, t: int, level: float) -> int:
    """Smallest k with 1 - (1 - n^-(t-1))^k >= level."""
    if not (0.0 < level < 1.0):
        raise StructuralError(f"closed form needs level in (0, 1), got {level}")
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


def _first_draw(spec: DesignSpec, kind: SampleKind, t: int, level: float, reps: int) -> int:
    """Trials in a simulated cell's first curve (per replicate), after
    SimPlan's guards accept reps of them: closed-form k* plus a margin
    below full coverage, the coupon-collector mean at level 1.0."""
    target = Units(t)
    target.validate_for(spec)
    if level < 1.0:
        cf = closed_form_k(spec.n, t, level)
        start = cf + max(4, cf // 16)
    else:
        universe = target.universe(spec)
        # Exact arithmetic: a refused universe may pass any float's range.
        start = math.ceil(Fraction(universe, spec.n) * Fraction(math.log(universe) + EULER_GAMMA))
    simulate.SimPlan(spec, kind, start, reps, targets=(target,))
    if level == 1.0 and start > SIM_K_GUARD:
        raise GuardExceededError(
            f"full coverage takes about {start} trials, past guard {SIM_K_GUARD}"
        )
    return start


def simulated_k(spec: DesignSpec, kind: SampleKind, t: int, level: float, reps: int, seed: int) -> int:
    """Smallest k whose mean simulated coverage over reps reaches level.
    The curve length doubles until the mean crosses; refused past
    SIM_K_GUARD."""
    import numpy as np

    if not (0.0 < level < 1.0):
        raise StructuralError(f"threshold search needs level in (0, 1), got {level}")
    k, target = _first_draw(spec, kind, t, level, reps), Units(t)
    while True:
        plan = simulate.SimPlan(spec, kind, k, reps, targets=(target,), seed=seed)
        total = np.zeros(k, dtype=np.int64)  # covered cells after each prefix, over all replicates
        for ids, cols in simulate.replicate_batches(plan, range(1, reps + 1)):
            total += simulate.coverage_curve(plan, len(ids) * k, cols).sum(axis=0)
        hit = np.nonzero(total / (reps * target.universe(spec)) >= level)[0]
        if hit.size:
            return int(hit[0]) + 1
        k *= 2
        if k > SIM_K_GUARD:
            raise GuardExceededError(f"k search passed guard {SIM_K_GUARD}")


def _stops(plan: simulate.SimPlan) -> list[int]:
    """Trials until each replicate 1..plan.reps covers the universe of
    plan's one target, drawn in chunks of plan.k, then of a fifth of it,
    up to SIM_K_GUARD in all. The replicates of a SimPlan.batch group
    still running draw and count each chunk in one batch, each marking
    its own row of a bool map of the universe until the row fills."""
    import numpy as np

    universe, stops = plan.targets[0].universe(plan.spec), np.zeros(plan.reps, dtype=np.int64)
    for lo in range(0, plan.reps, plan.batch):
        ids = np.arange(lo + 1, min(lo + plan.batch, plan.reps) + 1)
        # batch * U bytes, U <= plan.k * n: BATCH_ENTRIES / t, or one replicate's k * n
        covered, drawn, chunk = np.zeros((ids.size, universe), dtype=bool), 0, plan.k
        while ids.size:
            if drawn >= SIM_K_GUARD:
                raise GuardExceededError(f"full coverage passed guard {SIM_K_GUARD}")
            # One batch: chunk <= plan.k, so part.batch >= plan.batch >= ids.size.
            chunk, missing = min(chunk, SIM_K_GUARD - drawn), universe - np.count_nonzero(covered, axis=1)
            part = replace(plan, k=chunk, reps=ids.size)
            ((_, cols),) = simulate.replicate_batches(part, ids.tolist(), drawn + 1)
            reached = simulate.coverage_curve(part, ids.size * chunk, cols, covered) >= missing[:, None]
            done = reached[:, -1]
            stops[ids[done] - 1] = drawn + 1 + np.argmax(reached[done], axis=1)
            ids, covered = ids[~done], covered[~done]
            drawn, chunk = drawn + chunk, -(-plan.k // 5)
    return stops.tolist()


def full_coverage_k(
    spec: DesignSpec,
    kind: SampleKind,
    t: int,
    reps: int,
    seed: int,
) -> float:
    """Mean number of trials until the t-axis projection is fully covered."""
    start = _first_draw(spec, kind, t, 1.0, reps)  # before any bitmap: start * n >= U
    return math.fsum(_stops(simulate.SimPlan(spec, kind, start, reps, targets=(Units(t),), seed=seed))) / reps


def _check_cell(level: float, mode: SweepMode, reps: int) -> None:
    """Refuse a level or replicate count that no sweep cell can use."""
    if not (0.0 < level <= 1.0):  # also refuses nan
        raise StructuralError(f"level must be in (0, 1], got {level}")
    if mode is SweepMode.SIMULATED and reps < 1:
        raise StructuralError(f"reps must be >= 1, got {reps}")


def _check_grid(n_grid: Sequence[int]) -> None:
    if len(n_grid) < 3:
        raise StructuralError(f"need >= 3 grid points, got {len(n_grid)}")
    if len(set(n_grid)) < 2:
        raise StructuralError("all grid points share one n; slope undefined")


def fit_slope(rows: Sequence[tuple[int, float]]) -> tuple[float, float, float]:
    """(slope, intercept, residual) of the least squares fit of log10(k*)
    against log10(n); residual is the L2 norm of the log10 residuals."""
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
    return slope, intercept, residual


@dataclass(frozen=True)
class SweepResult:
    level: float
    t: int
    rows: tuple[tuple[int, float], ...]  # (n, k_star)
    slope: float
    intercept: float
    residual: float


def _cell_seed(seed: int, t: int, n: int, level: float) -> int:
    return rng.fold(seed, t, n, round(level * 10**9))


def _spec_for(d: int, n: int, kind: SampleKind) -> DesignSpec:
    if kind is SampleKind.LHS or not (2 <= d <= MAX_D and 1 <= n <= MAX_N):
        return DesignSpec(d, n)  # refuses a d or n no design admits, naming it
    p = round(n ** (1.0 / d))
    for cand in (p - 1, p, p + 1):
        if cand >= 1 and cand**d == n:
            return DesignSpec(d, n, cand)
    raise StructuralError(f"orthogonal sweep needs n = p**d, got n={n}, d={d}")


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
    for spec in specs:
        Units(t).validate_for(spec)
    if mode is SweepMode.CLOSED_FORM and 1.0 in levels:
        raise StructuralError("full coverage has no closed form; use simulated mode")
    if mode is SweepMode.SIMULATED:
        for level in levels:  # refuse a cell over a guard before any cell runs
            for spec in specs:
                _first_draw(spec, kind, t, level, reps)
    results = []
    for level in levels:
        rows = []
        for n, spec in zip(n_grid, specs):
            if mode is SweepMode.CLOSED_FORM:
                rows.append((n, closed_form_k(n, t, level)))
            elif level == 1.0:
                rows.append((n, full_coverage_k(spec, kind, t, reps, _cell_seed(seed, t, n, level))))
            else:
                rows.append((n, simulated_k(spec, kind, t, level, reps, _cell_seed(seed, t, n, level))))
        slope, intercept, residual = fit_slope(rows)
        results.append(SweepResult(level, t, tuple(rows), slope, intercept, residual))
    return results
