"""Monte Carlo coverage estimation over replicated trial pools.

A replicate draws k i.i.d. trials (replicate r uses substream
fold(seed, r), trial t inside it fold(rep_seed, t)) and counts distinct
covered keys for each requested target:

    FULL_TUPLE      grid cells, universe n^d
    PROJECTED(t)    cells of a t-axis projection, universe n^t
                    (default axes 1..t, arbitrary subsets allowed)
    EDGE            fine value pairs inside one coarse cell (pi, pj) of
                    axis pair (i, j)'s quotient grid, universe p^(2(d-1))

Keys are radix-encoded into int64 and counted with np.unique; when the
key space does not fit int64 the rows themselves are deduplicated
(np.unique over rows). Per-replicate coverage fractions are exact
integer ratios converted to float once; aggregation is sequential in
replicate order with math.fsum, so reports are bit-stable for a fixed
seed regardless of worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence, Union

import numpy as np

from . import rng
from .design import DesignSpec, EdgeProjection, band_width
from .errors import GuardExceededError, StructuralError
from .laws import asymptotic_law, coverage_closed_form, iid_law
from .sampling import SampleKind, points_batch, replicate_seed

MAX_TRACKED_KEYS = 20_000_000  # k * n per replicate

Z99 = NormalDist().inv_cdf(0.995)


@dataclass(frozen=True)
class FullTuple:
    pass


@dataclass(frozen=True)
class Projected:
    t: int
    dims: tuple[int, ...] | None = None  # default: axes 1..t


Target = Union[FullTuple, Projected, EdgeProjection]


def target_label(target: Target) -> str:
    if isinstance(target, FullTuple):
        return "full"
    if isinstance(target, Projected):
        if target.dims is not None:
            return f"proj:{target.t}@" + ",".join(str(v) for v in target.dims)
        return f"proj:{target.t}"
    pi, pj = target.coarse
    return f"edge:{target.i},{target.j},{pi},{pj}"


def validate_target(spec: DesignSpec, target: Target) -> None:
    if isinstance(target, Projected):
        if not (1 <= target.t <= spec.d):
            raise StructuralError(f"t must be in [1, {spec.d}], got {target.t}")
        if target.dims is not None:
            if len(target.dims) != target.t or len(set(target.dims)) != target.t:
                raise StructuralError(f"need {target.t} distinct axes, got {target.dims}")
            if any(not (1 <= v <= spec.d) for v in target.dims):
                raise StructuralError(f"axes {target.dims} outside [1, {spec.d}]")
    elif isinstance(target, EdgeProjection):
        if target.coarse is None:
            raise StructuralError("an edge target needs coarse bands: edge:i,j,pi,pj")
        target.validate_for(spec)


def _proj_dims(spec: DesignSpec, target: Target) -> tuple[int, ...]:
    if isinstance(target, FullTuple):
        return tuple(range(1, spec.d + 1))
    assert isinstance(target, Projected)
    return target.dims if target.dims is not None else tuple(range(1, target.t + 1))


def target_universe(spec: DesignSpec, target: Target) -> int:
    if isinstance(target, EdgeProjection):
        if target.coarse is None:
            return spec.n**2
        return band_width(spec.require_p(), spec.d) ** 2
    return spec.n ** len(_proj_dims(spec, target))


def target_lambda(spec: DesignSpec, target: Target) -> float:
    """Per-key hit rate of a single trial: n^(1-t) for t-axis keys, 1/n
    for sub-block edge keys. Holds for both samplers."""
    if isinstance(target, EdgeProjection):
        return 1.0 / spec.n
    t = len(_proj_dims(spec, target))
    return float(spec.n) ** (1 - t)


@dataclass(frozen=True)
class SimPlan:
    spec: DesignSpec
    kind: SampleKind
    k: int
    reps: int
    targets: tuple[Target, ...] = (FullTuple(),)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise StructuralError(f"k must be >= 1, got {self.k}")
        if self.reps < 1:
            raise StructuralError(f"reps must be >= 1, got {self.reps}")
        if not self.targets:
            raise StructuralError("at least one target required")
        if self.kind is SampleKind.OS:
            self.spec.require_p()
        for target in self.targets:
            validate_target(self.spec, target)
        if self.k * self.spec.n > MAX_TRACKED_KEYS:
            raise GuardExceededError(
                f"k*n = {self.k * self.spec.n} keys exceed guard {MAX_TRACKED_KEYS}"
            )


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    sd: float
    se: float
    ci_low: float
    ci_high: float


def summarize(values: Sequence[float]) -> SummaryStats:
    """Mean, sample sd (n-1), standard error, 99% normal interval."""
    vals = [float(v) for v in values]
    if not vals:
        raise StructuralError("cannot summarize an empty sequence")
    m = math.fsum(vals) / len(vals)
    if len(vals) > 1:
        sd = math.sqrt(math.fsum((v - m) ** 2 for v in vals) / (len(vals) - 1))
    else:
        sd = 0.0
    se = sd / math.sqrt(len(vals))
    return SummaryStats(m, sd, se, m - Z99 * se, m + Z99 * se)


@dataclass(frozen=True)
class CoverageReport:
    target: Target
    fractions: tuple[float, ...]
    mean: float
    sd: float
    se: float
    ci_low: float
    ci_high: float
    ref_iid: float
    ref_asym: float


def _keys_for_target(
    points: np.ndarray, spec: DesignSpec, target: Target
) -> tuple[np.ndarray, np.ndarray]:
    """(keys, per-trial key counts). keys is 1-D codes or 2-D rows."""
    k, n_rows = points.shape[0], points.shape[1]
    if isinstance(target, EdgeProjection):
        w = band_width(spec.require_p(), spec.d)
        pi, pj = target.coarse
        ai = points[:, :, target.i - 1] - 1
        aj = points[:, :, target.j - 1] - 1
        mask = (ai // w == pi - 1) & (aj // w == pj - 1)
        codes = (ai % w)[mask] * np.int64(w) + (aj % w)[mask]
        return codes, mask.sum(axis=1)
    dims = _proj_dims(spec, target)
    sel = points[:, :, [v - 1 for v in dims]]
    counts = np.full(k, n_rows, dtype=np.int64)
    if spec.n ** len(dims) <= 2**63:
        codes = np.zeros((k, n_rows), dtype=np.int64)
        for q in range(len(dims)):
            codes = codes * np.int64(spec.n) + (sel[:, :, q] - 1)
        return codes.reshape(-1), counts
    return sel.reshape(-1, len(dims)), counts


def _covered_count(points: np.ndarray, spec: DesignSpec, target: Target) -> int:
    keys, _ = _keys_for_target(points, spec, target)
    if keys.ndim == 1:
        return int(np.unique(keys).size)
    return int(np.unique(keys, axis=0).shape[0])


def replicate_points(spec: DesignSpec, kind: SampleKind, rep_seed: int, k: int) -> np.ndarray:
    """The k trials of one replicate, shape (k, n, d)."""
    seeds = rng.fold_array(rep_seed, np.arange(1, k + 1))
    return points_batch(spec, kind, seeds)


def coverage_curve(
    spec: DesignSpec, kind: SampleKind, rep_seed: int, k: int, target: Target
) -> np.ndarray:
    """Distinct covered keys after each trial prefix 1..k (one replicate).

    Nondecreasing by construction; entry k-1 equals the replicate's
    final covered count.
    """
    validate_target(spec, target)
    if k * spec.n > MAX_TRACKED_KEYS:
        raise GuardExceededError(
            f"k*n = {k * spec.n} keys exceed guard {MAX_TRACKED_KEYS}"
        )
    points = replicate_points(spec, kind, rep_seed, k)
    keys, counts = _keys_for_target(points, spec, target)
    if keys.ndim == 1:
        first = np.unique(keys, return_index=True)[1]
    else:
        first = np.unique(keys, axis=0, return_index=True)[1]
    first.sort()
    return np.searchsorted(first, np.cumsum(counts), side="left").astype(np.int64)


def _replicate_counts(plan: SimPlan, rep_ids: Sequence[int]) -> list[tuple[int, list[int]]]:
    out = []
    for r in rep_ids:
        points = replicate_points(plan.spec, plan.kind, replicate_seed(plan.seed, r), plan.k)
        out.append((r, [_covered_count(points, plan.spec, tgt) for tgt in plan.targets]))
    return out


def _worker(args: tuple[SimPlan, list[int]]) -> list[tuple[int, list[int]]]:
    return _replicate_counts(*args)


def simulate_coverage(plan: SimPlan, workers: int = 1) -> list[CoverageReport]:
    """One CoverageReport per target, in plan order."""
    rep_ids = list(range(1, plan.reps + 1))
    # Never more processes than CPUs or replicates, whatever was asked.
    pool_size = min(workers, plan.reps, os.cpu_count() or 1)
    if pool_size <= 1 or plan.reps < 4:
        rows = _replicate_counts(plan, rep_ids)
    else:
        chunks = [(plan, rep_ids[c::pool_size]) for c in range(pool_size)]
        rows = []
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            for part in pool.map(_worker, chunks):
                rows.extend(part)
        rows.sort(key=lambda item: item[0])

    reports = []
    for ti, target in enumerate(plan.targets):
        universe = target_universe(plan.spec, target)
        fracs = tuple(counts[ti] / universe for _, counts in rows)
        stats = summarize(fracs)
        lam = target_lambda(plan.spec, target)
        reports.append(
            CoverageReport(
                target=target,
                fractions=fracs,
                mean=stats.mean,
                sd=stats.sd,
                se=stats.se,
                ci_low=stats.ci_low,
                ci_high=stats.ci_high,
                ref_iid=coverage_closed_form(iid_law(lam, plan.k)),
                ref_asym=coverage_closed_form(asymptotic_law(lam, plan.k)),
            )
        )
    return reports
