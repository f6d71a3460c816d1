"""Monte Carlo coverage estimation over replicated trial pools.

A replicate draws k i.i.d. trials (trial t of replicate r from seed
fold(fold(seed, r), t)) and counts distinct covered keys for each
requested target, a `design.Units` family:

    Units()                 grid cells, universe n^d
    Units(t, dims)          cells of a t-axis projection, universe n^t
                            (default axes 1..t, arbitrary subsets allowed)
    Units(2, (i, j), (pi, pj))
                            fine value pairs inside one coarse cell
                            (pi, pj) of axis pair (i, j)'s quotient grid,
                            universe p^(2(d-1))

A replicate draws only the axes its targets count (the sampler's
`axes`, the sorted union of the targets' axes), as 0-based int32
columns (k, len(axes), n), and each counted axis is read as a view of
them. Keys are the counted axes packed base n (base p^(d-1) for fine
offsets) into int64 codes. When the key space does not fit int64
(n^t > 2^63) the keys go into Latin buckets: every counted axis of a
trial is a permutation of 0..n-1, so bucket b, the keys with value b on
the first counted axis, holds one key of each trial, and the other axes
are packed into int64 words. The rows are trial-major: trial i's key in
bucket b is row i * n + b.

Distinct keys are counted one of two ways, with the same result. Codes
whose universe U is at most DIRECT_RATIO times their number are counted
by direct address: a count marks a bool map of U, and a prefix curve
takes each cell's earliest trial with np.minimum.at (order-independent)
and counts cells per trial. Every other case (larger universes, row
keys) is sorted: counts and prefix curves share one sort per bucket
(rows are copied to bucket order a block of buckets at a time), and a
distinct key starts where adjacent keys differ. A curve needs each
key's earliest trial, which goes into the word's low bit_length(k-1)
bits when they are free (the packed sort of rng.permutations_from_seeds).
Else np.lexsort sorts the buckets: it is stable, so a bucket keeps its
keys in trial order.
Every simulated trial, of a run or of a sweep, is drawn by
`replicate_batches`, trials first..first+k-1 of the replicates of a
batch of up to BATCH_ENTRIES column entries (`SimPlan.batch`) at once.
The i-th replicate's codes are offset by i * U, so one map or one sort
counts the whole batch: a run's final counts, or `coverage_curve`'s
prefix curves, each key's trial numbered within the batch. Row keys go
one replicate at a time; from 2 * rng.PARALLEL_KEYS keys on they are
built and counted on threads by the rule of rng.share, each thread
writing only its own trials' rows or its own blocks' flags and trials,
so no byte depends on the thread count.
Per-replicate coverage fractions are exact integer ratios converted to
float once; aggregation is sequential in replicate order with math.fsum,
so reports are bit-stable for a fixed seed regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import rng
from .design import DesignSpec, SampleKind, Units, band_width
from .errors import GuardExceededError, StructuralError
from .laws import asymptotic_coverage, iid_coverage, projection_lambda
from .sampling import Axes, points_batch

MAX_TRACKED_KEYS = 20_000_000  # k * n per replicate
# k * len(axes) * n column entries, charged 8 bytes each: 4 for the int32
# entry and 4 for its share of the int64 key it is packed into with the
# entries of the key's other axes.
MAX_REPLICATE_BYTES = 2**30
# reps * (k * n + REPLICATE_KEYS) per run. A replicate drawn alone has a
# fixed cost of about 160 us, 2,000 keys at the 1.4e7 keys/s of a 2-vCPU
# x86 VM, where the cap is about 70 s of work; in a batch of tiny ones a
# replicate costs under 1 us, but the guard charges each the same.
MAX_TOTAL_KEYS = 10**9
REPLICATE_KEYS = 2_000
# 1-D codes are counted by direct address when their universe is at most
# this many times the key count. On a 2-vCPU x86 VM at 10^4 and 10^6
# keys, the map broke even with the sort near 7x for a count and near
# 4x for a curve.
DIRECT_RATIO = 4
# Column entries of a batch of replicates (a larger one is drawn alone).
# On a 2-vCPU x86 VM, 300 replicates of os d=2 n=100 k=100 took 83 ms
# three a batch at 2^16 against 96 ms alone at 2^14. 2^18 was a few ms
# faster but raised the process's peak RSS by 2.4 MiB. Larger batches
# lost only while glibc gave their arrays back to the kernel after every
# call, which importing rng stops.
BATCH_ENTRIES = 1 << 16
# Entries of a curve's first-trial map per bincount, whose intp copy
# of its input then stays in cache and small.
MAP_CHUNK = 1 << 16

@dataclass(frozen=True)
class SimPlan:
    spec: DesignSpec
    kind: SampleKind
    k: int
    reps: int
    targets: tuple[Units, ...] = (Units(),)
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
            target.validate_for(self.spec)
        if self.k * self.spec.n > MAX_TRACKED_KEYS:
            raise GuardExceededError(
                f"k*n = {self.k * self.spec.n} keys exceed guard {MAX_TRACKED_KEYS}"
            )
        if self.replicate_bytes > MAX_REPLICATE_BYTES:
            raise GuardExceededError(
                f"a replicate's columns take {self.replicate_bytes} bytes, over guard "
                f"{MAX_REPLICATE_BYTES}; the largest k that fits is "
                f"{MAX_REPLICATE_BYTES // (self.replicate_bytes // self.k)}"
            )
        per_rep = self.k * self.spec.n + REPLICATE_KEYS
        if self.reps * per_rep > MAX_TOTAL_KEYS:
            raise GuardExceededError(
                f"reps*(k*n + {REPLICATE_KEYS}) = {self.reps * per_rep} keys exceed guard "
                f"{MAX_TOTAL_KEYS}; the largest reps that fits is {MAX_TOTAL_KEYS // per_rep}"
            )

    @property
    def replicate_bytes(self) -> int:
        """Bytes charged for one replicate's columns (k, len(axes), n): 8 a
        column entry, its int32 value and its share of the int64 keys."""
        return self.k * len(self.axes) * self.spec.n * 8

    @property
    def axes(self) -> tuple[int, ...]:
        """The axes a replicate draws: those its targets count, sorted."""
        return tuple(sorted(set().union(*(t.axes(self.spec) for t in self.targets))))

    @property
    def batch(self) -> int:
        """Replicates drawn and counted together, by a run and by a
        sweep's curves alike: as many as BATCH_ENTRIES column entries
        hold, at least one, and few enough that their offset codes fit
        int64 (so row keys go one replicate at a time)."""
        fit = min(2**63 // t.universe(self.spec) for t in self.targets)
        return max(1, min(BATCH_ENTRIES // (self.replicate_bytes // 8), fit))


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    sd: float
    se: float


def summarize(values: Sequence[float]) -> SummaryStats:
    """Mean, sample sd (n-1) and standard error."""
    vals = [float(v) for v in values]
    if not vals:
        raise StructuralError("cannot summarize an empty sequence")
    m = math.fsum(vals) / len(vals)
    if len(vals) > 1:
        sd = math.sqrt(math.fsum((v - m) ** 2 for v in vals) / (len(vals) - 1))
    else:
        sd = 0.0
    se = sd / math.sqrt(len(vals))
    return SummaryStats(m, sd, se)


@dataclass(frozen=True)
class CoverageReport:
    fractions: tuple[float, ...]
    mean: float
    sd: float
    se: float
    ref_iid: float
    ref_asym: float


def _pack(digits: Sequence[np.ndarray], base: int) -> np.ndarray:
    """Base-`base` codes of equal-shape digit arrays, most significant first."""
    code = digits[0].astype(np.int64)  # a copy
    for digit in digits[1:]:
        code *= base
        code += digit
    return code


def _keys_for_target(
    cols: np.ndarray, spec: DesignSpec, target: Units, axes: Axes = None
) -> tuple[np.ndarray, np.ndarray]:
    """(keys, per-trial key counts) of the trials' 0-based columns
    (k, len(axes), n) on `axes` (all d by default).

    keys is 1-D codes, trial by trial, when the target's universe fits
    int64. Otherwise it is rows of shape (k * n, words): the counted axes
    after the first, packed base n into as few int64 words as hold them,
    also trial by trial, so trial i's key whose first-axis value is b
    (its Latin bucket) is row i * n + b.
    """
    k, n = cols.shape[0], spec.n
    drawn = tuple(range(1, spec.d + 1)) if axes is None else axes
    digits = [cols[:, drawn.index(v)] for v in target.axes(spec)]  # views, (k, n) each
    if target.coarse is not None:
        # Keep the keys inside the coarse cell, coded by fine offsets.
        base = band_width(spec.require_p(), spec.d)
        mask = np.logical_and(*(x // base == q - 1 for x, q in zip(digits, target.coarse)))
        return _pack([x[mask] % base for x in digits], base), mask.sum(axis=1)
    counts = np.full(k, n, dtype=np.int64)
    if target.universe(spec) <= 2**63:
        return _pack(digits, n).reshape(-1), counts
    first, rest = digits[0], digits[1:]
    per_word = max(q for q in range(1, len(rest) + 1) if n**q <= 2**63)
    groups = [rest[lo : lo + per_word] for lo in range(0, len(rest), per_word)]
    keys = np.empty((len(groups), k, n), dtype=np.int64)  # each word contiguous
    # Threads share the trials. Each trial is packed and scattered within
    # its own row of each word (first is a permutation, so every entry is
    # written) through an intp index, which scatters faster than int32.

    def scatter(trials: range) -> None:
        for i in trials:
            where = first[i].astype(np.intp)
            for word, group in zip(keys, groups):
                word[i][where] = _pack([x[i] for x in group], n)

    rng.share(scatter, range(k), n * k)
    return keys.reshape(len(groups), k * n).T, counts


def _sort_rows(
    words: list[np.ndarray], new: np.ndarray, trial: np.ndarray | None, bits: int | None
) -> None:
    """Sort each row of keys in place, the keys held in equal-shape 2-D
    words, most significant first, and flag in `new` the first copy of
    each distinct key. `trial` (writable, or None) is each key's trial,
    permuted along: packed into the one word's low `bits` bits when
    bits is not None, else by the lexsort order, which is stable."""
    w = words[0]
    if bits is not None:
        w <<= bits
        w |= trial
        w.sort(axis=1)
        np.bitwise_and(w, (1 << bits) - 1, out=trial)
        w >>= bits
    elif len(words) == 1 and trial is None:
        w.sort(axis=1)
    else:
        order = np.lexsort(words[::-1], axis=1)
        for x in words if trial is None else [*words, trial]:
            x[...] = np.take_along_axis(x, order, axis=1)
    new[:, :1] = True
    np.not_equal(w[:, 1:], w[:, :-1], out=new[:, 1:])
    for x in words[1:]:
        new[:, 1:] |= x[:, 1:] != x[:, :-1]


def _distinct_keys(
    keys: np.ndarray, counts: np.ndarray, tagged: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sort `_keys_for_target`'s (keys, counts) bucket by bucket: 1-D codes
    in place as one bucket, Latin-bucket rows in blocks of buckets copied
    to bucket order and shared among threads. Returns flags on the first
    copy of each distinct key, in sorted order, and when tagged each
    sorted key's trial (else None); a first copy has the earliest."""
    k = counts.size
    if not keys.size:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64) if tagged else None
    # Each word as (keys per bucket, buckets): column b is bucket b.
    shape = (-1, 1) if keys.ndim == 1 else (k, -1)
    words = [word.reshape(shape) for word in keys.reshape(len(keys), -1).T]
    w, trial, bits = words[0], None, None
    size, buckets = w.shape
    if tagged:  # (buckets, size), as the sorted blocks are
        trial = np.tile(np.repeat(np.arange(k), counts // buckets), (buckets, 1))
        room = 2 ** (63 - (k - 1).bit_length())
        if len(words) == 1 and -room <= int(w.min()) and int(w.max()) < room:
            bits = (k - 1).bit_length()
    new = np.empty((buckets, size), dtype=bool)
    step = max(1, rng.CHUNK_KEYS // size)  # buckets per block

    def sort(starts: range) -> None:
        for lo in starts:
            block = slice(lo, lo + step)
            # 1-D codes: a view, sorted in place; rows: a cache-sized copy
            rows = [np.ascontiguousarray(x[:, block].T) for x in words]
            _sort_rows(rows, new[block], None if trial is None else trial[block], bits)

    rng.share(sort, range(0, buckets, step), w.size)
    return new, trial


def _direct(keys: np.ndarray, universe: int) -> bool:
    """Whether keys are counted by direct address rather than sorted."""
    return keys.ndim == 1 and universe <= DIRECT_RATIO * keys.size


def _batch_keys(
    cols: np.ndarray, spec: DesignSpec, target: Units, axes: Axes, reps: int
) -> tuple[np.ndarray, np.ndarray]:
    """`_keys_for_target` of reps replicates, the i-th one's codes offset by i * universe."""
    keys, counts = _keys_for_target(cols, spec, target, axes)
    if reps > 1:  # SimPlan.batch keeps reps * universe within int64
        keys += np.repeat(np.arange(reps) * target.universe(spec), counts.reshape(reps, -1).sum(axis=1))
    return keys, counts


def _covered_counts(
    cols: np.ndarray, spec: DesignSpec, target: Units, axes: Axes = None, reps: int = 1
) -> list[int]:
    """Distinct keys of each of `reps` replicates, whose trials are equal
    consecutive slices of cols. One replicate takes a flat count, several
    times faster than a row sum."""
    keys, counts = _batch_keys(cols, spec, target, axes, reps)
    universe = target.universe(spec)
    if _direct(keys, reps * universe):
        seen = np.zeros((reps, universe), dtype=bool)  # universe bytes, at most 4 per key
        seen.reshape(-1)[keys] = True
        return [int(np.count_nonzero(seen))] if reps == 1 else seen.sum(axis=1).tolist()
    new, _ = _distinct_keys(keys, counts)  # sorts 1-D keys in place
    if reps == 1:
        return [int(np.count_nonzero(new))]
    # new is (1, keys) flags, or (0,) when no trial holds a key
    return np.bincount(keys[new.reshape(-1)] // universe, minlength=reps).tolist()


def _new_per_trial(
    keys: np.ndarray, counts: np.ndarray, universe: int, covered: np.ndarray | None = None
) -> np.ndarray:
    """Distinct keys whose earliest trial is i, for each of the k trials,
    leaving out those a flat bool map `covered` holds (then marked in it)."""
    k = counts.size
    if not _direct(keys, universe):
        new, trial = _distinct_keys(keys, counts, tagged=True)  # sorts 1-D keys in place
        if covered is not None:  # a key held before is new in no trial
            new &= ~covered[keys]
            covered[keys] = True
        return np.bincount(trial[new], minlength=k)
    # first[c] is the earliest trial holding code c, k if none does;
    # minimum.at is order-independent, unlike a fancy assignment with
    # repeated indices. Its type holds k in 32 bits at most (k * n is under
    # MAX_TRACKED_KEYS, or BATCH_ENTRIES for a batch), so at universe <= 4
    # keys it takes at most 16 bytes a key, what MAX_REPLICATE_BYTES charges
    # the 2+ column entries of a key of 2+ axes (one axis: n <= keys cells).
    dtype = np.min_scalar_type(k)
    first = np.full(universe, k, dtype=dtype)
    np.minimum.at(first, keys, np.repeat(np.arange(k, dtype=dtype), counts))
    if covered is not None:  # a cell held before is new in no trial
        np.putmask(first, covered, k)
        covered |= first < k
    per_trial = np.zeros(k + 1, dtype=np.int64)
    step = max(MAP_CHUNK, k)
    for lo in range(0, universe, step):
        per_trial += np.bincount(first[lo : lo + step], minlength=k + 1)
    return per_trial[:k]


def coverage_curve(plan: SimPlan, k: int, cols: np.ndarray, covered: np.ndarray | None = None) -> np.ndarray:
    """Prefix curves of plan's one target, counted in one pass: the
    distinct keys after each trial of the k // plan.k replicates of plan.k
    trials whose columns (k, len(plan.axes), n) a `replicate_batches` batch
    holds, as nondecreasing rows of a (k // plan.k, plan.k) array. With
    `covered`, a (k // plan.k, universe) bool map of each replicate's
    earlier keys, only keys its row lacks count, and are then marked."""
    spec, (target,), reps = plan.spec, plan.targets, k // plan.k
    keys, counts = _batch_keys(cols, spec, target, plan.axes, reps)
    flat = None if covered is None else covered.reshape(-1)  # indexed by the offset codes
    new = _new_per_trial(keys, counts, reps * target.universe(spec), flat)
    return np.cumsum(new.reshape(reps, plan.k), axis=1, dtype=np.int64)


def replicate_batches(
    plan: SimPlan, rep_ids: Sequence[int], first: int = 1
) -> Iterator[tuple[Sequence[int], np.ndarray]]:
    """(replicate ids, columns) of rep_ids in groups of plan.batch: the
    columns on plan.axes of trials first..first+plan.k-1 of each
    replicate r, trial t from seed fold(fold(plan.seed, r), t), one
    replicate after another. The one place simulation draws trials."""
    trials = np.arange(first, first + plan.k)
    for lo in range(0, len(rep_ids), plan.batch):
        ids = rep_ids[lo : lo + plan.batch]
        # rng.fold takes 1 us a replicate, fold_grid of one seed 8 us a call
        seeds = [rng.fold(plan.seed, r) for r in ids]
        yield ids, points_batch(plan.spec, plan.kind, rng.fold_grid(seeds, trials).reshape(-1), plan.axes)


def _replicate_counts(plan: SimPlan, rep_ids: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    out = []
    for ids, cols in replicate_batches(plan, rep_ids):
        counts = [_covered_counts(cols, plan.spec, t, plan.axes, len(ids)) for t in plan.targets]
        out.extend(zip(ids, zip(*counts)))
    return out


def simulate_coverage(plan: SimPlan, workers: int = 1) -> list[CoverageReport]:
    """One CoverageReport per target, in plan order."""
    rep_ids = list(range(1, plan.reps + 1))
    # Never more processes than usable CPUs or replicates, whatever was
    # asked, nor more batches in memory at once than MAX_REPLICATE_BYTES holds.
    batch_bytes = plan.batch * plan.replicate_bytes
    pool_size = min(workers, plan.reps, rng.usable_cpus(), max(1, MAX_REPLICATE_BYTES // batch_bytes))
    if pool_size <= 1 or plan.reps < 4:
        rows = _replicate_counts(plan, rep_ids)
    else:
        # Imported here: it costs start-up time a single process never uses.
        from concurrent.futures import ProcessPoolExecutor

        chunks = [rep_ids[c::pool_size] for c in range(pool_size)]
        rows = []
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            for part in pool.map(_replicate_counts, [plan] * pool_size, chunks):
                rows.extend(part)
        rows.sort(key=lambda item: item[0])

    reports = []
    for ti, target in enumerate(plan.targets):
        universe = target.universe(plan.spec)
        fracs = tuple(counts[ti] / universe for _, counts in rows)
        stats = summarize(fracs)
        # One trial's per-key hit rate, either sampler; edge targets have 2 axes.
        lam = projection_lambda(plan.spec.n, len(target.axes(plan.spec)))
        reports.append(
            CoverageReport(
                fractions=fracs,
                mean=stats.mean,
                sd=stats.sd,
                se=stats.se,
                ref_iid=iid_coverage(lam, plan.k),
                ref_asym=asymptotic_coverage(lam, plan.k),
            )
        )
    return reports
