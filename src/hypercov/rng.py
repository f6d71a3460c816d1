"""Pinned deterministic random number generation.

Every random choice in this package flows through the fixed algorithm
below. It is frozen on purpose: artifacts must be bit-reproducible from
(seed, parameters) alone, across platforms and library versions, so we
do not delegate stream definitions to numpy's Generator.

Core primitive: the SplitMix64 finalizer

    mix64(z):
        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9   (mod 2^64)
        z ^= z >> 27;  z *= 0x94D049BB133111EB   (mod 2^64)
        z ^= z >> 31

Counter stream: draw i (i = 1, 2, ...) of the stream with base seed s is

    mix64((s + i * GAMMA) mod 2^64),   GAMMA = 0x9E3779B97F4A7C15

which gives O(1) random access to any position, so batches vectorize.

Substreams: fold(s, label) = mix64(s XOR mix64((label + GAMMA) mod 2^64))
derives an independent stream per integer label; folds chain for nested
labels. Trial t of a run uses fold(seed, t), and its column j uses
fold(fold(seed, t), j); replicate r of a simulation uses fold(seed, r).

Permutations: a permutation of n items is the argsort of n distinct
consecutive uint64 draws (blocks with a tie are redrawn). Distinct keys
are exchangeable, so all n! orders are equally likely, and they sort
one way only, so every argsort gives the same order. A block whose n
keys collide anywhere is discarded whole and the next n draws of the
stream are used; the retry preserves uniformity because blocks are
i.i.d.

That argsort is computed by a packed sort. With b = bit_length(n - 1),
the low b bits of each key are replaced by its column index and the row
is sorted as plain integers; where the top 64 - b bits of the row are
distinct they alone decide the order, so the low bits of the sorted row
are the argsort, written out as int32. For n <= NARROW_N the same is
done on the top 32 bits of each key, as uint32: distinct top 32 - b
bits order the full keys too. Rows of n <= GROUP_KEYS // 2 keys are
sorted group = GROUP_KEYS // n at a time, as one row: keys are shifted
right by 32 + tagbits, tagbits = bit_length(group - 1), and each row's
index in its group fills the top tagbits bits of its words. The tags
keep the rows apart, so each sorts into its own place as if alone, with
a top part tagbits bits shorter that orders the full keys wherever it
is distinct, by the same argument. A last partial group is sorted as
one shorter row. A row in which two top parts tie takes the definition
literally: argsort of the full keys, duplicate check and redraw.

Rows are drawn in chunks of about CHUNK_KEYS keys (one row when n is
larger), so the temporaries have a fixed size however many rows are
asked for. Every elementwise pass runs over a chunk as one flat array,
not row by row: seeds are repeated n times each, and the counter steps
and the tagged columns are added and ORed as a tile of whole groups, at
least TILE_KEYS keys, repeated along it. Rows of n >= TILE_KEYS keys,
and calls on threads (below), add their steps by broadcasting instead.
One xor of adjacent words and one min over the chunk look for ties; a
pair from two rows never ties when their tags differ and can otherwise
only raise a false alarm, so the rows are scanned one by one only when
it fires.

A call that draws at least 2 * PARALLEL_KEYS keys shares its chunks
among threads by the rule of `share`: one per usable CPU, at most one
per chunk and one per PARALLEL_KEYS keys. numpy's ufuncs and sorts
release the GIL, so the threads run at once. np.repeat holds it, for
20-45 us a chunk, so a call on threads does not repeat its seeds: on 2
threads 30,000 rows of 100 keys took 15.4 ms with it and 13.7 ms
without (300,000 rows of 10 keys took 15.4 against 17.2 ms, but no
benchmarked call draws rows that short on threads). Each chunk
draws its own keys from its own seeds, sorts, checks and redraws them,
and writes only its own rows of the output, so the output is the same
bytes whatever the thread count. The threads live for one call and are
joined before it returns or raises. `simulate` shares by the same rule
the trials its Latin-bucket row keys are packed from and the blocks of
buckets they are sorted in.

Importing this module sets the C allocator's policy for the whole
process, once (`_keep_freed_memory`). glibc's malloc maps a block of at
least its mmap threshold afresh and unmaps it when freed, and gives a
free heap top longer than its trim threshold back to the kernel. Both
start low and rise only to the largest mapped block freed so far (and
twice that), so the arrays of a sweep's draws, a few hundred KiB each,
were given back after every call and faulted in again, zeroed page by
page: 27,750 minor faults a sweep-thresholds pass. Set from the start to
glibc's 64-bit ceilings, 32 MiB and 64 MiB, the thresholds keep that
memory in the process (at most 1 fault a pass); a block past 32 MiB
is still mapped for itself. Only where memory comes from changes, never
a byte drawn. Only the numpy paths import this module, so `exact`,
`law` and `verify` leave the policy as it is.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, Sequence

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_G = np.uint64(GAMMA)
# mix64's shifts and multipliers as numpy scalars, for _mix64_arr.
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_UM1 = np.uint64(_M1)
_UM2 = np.uint64(_M2)
# Keys per chunk of permutation rows (at least one row). At 512 KiB per
# uint64 array a chunk's keys and temporaries stay in a core's L2 cache,
# which made the draw up to twice as fast as chunks of 2^22 keys. With
# the flat passes, sim-many-small's pass against 2^16 (12 alternating
# rounds, 2-vCPU x86 VM) took 4.6% longer at 2^15 and 1.1% less at 2^17
# (faster in 8 rounds of 12), too little for twice the temporaries.
CHUNK_KEYS = 1 << 16
# Rows of at most this many keys sort the top 32 bits of each key, up to
# 20% faster on a 2-vCPU x86 VM; at n = 512 one row in 64 ties in its top
# 23 bits and falls back, and from n = 800 on the ties made it slower.
NARROW_N = 512
# Narrow rows of n keys sort GROUP_KEYS // n rows at a time as one row.
# On a 2-vCPU x86 VM a 65,536-key chunk's draw took 485 us against 1,044
# one row at a time at n = 3, and 427 against 525 at n = 10; 64 was no
# faster than 32.
GROUP_KEYS = 32
# Fewest keys in a tile of the flat passes. At n = 10 (same VM) a chunk's
# seeds repeated and its tiled steps added took 62-83 us against 91-137
# for one broadcast add of n-key rows, and the columns ORed 24 against 67.
TILE_KEYS = 1 << 11
# Fewest keys a thread draws: a call of fewer than 2 * PARALLEL_KEYS keys
# runs on the caller's thread alone.
PARALLEL_KEYS = 1 << 20
# mallopt's parameter numbers (glibc's malloc.h) and the values it sets;
# glibc refuses an mmap threshold above 32 MiB on 64-bit.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD = 64 << 20
MMAP_THRESHOLD = 32 << 20


def _keep_freed_memory() -> bool:
    """Set the C library's mmap and trim thresholds to MMAP_THRESHOLD and
    TRIM_THRESHOLD (module docstring); True if it took both. A library
    without mallopt (not glibc) is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    # TypeError: Windows opens no library from None.
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    trim_set = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return mmap_set and trim_set


_keep_freed_memory()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has
    one (as under taskset), else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _threads(parts: Sequence, keys: int) -> int:
    """Threads `share` runs parts of `keys` keys of work on: 1 below
    2 * PARALLEL_KEYS keys, else one per usable CPU, at most one per part
    and one per PARALLEL_KEYS keys."""
    # Below two threads' worth of keys, without the usable_cpus() syscall.
    return 1 if keys < 2 * PARALLEL_KEYS else min(usable_cpus(), len(parts), keys // PARALLEL_KEYS)


def share(job: Callable[[Sequence], object], parts: Sequence, keys: int) -> None:
    """Run job over parts, a call's independent shares of `keys` keys of
    work: on the caller's thread alone, or on one thread per usable CPU,
    at most one per part and one per PARALLEL_KEYS keys (`_threads`),
    thread t taking parts[t::threads]. Each job must write only what its
    own parts own. The threads are joined before this returns or
    re-raises a job's error.

    A job may call numpy and plain helpers such as simulate._pack, never
    a function that perfbench's tracer wraps (WRAPPED in
    perfbench/layers.py): its span stack is not thread-safe.
    """
    threads = _threads(parts, keys)
    if threads <= 1:
        job(parts)
        return
    # Imported here: a call below the threshold never pays for it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        # list() re-raises a share's error; leaving the with joins every thread.
        list(pool.map(job, [parts[t::threads] for t in range(threads)]))


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def fold(seed: int, *labels: int) -> int:
    """Derive a substream seed from integer labels, chaining left to right."""
    s = seed & MASK64
    for label in labels:
        s = mix64(s ^ mix64((label + GAMMA) & MASK64))
    return s


def _mix64_arr(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place; returns z."""
    tmp = np.empty_like(z)
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _UM1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _UM2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z


def raw_block(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start+1 .. start+count of the stream, as a uint64 array."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix64_arr(np.uint64(seed & MASK64) + idx * _G)


def fold_grid(seeds: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """fold(seed, label) for every (seed, label) pair; shape (len(seeds), len(labels))."""
    s = np.asarray(seeds, dtype=np.uint64)
    lab = np.asarray(labels, dtype=np.uint64)
    inner = _mix64_arr(lab + _G)
    return _mix64_arr(s[:, None] ^ inner[None, :])


def _argsort_redraw(s: np.ndarray, n: int) -> np.ndarray:
    """The definition itself: argsort of each seed's first block of n
    draws, redrawn from the next block while its keys are not distinct."""
    out = np.empty((s.size, n), dtype=np.int32)
    pending = np.arange(s.size)
    rnd = 0
    while pending.size:
        idx = np.arange(rnd * n + 1, rnd * n + n + 1, dtype=np.uint64)
        keys = _mix64_arr(s[pending][:, None] + idx[None, :] * _G)
        order = np.argsort(keys, axis=1)
        ks = np.take_along_axis(keys, order, axis=1)
        dup = (ks[:, 1:] == ks[:, :-1]).any(axis=1)
        out[pending[~dup]] = order[~dup]
        pending = pending[dup]
        rnd += 1
    return out


def _tiled(op: np.ufunc, flat: np.ndarray, tile: np.ndarray) -> None:
    """op(flat, tile) in place, with the tile repeated along flat: whole
    tiles as the rows of one 2-D pass, then a prefix of it over the rest."""
    whole = flat.size - flat.size % tile.size
    body = flat[:whole].reshape(-1, tile.size)
    op(body, tile, out=body)
    op(flat[whole:], tile[: flat.size - whole], out=flat[whole:])


def _tied_rows(packed: np.ndarray, n: int, low: np.integer) -> np.ndarray:
    """Rows of a sorted chunk of packed words, n to a row, in which two
    adjacent words differ only in the low bits: their top parts tie."""
    rows = packed.reshape(-1, n)
    return np.flatnonzero(((rows[:, 1:] ^ rows[:, :-1]) <= low).any(axis=1))


def permutations_from_seeds(seeds: np.ndarray, n: int) -> np.ndarray:
    """One uniform permutation of {0..n-1} per seed, as int32 (n is at
    most design.MAX_N = 2^20); shape (*seeds.shape, n).

    The argsort of n distinct consecutive stream draws per seed (blocks
    with a tie are redrawn from the next block of the same stream until
    the keys are distinct), computed by the packed sort of the module
    docstring, in chunks shared among threads when the call is large.
    """
    shape = np.shape(seeds)
    s = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    out = np.empty((s.size, n), dtype=np.int32)
    narrow = n <= NARROW_N
    word = np.uint32 if narrow else np.uint64
    low = word((1 << (n - 1).bit_length()) - 1)
    # Narrow rows sort `group` at a time as one row, each word tagged with
    # its row's index in the group in its top `tagbits` bits.
    group = max(1, GROUP_KEYS // n) if narrow else 1
    tagbits = (group - 1).bit_length()
    shift = np.uint64(32 + tagbits)
    rows = max(1, CHUNK_KEYS // n)
    starts = range(0, s.size, rows)
    # Tiles of `reps` whole groups' rows, at least TILE_KEYS keys, or every
    # row of the call: the tagged column indices and the counter steps.
    reps = min(s.size, group * -(-TILE_KEYS // (group * n)))
    cols = np.arange(n, dtype=word)
    if reps > 1:
        tags = ((np.arange(reps) % group) << (32 - tagbits)).astype(word)
        cols = (tags[:, None] | cols).reshape(-1)
    steps = np.arange(1, n + 1, dtype=np.uint64) * _G
    # np.repeat holds the GIL, so a call on threads adds by broadcasting.
    tiled = reps > 1 and _threads(starts, s.size * n) == 1
    if tiled:
        steps = np.tile(steps, reps)
    span = group * n

    def draw(chunks: range) -> None:
        for lo in chunks:
            if tiled:
                keys = np.repeat(s[lo : lo + rows], n)
                _tiled(np.add, keys, steps)
            else:
                keys = (s[lo : lo + rows, None] + steps).reshape(-1)
            keys = _mix64_arr(keys)
            if narrow:  # the top 32 - tagbits bits of each key
                np.right_shift(keys, shift, out=keys)
                keys = keys.astype(np.uint32)
            keys &= ~low
            _tiled(np.bitwise_or, keys, cols)
            whole = keys.size - keys.size % span
            keys[:whole].reshape(-1, span).sort(axis=1)
            keys[whole:].sort()  # a last partial group, as one shorter row
            # The low bits are the argsort, < n: a uint64 word narrows on the way out.
            np.bitwise_and(keys, low, out=out[lo : lo + rows].reshape(-1).view(np.uint32))
            # Top parts tie where adjacent keys differ only in the low bits;
            # one min over the chunk rules that out before any per-row scan
            # (a pair across rows can only raise a false alarm).
            gaps = keys[1:] ^ keys[:-1]
            if gaps.size and gaps.min() <= low:
                tied = _tied_rows(keys, n, low)
                out[lo + tied] = _argsort_redraw(s[lo + tied], n)
            # Freed before this thread's next chunk draws, so that it gets
            # the same memory back, still in cache: 4-12% faster on a
            # 2-vCPU x86 VM.
            del keys, gaps

    share(draw, starts, s.size * n)
    return out.reshape(*shape, n)
