"""Frozen vectors and invariants for the counter-based generator.

The raw_block values for seed 0 are the published reference outputs of
the splitmix64 sequence, so a failure here means the core mixer drifted
from the pinned algorithm.
"""

import os
import platform
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercov import rng
from hypercov.rng import (
    GAMMA,
    MASK64,
    fold,
    fold_grid,
    mix64,
    permutations_from_seeds,
    raw_block,
)


def permutation(seed, n):
    """The permutation of 0..n-1 drawn from one seed."""
    return permutations_from_seeds(np.array([seed], dtype=np.uint64), n)[0]

# Reference outputs of splitmix64 from seed 0, widely reproduced.
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_mix64_frozen_values():
    assert mix64(0) == 0
    assert mix64(1) == 0x5692161D100B05E5
    assert mix64(2**64 - 1) == 0xB4D055FCF2CBBD7B


def test_raw_block_matches_reference_sequence():
    got = raw_block(0, 0, 4)
    assert [int(v) for v in got] == SPLITMIX64_SEED0


def test_raw_block_is_a_pure_counter():
    # Draw i is a function of (seed, i) alone, so blocks can be split
    # anywhere without changing the stream.
    whole = raw_block(12345, 0, 10)
    parts = np.concatenate([raw_block(12345, 0, 3), raw_block(12345, 3, 7)])
    assert np.array_equal(whole, parts)


def test_raw_block_frozen_offset_values():
    got = [int(v) for v in raw_block(12345, 100, 3)]
    assert got == [0x968772494B60A6B3, 0x5BE4F08ACC351E7D, 0x6ED88E7471D6E1E4]


def test_fold_frozen_values():
    assert fold(0, 1) == 0xDCE423FC82C0D5B8
    assert fold(42, 1, 2) == 0xEC94B527C144155B


def test_fold_chains_left_to_right():
    assert fold(42, 1, 2) == fold(fold(42, 1), 2)


def test_fold_separates_labels():
    seen = {fold(7, label) for label in range(200)}
    assert len(seen) == 200


@given(
    seed=st.integers(min_value=0, max_value=MASK64),
    labels=st.lists(st.integers(min_value=0, max_value=MASK64), min_size=1, max_size=4),
)
@settings(max_examples=60)
def test_fold_stays_in_64_bits(seed, labels):
    out = fold(seed, *labels)
    assert 0 <= out <= MASK64


@pytest.mark.parametrize("seed", [977, -5])
def test_fold_grid_row_matches_scalar_fold(seed):
    # One seed's row, as sampling.trial_columns folds it: masked to 64 bits first.
    labels = np.arange(1, 33, dtype=np.uint64)
    row = fold_grid([seed & MASK64], labels)[0]
    assert [int(v) for v in row] == [fold(seed, int(j)) for j in range(1, 33)]


def test_fold_grid_matches_scalar_fold():
    seeds = np.array([0, 1, 42, 2**63], dtype=np.uint64)
    labels = np.arange(1, 5, dtype=np.uint64)
    grid = fold_grid(seeds, labels)
    assert grid.shape == (4, 4)
    for i, s in enumerate([0, 1, 42, 2**63]):
        for j in range(1, 5):
            assert int(grid[i, j - 1]) == fold(s, j)


def test_permutation_frozen_values():
    assert list(permutation(42, 8)) == [4, 1, 6, 2, 3, 0, 7, 5]
    assert list(permutation(0, 5)) == [2, 4, 1, 0, 3]
    assert list(permutation(7, 1)) == [0]


@pytest.mark.parametrize("seed", [0, 1, 42, 9999])
@pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
def test_permutation_is_a_permutation(seed, n):
    got = permutation(seed, n)
    assert sorted(int(v) for v in got) == list(range(n))


def test_permutation_determinism():
    a = permutation(123, 50)
    b = permutation(123, 50)
    assert np.array_equal(a, b)


def test_permutations_from_seeds_matches_scalar():
    seeds = np.array([fold(5, t) for t in range(1, 9)], dtype=np.uint64)
    batch = permutations_from_seeds(seeds, 12)
    assert batch.shape == (8, 12)
    for row, s in zip(batch, seeds):
        assert np.array_equal(row, permutation(int(s), 12))


def test_redrawn_rows_match_a_stable_argsort_reference(monkeypatch):
    # Narrow the mixer to 64 values so that key blocks of 6 often tie.
    seeds = np.array([fold(11, t) for t in range(1, 41)], dtype=np.uint64)
    n = 6
    wide = rng._mix64_arr
    monkeypatch.setattr(rng, "_mix64_arr", lambda z: wide(z) % np.uint64(64))

    got = permutations_from_seeds(seeds, n)

    redrawn = 0
    for row, s in zip(got, seeds):
        rnd = 0
        keys = raw_block(int(s), 0, n)
        while len(set(keys.tolist())) < n:
            rnd += 1
            keys = raw_block(int(s), rnd * n, n)
        redrawn += rnd > 0
        assert sorted(row.tolist()) == list(range(n))
        assert np.array_equal(row, np.argsort(keys, kind="stable"))
    assert redrawn >= 1


def _reference_permutation(seed: int, n: int, low_bits: int | None = None) -> tuple[np.ndarray, str]:
    """Stable argsort of the first block of distinct keys, and how the
    packed sort meets the first block: top parts distinct ("fast"),
    tied but keys distinct ("tied"), or keys repeated ("redrawn"). The
    top part is what is left above the low bit_length(n - 1) bits, or
    above `low_bits`."""
    b = (n - 1).bit_length() if low_bits is None else low_bits
    keys = raw_block(seed, 0, n)
    if len(set((keys >> np.uint64(b)).tolist())) == n:
        path = "fast"
    elif len(set(keys.tolist())) == n:
        path = "tied"
    else:
        path = "redrawn"
    rnd = 0
    while len(set(keys.tolist())) < n:
        rnd += 1
        keys = raw_block(seed, rnd * n, n)
    return np.argsort(keys, kind="stable"), path


def _assert_every_path(monkeypatch, seeds, n, low_bits=None):
    """Draw a row per seed and check it against _reference_permutation:
    fast, tied and redrawn rows all occur, and exactly the rows whose own
    top parts tie are passed to _argsort_redraw."""
    redrawn = []
    real = rng._argsort_redraw
    monkeypatch.setattr(rng, "_argsort_redraw", lambda s, n: redrawn.extend(s.tolist()) or real(s, n))

    got = permutations_from_seeds(seeds, n)

    paths = {}
    for row, s in zip(got, seeds):
        want, paths[int(s)] = _reference_permutation(int(s), n, low_bits)
        assert np.array_equal(row, want), (int(s), paths[int(s)])
    assert set(paths.values()) == {"fast", "tied", "redrawn"}
    # A pair of words from two rows never sends a row to the fallback.
    assert sorted(redrawn) == sorted(s for s, path in paths.items() if path != "fast")


@pytest.mark.parametrize("n", [3, 5, 9])
def test_packed_sort_matches_the_reference_on_every_path(monkeypatch, n):
    # Keys below 2**(b+4) have 16 possible top parts, so one call holds
    # rows whose tops are distinct, rows whose tops tie and rows whose
    # whole keys repeat; chunks of 4 rows put them in different chunks,
    # and the last and first rows of two chunks often tie.
    b = (n - 1).bit_length()
    wide = rng._mix64_arr
    monkeypatch.setattr(rng, "_mix64_arr", lambda z: wide(z) % np.uint64(2 ** (b + 4)))
    monkeypatch.setattr(rng, "NARROW_N", 0)  # the 64-bit sort; its 32-bit twin is below
    monkeypatch.setattr(rng, "CHUNK_KEYS", 4 * n)
    seeds = np.array([fold(23, t) for t in range(1, 301)], dtype=np.uint64)
    _assert_every_path(monkeypatch, seeds, n)


@pytest.mark.parametrize("n", [3, 5, 9, 17])
def test_narrow_sort_matches_the_reference_on_every_path(monkeypatch, n):
    # At n <= NARROW_N the sort sees the top 32 bits of each key, and at
    # n <= GROUP_KEYS // 2 it sorts `group` rows at a time, each word
    # tagged with its row in its top `tagbits` bits: it sees the bits
    # above 32 + tagbits + b. Keys of (x mod 2**(top+1)) << (31 + tagbits
    # + b) give those 2**top values over twice as many keys, so fast, tied
    # and redrawn rows all occur. Chunks of 4 groups and 2 rows end in a
    # partial group, and tiles of group + 1 rows round up to 2 groups,
    # which repeat in each chunk.
    group = max(1, rng.GROUP_KEYS // n)
    tagbits = (group - 1).bit_length()
    b = (n - 1).bit_length()
    top = 4 if group > 1 else 8  # 17 keys need more than 16 top parts
    wide = rng._mix64_arr
    monkeypatch.setattr(
        rng, "_mix64_arr", lambda z: (wide(z) % np.uint64(2 ** (top + 1))) << np.uint64(31 + tagbits + b)
    )
    monkeypatch.setattr(rng, "CHUNK_KEYS", (4 * group + 2) * n)
    monkeypatch.setattr(rng, "TILE_KEYS", (group + 1) * n)
    seeds = np.array([fold(29, t) for t in range(1, 301)], dtype=np.uint64)
    _assert_every_path(monkeypatch, seeds, n, low_bits=32 + tagbits + b)


@pytest.mark.parametrize("n", [rng.NARROW_N, rng.NARROW_N + 1])
def test_narrow_and_wide_sorts_agree_at_the_threshold(monkeypatch, n):
    seeds = fold_grid([37], np.arange(1, 301))[0]
    tied = []
    real = rng._argsort_redraw
    monkeypatch.setattr(rng, "_argsort_redraw", lambda s, n: tied.append(s.size) or real(s, n))
    got = permutations_from_seeds(seeds, n)
    # Only the 32-bit sort sees ties here: 23 bits decide a row of 512.
    assert (sum(tied) > 0) == (n <= rng.NARROW_N)
    monkeypatch.setattr(rng, "NARROW_N", 0)
    assert np.array_equal(got, permutations_from_seeds(seeds, n))
    for row, s in zip(got, seeds):
        assert np.array_equal(row, np.argsort(raw_block(int(s), 0, n), kind="stable"))


@pytest.mark.parametrize(
    "n",
    [
        rng.GROUP_KEYS // 2,  # rows sorted two at a time
        rng.GROUP_KEYS // 2 + 1,  # one at a time
        rng.NARROW_N,  # the 32-bit sort
        rng.NARROW_N + 1,  # the 64-bit sort
        1000,
        rng.TILE_KEYS - 1,  # tiles of two rows
        rng.TILE_KEYS,  # one row a tile: the broadcast add
        2**17,
    ],
)
def test_chunked_rows_match_rows_drawn_one_seed_at_a_time(n):
    # Two full chunks and a partial one (a chunk is one row once n
    # passes CHUNK_KEYS), whose odd row count ends in a partial group.
    per_chunk = max(1, rng.CHUNK_KEYS // n)
    count = 2 * per_chunk + per_chunk // 2 + 1
    seeds = fold_grid([31], np.arange(1, count + 1))[0]

    got = permutations_from_seeds(seeds, n)

    assert got.shape == (count, n)
    for row, s in zip(got, seeds):
        assert np.array_equal(row, permutation(int(s), n))
        assert np.array_equal(row, np.argsort(raw_block(int(s), 0, n), kind="stable"))


def tied_keys(monkeypatch, n):
    """Narrow the mixer so that rows of n keys often tie and are redrawn."""
    wide = rng._mix64_arr
    monkeypatch.setattr(rng, "_mix64_arr", lambda z: wide(z) % np.uint64(2 ** ((n - 1).bit_length() + 4)))


@pytest.mark.parametrize("n, tied", [(5, False), (5, True), (700, False), (2**17, False)])
def test_any_thread_count_gives_the_same_bytes(monkeypatch, pools, n, tied):
    if tied:
        tied_keys(monkeypatch, n)
        monkeypatch.setattr(rng, "CHUNK_KEYS", 4 * n)  # so that ties land in many chunks
    # Twelve full chunks and a partial one.
    seeds = fold_grid([41], np.arange(1, 12 * max(1, rng.CHUNK_KEYS // n) + 4))[0]
    redrawn = []
    real = rng._argsort_redraw
    monkeypatch.setattr(rng, "_argsort_redraw", lambda s, n: redrawn.append(s.size) or real(s, n))
    monkeypatch.setattr(rng, "usable_cpus", lambda: 1)
    want = permutations_from_seeds(seeds, n)
    monkeypatch.setattr(rng, "PARALLEL_KEYS", 1)
    got, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, more of them than cores
    try:
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(rng, "usable_cpus", lambda: cpus)
            got.append(permutations_from_seeds(seeds, n))  # kept, so no call reuses another's rows
            assert np.array_equal(got[-1], want)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [2, 3, 8]
    assert (sum(redrawn) > 0) == tied
    # The rule: one thread per CPU, chunk and PARALLEL_KEYS keys.
    monkeypatch.setattr(rng, "PARALLEL_KEYS", seeds.size * n // 2)
    assert np.array_equal(permutations_from_seeds(seeds, n), want)
    monkeypatch.setattr(rng, "PARALLEL_KEYS", seeds.size * n // 2 + 1)
    assert np.array_equal(permutations_from_seeds(seeds, n), want)
    assert pools == [2, 3, 8, 2]


def test_threads_need_two_thresholds_of_keys_and_a_chunk_each(monkeypatch, pools):
    monkeypatch.setattr(rng, "usable_cpus", lambda: 8)
    n = 1000
    keys = 2 * rng.PARALLEL_KEYS
    permutations_from_seeds(np.arange(keys // n, dtype=np.uint64), n)
    assert pools == []
    permutations_from_seeds(np.arange(keys // n + 1, dtype=np.uint64), n)
    assert pools == [2]
    monkeypatch.setattr(rng, "PARALLEL_KEYS", 1)
    permutations_from_seeds(np.arange(3, dtype=np.uint64), rng.CHUNK_KEYS)  # three chunks of one row
    assert pools == [2, 3]


def test_a_failing_chunk_raises_and_leaves_no_thread(monkeypatch, pools):
    n = 5
    tied_keys(monkeypatch, n)
    monkeypatch.setattr(rng, "CHUNK_KEYS", 4 * n)
    monkeypatch.setattr(rng, "PARALLEL_KEYS", 1)
    monkeypatch.setattr(rng, "usable_cpus", lambda: 3)

    def broken(s, n):
        raise ValueError("chunk failed")

    monkeypatch.setattr(rng, "_argsort_redraw", broken)
    before = threading.active_count()
    with pytest.raises(ValueError, match="chunk failed"):
        permutations_from_seeds(fold_grid([43], np.arange(1, 301))[0], n)
    assert pools == [3]
    assert threading.active_count() == before


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert rng.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert rng.usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert rng.usable_cpus() == 1


# Faults a call of a draw repeated in a fresh interpreter that imports rng.
DRAW_FAULTS = """
import resource
import numpy as np
from hypercov import rng
seeds = rng.fold_grid([29], np.arange(1, 611))[0]
for _ in range(3):
    rng.permutations_from_seeds(seeds, 125)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    rng.permutations_from_seeds(seeds, 125)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


def test_importing_rng_stops_repeated_draws_faulting_in_memory():
    # Under glibc's own thresholds every call gave its chunk's memory
    # back to the kernel and faulted it in again: 224 minor faults a call.
    pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("only glibc's malloc takes these thresholds")
    assert rng._keep_freed_memory()  # glibc took both values
    proc = subprocess.run([sys.executable, "-c", DRAW_FAULTS], capture_output=True, text=True, check=True)
    assert float(proc.stdout) < 16


# numpy's traced bytes before and after draws at three n, in a fresh
# interpreter.
DRAW_MEMORY = """
import tracemalloc
import numpy as np
from hypercov import rng
only_numpy = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
def numpy_bytes():
    return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(only_numpy).traces)
tracemalloc.start()
seeds = rng.fold_grid([53], np.arange(1, 6001))[0]
before = numpy_bytes()
for n in (9, 10, 100):
    rng.permutations_from_seeds(seeds, n)
print(before, numpy_bytes())
"""


def test_a_draw_keeps_no_array_after_it_returns():
    # A tile cached per n would hold memory for the life of the process.
    proc = subprocess.run([sys.executable, "-c", DRAW_MEMORY], capture_output=True, text=True, check=True)
    before, after = map(int, proc.stdout.split())
    assert before > 0  # the seeds are traced
    assert after == before


class _Libc:
    """ctypes.CDLL(None) of a C library whose mallopt, if it has one,
    records its calls and returns `took`."""

    def __init__(self, name, took=None):
        assert name is None
        self.calls = []
        if took is not None:

            def mallopt(param, value):
                self.calls.append((param, value))
                return took

            self.mallopt = mallopt

    def __getattr__(self, symbol):
        raise AttributeError(f"undefined symbol: {symbol}")


def _no_library(name):
    raise TypeError("no library from None")  # as on Windows


@pytest.mark.parametrize("opened", [_Libc, _no_library])
def test_keep_freed_memory_leaves_a_library_without_mallopt(monkeypatch, opened):
    monkeypatch.setattr(rng.ctypes, "CDLL", opened)
    assert rng._keep_freed_memory() is False


@pytest.mark.parametrize("took", [1, 0])
def test_keep_freed_memory_sets_both_thresholds(monkeypatch, took):
    libc = _Libc(None, took)
    monkeypatch.setattr(rng.ctypes, "CDLL", lambda name: libc)
    assert rng._keep_freed_memory() is bool(took)
    assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_wrapping_arithmetic_raises_no_warning(seed):
    # uint64 array arithmetic wraps mod 2^64 without a warning; only
    # numpy scalars would warn, and none of these functions uses them.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rng._mix64_arr(np.array([seed], dtype=np.uint64))[0] == mix64(seed)
        assert int(fold_grid([seed], [1, 2**64 - 1])[0, 1]) == fold(seed, 2**64 - 1)
        assert int(raw_block(seed, 2**64 - 3, 2)[1]) == mix64(seed + (2**64 - 1) * GAMMA)
        assert sorted(permutations_from_seeds(np.array([seed], dtype=np.uint64), 9)[0]) == list(range(9))


def test_mix64_arr_works_in_place():
    z = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
    out = rng._mix64_arr(z)
    assert out is z
    assert [int(v) for v in z] == [mix64(0), mix64(1), mix64(2**64 - 1)]


def test_gamma_constant():
    # The increment is pinned; silently changing it would reshuffle
    # every derived stream.
    assert GAMMA == 0x9E3779B97F4A7C15
