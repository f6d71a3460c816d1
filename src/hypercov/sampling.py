"""Uniform samplers for Latin hypercube and orthogonal trials.

A trial is drawn from its own seed s. Latin hypercube trial: column j
of the matrix is an independent uniform permutation of [n], drawn from
substream fold(s, j).

Orthogonal trial (needs n = p^d): for each axis i and coarse band j an
independent uniform permutation f_ij of [p^(d-1)] is drawn from
substream fold(s, (i-1)*p + j). Sub-blocks (coarse tuples) are
visited in lexicographic order; the point placed in sub-block
(c_1..c_d) takes axis-i value

    (c_i - 1) * p^(d-1) + f_i,c_i(next unused slot).

Every choice of the d*p permutations yields a distinct orthogonal trial
and every orthogonal trial arises from exactly one choice, so the
output is uniform over all orthogonal trials.

Trials are drawn through two entries, in a batch, one trial per seed:
`points_batch` draws either sampler's trials for given seeds, and
`trial_columns` draws trials 1..k of a run, trial t from seed
fold(seed, t). Both give 0-based columns: an int32 array of shape
(k, d, n) (n <= design.MAX_N = 2^20) whose entry [t, j] is axis j + 1
of trial t, a permutation of 0..n-1, the one form of a trial outside
the oracle; 1-based rows appear only in `gen` output and the oracle's
cell tuples.

Each axis has its own substreams (LHS axis j: fold(s, j); OS axis i:
labels (i-1)*p + 1 .. i*p), so a batch can be drawn for a subset A of
the axes: the `axes` argument, a sorted tuple of 1-based axes, gives
columns (k, len(A), n) equal to the full draw's columns A, without
drawing the others. Simulation draws only the axes its targets count;
`gen` and every call without `axes` draw all d.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import rng
from .design import DesignSpec, SampleKind, band_width
from .errors import StructuralError


# 1-based axes to draw, sorted; None draws all d.
Axes = tuple[int, ...] | None


@lru_cache(maxsize=64)
def _assembly_tables(p: int, d: int, axes: Axes) -> tuple[np.ndarray, np.ndarray]:
    """Flat index (a, n) into a trial's fine permutations (a, p, w), and
    int32 band offsets (a, n), of the orthogonal rows on `axes`.

    Row r visits the sub-block whose coarse bands are the base-p digits
    of r, most significant first (lexicographic order). On axis i it
    takes band[i, r] and slot[i, r] of that band's fine permutation: the
    number of earlier rows sharing band[i, r], which is r with digit i
    removed. Its value is the fine entry plus band[i, r] * w.
    """
    w = band_width(p, d)
    rows = np.arange(d) if axes is None else np.array(axes) - 1
    r = np.arange(p * w)
    scale = p ** (d - 1 - rows[:, None])  # p^(d-1-i) for axis i
    band, slot = r // scale % p, r // (scale * p) * scale + r % scale
    tables = (np.arange(rows.size)[:, None] * p + band) * w + slot, (band * w).astype(np.int32)
    for table in tables:  # cached, so shared by every caller
        table.flags.writeable = False
    return tables


def orthogonal_columns(fines: np.ndarray, p: int, axes: Axes, d: int) -> np.ndarray:
    """0-based columns (k, a, n) of the orthogonal trials assembled from
    fine permutations (k, a, p, w): fines[t, i, j] is the 0-based fine
    permutation of coarse band j + 1 on the design's axis axes[i] in
    trial t. axes are 1-based axes of a d-axis design; None is all d."""
    index, offset = _assembly_tables(p, d, axes)
    k, a, _, w = fines.shape
    cols = np.take(fines.reshape(k, a * p * w), index, axis=1)
    cols += offset
    return cols


def points_batch(spec: DesignSpec, kind: SampleKind, seeds: np.ndarray, axes: Axes = None) -> np.ndarray:
    """Columns (k, len(axes), n), 0-based, of one trial per seed."""
    labels = np.arange(1, spec.d + 1) if axes is None else np.array(axes)
    if kind is SampleKind.LHS:
        return rng.permutations_from_seeds(rng.fold_grid(seeds, labels), spec.n)
    p = spec.require_p()
    labels = (labels[:, None] - 1) * p + np.arange(1, p + 1)
    f_seeds = rng.fold_grid(seeds, labels.reshape(-1)).reshape(-1, *labels.shape)
    fines = rng.permutations_from_seeds(f_seeds, band_width(p, spec.d))
    return orthogonal_columns(fines, p, axes, spec.d)


def trial_columns(spec: DesignSpec, kind: SampleKind, seed: int, k: int, axes: Axes = None) -> np.ndarray:
    """Columns of trials 1..k of a run, on the sorted 1-based `axes` (all
    d by default); trial t is drawn from fold(seed, t)."""
    if k < 0:
        raise StructuralError(f"k must be >= 0, got {k}")
    # Masked as rng.fold masks, so a negative seed or one past 64 bits runs.
    seeds = rng.fold_grid([seed & rng.MASK64], np.arange(1, k + 1))[0]
    return points_batch(spec, kind, seeds, axes)
