"""Uniform samplers for Latin hypercube and orthogonal trials.

Latin hypercube trial: column j of the matrix is an independent uniform
permutation of [n], drawn from substream fold(trial_seed, j).

Orthogonal trial (needs n = p^d): for each axis i and coarse band j an
independent uniform permutation f_ij of [p^(d-1)] is drawn from
substream fold(trial_seed, (i-1)*p + j). Sub-blocks (coarse tuples) are
visited in lexicographic order; the point placed in sub-block
(c_1..c_d) takes axis-i value

    (c_i - 1) * p^(d-1) + f_i,c_i(next unused slot).

Every choice of the d*p permutations yields a distinct orthogonal trial
and every orthogonal trial arises from exactly one choice, so the
output is uniform over all orthogonal trials.

The samplers draw a batch at once: one trial per seed, as an int64
array of shape (k, n, d) with 1-based values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import rng
from .design import DesignSpec, Trial, band_width
from .errors import StructuralError, UnsupportedSpecError


class SampleKind(str, Enum):
    LHS = "lhs"
    OS = "os"


@dataclass(frozen=True)
class SamplerConfig:
    spec: DesignSpec
    seed: int
    kind: SampleKind = SampleKind.LHS

    def __post_init__(self) -> None:
        if self.kind is SampleKind.OS and self.spec.p is None:
            raise UnsupportedSpecError("orthogonal sampling needs n = p**d")


def trial_seed(master: int, t: int) -> int:
    """Seed of trial t (1-based) within a k-trial run."""
    return rng.fold(master, t)


def replicate_seed(master: int, r: int) -> int:
    """Seed of replicate r (1-based) within a simulation."""
    return rng.fold(master, r)


def lh_points_batch(spec: DesignSpec, trial_seeds: np.ndarray) -> np.ndarray:
    """Latin hypercube points for each seed; shape (k, n, d), values 1-based."""
    col_seeds = rng.fold_grid(trial_seeds, np.arange(1, spec.d + 1))
    perms = rng.permutations_from_seeds(col_seeds, spec.n)  # (k, d, n), 0-based
    return perms.transpose(0, 2, 1) + 1


@lru_cache(maxsize=64)
def _coarse_tables(p: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Lex-ordered coarse tuples (n, d) and per-axis slot indices (n, d).

    slot[r, i] counts earlier rows sharing coarse band C[r, i]; it is the
    consumption index into that band's fine permutation.
    """
    n = p**d
    r = np.arange(n)
    cols = [(r // p ** (d - 1 - i)) % p + 1 for i in range(d)]
    coarse = np.stack(cols, axis=1).astype(np.int64)
    slot = np.empty((n, d), dtype=np.int64)
    for i in range(d):
        for j in range(1, p + 1):
            pos = np.flatnonzero(coarse[:, i] == j)
            slot[pos, i] = np.arange(pos.size)
    return coarse, slot


def os_points_batch(spec: DesignSpec, trial_seeds: np.ndarray) -> np.ndarray:
    """Orthogonal points for each seed; shape (k, n, d), values 1-based."""
    p = spec.require_p()
    d, n = spec.d, spec.n
    w = band_width(p, d)
    labels = np.arange(1, d * p + 1)
    f_seeds = rng.fold_grid(trial_seeds, labels)  # (k, d*p)
    fines = rng.permutations_from_seeds(f_seeds, w).reshape(-1, d, p, w)
    coarse, slot = _coarse_tables(p, d)
    out = np.empty((len(np.atleast_1d(trial_seeds)), n, d), dtype=np.int64)
    for i in range(d):
        band = coarse[:, i]  # (n,), 1-based
        fine = fines[:, i, band - 1, slot[:, i]]  # (k, n), 0-based
        out[:, :, i] = (band - 1) * w + fine + 1
    return out


def points_batch(spec: DesignSpec, kind: SampleKind, trial_seeds: np.ndarray) -> np.ndarray:
    if kind is SampleKind.LHS:
        return lh_points_batch(spec, trial_seeds)
    return os_points_batch(spec, trial_seeds)


def gen_trials(cfg: SamplerConfig, k: int) -> list[Trial]:
    """k i.i.d. trials; trial t uses fold(cfg.seed, t)."""
    if k < 0:
        raise StructuralError(f"k must be >= 0, got {k}")
    seeds = rng.fold_array(cfg.seed, np.arange(1, k + 1))
    pts = points_batch(cfg.spec, cfg.kind, seeds)
    return [
        Trial(cfg.spec, tuple(tuple(int(v) for v in row) for row in trial)) for trial in pts
    ]


def assemble_orthogonal(spec: DesignSpec, fine_perms: dict[tuple[int, int], tuple[int, ...]]) -> Trial:
    """Build the orthogonal trial determined by explicit fine permutations.

    fine_perms[(i, j)] is a permutation of [p^(d-1)] (1-based) for axis i,
    coarse band j. This is the same assembly rule the sampler uses; the
    oracle enumerates all choices through it.
    """
    p = spec.require_p()
    d = spec.d
    w = band_width(p, d)
    coarse, slot = _coarse_tables(p, d)
    rows = []
    for r in range(spec.n):
        row = []
        for i in range(d):
            j = int(coarse[r, i])
            fine = fine_perms[(i + 1, j)][int(slot[r, i])]
            row.append((j - 1) * w + fine)
        rows.append(tuple(row))
    return Trial(spec, tuple(rows))
