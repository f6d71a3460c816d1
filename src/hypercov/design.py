"""Domain model: design specs, trials, sub-block coordinates, edge projections.

A trial is an n x d matrix over [n] = {1..n} whose columns are each a
permutation of [n] (the Latin property). When n = p^d for a coarse base
p, each axis value v splits as

    v = (q - 1) * p^(d-1) + x,   q in [p], x in [p^(d-1)]

where q is the coarse band and x the fine offset. The coarse bands of a
point's coordinates locate it in one of the p^d sub-blocks; a trial is
orthogonal when every sub-block holds exactly one of its n points.

External surfaces are 1-based throughout. Trials compare as point sets:
equality and hashing use the rows sorted lexicographically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import StructuralError, UnsupportedSpecError

MAX_D = 16
MAX_N = 2**20


@dataclass(frozen=True)
class DesignSpec:
    """Shape of a sampling design: d axes with n levels each.

    p, when given, is the coarse base and must satisfy n == p**d exactly
    (no other factorization is inferred). p == 1 is admitted as the
    degenerate single-cell boundary case; without p, n >= 2 is required.
    """

    d: int
    n: int
    p: int | None = None

    def __post_init__(self) -> None:
        if not (2 <= self.d <= MAX_D):
            raise StructuralError(f"d must be in [2, {MAX_D}], got {self.d}")
        if self.n > MAX_N:
            raise StructuralError(f"n must be <= {MAX_N}, got {self.n}")
        if self.p is None:
            if self.n < 2:
                raise StructuralError(f"n must be >= 2, got {self.n}")
        else:
            if self.p < 1:
                raise StructuralError(f"p must be >= 1, got {self.p}")
            if self.p**self.d != self.n:
                raise StructuralError(
                    f"n must equal p**d, got n={self.n}, p**d={self.p**self.d}"
                )

    def require_p(self) -> int:
        if self.p is None:
            raise UnsupportedSpecError("operation needs a coarse base p (n = p**d)")
        return self.p


def band_width(p: int, d: int) -> int:
    """Number of fine values per coarse band: p^(d-1)."""
    return p ** (d - 1)


def decode_subblock_value(value: int, p: int, d: int) -> tuple[int, int]:
    """Split an axis value into (coarse band, fine offset), both 1-based."""
    w = band_width(p, d)
    if not (1 <= value <= p * w):
        raise StructuralError(f"value {value} outside [1, {p * w}]")
    return (value - 1) // w + 1, (value - 1) % w + 1


def encode_subblock_value(coarse: int, fine: int, p: int, d: int) -> int:
    """Inverse of decode_subblock_value."""
    w = band_width(p, d)
    if not (1 <= coarse <= p):
        raise StructuralError(f"coarse band {coarse} outside [1, {p}]")
    if not (1 <= fine <= w):
        raise StructuralError(f"fine offset {fine} outside [1, {w}]")
    return (coarse - 1) * w + fine


def coarse_tuple(point: tuple[int, ...], spec: DesignSpec) -> tuple[int, ...]:
    """Coarse band of each coordinate; identifies the point's sub-block."""
    p = spec.require_p()
    return tuple(decode_subblock_value(v, p, spec.d)[0] for v in point)


@dataclass(frozen=True)
class EdgeProjection:
    """An ordered axis pair (i, j), i < j, optionally restricted to one
    coarse cell (pi, pj) of the pair's base-p quotient grid."""

    i: int
    j: int
    coarse: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not (1 <= self.i < self.j):
            raise StructuralError(f"need 1 <= i < j, got ({self.i}, {self.j})")
        if self.coarse is not None and any(q < 1 for q in self.coarse):
            raise StructuralError("coarse bands must be >= 1")

    def validate_for(self, spec: DesignSpec) -> None:
        if self.j > spec.d:
            raise StructuralError(f"axis {self.j} outside [1, {spec.d}]")
        if self.coarse is not None:
            p = spec.require_p()
            if any(q > p for q in self.coarse):
                raise StructuralError(f"coarse bands must lie in [1, {p}]")


@dataclass(frozen=True, eq=False)
class Trial:
    """n points in [n]^d, stored row-major in generation order."""

    spec: DesignSpec
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n, d = self.spec.n, self.spec.d
        if len(self.points) != n:
            raise StructuralError(f"expected {n} rows, got {len(self.points)}")
        for row in self.points:
            if len(row) != d:
                raise StructuralError(f"expected width {d}, got row of {len(row)}")
            for v in row:
                if not (1 <= v <= n):
                    raise StructuralError(f"entry {v} outside [1, {n}]")

    @cached_property
    def canonical_rows(self) -> tuple[tuple[int, ...], ...]:
        """Rows sorted lexicographically; the set-semantics identity."""
        return tuple(sorted(self.points))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trial):
            return NotImplemented
        return self.spec == other.spec and self.canonical_rows == other.canonical_rows

    def __hash__(self) -> int:
        return hash((self.spec, self.canonical_rows))

    def column(self, j: int) -> tuple[int, ...]:
        """Column j (1-based) across rows."""
        return tuple(row[j - 1] for row in self.points)


def is_latin(trial: Trial) -> bool:
    """True when every column is a permutation of [n]."""
    full = set(range(1, trial.spec.n + 1))
    return all(set(trial.column(j)) == full for j in range(1, trial.spec.d + 1))


def is_orthogonal(trial: Trial) -> bool:
    """True when the trial is Latin and occupies every sub-block exactly once."""
    spec = trial.spec
    spec.require_p()
    if not is_latin(trial):
        return False
    blocks = {coarse_tuple(pt, spec) for pt in trial.points}
    return len(blocks) == spec.n


def project_edges(trial: Trial, e: EdgeProjection) -> frozenset[tuple[int, int]]:
    """Distinct (a_i, a_j) pairs of the trial on axes (i, j).

    With e.coarse set, only pairs whose coarse bands match are kept.
    A Latin trial always yields exactly n distinct pairs unrestricted,
    because coordinate i alone already separates the rows.
    """
    e.validate_for(trial.spec)
    pairs = {(row[e.i - 1], row[e.j - 1]) for row in trial.points}
    if e.coarse is not None:
        p, d = trial.spec.require_p(), trial.spec.d
        pi, pj = e.coarse
        pairs = {
            (a, b)
            for a, b in pairs
            if decode_subblock_value(a, p, d)[0] == pi
            and decode_subblock_value(b, p, d)[0] == pj
        }
    return frozenset(pairs)


def all_edge_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """All C(d,2) axis pairs (i, j) with i < j, in lexicographic order."""
    return tuple(combinations(range(1, d + 1), 2))


# --- serialization ---------------------------------------------------------


def trial_to_json(trial: Trial, seed: int, kind: str) -> str:
    """JSON envelope with enough provenance to regenerate the trial."""
    spec_obj: dict = {"d": trial.spec.d, "n": trial.spec.n}
    if trial.spec.p is not None:
        spec_obj["p"] = trial.spec.p
    return json.dumps(
        {
            "spec": spec_obj,
            "seed": seed,
            "kind": kind,
            "points": [list(row) for row in trial.points],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
