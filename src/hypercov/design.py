"""Domain model: design specs, trials, sub-block coordinates, unit families.

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

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class Units:
    """A family of counted cells: those of the projection onto t axes.

    t None means all d axes (the full grid); otherwise the axes are
    1..t unless dims names them. coarse = (pi, pj), for an axis pair
    named in dims, keeps only the cells inside coarse cell (pi, pj) of
    the pair's base-p quotient grid, so the family has p^(2(d-1)) cells.
    """

    t: int | None = None
    dims: tuple[int, ...] | None = None
    coarse: tuple[int, int] | None = None

    @property
    def label(self) -> str:
        """The simulate target text that names the family."""
        if self.coarse is not None:
            return "edge:" + ",".join(str(v) for v in self.dims + self.coarse)
        if self.t is None:
            return "full"
        if self.dims is None:
            return f"proj:{self.t}"
        return f"proj:{self.t}@" + ",".join(str(v) for v in self.dims)

    def axes(self, spec: DesignSpec) -> tuple[int, ...]:
        """The projected axes, 1-based, in key order."""
        if self.dims is not None:
            return self.dims
        return tuple(range(1, (spec.d if self.t is None else self.t) + 1))

    def validate_for(self, spec: DesignSpec) -> None:
        if self.t is not None and not (1 <= self.t <= spec.d):
            raise StructuralError(f"t must be in [1, {spec.d}], got {self.t}")
        if self.dims is not None:
            if len(self.dims) != self.t or len(set(self.dims)) != self.t:
                raise StructuralError(f"need {self.t} distinct axes, got {self.dims}")
            if any(not (1 <= v <= spec.d) for v in self.dims):
                raise StructuralError(f"axes {self.dims} outside [1, {spec.d}]")
        if self.coarse is not None:
            if self.dims is None or len(self.dims) != 2 or len(self.coarse) != 2:
                raise StructuralError("coarse bands need an axis pair: edge:i,j,pi,pj")
            p = spec.require_p()
            if any(not (1 <= q <= p) for q in self.coarse):
                raise StructuralError(f"coarse bands must lie in [1, {p}]")

    def universe(self, spec: DesignSpec) -> int:
        """Number of cells in the family."""
        if self.coarse is not None:
            return band_width(spec.require_p(), spec.d) ** 2
        return spec.n ** len(self.axes(spec))

    def cells(self, trial: Trial) -> frozenset[tuple[int, ...]]:
        """Distinct cells of the family that the trial covers, as value
        tuples on the projected axes.

        Without coarse a Latin trial covers exactly n cells, because any
        one axis already separates its rows.
        """
        spec = trial.spec
        self.validate_for(spec)
        axes = self.axes(spec)
        cells = {tuple(row[v - 1] for v in axes) for row in trial.points}
        if self.coarse is not None:
            cells = {c for c in cells if coarse_tuple(c, spec) == self.coarse}
        return frozenset(cells)
