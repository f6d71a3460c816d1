"""Domain model: design specs, sub-block coordinates, unit families,
sampler kinds and sweep modes.

A trial is n points in [n]^d whose coordinates on each axis form a
permutation of [n] (the Latin property). Trials are held as 0-based
columns: k trials are an int32 array (k, d, n) whose entry [t, j] is
axis j + 1 of trial t, a permutation of 0..n-1 (n <= MAX_N, so every
value fits); in the oracle, the same values as nested tuples. When
n = p^d for a coarse base p, each 1-based axis value v splits as

    v = (q - 1) * p^(d-1) + x,   q in [p], x in [p^(d-1)]

where q is the coarse band and x the fine offset. The coarse bands of a
point's coordinates locate it in one of the p^d sub-blocks; a trial is
orthogonal when every sub-block holds exactly one of its n points.

Axes, bands and cell values are 1-based on every external surface;
1-based point rows appear only in `gen` output and the oracle's cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import StructuralError

MAX_D = 16
MAX_N = 2**20


class SampleKind(str, Enum):
    LHS = "lhs"
    OS = "os"


class SweepMode(str, Enum):
    CLOSED_FORM = "closed-form"
    SIMULATED = "simulated"


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
            raise StructuralError("operation needs a coarse base p (n = p**d)")
        return self.p


def band_width(p: int, d: int) -> int:
    """Number of fine values per coarse band: p^(d-1)."""
    return p ** (d - 1)


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
