"""Naive reference checks over trials held as 0-based columns.

A trial is an array (d, n) whose row j is axis j + 1, as the samplers
and the oracle hold it. These helpers walk it point by point with plain
Python and import nothing from the package, so tests can hold the
package's numpy paths against them. `decimal_quotient` is the decimal
column of `exact` as first written, and `paper_kind_params` the paper's
four counting formulas.
"""

import math
from decimal import Decimal, localcontext

import numpy as np


def is_latin(cols) -> bool:
    """True when every axis of the trial is a permutation of 0..n-1."""
    n = len(cols[0])
    return all(sorted(int(v) for v in axis) == list(range(n)) for axis in cols)


def is_orthogonal(cols, p: int) -> bool:
    """True when the trial is Latin and its n = p^d points lie in n
    distinct sub-blocks; a value v is in coarse band v // p^(d-1)."""
    d, n = len(cols), len(cols[0])
    if p**d != n:
        raise ValueError(f"orthogonality needs n = p**d, got n={n}, p={p}, d={d}")
    w = p ** (d - 1)
    blocks = {tuple(int(axis[i]) // w for axis in cols) for i in range(n)}
    return is_latin(cols) and len(blocks) == n


def rows(cols) -> tuple[tuple[int, ...], ...]:
    """The trial's points as 1-based rows, in column order."""
    return tuple(tuple(int(axis[i]) + 1 for axis in cols) for i in range(len(cols[0])))


def columns(points) -> np.ndarray:
    """The 0-based (d, n) columns of a trial given as 1-based rows."""
    return np.array(points, dtype=np.int64).T - 1


def point_set(cols) -> frozenset[tuple[int, ...]]:
    """The trial's points, ignoring their order."""
    return frozenset(rows(cols))


def trials_holding(trials, values) -> int:
    """How many trials of (b, d, n) hold a point whose first len(values)
    coordinates are these 1-based values."""
    return sum(1 for cols in trials if any(row[: len(values)] == tuple(values) for row in rows(cols)))


def decimal_quotient(num: int, den: int, digits: int) -> str:
    """num/den as Decimal division of the whole integers prints it at
    precision `digits`."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(num) / Decimal(den))


def paper_kind_params(kind: str, d: int, n: int, p: int | None = None) -> tuple[int, int, int]:
    """(a, b, scale) of an exact kind by the paper's formulas, n = p^d
    where p is given: b trials, a of them holding a fixed unit, scale
    units. A unit is a grid cell (lhs, os), a value pair on one of the
    C(d,2) axis pairs (edge), or one on axes (1, 2) inside coarse cell
    (1, 1) (edge-subblock)."""
    f = math.factorial
    if kind == "lhs":
        return f(n - 1) ** (d - 1), f(n) ** (d - 1), n**d
    if kind == "os":
        w = p ** (d - 1)
        return p ** (d * (d - 1) * (p - 1)) * f(w - 1) ** (d * p), f(w) ** (d * p), p ** (d * d)
    if kind == "edge":
        return f(n - 1) ** (d - 1) * n ** (d - 2), f(n) ** (d - 1), n * n * math.comb(d, 2)
    if kind == "edge-subblock":
        return f(p**d - 1) ** (d - 1) * p ** (d * d - 2 * d), f(p**d) ** (d - 1), p ** (2 * d - 2)
    raise ValueError(f"unknown kind {kind!r}")
