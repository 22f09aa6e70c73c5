"""Ulam transition matrices on uniform partitions of [0, 1).

The closed-system matrix has entries

    P[i, j] = lambda(bin_i  intersect  T^-1 bin_j) / lambda(bin_i),

assembled branch by branch from exact rational preimages whenever the map
supports them (linear and Moebius branches), so closed rows sum to 1
exactly before the single rounding to float64.  The open-system matrix
for a hole aligned with the partition equals the closed matrix with the
rows of all bins inside the hole zeroed; it is sub-stochastic and its
dominant eigenvalue is the discrete escape factor.

Matrices are plain ``scipy.sparse.csr_matrix`` wrapped with partition and
provenance metadata.  They live only in the process that built them: the
pipeline persists the spectral record of a closed matrix, never the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .maps import PiecewiseMap, as_rational

__all__ = [
    "UlamPartition",
    "Hole",
    "UlamMatrix",
    "UlamAssemblyError",
    "HoleAlignmentError",
    "build_closed",
    "build_open",
]

#: closed rows may deviate from 1 by at most this much before renormalizing
ROW_SUM_TOL = 1e-9


class UlamAssemblyError(ArithmeticError):
    """A closed row sum deviated from 1 beyond the renormalization budget."""


class HoleAlignmentError(ValueError):
    """Hole endpoints do not coincide with partition points."""


@dataclass(frozen=True)
class UlamPartition:
    """Uniform partition of [0, 1) into ``n_bins`` half-open bins."""

    n_bins: int

    def __post_init__(self):
        if self.n_bins < 1:
            raise ValueError("partition needs at least one bin")

    @property
    def mesh(self) -> Fraction:
        return Fraction(1, self.n_bins)

    def bin_interval(self, i: int) -> tuple[Fraction, Fraction]:
        if not 0 <= i < self.n_bins:
            raise IndexError(f"bin index {i} out of range")
        return (Fraction(i, self.n_bins), Fraction(i + 1, self.n_bins))

    def is_partition_point(self, x) -> bool:
        return (as_rational(x) * self.n_bins).denominator == 1


@dataclass(frozen=True)
class Hole:
    """Open interval (a, b) through which orbits escape; endpoints rational."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))
        if not (0 <= self.a < self.b <= 1):
            raise ValueError(f"hole needs 0 <= a < b <= 1, got ({self.a}, {self.b})")

    @property
    def measure(self) -> Fraction:
        return self.b - self.a

    def aligned_to(self, partition: UlamPartition) -> bool:
        return (partition.is_partition_point(self.a)
                and partition.is_partition_point(self.b))

    def bin_range(self, partition: UlamPartition) -> range:
        """Indices of the bins inside the hole (requires alignment)."""
        if not self.aligned_to(partition):
            raise HoleAlignmentError(
                f"hole ({self.a}, {self.b}) is not aligned to 1/{partition.n_bins} bins"
            )
        return range(int(self.a * partition.n_bins), int(self.b * partition.n_bins))

    def __str__(self):
        return f"({self.a},{self.b})"


@dataclass
class UlamMatrix:
    """A sparse Ulam matrix with its partition and provenance."""

    partition: UlamPartition
    matrix: sp.csr_matrix
    mode: str                      # "closed" | "open"
    map_fingerprint: str
    hole: Hole | None = None

    def __post_init__(self):
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if (self.mode == "open") != (self.hole is not None):
            raise ValueError("open matrices carry a hole; closed matrices do not")

    @property
    def n_bins(self) -> int:
        return self.partition.n_bins

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


# -- assembly ------------------------------------------------------------------

def _row_entries(tmap: PiecewiseMap, part: UlamPartition, i: int) -> dict[int, Fraction]:
    """One closed row as {column: exact preimage-fraction} (exact maps)."""
    n = part.n_bins
    lo, hi = part.bin_interval(i)
    row: dict[int, Fraction] = {}
    for bi, branch in enumerate(tmap.branches):
        a = max(lo, branch.lo)
        b = min(hi, branch.hi)
        if b <= a:
            continue
        ya, yb = branch(a), branch(b)
        if ya > yb:
            ya, yb = yb, ya
        j0 = int(ya * n)
        ybn = yb * n
        j1 = int(ybn) - 1 if ybn.denominator == 1 else int(ybn)
        j1 = min(j1, n - 1)
        for j in range(j0, j1 + 1):
            seg = tmap.branch_preimage(bi, (max(ya, Fraction(j, n)),
                                            min(yb, Fraction(j + 1, n))))
            if seg is None:
                continue
            length = seg[1] - seg[0]
            if length > 0:
                row[j] = row.get(j, Fraction(0)) + length * n
    return row


def _row_entries_float(tmap: PiecewiseMap, part: UlamPartition, i: int) -> dict[int, float]:
    """One closed row in float arithmetic (maps with tabulated branches)."""
    n = part.n_bins
    lo, hi = (float(x) for x in part.bin_interval(i))
    row: dict[int, float] = {}
    for bi, branch in enumerate(tmap.branches):
        a = max(lo, float(branch.lo))
        b = min(hi, float(branch.hi))
        if b <= a:
            continue
        ya, yb = float(branch(a)), float(branch(b))
        if ya > yb:
            ya, yb = yb, ya
        j0 = max(int(math.floor(ya * n)), 0)
        j1 = min(int(math.ceil(yb * n)), n)
        for j in range(j0, j1):
            seg = tmap.branch_preimage(bi, (max(ya, j / n), min(yb, (j + 1) / n)))
            if seg is None:
                continue
            length = float(seg[1]) - float(seg[0])
            if length > 0:
                row[j] = row.get(j, 0.0) + length * n
    return row


def build_closed(tmap: PiecewiseMap, partition: UlamPartition) -> UlamMatrix:
    """Assemble the row-stochastic Ulam matrix of the closed system.

    Exact maps are assembled in rational arithmetic (each row sums to 1
    exactly, then is rounded once to float64); otherwise rows are float
    and a deviation of the row sum beyond 1e-9 raises
    :class:`UlamAssemblyError`, below which the row is renormalized.
    """
    n = partition.n_bins
    if n < tmap.n_branches:
        raise ValueError(
            f"partition too coarse: {n} bins < {tmap.n_branches} branches"
        )
    exact = tmap.is_exact
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for i in range(n):
        row = _row_entries(tmap, partition, i) if exact else _row_entries_float(tmap, partition, i)
        if exact:
            total = sum(row.values())
            if total != 1:
                raise UlamAssemblyError(
                    f"row {i}: exact row sum {total} != 1 (map does not cover [0,1)?)"
                )
            cols = sorted(row)
            vals = [float(row[j]) for j in cols]
        else:
            cols = sorted(row)
            vals = [row[j] for j in cols]
        s = math.fsum(vals)
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise UlamAssemblyError(
                f"row {i}: row sum {s!r} deviates from 1 beyond {ROW_SUM_TOL}"
            )
        if s != 1.0:
            vals = [v / s for v in vals]
        indices.extend(cols)
        data.extend(vals)
        indptr.append(len(indices))
    matrix = sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(n, n),
    )
    return UlamMatrix(partition, matrix, "closed", tmap.fingerprint)


def build_open(tmap: PiecewiseMap, partition: UlamPartition, hole: Hole,
               closed: UlamMatrix | None = None) -> UlamMatrix:
    """Open-system matrix: the closed matrix with in-hole rows zeroed.

    ``closed`` may supply a previously built closed matrix for the same
    map and partition (checked by fingerprint) to avoid reassembly.
    """
    hole_bins = hole.bin_range(partition)   # raises HoleAlignmentError if misaligned
    if closed is None:
        closed = build_closed(tmap, partition)
    else:
        if closed.mode != "closed" or closed.partition != partition:
            raise ValueError("supplied matrix is not a closed matrix on this partition")
        if closed.map_fingerprint != tmap.fingerprint:
            raise ValueError("supplied closed matrix was built from a different map")
    keep = np.ones(partition.n_bins)
    keep[list(hole_bins)] = 0.0
    open_mat = sp.diags(keep).dot(closed.matrix).tocsr()
    open_mat.eliminate_zeros()
    return UlamMatrix(partition, open_mat, "open", tmap.fingerprint, hole=hole)
