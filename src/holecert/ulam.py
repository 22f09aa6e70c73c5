"""Ulam transition matrices on uniform partitions of [0, 1).

The closed-system matrix has entries

    P[i, j] = lambda(bin_i  intersect  T^-1 bin_j) / lambda(bin_i),

assembled branch by branch in one vectorised integer pass: int64 when an
a-priori bound keeps every integer below 2^53, Python integers otherwise.
Every branch is a Moebius map (p, q, r, s) (a linear branch has r = 0,
s = 1); with integer coefficients P, Q, R, S the preimage of the grid
point j/n is (S j - Q n)/(P n - R j), so every entry is an exact rational,
rounded once to float64 and never rescaled.  Rows where branches meet
are summed exactly in ``Fraction`` before that rounding.  Closed rows sum
to 1 exactly before it (the map is a self-map of [0, 1]), so a rounded
row's exact sum is within 2^-53 of 1.  The open-system matrix for a hole
aligned with the partition equals the closed matrix with the rows of all
bins inside the hole zeroed; it is sub-stochastic and its dominant
eigenvalue is the discrete escape factor.

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
    "HoleAlignmentError",
    "build_closed",
    "build_open",
]

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

def _branch_cells(branch, n: int):
    """Nonzero cells of one branch on the n-bin grid, exactly.

    Returns int64 ``rows`` and ``cols`` and integer arrays ``num``, ``den``
    with n * lambda(bin_row & branch^-1 bin_col) = num/den <= 1 (a cell lies
    inside one bin).  Every breakpoint numerator and denominator is at most
    ``big`` (below), so |num| <= |den| <= big^2 and no intermediate exceeds
    big^2; when that is under 2^53 they are int64, exact in float64, and
    ``num / den`` is the correctly rounded quotient.  Otherwise they are
    Python-int object arrays.
    """
    p, q, r, s = branch.p, branch.q, branch.r, branch.s
    lo, hi = branch.lo, branch.hi
    ylo, yhi = branch.image
    # integer coefficients; floor division and the cell lengths below are
    # right for either sign of the denominators
    scale = math.lcm(*(c.denominator for c in (p, q, r, s)))
    P, Q, R, S = (int(c * scale) for c in (p, q, r, s))
    big = max((abs(P) + abs(Q) + abs(R) + abs(S)) * n, n + 1,
              lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    dtype = np.int64 if big * big < 2**53 else object
    # the grid points k/n inside the image cut it into the y-bins j0 .. j1-1
    j0, j1 = math.floor(ylo * n), math.ceil(yhi * n)
    k = np.arange(j0 + 1, j1).astype(dtype)
    cols = np.arange(j0, j1, dtype=np.int64)
    pre_num, pre_den = S * k - Q * n, P * n - R * k
    if not branch.increasing:
        pre_num, pre_den, cols = pre_num[::-1], pre_den[::-1], cols[::-1]
    # breakpoints u_t in increasing x; [u_t, u_t+1] is the preimage of bin cols[t]
    u_num = np.concatenate(([lo.numerator], pre_num, [hi.numerator]))
    u_den = np.concatenate(([lo.denominator], pre_den, [hi.denominator]))
    first = (n * u_num[:-1]) // u_den[:-1]             # floor(n u_t)
    last = -((-n * u_num[1:]) // u_den[1:]) - 1        # ceil(n u_t+1) - 1
    counts = (last - first + 1).astype(np.int64)
    starts = np.cumsum(counts) - counts
    t = np.repeat(np.arange(len(counts)), counts)
    rows = first.astype(np.int64)[t] + np.arange(len(t)) - starts[t]
    # a cell spans max(u_t, row/n) .. min(u_t+1, (row+1)/n)
    lnum, lden = rows.astype(dtype), np.full(len(t), n, dtype=dtype)
    rnum, rden = lnum + 1, lden.copy()
    lnum[starts], lden[starts] = u_num[:-1], u_den[:-1]
    ends = starts + counts - 1
    rnum[ends], rden[ends] = u_num[1:], u_den[1:]
    return rows, cols[t], n * (rnum * lden - lnum * rden), rden * lden


def build_closed(tmap: PiecewiseMap, partition: UlamPartition) -> UlamMatrix:
    """Assemble the row-stochastic Ulam matrix of the closed system.

    Every entry is an exact rational from integer preimages of the grid
    points (int64 where an a-priori bound allows, see :func:`_branch_cells`),
    rounded once to float64.  Only a row that is an end row of two or more
    branches can hold a cell of each; its cells are summed as ``Fraction``
    before rounding.
    """
    n = partition.n_bins
    # the distinct end rows of each branch; one counted twice is shared
    ends = [i for b in tmap.branches
            for i in {math.floor(b.lo * n), math.ceil(b.hi * n) - 1}]
    shared_rows = np.bincount(ends, minlength=n) > 1
    rows, cols, data = [], [], []
    shared: dict[tuple[int, int], Fraction] = {}
    for branch in tmap.branches:
        r, c, num, den = _branch_cells(branch, n)
        edge = shared_rows[r]
        for key, a, b in zip(zip(r[edge].tolist(), c[edge].tolist()),
                             num[edge].tolist(), den[edge].tolist()):
            shared[key] = shared.get(key, 0) + Fraction(a, b)
        rows.append(r[~edge])
        cols.append(c[~edge])
        data.append((num[~edge] / den[~edge]).astype(np.float64))
    rows.append(np.array([i for i, _ in shared], dtype=np.int64))
    cols.append(np.array([j for _, j in shared], dtype=np.int64))
    data.append(np.array([float(v) for v in shared.values()]))
    rows, cols, data = (np.concatenate(a) for a in (rows, cols, data))
    order = np.lexsort((cols, rows))
    cols, data = cols[order], data[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    matrix = sp.csr_matrix((data, cols, indptr), shape=(n, n))
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
    # drop the hole's stretch of indices/data; its rows become empty
    P = closed.matrix
    lo, hi = P.indptr[hole_bins.start], P.indptr[hole_bins.stop]
    open_mat = sp.csr_matrix((np.delete(P.data, np.s_[lo:hi]), np.delete(P.indices, np.s_[lo:hi]),
                              P.indptr - np.clip(P.indptr - lo, 0, hi - lo)), shape=P.shape)
    return UlamMatrix(partition, open_mat, "open", tmap.fingerprint, hole=hole)
