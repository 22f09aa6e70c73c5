"""Ulam transition matrices on uniform partitions of [0, 1).

The closed-system matrix has entries

    P[i, j] = lambda(bin_i  intersect  T^-1 bin_j) / lambda(bin_i),

assembled by one vectorised integer pass per run of consecutive branches
(a run holds a few thousand cells, so its arrays stay small): int64 when
one a-priori bound keeps every integer of every branch below 2^53, Python
integers otherwise.  Every branch is a Moebius map (p, q, r, s) (a linear
branch has r = 0, s = 1); with integer coefficients P, Q, R, S the
preimage of the grid point j/n is (S j - Q n)/(P n - R j), so every entry
is an exact rational, rounded once to float64 and never rescaled.  The
branch computes its integer coefficients and endpoints once and keeps
them, so a repeated assembly does no ``Fraction`` arithmetic outside the
shared rows below.  Rows where branches meet
are summed exactly in ``Fraction`` before that rounding.  Closed rows sum
to 1 exactly before it (the map is a self-map of [0, 1]), so a rounded
row's exact sum is within 2^-53 of 1.  The open-system matrix P_H for a
hole aligned with the partition is the closed matrix with the rows of all
bins inside the hole zeroed; it is sub-stochastic and its dominant
eigenvalue is the discrete escape factor.  Since ``x P_H = (x 1_{not H}) P``,
an open system is its closed matrix plus a mask of the hole's bins: escape
estimates step the closed matrix's cached CSR transpose
(``UlamMatrix.transposed``) with the mask applied, and the explicit ``P_H``
lives only in the tests' reference (``tests/escape_oracle.py``).

Matrices are plain ``scipy.sparse.csr_matrix`` wrapped with partition and
provenance metadata.  They live only in the process that built them: the
pipeline persists the spectral record of a closed matrix, never the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .maps import PiecewiseMap, as_rational

__all__ = [
    "UlamPartition",
    "Hole",
    "UlamMatrix",
    "HoleAlignmentError",
    "build_closed",
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
    """The sparse closed Ulam matrix of a map, with its partition and the
    map's fingerprint."""

    partition: UlamPartition
    matrix: sp.csr_matrix
    map_fingerprint: str

    @property
    def n_bins(self) -> int:
        return self.partition.n_bins

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    @cached_property
    def transposed(self) -> sp.csr_matrix:
        """P^T in CSR, built on first use and kept: ``x @ P`` as ``P^T @ x``
        for every hole stepped on this matrix."""
        return self.matrix.T.tocsr()


# -- assembly ------------------------------------------------------------------

#: cells per vectorised pass: consecutive branches share a pass while their
#: cells fit in this many; a larger branch gets a pass of its own
_GROUP_CELLS = 2**13


def _grid(branch, n: int) -> tuple[int, int, int, int]:
    """``(j0, j1, i0, i1)``: the image covers the y-bins j0 .. j1-1 and the
    domain the rows i0 .. i1, from the branch's cached integer data."""
    *_, lo_n, lo_d, hi_n, hi_d, ylo_n, ylo_d, yhi_n, yhi_d = branch._integers
    return (ylo_n * n // ylo_d, -(-yhi_n * n // yhi_d),
            lo_n * n // lo_d, -(-hi_n * n // hi_d) - 1)


def _int_dtype(branches, n: int):
    """int64 when every cell of every branch stays below 2^53, else object.

    Every breakpoint numerator and denominator of a branch is at most its
    ``big`` (below), so |num| <= |den| <= big^2 in :func:`_cells` and no
    intermediate exceeds big^2; int64 values under 2^53 are exact in
    float64, so ``num / den`` is then the correctly rounded quotient.
    """
    big = n + 1
    for b in branches:
        P, Q, R, S, *ends = b._integers[:8]
        big = max(big, (abs(P) + abs(Q) + abs(R) + abs(S)) * n, *ends)
    return np.int64 if big * big < 2**53 else object


def _groups(grids):
    """Index ranges ``(a, b)`` of consecutive branches, each with at most
    ``_GROUP_CELLS`` cells unless it is a single branch.  A branch has at
    most j1 - j0 + i1 - i0 cells: one per row, plus one more for each of
    its j1 - j0 - 1 inner breakpoints that falls inside a row."""
    a, cells = 0, 0
    for b, (j0, j1, i0, i1) in enumerate(grids):
        size = j1 - j0 + i1 - i0
        if b > a and cells + size > _GROUP_CELLS:
            yield a, b
            a, cells = b, 0
        cells += size
    yield a, len(grids)


def _ramps(start, step, width):
    """Runs start, start + step, ... of each length in ``width``, end to end."""
    out = np.repeat(step, width)
    ends = start + step * (width - 1)
    out[np.cumsum(width) - width] = start - np.concatenate(([0], ends[:-1]))
    return np.cumsum(out, out=out)


def _cells(branches, grids, n: int, dtype):
    """Nonzero cells of consecutive branches on the n-bin grid, exactly.

    ``grids`` holds each branch's :func:`_grid`.  Returns int64 ``rows``
    and ``cols`` and integer arrays ``num``, ``den`` of ``dtype`` (see
    :func:`_int_dtype`) with n * lambda(bin_row & branch^-1 bin_col) =
    num/den <= 1 (a cell lies inside one bin).  With integer coefficients
    P, Q, R, S, the grid point k/n has the preimage (S k - Q n)/(P n - R k);
    floor division and the cell lengths below are right for either sign
    of the denominators.
    """
    j0, j1, i0, _ = np.array(grids, dtype=np.int64).reshape(-1, 4).T
    ints = np.array([b._integers[:8] for b in branches], dtype=dtype)
    P, Q, R, S, lo_n, lo_d, hi_n, hi_d = ints.reshape(-1, 8).T
    dk = np.array([1 if b.increasing else -1 for b in branches])
    # interval t of a branch lies between its breakpoints u_t < u_t+1 in x
    # and is the preimage of one y-bin; u_t+1 is the preimage of the grid
    # point k/n, k = j0+1 .. j1 on an increasing branch and j1-1 .. j0 on a
    # decreasing one, and the domain's right end on the last interval
    width = j1 - j0
    head = np.cumsum(width) - width
    k0 = np.where(dk > 0, j0 + 1, j1 - 1)
    rnum = _ramps(S * k0 - Q * n, S * dk, width)
    rden = _ramps(P * n - R * k0, -R * dk, width)
    rnum[head + width - 1], rden[head + width - 1] = hi_n, hi_d
    # the interval meets the rows first .. last = floor(n u_t) .. ceil(n u_t+1) - 1
    last = n * rnum // rden
    first = np.roll(last, 1)
    first[head] = i0
    last -= last * rden == n * rnum
    counts = (last - first + 1).astype(np.int64, copy=False)
    starts = np.cumsum(counts) - counts
    rows = np.repeat(first.astype(np.int64, copy=False) - starts, counts)
    rows += np.arange(len(rows))
    # a cell spans max(u_t, row/n) .. min(u_t+1, (row+1)/n): all of its bin,
    # so 1, except at either end of an interval, where u_t is u_t+1 of the
    # interval before or the domain's left end
    num, den = np.ones(len(rows), dtype), np.ones(len(rows), dtype)
    num[starts + counts - 1] = n * (rnum * n - last * rden)
    den[starts + counts - 1] = rden * n
    lnum, lden = np.roll(rnum, 1), np.roll(rden, 1)
    lnum[head], lden[head] = lo_n, lo_d
    one = counts == 1                   # such a cell spans u_t .. u_t+1
    a, b = np.where(one, rnum, first + 1), np.where(one, rden, n)
    num[starts], den[starts] = n * (a * lden - lnum * b), b * lden
    cols = _ramps(k0 - (dk > 0), dk, width)
    return rows, np.repeat(cols, counts), num, den


def build_closed(tmap: PiecewiseMap, partition: UlamPartition) -> UlamMatrix:
    """Assemble the row-stochastic Ulam matrix of the closed system.

    Every entry is an exact rational from integer preimages of the grid
    points, rounded once to float64.  One vectorised pass assembles each
    run of branches from :func:`_groups`, in int64 when one a-priori bound
    allows it for every branch (see :func:`_int_dtype`).  Only a row that
    is an end row of two or more branches can hold a cell of each; its
    cells are summed as ``Fraction`` before rounding.
    """
    n = partition.n_bins
    branches = tmap.branches
    dtype = _int_dtype(branches, n)
    grids = [_grid(b, n) for b in branches]
    # the distinct end rows of each branch; one counted twice is shared
    shared_rows = np.bincount([i for g in grids for i in {g[2], g[3]}], minlength=n) > 1
    rows, cols, data = [], [], []
    shared: dict[tuple[int, int], Fraction] = {}
    for a, b in _groups(grids):
        r, c, num, den = _cells(branches[a:b], grids[a:b], n, dtype)
        edge = shared_rows[r]
        if edge.any():
            for key, x, y in zip(zip(r[edge].tolist(), c[edge].tolist()),
                                 num[edge].tolist(), den[edge].tolist()):
                shared[key] = shared.get(key, 0) + Fraction(x, y)
            r, c, num, den = (v[~edge] for v in (r, c, num, den))
        rows.append(r)
        cols.append(c)
        data.append((num / den).astype(np.float64, copy=False))
    rows.append(np.array([i for i, _ in shared], dtype=np.int64))
    cols.append(np.array([j for _, j in shared], dtype=np.int64))
    data.append(np.array([float(v) for v in shared.values()]))
    rows, cols, data = (np.concatenate(v) for v in (rows, cols, data))
    # each (row, col) occurs once, so any sort of the keys gives one order
    order = np.argsort(rows * n + cols, kind="stable")
    cols, data = cols[order], data[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    matrix = sp.csr_matrix((data, cols, indptr), shape=(n, n))
    return UlamMatrix(partition, matrix, tmap.fingerprint)
