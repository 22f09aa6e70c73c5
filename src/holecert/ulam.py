"""Ulam transition matrices on uniform partitions of [0, 1).

The closed-system matrix has entries

    P[i, j] = lambda(bin_i  intersect  T^-1 bin_j) / lambda(bin_i),

assembled straight into CSR order.  The cells of each row are counted
first, from the images of the grid points, so ``indptr``, ``indices`` and
``data`` are allocated once at their final size.  One vectorised integer
pass per run of intervals then writes the run's cells at their places (a
run holds a few thousand cells, so its arrays stay small; a branch with
more is cut into several runs): int64 when one a-priori bound keeps every
integer of every branch below 2^53, Python integers otherwise.  Runs come
in domain order, so the rows arrive in order; only a decreasing branch's
cells of a row are written back to front.

Every branch is a Moebius map (p, q, r, s) (a linear branch has r = 0,
s = 1); with integer coefficients P, Q, R, S the preimage of the grid
point j/n is (S j - Q n)/(P n - R j), so every entry is an exact rational,
rounded once to float64 and never rescaled.  The branch computes its
integer coefficients and endpoints once and keeps them, so a repeated
assembly does no ``Fraction`` arithmetic outside the shared rows below.
Rows where branches meet are summed exactly in ``Fraction`` before that
rounding and written last.  Closed rows sum to 1 exactly before it (the
map is a self-map of [0, 1]), so a rounded row's exact sum is within
2^-53 of 1.  The open-system matrix P_H for a
hole aligned with the partition is the closed matrix with the rows of all
bins inside the hole zeroed; it is sub-stochastic and its dominant
eigenvalue is the discrete escape factor.  Since ``x P_H = (x 1_{not H}) P``,
an open system is its closed matrix plus a mask of the hole's bins: escape
estimates step the closed matrix's cached CSR transpose
(``UlamMatrix.transposed``) with the mask applied, and the explicit ``P_H``
lives only in the tests' reference (``tests/escape_oracle.py``).

Matrices are ``scipy.sparse.csr_matrix`` wrapped with partition and
provenance metadata.  ``scipy.sparse`` is imported by the first build, not
with this module, so a run that builds no matrix (a warm
``reproduce-tables``, ``kl-constants``, ``cache``) never loads scipy.
Matrices live only in the process that built them: the pipeline persists
the spectral record of a closed matrix, never the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .maps import PiecewiseMap, as_rational

if TYPE_CHECKING:
    import scipy.sparse as sp

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

#: cells per vectorised pass (see :func:`_groups`).  A pass holds about 110
#: bytes of temporaries per cell; at 2^12 cells glibc keeps reusing that
#: memory from pass to pass, while at 2^13 it gave it back to the kernel
#: after each pass and faulted it in again (about 170 minor faults per
#: 1000-bin build of 10x mod 1 once scipy no longer loads first)
_GROUP_CELLS = 2**12


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
    """Runs of intervals: lists of ``(b, ta, tb)``, the intervals ta .. tb-1
    of branch b (see :func:`_cells`), of about ``_GROUP_CELLS`` cells each.
    Consecutive whole branches share a run while their cells fit; a branch
    with more is cut into runs of equally many of its intervals.  A branch
    has at most j1 - j0 + i1 - i0 cells: one per row, plus one more for
    each of its j1 - j0 - 1 inner breakpoints that falls inside a row."""
    run, cells = [], 0
    for b, (j0, j1, i0, i1) in enumerate(grids):
        width, size = j1 - j0, j1 - j0 + i1 - i0
        if run and cells + size > _GROUP_CELLS:
            yield run
            run, cells = [], 0
        if size > _GROUP_CELLS:
            step = -(-width // -(-size // _GROUP_CELLS))
            yield from ([(b, t, min(t + step, width))] for t in range(0, width, step))
        else:
            run.append((b, 0, width))
            cells += size
    if run:
        yield run


def _ramps(start, step, width):
    """Runs start, start + step, ... of each length in ``width``, end to end
    along the last axis: one row of runs per row of a 2-d ``start`` and
    ``step``.  Entry p of the run from ``head`` is start + step (p - head)."""
    head = width.cumsum() - width
    out = step.repeat(width, axis=-1)
    out *= np.arange(out.shape[-1])
    out += (start - step * head).repeat(width, axis=-1)
    return out


def _row_counts(branches, grids, n: int, dtype):
    """``(counts, shared)``: the number of cells in each row, and a mask of
    the rows that are end rows of two or more branches.

    With s = +-1 a branch's orientation, its part [a, b] of row i meets
    the y-bins k with floor(s n T(a)) <= s k' < ceil(s n T(b)), where k' = k
    on an increasing branch and -k-1 on a decreasing one.  At the domain's
    ends these bounds are j0, j1 (or -j1, -j0) from :func:`_grid`; at a grid
    point g/n inside it, s n T = s n (P g + Q n) / (R g + S n), exact in
    ``dtype`` for the same reason as in :func:`_cells`.  A shared row counts
    each column of its branches once.
    """
    exact, index = [], []
    for b, (j0, j1, i0, i1) in zip(branches, grids):
        P, Q, R, S = b._integers[:4]
        s = 1 if b.increasing else -1
        exact.append((s * n * (P * (i0 + 1) + Q * n), R * (i0 + 1) + S * n, s * n * P, R))
        index.append((i0, i1, s, *((j0, j1) if s > 0 else (-j1, -j0))))
    exact = np.array(exact, dtype=dtype).T
    i0, i1, s, lo, hi = np.array(index, dtype=np.int64).T
    # the branch's rows i0 .. i1 have the slots head .. tail; its grid
    # points i0+1 .. i1 are the inner bounds
    inner = i1 - i0
    num, den = _ramps(exact[:2], exact[2:], inner)
    tail = (inner + 1).cumsum() - 1
    head = tail - inner
    left, right = np.empty((2, tail[-1] + 1), dtype=np.int64)
    inside = np.ones(len(left), dtype=bool)
    inside[head] = False
    left[inside], left[head] = num // den, lo
    inside[head], inside[tail] = True, False
    right[inside], right[tail] = -(-num // den), hi
    counts = right - left
    # branches b > 0 whose first row is the last row of branch b - 1
    joins = (i0[1:] == i1[:-1]).nonzero()[0] + 1
    shared = np.zeros(n, dtype=bool)
    if len(joins):
        shared[i0[joins]] = True
        inside[:] = True
        inside[head[joins]] = False
        counts = counts[inside]
        columns: dict[int, set] = {}
        for b in joins.tolist():
            for t, sign in ((tail[b - 1], s[b - 1]), (head[b], s[b])):
                cols = range(left[t], right[t]) if sign > 0 else range(-right[t], -left[t])
                columns.setdefault(int(i0[b]), set()).update(cols)
        for i, cols in columns.items():
            counts[i] = len(cols)
    return counts, shared


def _cells(branches, grids, run, n: int, dtype):
    """Nonzero cells of a run of intervals (see :func:`_groups`) on the
    n-bin grid, exactly, in the run's order: rows nondecreasing, and in a
    row the columns ascend on an increasing branch and descend on a
    decreasing one.

    ``grids`` holds each branch's :func:`_grid`.  Returns ``(first,
    counts, cols, num, den, down)``: interval t meets ``counts[t]`` rows
    from ``first[t]`` on, one cell each; the cells' int64 ``cols`` and
    integer arrays ``num``, ``den`` of ``dtype`` (see :func:`_int_dtype`)
    give n * lambda(bin_row & branch^-1 bin_col) = num/den <= 1 (a cell
    lies inside one bin); ``down`` marks the cells of decreasing branches,
    or is None when the run has none.  With integer coefficients P, Q, R,
    S, the grid point k/n has the preimage (S k - Q n)/(P n - R k); floor
    division and the cell lengths below are right for either sign of the
    denominators.
    """
    # interval t of a branch lies between its breakpoints u_t < u_t+1 in x
    # and is the preimage of one y-bin; u_t+1 is the preimage of the grid
    # point k/n, k = j0+1 .. j1 on an increasing branch and j1-1 .. j0 on a
    # decreasing one, and the domain's right end on the last interval
    exact, index = [], []
    for b, ta, tb in run:
        P, Q, R, S, lo_n, lo_d, hi_n, hi_d = branches[b]._integers[:8]
        j0, j1, i0, _ = grids[b]
        dk = 1 if branches[b].increasing else -1
        k = (j0 + 1 if dk > 0 else j1 - 1) + dk * ta
        if ta:                          # u_ta is the preimage of (k - dk)/n
            lo_n, lo_d = S * (k - dk) - Q * n, P * n - R * (k - dk)
            i0 = n * lo_n // lo_d
        end = tb == j1 - j0
        exact.append((S * k - Q * n, P * n - R * k, k - (dk > 0), S * dk, -R * dk, dk,
                      lo_n, lo_d, hi_n if end else 0, hi_d if end else 1))
        index.append((tb - ta, i0, end))
    exact = np.array(exact, dtype=dtype).T
    width, i0, end = np.array(index, dtype=np.int64).T
    rnum, rden, cols = _ramps(exact[:3], exact[3:6], width)
    head = width.cumsum() - width
    end = end > 0
    tail = head[end] + width[end] - 1
    rnum[tail], rden[tail] = exact[8, end], exact[9, end]
    # the interval meets the rows first .. last = floor(n u_t) .. ceil(n u_t+1) - 1
    x = rnum * n
    last = x // rden
    first = np.empty_like(last)
    first[1:] = last[:-1]
    first[head] = i0
    t = last * rden
    last -= t == x
    counts = (last - first + 1).astype(np.int64, copy=False)
    ends = counts.cumsum() - 1
    starts = ends - counts + 1
    # a cell spans max(u_t, row/n) .. min(u_t+1, (row+1)/n): all of its bin,
    # so 1, except at either end of an interval, where u_t is u_t+1 of the
    # interval before or the domain's left end
    num, den = np.ones((2, ends[-1] + 1), dtype)
    np.multiply(last, rden, out=t)
    np.subtract(x, t, out=x)
    num[ends], den[ends] = x, rden
    lnum, lden = x, t                   # their buffers are free again
    lnum[1:], lden[1:] = rnum[:-1], rden[:-1]
    lnum[head], lden[head] = exact[6], exact[7]
    one = counts == 1                   # such a cell spans u_t .. u_t+1
    a, b = np.where(one, rnum, first + 1), np.where(one, rden, n)
    lnum *= b
    a *= lden
    a -= lnum
    a *= n
    b *= lden
    num[starts], den[starts] = a, b
    cols = cols.astype(np.int64, copy=False).repeat(counts)
    dk = exact[5]
    down = None if (dk > 0).all() else (dk < 0).repeat(width).repeat(counts)
    return first.astype(np.int64, copy=False), counts, cols, num, den, down


def build_closed(tmap: PiecewiseMap, partition: UlamPartition) -> UlamMatrix:
    """Assemble the row-stochastic Ulam matrix of the closed system.

    Every entry is an exact rational from integer preimages of the grid
    points, rounded once to float64.  The cells of each row are counted
    first (:func:`_row_counts`), so the CSR arrays are allocated once.  One
    vectorised pass per run of intervals from :func:`_groups` then writes
    the run's cells at their places, in int64 when one a-priori bound
    allows it for every branch (see :func:`_int_dtype`).  Runs come in
    domain order, so the cells arrive in CSR order except that a
    decreasing branch's cells of a row are written back to front.  Only a
    row that is an end row of two or more branches can hold a cell of
    each; its cells are summed as ``Fraction`` before rounding and written
    last.  ``scipy.sparse`` is imported here, on the first build.
    """
    import scipy.sparse as sp

    n = partition.n_bins
    branches = tmap.branches
    dtype = _int_dtype(branches, n)
    grids = [_grid(b, n) for b in branches]
    per_row, in_shared = _row_counts(branches, grids, n, dtype)
    shared_rows = np.flatnonzero(in_shared)
    nnz = int(per_row.sum())
    index = np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(per_row, out=indptr[1:])
    indices, data = np.empty(nnz, dtype=index), np.empty(nnz)
    # skip[m]: the entries of the first m shared rows, which other cells pass
    skip = np.concatenate(([0], np.cumsum(per_row[shared_rows])))
    shared: dict[tuple[int, int], Fraction] = {}
    done = 0                            # cells written outside shared rows
    for run in _groups(grids):
        first, counts, c, num, den, down = _cells(branches, grids, run, n, dtype)
        lo, hi = np.searchsorted(shared_rows, (first[0], first[-1] + counts[-1]))
        if hi == lo and down is None:   # the cells fill a slice in order
            at = slice(done + skip[lo], done + skip[lo] + len(c))
        else:
            r = _ramps(first, np.ones_like(first), counts)
            if hi > lo:
                edge = in_shared[r]
                for key, x, y in zip(zip(r[edge].tolist(), c[edge].tolist()),
                                     num[edge].tolist(), den[edge].tolist()):
                    shared[key] = shared.get(key, 0) + Fraction(x, y)
                keep = ~edge
                r, c, num, den = r[keep], c[keep], num[keep], den[keep]
                down = None if down is None else down[keep]
            at = np.arange(done, done + len(c))
            at += skip[np.searchsorted(shared_rows, r)]
            if down is not None:
                d = r[down]
                at[down] = indptr[d] + indptr[d + 1] - 1 - at[down]
        indices[at] = c
        data[at] = num / den
        done += len(c)
    if done + len(shared) != nnz:
        raise AssertionError(f"{done + len(shared)} cells assembled for {nnz} counted")
    if shared:
        keys = sorted(shared)
        at = np.concatenate([np.arange(indptr[i], indptr[i + 1]) for i in shared_rows])
        indices[at] = [j for _, j in keys]
        data[at] = [float(shared[key]) for key in keys]
    matrix = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    return UlamMatrix(partition, matrix, tmap.fingerprint)
