"""Ulam transition matrices on uniform partitions of [0, 1).

The closed-system matrix has entries

    P[i, j] = lambda(bin_i  intersect  T^-1 bin_j) / lambda(bin_i),

assembled as its factors P = A B: B holds the rows that the assembly
computes, and A (``UlamMatrix.row_of``) gives each bin its row
among them.  Branches with both ends on the grid and the same length
have equal rows when they are translates of one another by a whole
number of bins (the same Moebius map about their left ends) or mirror
images (the same map about the one's left end and, with x reversed, the
other's right end), in reverse order for a mirror image, so only the
first branch of each such family is assembled.  These classes are the
only ones: every later layer works in the quotient by them, and equal
rows of no family (a symmetric map's branches with ends inside bins)
stay apart.  Of the 1500 rows of perfbench's 20-branch Moebius map at
1500 bins (19 of its branches are translates) 150 are assembled, of the
1000 rows of 10x mod 1 at 1000 bins 100, and of a tent map's 500.

The assembled branches are streamed in one pass.  One vectorised integer
pass per run of intervals computes the run's cells (a run holds a few
thousand cells, so its arrays stay small; a branch with more is cut into
several runs): int64 when one a-priori bound keeps every integer of every
assembled branch below 2^53, Python integers otherwise.  Runs come in
domain order, so rows never go backwards: each run's cells are appended to
``indices`` and ``data``, allocated once at a bound on the cell count, and
its cells per row are counted into ``indptr``.  scipy then sorts the
columns of the rows that a decreasing branch wrote back to front or that
two branches share.

Every branch is a Moebius map (p, q, r, s) (a linear branch has r = 0,
s = 1); with integer coefficients P, Q, R, S the preimage of the grid
point j/n is (S j - Q n)/(P n - R j), so every entry is an exact rational,
rounded once to float64 and never rescaled.  The branch computes its
integer coefficients and endpoints once and keeps them, so a repeated
assembly does no ``Fraction`` arithmetic outside the shared rows below.
In a row where branches meet inside a bin (all of them assembled: a
branch with an end inside a bin has no family) each column's cells are
summed exactly in ``Fraction`` before that rounding.  Closed rows sum to 1
exactly before it (the map is a self-map of [0, 1]), so a rounded row's
exact sum is within 2^-53 of 1.  ``UlamMatrix.matrix`` expands P from the
factors by one row gather on first use, for ``toarray``, ``row_sums`` and
the tests: no path that certifies or estimates escape reads it.  The
open-system matrix P_H for a hole aligned with the partition is the
closed matrix with the rows of all bins inside the hole zeroed; it is
sub-stochastic and its dominant eigenvalue is the discrete escape factor.
Escape estimates step the m x m chain B D A
(``UlamMatrix.masked_quotient``), D the mask of the bins outside the
hole, which has P_H = D A B's nonzero eigenvalues; the explicit ``P_H``
lives only in the tests' reference (``tests/escape_oracle.py``).  With
no hole it is the quotient B A that the spectral record steps
(``UlamMatrix.quotient``), and both share one column array.

The factors are ``scipy.sparse.csr_matrix`` rows and an index array,
wrapped with their bin count and the map's fingerprint.  numpy and
``scipy.sparse`` are imported inside the functions that make or read
arrays, not with this module, so a run that builds no matrix (a warm
``reproduce-tables``, ``kl-constants``, ``cache``) loads neither.
Matrices live only in the process that built them: the pipeline persists
the spectral record of a closed matrix, never the matrix.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .maps import PiecewiseMap, as_rational

if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse as sp

__all__ = [
    "Hole",
    "UlamMatrix",
    "HoleAlignmentError",
    "build_closed",
]

class HoleAlignmentError(ValueError):
    """Hole endpoints do not coincide with partition points."""


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

    def aligned_to(self, n_bins: int) -> bool:
        return (self.a * n_bins).denominator == (self.b * n_bins).denominator == 1

    def bin_range(self, n_bins: int) -> range:
        """Indices of the bins inside the hole (requires alignment)."""
        if not self.aligned_to(n_bins):
            raise HoleAlignmentError(
                f"hole ({self.a}, {self.b}) is not aligned to 1/{n_bins} bins"
            )
        return range(int(self.a * n_bins), int(self.b * n_bins))

    def __str__(self):
        return f"({self.a},{self.b})"


@dataclass
class UlamMatrix:
    """The closed Ulam matrix P of a map on ``n_bins`` uniform bins, with
    the map's fingerprint, held as its factors P = A B.

    ``rows`` is B, a CSR matrix of the rows that the assembly computes,
    ordered by the first bin that uses each; ``row_of[i]`` is the row of
    bin i among them, its class (A is its 0/1 membership).  ``row_of =
    None`` is the trivial factorisation, in which ``rows`` is P itself and
    each bin is a class of its own: a hand-built CSR matrix is that.
    """

    n_bins: int
    rows: sp.csr_matrix
    map_fingerprint: str
    row_of: np.ndarray | None = None

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """P, expanded from its factors by one row gather on first use and kept."""
        return self.rows if self.row_of is None else self.rows[self.row_of]

    def row_sums(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    @cached_property
    def quotient(self) -> sp.csr_matrix:
        """The m x m quotient chain M = B A, kept: M[c, d] is the mass that
        row c sends into the bins of row d, with no duplicate entries."""
        M = self.masked_quotient(range(0)).copy()   # summing sorts in place
        M.sum_duplicates()
        return M

    def masked_quotient(self, hole: range) -> sp.csr_matrix:
        """B D A, D the 0/1 mask of the bins outside ``hole`` (a range of
        bins): B's nonzeros in the columns of their bins' rows, with those
        in the hole's bins zeroed, and with the columns of a row that fall
        in one class left as duplicate entries.  It shares B's ``indptr``
        and the column array, which is kept for the next hole."""
        import numpy as np
        import scipy.sparse as sp

        B, m = self.rows, self.rows.shape[0]
        data = B.data
        if hole:
            inside = B.indices >= hole.start
            inside &= B.indices < hole.stop
            data = np.where(inside, 0.0, data)
        return sp.csr_matrix((data, self._columns, B.indptr), shape=(m, m))

    @cached_property
    def _columns(self) -> np.ndarray:
        """``row_of[B.indices]``: the class of the bin of each nonzero of B."""
        return self.rows.indices if self.row_of is None else self.row_of[self.rows.indices]


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
    import numpy as np

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
    import numpy as np

    head = width.cumsum() - width
    out = step.repeat(width, axis=-1)
    out *= np.arange(out.shape[-1])
    out += (start - step * head).repeat(width, axis=-1)
    return out


def _cells(branches, grids, run, n: int, dtype):
    """Nonzero cells of a run of intervals (see :func:`_groups`) on the
    n-bin grid, exactly, in the run's order: rows nondecreasing, and in a
    row the columns ascend on an increasing branch and descend on a
    decreasing one.

    ``grids`` holds each branch's :func:`_grid`.  Returns ``(first,
    counts, cols, num, den)``: interval t meets ``counts[t]`` rows from
    ``first[t]`` on, one cell each; the cells' int64 ``cols`` and integer
    arrays ``num``, ``den`` of ``dtype`` (see :func:`_int_dtype`) give
    n * lambda(bin_row & branch^-1 bin_col) = num/den <= 1 (a cell lies
    inside one bin).  With integer coefficients P, Q, R,
    S, the grid point k/n has the preimage (S k - Q n)/(P n - R k); floor
    division and the cell lengths below are right for either sign of the
    denominators.
    """
    import numpy as np

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
    return first.astype(np.int64, copy=False), counts, cols, num, den


def _translates(branches, grids, n: int) -> list[tuple[int, bool]]:
    """``(rep, mirrored)`` for each branch: the first branch of its family
    and whether the branch is that branch's mirror image.

    A branch whose ends both lie on the grid (lo n and hi n are whole)
    covers its rows whole.  So it has the rows of any other such branch
    with the same number of rows and the same Moebius coefficients about
    its left end, shifted by a whole number of bins (a translate), and, in
    reverse order, the rows of one whose coefficients about its right end
    with x reversed are those (a mirror image).  The coefficients are
    compared in lowest terms, from the branch's integer data: x = lo + t
    gives (P lo_d t + P lo_n + Q lo_d)/(R lo_d t + R lo_n + S lo_d), and
    x = hi - t gives (-P hi_d t + P hi_n + Q hi_d)/(-R hi_d t + R hi_n +
    S hi_d), each signed so that its value at t = 0 has a positive
    denominator; the second is formed only when the first names no
    family.  A branch with an end inside a bin is a family of its own, so
    every branch that meets another inside a bin is assembled.
    """
    families, seen = [], {}
    for b, branch in enumerate(branches):
        P, Q, R, S, lo_n, lo_d, hi_n, hi_d = branch._integers[:8]
        family = (b, False)
        if lo_n * n % lo_d == 0 and hi_n * n % hi_d == 0:
            rows = grids[b][3] - grids[b][2]
            key = _lowest(P * lo_d, P * lo_n + Q * lo_d, R * lo_d, R * lo_n + S * lo_d, rows)
            if key in seen:
                family = (seen[key], False)
            elif (mirror := _lowest(-P * hi_d, P * hi_n + Q * hi_d, -R * hi_d,
                                    R * hi_n + S * hi_d, rows)) in seen:
                family = (seen[mirror], True)
            else:
                seen[key] = b
        families.append(family)
    return families


def _lowest(p, q, r, s, rows) -> tuple[int, ...]:
    """The coefficients (p, q, r, s) in lowest terms with s > 0, and ``rows``."""
    g = math.gcd(p, q, r, s) if s > 0 else -math.gcd(p, q, r, s)
    return p // g, q // g, r // g, s // g, rows


def build_closed(tmap: PiecewiseMap, n_bins: int) -> UlamMatrix:
    """Assemble the row-stochastic Ulam matrix of the closed system on the
    uniform partition of [0, 1) into ``n_bins`` bins, as the rows it computes
    and the row of each bin (see :class:`UlamMatrix`).

    Every entry is an exact rational from integer preimages of the grid
    points, rounded once to float64.  Only the first branch of each family
    of translates and mirror images (:func:`_translates`) is assembled:
    every other member's rows are that branch's rows, in reverse order for
    a mirror image.  One vectorised pass per run of intervals
    from :func:`_groups` computes the run's cells, in int64 when one
    a-priori bound allows it for every assembled branch (see
    :func:`_int_dtype`).  The cells are written in stream order into
    ``indices`` and ``data``, allocated once at the bound on the cells that
    :func:`_groups` uses for the assembled branches, and shrunk in place at
    the end.  Each run counts into ``indptr`` the intervals that begin
    inside a row, and a row holds one cell more than it has such
    intervals; rows are numbered in the order of the assembled branches,
    so a member's rows leave no gap.

    Only a row that is an end row of two or more branches can hold a cell
    of each, in the same column too, and both branches are assembled: such
    a column's cells are summed as ``Fraction``, the rounded sum goes into
    its first slot and 0.0 into the others, which ``eliminate_zeros``
    drops.  ``sort_indices`` orders the columns when a branch decreases or
    a row is shared.  numpy and ``scipy.sparse`` are imported here, on the
    first build.
    """
    import numpy as np
    import scipy.sparse as sp

    n = operator.index(n_bins)
    if n < 1:
        raise ValueError("partition needs at least one bin")
    branches = tmap.branches
    grids = [_grid(b, n) for b in branches]
    families = _translates(branches, grids, n)
    own = [b for b, (rep, _) in enumerate(families) if rep == b]    # the branches assembled
    sub, sub_grids = [branches[b] for b in own], [grids[b] for b in own]
    dtype = _int_dtype(sub, n)
    cap = sum(j1 - j0 + i1 - i0 for j0, j1, i0, i1 in sub_grids)
    index = np.int32 if max(n, cap) <= np.iinfo(np.int32).max else np.int64
    if len(own) < len(branches):
        # the rows of the assembled branches, numbered in order
        bounds = np.zeros(n + 1, dtype=index)
        np.add.at(bounds, [g[2] for g in sub_grids], 1)
        np.add.at(bounds, [g[3] + 1 for g in sub_grids], -1)
        local = (np.cumsum(bounds, out=bounds)[:-1] > 0).cumsum(dtype=index)
        local -= 1
        m = int(local[-1]) + 1
    else:
        local, m = None, n
    indptr = np.zeros(m + 1, dtype=index)
    indices, data = np.empty(cap, dtype=index), np.empty(cap)
    # rows where a branch begins and the one before it ends
    in_shared = np.zeros(n, dtype=bool)
    in_shared[[g[2] for f, g in zip(grids, grids[1:]) if g[2] == f[3]]] = True
    shared: dict[tuple[int, int], list] = {}    # (row, col): [exact sum, *slots]
    done = stop = 0
    for run in _groups(sub_grids):
        first, counts, c, num, den = _cells(sub, sub_grids, run, n, dtype)
        if in_shared[first[0]:first[-1] + counts[-1]].any():
            r = _ramps(first, np.ones_like(first), counts)
            edge = np.flatnonzero(in_shared[r])
            for key, at, x, y in zip(zip(r[edge].tolist(), c[edge].tolist()),
                                     (edge + done).tolist(), num[edge].tolist(),
                                     den[edge].tolist()):
                entry = shared.setdefault(key, [0])
                entry[0] += Fraction(x, y)
                entry.append(at)
        if local is not None:
            first = local[first]
        # count into indptr[i + 1] the intervals that begin inside row i:
        # interval t does when the interval before it ends in row first[t]
        ends = first + counts           # past each interval's last row
        indptr[first[0] + 1] += stop - first[0]
        np.add.at(indptr[1:], first[1:], (ends[:-1] - first[1:]).astype(index))
        stop = ends[-1]
        indices[done:done + len(c)] = c
        data[done:done + len(c)] = num / den
        done += len(c)
    indptr[1:] += 1                     # a row holds one cell more than that
    np.cumsum(indptr, out=indptr)
    indices.resize(done, refcheck=False)
    data.resize(done, refcheck=False)
    repeats = []
    for total, at, *again in shared.values():
        data[at] = float(total)
        repeats += again
    data[repeats] = 0.0
    rows = sp.csr_matrix((data, indices, indptr), shape=(m, n))
    if shared or not all(b.increasing for b in sub):
        rows.sort_indices()
    if repeats:
        rows.eliminate_zeros()
    if local is None:
        return UlamMatrix(n, rows, tmap.fingerprint)
    # a member's bin takes the row of its family's first branch's bin that
    # many bins on, counted from the other end for a mirror image
    source = np.arange(n, dtype=index)
    for b, (rep, mirrored) in enumerate(families):
        if rep != b:
            _, _, i0, i1 = grids[b]
            start = grids[rep][2]
            source[i0:i1 + 1] = source[start:start + i1 - i0 + 1][::-1 if mirrored else 1]
    return UlamMatrix(n, rows, tmap.fingerprint, local[source])
