"""Ulam matrix of a piecewise map, assembled one branch at a time.

The integer assembly that ``holecert.ulam.build_closed`` used before it
assembled runs of branches in one pass: per branch, integer Moebius
coefficients from ``Fraction`` arithmetic, its own int64/Python-int
switch, and one vectorised pass over its cells.  Kept as the reference
the tests compare the grouped assembly against, array for array: the CSR
``indptr``, ``indices`` and ``data`` must agree in bytes and dtype.  It
imports nothing from ``holecert``; a map is any object with a
``branches`` sequence whose branches have ``lo``, ``hi``, Moebius
coefficients ``p``, ``q``, ``r``, ``s``, ``image`` and ``increasing``.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp


def branch_cells(branch, n: int):
    """Nonzero cells of one branch on the n-bin grid, exactly.

    Returns int64 ``rows`` and ``cols`` and integer arrays ``num``, ``den``
    with n * lambda(bin_row & branch^-1 bin_col) = num/den; int64 when the
    branch's a-priori bound ``big^2 < 2^53`` holds, Python ints otherwise.
    """
    p, q, r, s = branch.p, branch.q, branch.r, branch.s
    lo, hi = branch.lo, branch.hi
    ylo, yhi = branch.image
    scale = math.lcm(*(c.denominator for c in (p, q, r, s)))
    P, Q, R, S = (int(c * scale) for c in (p, q, r, s))
    big = max((abs(P) + abs(Q) + abs(R) + abs(S)) * n, n + 1,
              lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    dtype = np.int64 if big * big < 2**53 else object
    j0, j1 = math.floor(ylo * n), math.ceil(yhi * n)
    k = np.arange(j0 + 1, j1).astype(dtype)
    cols = np.arange(j0, j1, dtype=np.int64)
    pre_num, pre_den = S * k - Q * n, P * n - R * k
    if not branch.increasing:
        pre_num, pre_den, cols = pre_num[::-1], pre_den[::-1], cols[::-1]
    u_num = np.concatenate(([lo.numerator], pre_num, [hi.numerator]))
    u_den = np.concatenate(([lo.denominator], pre_den, [hi.denominator]))
    first = (n * u_num[:-1]) // u_den[:-1]
    last = -((-n * u_num[1:]) // u_den[1:]) - 1
    counts = (last - first + 1).astype(np.int64)
    starts = np.cumsum(counts) - counts
    t = np.repeat(np.arange(len(counts)), counts)
    rows = first.astype(np.int64)[t] + np.arange(len(t)) - starts[t]
    lnum, lden = rows.astype(dtype), np.full(len(t), n, dtype=dtype)
    rnum, rden = lnum + 1, lden.copy()
    lnum[starts], lden[starts] = u_num[:-1], u_den[:-1]
    ends = starts + counts - 1
    rnum[ends], rden[ends] = u_num[1:], u_den[1:]
    return rows, cols[t], n * (rnum * lden - lnum * rden), rden * lden


def closed_csr(tmap, n: int):
    """CSR arrays (indptr, indices, data) of the n-bin closed matrix, as
    ``scipy.sparse.csr_matrix`` stores them."""
    ends = [i for b in tmap.branches
            for i in {math.floor(b.lo * n), math.ceil(b.hi * n) - 1}]
    shared_rows = np.bincount(ends, minlength=n) > 1
    rows, cols, data = [], [], []
    shared = {}
    for branch in tmap.branches:
        r, c, num, den = branch_cells(branch, n)
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
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    M = sp.csr_matrix((data[order], cols[order], indptr), shape=(n, n))
    return M.indptr, M.indices, M.data
