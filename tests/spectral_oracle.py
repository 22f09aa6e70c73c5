"""Earlier evaluations of the Q-power norms, kept as references of the fast path.

``q_power_norms`` is the dense-row-block evaluation that
``holecert.spectral._q_power_norms`` used before its sparse-early-powers and
transposed-column-block rewrite.  It applies ``x -> x Q = x P - (sum x) u P``
to blocks of unit rows, so it shares no formula with the fast path beyond
the definition of Q.  It is slow (every product is dense-times-sparse) but
simple; the tests compare the fast path against it to an absolute
tolerance, since some exact norms are 0 and their computed values are
roundoff.

``quotient_q_power_norms`` is the quotient-chain evaluation that expanded
every block of distinct rows of P^k by B^T before subtracting w_k = u P^k
over all n bins.  The fast path now subtracts in the quotient first, so the
two differ only by rounding.

``excess_q_power_norms`` is the fast path as it read before it took the
k = 1 sums straight from the nonzeros and seeded each block by scattering
the rows of M: it builds a throwaway ``excess`` CSR matrix for k = 1 and
slices, transposes and densifies M per block.

``csr_q_power_norms`` and ``csr_invariant_density`` are the record as it
was computed from the expanded matrix P, before the record used only the
factors P = A B: power iteration on P itself, the classes of equal rows
found over all n rows, and the k = 1 sums over the nonzeros of P with
w = u P.  At the same u the factored norms must equal both references bit
for bit for k >= 2, and to rounding for k = 1.
"""

import numpy as np
import scipy.sparse as sp

from holecert.spectral import (NoUnitEigenvalueError, _BLOCK, _equal_rows,
                               dominant_left_eigenpair)


def q_power_norms(P, u, n_powers: int, block_size: int = 1024):
    """Row- and column-family norms of Q^k, k = 0..n_powers, one pass.

    Q = (1 - Pi1) P with Pi1 the rank-one projection onto the invariant
    mass vector u.  Rank-one structure keeps every product at one sparse
    multiply plus an outer-product correction; rows are processed in
    blocks so only block_size x n dense rows are ever materialized.
    """
    n = P.shape[0]
    uP = u @ P
    row_norms = [float(np.max(np.abs(1.0 - u) + (np.abs(u).sum() - np.abs(u))))]
    col_norms = [1.0]
    row_maxima = np.zeros(n_powers + 1)
    col_partial = [np.zeros(n) for _ in range(n_powers + 1)]
    for start in range(0, n, block_size):
        m = min(block_size, n - start)
        block = np.zeros((m, n))
        block[np.arange(m), np.arange(start, start + m)] = 1.0
        for k in range(1, n_powers + 1):
            block = block @ P - np.outer(block.sum(axis=1), uP)
            absb = np.abs(block)
            row_maxima[k] = max(row_maxima[k], float(absb.sum(axis=1).max()))
            col_partial[k] += absb.sum(axis=0)
    for k in range(1, n_powers + 1):
        row_norms.append(float(row_maxima[k]))
        col_norms.append(float(col_partial[k].max()))
    return row_norms, col_norms


def quotient_q_power_norms(P, u, n_powers: int, block_size: int = 64):
    """Row- and column-family norms of Q^k, k = 0..n_powers, in the quotient
    chain of P's equal rows, each deviation taken over all n bins.

    k = 1 from the nonzeros of P.  For k >= 2, with B the distinct rows of
    P and M = B A its quotient, each block of distinct rows of P^k is
    Z = B^T S with S stepped by M^T, and w_k = B^T v with v = A^T u stepped
    the same way; the norms are the column and weighted row sums of
    |Z - w_k|.
    """
    n = P.shape[0]
    w = [u, u @ P]
    row_norms = [float(np.max(np.abs(1.0 - u) + (np.abs(u).sum() - np.abs(u))))]
    col_norms = [1.0]
    wj = w[1][P.indices]
    excess = sp.csr_matrix((np.abs(P.data - wj) - np.abs(wj), P.indices, P.indptr),
                           shape=(n, n))
    row_norms.append(max(0.0, float(np.max(excess.sum(axis=1) + np.abs(w[1]).sum()))))
    col_norms.append(max(0.0, float(np.max(excess.sum(axis=0) + n * np.abs(w[1])))))
    first, classes, copies = _equal_rows(P)
    B = P[first]
    M = sp.csr_matrix((B.data, classes[B.indices], B.indptr), shape=(len(first),) * 2,
                      copy=True)
    M.sum_duplicates()
    BT, MT = B.T.tocsr(), M.T.tocsr()
    v = np.bincount(classes, weights=u, minlength=len(first))
    for _ in range(n_powers - 1):
        v = MT @ v
        w.append(BT @ v)
    row_maxima = np.zeros(n_powers - 1)
    col_sums = np.zeros((n_powers - 1, n))
    for start in range(0, len(first), block_size):
        S = M[start:start + block_size].T.toarray(order="C")
        for k in range(n_powers - 1):
            if k:
                S = MT @ S
            dev = np.abs(BT @ S - w[k + 2][:, None])
            row_maxima[k] = max(row_maxima[k], dev.sum(axis=0).max())
            col_sums[k] += dev @ copies[start:start + block_size]
    return row_norms + row_maxima.tolist(), col_norms + col_sums.max(axis=1).tolist()


def excess_q_power_norms(P, u, n_powers: int, block_size: int):
    """Row- and column-family norms of Q^k, k = 0..n_powers, with the k = 1
    sums of a CSR matrix of excesses and each block of the quotient
    iterate seeded from a slice of M (see the module docstring)."""
    n = P.shape[0]
    w = u @ P
    row_norms = [float(np.max(np.abs(1.0 - u) + (np.abs(u).sum() - np.abs(u))))]
    col_norms = [1.0]
    wj = w[P.indices]
    excess = sp.csr_matrix((np.abs(P.data - wj) - np.abs(wj), P.indices, P.indptr),
                           shape=(n, n))
    row_norms.append(max(0.0, float(np.max(excess.sum(axis=1) + np.abs(w).sum()))))
    col_norms.append(max(0.0, float(np.max(excess.sum(axis=0) + n * np.abs(w)))))
    first, classes, copies = _equal_rows(P)
    B = P[first]
    M = sp.csr_matrix((B.data, classes[B.indices], B.indptr), shape=(len(first),) * 2,
                      copy=True)
    M.sum_duplicates()
    BT, MT = B.T.tocsr(), M.T.tocsr()
    v = [np.bincount(classes, weights=u, minlength=len(first))]
    for _ in range(n_powers - 1):
        v.append(MT @ v[-1])
    ones = np.ones(n)
    row_maxima = np.zeros(n_powers - 1)
    col_sums = np.zeros((n_powers - 1, n))
    for start in range(0, len(first), block_size):
        S = M[start:start + block_size].T.toarray(order="C")
        for k in range(n_powers - 1):
            if k:
                S = MT @ S
            dev = BT @ (S - v[k + 1][:, None])
            np.abs(dev, out=dev)
            row_maxima[k] = max(row_maxima[k], (ones @ dev).max())
            col_sums[k] += dev @ copies[start:start + block_size]
    return row_norms + row_maxima.tolist(), col_norms + col_sums.max(axis=1).tolist()


def csr_invariant_density(P):
    """``(eigenvalue, u, (lower, upper), iterations)`` from power iteration
    on the CSR matrix P, with the bracket widened by (c + 1) 2^-53, c the
    largest column count of P."""
    lam, u, (lower, upper), iterations = dominant_left_eigenpair(P)
    slack = (int(np.bincount(P.indices, minlength=1).max()) + 1) * 2.0**-53
    if not lower * (1.0 - slack) <= 1.0 <= upper * (1.0 + slack):
        raise NoUnitEigenvalueError(f"bracket [{lower!r}, {upper!r}] excludes 1")
    return lam, u, (lower, upper), iterations


def csr_q_power_norms(P, u, n_powers: int):
    """Row- and column-family norms of Q^k, k = 0..n_powers, with the k = 1
    sums over the nonzeros of P (w = u P) and the classes of equal rows
    found over all of P's rows."""
    n = P.shape[0]
    w = u @ P
    row_norms = [float(np.max(np.abs(1.0 - u) + (np.abs(u).sum() - np.abs(u))))]
    col_norms = [1.0]
    wj = w[P.indices]
    excess = np.abs(P.data - wj) - np.abs(wj)
    row_norms.append(max(0.0, float(np.max(np.add.reduceat(excess, P.indptr[:-1])
                                           + np.abs(w).sum()))))
    col_norms.append(max(0.0, float(np.max(np.bincount(P.indices, excess, n)
                                           + n * np.abs(w)))))
    first, classes, copies = _equal_rows(P)
    m = len(first)
    B = P[first]
    M = sp.csr_matrix((B.data, classes[B.indices], B.indptr), shape=(m, m), copy=True)
    M.sum_duplicates()
    BT, MT = B.T.tocsr(), M.T.tocsr()
    v = [np.bincount(classes, weights=u, minlength=m)]
    for _ in range(n_powers - 1):
        v.append(MT @ v[-1])
    ones = np.ones(n)
    row_maxima = np.zeros(n_powers - 1)
    col_sums = np.zeros((n_powers - 1, n))
    m_rows = np.repeat(np.arange(m), np.diff(M.indptr))
    for start in range(0, m, _BLOCK):
        stop = min(start + _BLOCK, m)
        nz = slice(M.indptr[start], M.indptr[stop])
        S = np.zeros((m, stop - start))
        S[M.indices[nz], m_rows[nz] - start] = M.data[nz]
        for k in range(n_powers - 1):
            if k:
                S = MT @ S
            dev = BT @ (S - v[k + 1][:, None])
            np.abs(dev, out=dev)
            row_maxima[k] = max(row_maxima[k], (ones @ dev).max())
            col_sums[k] += dev @ copies[start:start + _BLOCK]
    return row_norms + row_maxima.tolist(), col_norms + col_sums.max(axis=1).tolist()
