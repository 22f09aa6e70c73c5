"""Blockwise row-layout Q-power norms, kept as the reference of the fast path.

The dense-row-block evaluation that ``holecert.spectral._q_power_norms``
used before its sparse-early-powers and transposed-column-block rewrite.
It applies ``x -> x Q = x P - (sum x) u P`` to blocks of unit rows, so it
shares no formula with the fast path beyond the definition of Q.  It is
slow (every product is dense-times-sparse) but simple; the tests compare
the fast path against it to an absolute tolerance, since some exact
norms are 0 and their computed values are roundoff.
"""

import numpy as np


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
