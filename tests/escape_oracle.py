"""Escape estimate on the open Ulam matrix, formed explicitly.

``holecert.escape.estimate_escape`` as it was before it stepped the closed
matrix's cached transpose with the hole's bins masked: :func:`build_open`
copies the closed matrix without the hole's rows, and
``dominant_left_eigenpair`` iterates that copy through a transpose built
for the call.  The library never forms this open matrix P_H; it is kept
here as the reference the tests compare the masked iteration against:
``e_H``, ``iterations``, ``solver_residual``, ``total_escape`` and the
bytes of ``accim_density`` must agree.
"""

import math

import numpy as np
import scipy.sparse as sp

from holecert.escape import RATIO_TOL, EscapeEstimate
from holecert.spectral import dominant_left_eigenpair
from holecert.ulam import build_closed


def build_open(tmap, n_bins, hole, closed=None) -> sp.csr_matrix:
    """P_H: the closed matrix on ``n_bins`` bins (``closed``, or one built
    here) with the rows of the hole's bins emptied; raises
    ``HoleAlignmentError`` for a hole off the partition."""
    hole_bins = hole.bin_range(n_bins)
    P = (build_closed(tmap, n_bins) if closed is None else closed).matrix
    # drop the hole's stretch of indices/data; its rows become empty
    lo, hi = P.indptr[hole_bins.start], P.indptr[hole_bins.stop]
    return sp.csr_matrix((np.delete(P.data, np.s_[lo:hi]), np.delete(P.indices, np.s_[lo:hi]),
                          P.indptr - np.clip(P.indptr - lo, 0, hi - lo)), shape=P.shape)


def open_matrix_escape(tmap, n_bins, hole, closed=None) -> EscapeEstimate:
    """Escape factor and accim density from power iteration on P_H."""
    open_matrix = build_open(tmap, n_bins, hole, closed=closed)
    lam, x, residual, iters = dominant_left_eigenpair(open_matrix, tol=RATIO_TOL)
    if lam == 0.0:
        return EscapeEstimate(hole=hole, n_bins=n_bins, e_H=0.0,
                              escape_rate=math.inf,
                              accim_density=np.zeros(n_bins),
                              solver_residual=0.0, iterations=iters,
                              total_escape=True)
    x = np.where(x < 0.0, 0.0, x)
    x = x / x.sum()
    return EscapeEstimate(hole=hole, n_bins=n_bins,
                          e_H=min(lam, 1.0), escape_rate=-math.log(min(lam, 1.0)),
                          accim_density=x * n_bins,
                          solver_residual=residual, iterations=iters)
