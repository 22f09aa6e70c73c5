"""Reference escape estimates: the open Ulam matrix formed explicitly, and
the power iteration stopped by tolerances.

``holecert.escape.estimate_escape`` steps the closed matrix's cached
transpose with the hole's bins masked.  :func:`build_open` copies the
closed matrix without the hole's rows, and :func:`open_matrix_escape`
runs ``dominant_left_eigenpair`` on that copy through a transpose built
for the call.  The library never forms this open matrix P_H; the tests
compare the masked iteration against it: ``e_H``, its bracket,
``iterations``, ``total_escape`` and the bytes of ``accim_density`` must
agree.

:func:`tolerance_escape` is the estimate as it was before the
Collatz-Wielandt bracket stopped the iteration: successive mass ratios and
iterates had to agree within 1e-12, and the recomputed residual within
1e-10.  It is the reference of the differential tests.
"""

import math

import numpy as np
import scipy.sparse as sp

from holecert.escape import EscapeEstimate
from holecert.spectral import dominant_left_eigenpair
from holecert.ulam import build_closed

RATIO_TOL = 1e-12
RESIDUAL_LIMIT = 1e-10


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
    """Escape factor, its bracket and accim density from power iteration on
    P_H, the last mass ratio clamped into the bracket as the library does."""
    open_matrix = build_open(tmap, n_bins, hole, closed=closed)
    lam, x, (lower, upper), iters = dominant_left_eigenpair(open_matrix)
    lam = min(max(lam, lower), upper)
    return EscapeEstimate(hole=hole, n_bins=n_bins, e_H=lam, e_H_lower=lower, e_H_upper=upper,
                          escape_rate=-math.log(lam) if lam else math.inf,
                          accim_density=x * n_bins, iterations=iters, total_escape=lam == 0.0)


def tolerance_power_iteration(P: sp.csr_matrix, tol: float):
    """``(value, x, residual, iterations)``: power iteration ``x -> x @ P``
    (as ``P^T x``) from the uniform vector with L1 normalization, stopped
    when successive mass ratios and iterates agree within ``tol``; the
    residual ``||x P - value x||_1`` is recomputed after the last step."""
    PT = P.T.tocsr()
    n = PT.shape[0]
    x = np.full(n, 1.0 / n)
    lam_prev = np.inf
    lam = 0.0
    for it in range(1, 10**6 + 1):
        y = PT @ x
        lam = float(np.abs(y).sum())
        if lam <= 1e-300:
            return 0.0, np.zeros(n), 0.0, it
        y /= lam
        if abs(lam - lam_prev) <= tol and float(np.abs(y - x).sum()) <= tol:
            x = y
            break
        lam_prev = lam
        x = y
    return lam, x, float(np.abs(PT @ x - lam * x).sum()), it


def tolerance_escape(tmap, n_bins, hole, closed=None) -> tuple[float, int]:
    """``(e_H, iterations)`` of the tolerance-stopped iteration on P_H."""
    lam, _x, residual, iters = tolerance_power_iteration(
        build_open(tmap, n_bins, hole, closed=closed), RATIO_TOL)
    assert lam == 0.0 or residual <= RESIDUAL_LIMIT, residual
    return min(lam, 1.0), iters
