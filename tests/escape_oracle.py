"""Escape estimate on the open Ulam matrix, formed explicitly.

``holecert.escape.estimate_escape`` as it was before it stepped the closed
matrix's cached transpose with the hole's bins masked: ``build_open``
copies the closed matrix without the hole's rows, and
``dominant_left_eigenpair`` iterates that copy through a transpose built
for the call.  Kept as the reference the tests compare the masked
iteration against: ``e_H``, ``iterations``, ``solver_residual``,
``total_escape`` and the bytes of ``accim_density`` must agree.
"""

import math

import numpy as np

from holecert.escape import RATIO_TOL, EscapeEstimate
from holecert.spectral import dominant_left_eigenpair
from holecert.ulam import build_open


def open_matrix_escape(tmap, partition, hole, closed=None) -> EscapeEstimate:
    """Escape factor and accim density from power iteration on P_H."""
    open_matrix = build_open(tmap, partition, hole, closed=closed)
    lam, x, residual, iters = dominant_left_eigenpair(open_matrix.matrix, tol=RATIO_TOL)
    if lam == 0.0:
        return EscapeEstimate(hole=hole, n_bins=partition.n_bins, e_H=0.0,
                              escape_rate=math.inf,
                              accim_density=np.zeros(partition.n_bins),
                              solver_residual=0.0, iterations=iters,
                              total_escape=True)
    x = np.where(x < 0.0, 0.0, x)
    x = x / x.sum()
    return EscapeEstimate(hole=hole, n_bins=partition.n_bins,
                          e_H=min(lam, 1.0), escape_rate=-math.log(min(lam, 1.0)),
                          accim_density=x * partition.n_bins,
                          solver_residual=residual, iterations=iters)
