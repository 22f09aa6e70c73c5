"""Spectral data of Ulam matrices: the invariant density, norms of powers
of the mass-free part, the spectral-radius bound they give, and resolvent
bounds.

Conventions
-----------
Densities are coefficient (row) vectors acted on by right multiplication,
``x -> x @ P``; the induced L1 operator norm of a matrix in this
convention is its maximum absolute **row** sum.  The transposed action
``y -> P @ y`` is induced-bounded by the maximum absolute **column** sum
(the classical matrix 1-norm).  Both families of power norms of

    Q = (1 - Pi1) P,        x Pi1 = (sum x) u,   u the invariant mass vector,

that is x Q = x P - (sum x) u P, are stored:

* ``q_power_norms``         row family; entry 0 is the computed ||1 - Pi1||.
* ``q_power_norms_colsum``  column family (matrix 1-norm); entry 0 is 1.

P is row-stochastic and u sums to 1, so e_i Q^k = e_i P^k - u P^k exactly:
Q is normed from the nonzeros of P, the later powers on narrow dense column
blocks of (P^k)^T over the distinct rows of P, seeded with the block's rows
of P^2 and stepped by the CSR matrix P^T (P^2 is never formed whole).

The certification pipeline bounds the resolvent with the column family,
the convention under which the reference outputs for the bundled example
map were produced; the row family is the induced norm for the density
action and its Neumann bound is reported alongside for audit.
``neumann_bound`` and ``h_star`` accept either (``orientation``).

No eigensolver is needed for the spectral layout.  P is row-stochastic,
so the sum-zero row vectors form an invariant subspace on which P acts as
Q (for any u that sums to 1), while on the one-dimensional quotient P
acts as 1.  Hence the spectrum of P is {1} together with the spectrum of
P on sum-zero vectors, and every eigenvalue other than a simple 1 has
modulus at most

    rho(Q)  <=  min_{k >= 1} ||Q^k||^(1/k)          (either induced norm),

the record's ``spectral_radius_bound``.  ``h_star`` requires it to be at
most r - delta, which leaves 1 as the only eigenvalue of modulus above
r - delta, and simple.

The resolvent-sup surrogate combines a Neumann-series tail bound for
R(z) = (z - Q)^-1 with the rank-one projection term:

    ||(z - P)^-1||_1  <=  ||Pi1||_1 / delta + ||R(z)||_1          (|z| >= r, |z-1| > delta)
    h_star = (B0/(r - alpha0) + 1) * that  +  1/(r - alpha0)  +  2/r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ulam import UlamMatrix

__all__ = [
    "SpectralRecord",
    "ResolventBound",
    "SpectralStructureError",
    "NoUnitEigenvalueError",
    "EigensolverResidualError",
    "NeumannDivergenceError",
    "compute_record",
    "neumann_bound",
    "h_star",
    "operator_l1_norm",
    "dominant_left_eigenpair",
]

#: a record holds the norms of Q^1 .. Q^N_POWERS (truncation index N_POWERS - 1)
N_POWERS = 6
UNIT_EIGENVALUE_TOL = 1e-8
RESIDUAL_TOL = 1e-8
SUBMULT_SLACK = 1e-10
#: columns per dense block (wider blocks raise peak memory, not speed)
_BLOCK = 64


class SpectralStructureError(RuntimeError):
    """Spectral layout does not support the rank-one resolvent split."""


class NoUnitEigenvalueError(SpectralStructureError):
    """No eigenvalue within tolerance of 1 (matrix not stochastic?)."""


class EigensolverResidualError(RuntimeError):
    """A reported eigenpair failed its residual check."""


class NeumannDivergenceError(ArithmeticError):
    """Neumann tail ratio q >= 1 at the record's truncation index."""


def operator_l1_norm(matrix) -> float:
    """Induced L1 norm in the row-vector convention: max absolute row sum."""
    if sp.issparse(matrix):
        return float(np.abs(matrix).sum(axis=1).max())
    return float(np.abs(np.asarray(matrix)).sum(axis=1).max())


def dominant_left_eigenpair(P: sp.csr_matrix, tol: float = 1e-14):
    """Power iteration for the dominant left eigenpair of a nonnegative matrix.

    Iterates ``x -> x @ P`` with L1 normalization from the uniform vector
    for at most 10^6 steps and returns ``(value, vector, residual,
    iterations)``; the eigenvalue estimate is the mass ratio per step and
    convergence is declared when successive ratios agree within ``tol``.
    The value 0.0 with a zero vector signals total mass loss (all-escape
    open matrices).
    """
    n = P.shape[0]
    x = np.full(n, 1.0 / n)
    lam_prev = np.inf
    lam = 0.0
    for it in range(1, 10**6 + 1):
        y = x @ P
        lam = float(np.abs(y).sum())
        if lam <= 1e-300:
            return 0.0, np.zeros(n), 0.0, it
        y /= lam
        # the mass ratio is identically 1 for stochastic matrices, so the
        # iterate itself must settle as well before declaring convergence
        if abs(lam - lam_prev) <= tol and float(np.abs(y - x).sum()) <= tol:
            x = y
            break
        lam_prev = lam
        x = y
    residual = float(np.abs(x @ P - lam * x).sum())
    return lam, x, residual, it


@dataclass(frozen=True)
class SpectralRecord:
    """r-independent spectral data of one closed Ulam matrix.

    Cached between runs: the unit eigenvalue and invariant mass vector
    from power iteration, and both power-norm families of Q.
    """

    n_bins: int
    map_fingerprint: str
    eigenvalues: tuple[float, ...]        # (unit eigenvalue,); see spectral_radius_bound
    mass_vector: np.ndarray               # invariant probability masses, >= 0, sums to 1
    projection_norm: float                # ||Pi1||_1 = sum |mass|
    q_power_norms: tuple[float, ...]      # row family, [0] = ||1 - Pi1||
    q_power_norms_colsum: tuple[float, ...]  # column family, [0] = 1
    unit_residual: float
    power_iterations: int

    @property
    def truncation_N(self) -> int:
        return len(self.q_power_norms) - 2

    @property
    def invariant_density(self) -> np.ndarray:
        """Piecewise-constant density values (integral 1)."""
        return self.mass_vector * self.n_bins

    @property
    def spectral_radius_bound(self) -> float:
        """min over k >= 1 and both families of ||Q^k||^(1/k), >= rho(Q).

        Every eigenvalue of P other than a simple unit eigenvalue has
        modulus at most this value; when it is below 1, ``eigenvalues``
        is the whole spectrum outside the disc of this radius.  A NaN
        norm propagates, so the gate in :func:`h_star` rejects it.
        """
        k = np.arange(1, len(self.q_power_norms))
        roots = [np.asarray(norms[1:]) ** (1.0 / k)
                 for norms in (self.q_power_norms, self.q_power_norms_colsum)]
        return float(np.min(np.concatenate(roots)))

    def norms(self, orientation: str) -> tuple[float, ...]:
        if orientation == "column":
            return self.q_power_norms_colsum
        if orientation == "row":
            return self.q_power_norms
        raise ValueError(f"orientation must be 'row' or 'column', got {orientation!r}")


@dataclass(frozen=True)
class ResolventBound:
    """Computable bound chain for sup ||(z - P)^-1|| off the spectrum."""

    r: float
    delta: float
    neumann_bound: float          # uniform bound on ||R(z)||_1 over |z| >= r
    resolvent_l1_bound: float     # ||Pi1||/delta + neumann_bound
    h_star: float
    orientation: str

    def __post_init__(self):
        for name in ("neumann_bound", "resolvent_l1_bound", "h_star"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v}")


# -- core computation ----------------------------------------------------------

def _check_submultiplicative(norms, label: str) -> None:
    m = len(norms)
    for i in range(1, m):
        for j in range(1, m - i):
            if norms[i + j] > norms[i] * norms[j] + SUBMULT_SLACK:
                raise AssertionError(
                    f"{label} power norms violate submultiplicativity at ({i},{j}): "
                    f"{norms[i + j]} > {norms[i]} * {norms[j]}"
                )


def _q_power_norms(P: sp.csr_matrix, u: np.ndarray) -> tuple[list[float], list[float]]:
    """Row- and column-family norms of Q^k, k = 0..N_POWERS.

    Q = (1 - Pi1) P, i.e. x Q = x P - (sum x) u P.  P is row-stochastic
    and u sums to 1, so e_i Q^k = e_i P^k - w_k with w_k = u P^k.

    k = 1 from the nonzeros of P: row i of Q has L1 norm sum over the
    support of row i of (|P_ij - w_j| - |w_j|), plus ||w||_1; column j has
    the same sum down column j, plus n |w_j| (w = w_1).

    k >= 2 in fused blocks of ``_BLOCK`` distinct rows i of P: Z = (rows i
    of P^2)^T, from those rows of P alone, steps as Z <- P^T Z (P^T in CSR)
    and stays nonnegative, with no rank-one correction.  Column sums of
    |Z - w_k| are row-family norms; its row sums, weighted by each row's
    count in P and added over the blocks in order, are the column family.
    """
    n = P.shape[0]
    w = [u]
    for _ in range(N_POWERS):
        w.append(w[-1] @ P)
    row_norms = [float(np.max(np.abs(1.0 - u) + (np.abs(u).sum() - np.abs(u))))]
    col_norms = [1.0]
    wj = w[1][P.indices]
    excess = sp.csr_matrix((np.abs(P.data - wj) - np.abs(wj), P.indices, P.indptr),
                           shape=(n, n))
    # Q = 0 cancels to roundoff of either sign; a norm is >= 0
    row_norms.append(max(0.0, float(np.max(excess.sum(axis=1) + np.abs(w[1]).sum()))))
    col_norms.append(max(0.0, float(np.max(excess.sum(axis=0) + n * np.abs(w[1])))))
    # equal rows of P have equal rows of every P^k (the linear branches of
    # a map repeat theirs), so each distinct row is stepped once
    keys = [P.indices[lo:hi].tobytes() + P.data[lo:hi].tobytes()
            for lo, hi in zip(P.indptr[:-1], P.indptr[1:])]
    _, first, copies = np.unique(np.array(keys, dtype=object), return_index=True,
                                 return_counts=True)
    distinct, PT = P[first], P.T.tocsr()
    row_maxima = np.zeros(N_POWERS - 1)
    col_sums = np.zeros((N_POWERS - 1, n))
    buf = np.empty((n, min(_BLOCK, len(first))))
    for start in range(0, len(first), _BLOCK):
        Z = (distinct[start:start + _BLOCK] @ P).T.toarray(order="C")
        dev = buf[:, :Z.shape[1]]
        for k in range(N_POWERS - 1):
            if k:
                Z = PT @ Z
            np.abs(np.subtract(Z, w[k + 2][:, None], out=dev), out=dev)
            row_maxima[k] = max(row_maxima[k], dev.sum(axis=0).max())
            col_sums[k] += dev @ copies[start:start + _BLOCK]
    row_norms += row_maxima.tolist()
    col_norms += col_sums.max(axis=1).tolist()
    return row_norms, col_norms


def compute_record(matrix: UlamMatrix) -> SpectralRecord:
    """All r-independent spectral data of a closed Ulam matrix.

    Raises :class:`NoUnitEigenvalueError` when the power iteration's
    eigenvalue is not within 1e-8 of 1 and
    :class:`EigensolverResidualError` when the invariant density's
    residual exceeds 1e-8.
    """
    if matrix.mode != "closed":
        raise ValueError("spectral analysis requires a closed-mode matrix")
    P = matrix.matrix
    n = matrix.n_bins

    lam, u, residual, iterations = dominant_left_eigenpair(P, tol=1e-15)
    if abs(lam - 1.0) > UNIT_EIGENVALUE_TOL:
        raise NoUnitEigenvalueError(
            f"dominant eigenvalue {lam} is not within {UNIT_EIGENVALUE_TOL} of 1"
        )
    if residual > RESIDUAL_TOL:
        raise EigensolverResidualError(
            f"invariant-density residual {residual:.3e} exceeds {RESIDUAL_TOL}"
        )
    below = u < 0.0
    if below.any():
        if u.min() < -1e-12:
            raise EigensolverResidualError(
                f"invariant density has entries below -1e-12 (min {u.min():.3e})"
            )
        u = np.where(below, 0.0, u)
    u = u / u.sum()
    projection_norm = float(np.abs(u).sum())

    row_norms, col_norms = _q_power_norms(P, u)
    _check_submultiplicative(row_norms, "row")
    _check_submultiplicative(col_norms, "column")

    return SpectralRecord(
        n_bins=n,
        map_fingerprint=matrix.map_fingerprint,
        eigenvalues=(lam,),
        mass_vector=u,
        projection_norm=projection_norm,
        q_power_norms=tuple(row_norms),
        q_power_norms_colsum=tuple(col_norms),
        unit_residual=residual,
        power_iterations=iterations,
    )


# -- bounds --------------------------------------------------------------------

def neumann_bound(record: SpectralRecord, r: float, *, orientation: str = "column") -> float:
    """Uniform bound on ||R(z)||_1 over |z| >= r via the truncated series.

    With q = ||Q^(N+1)|| / r^(N+1) < 1 the value is

        (1/r) * (sum_{k=0}^{N} ||Q^k|| / r^k) / (1 - q),

    N being the record's truncation index; q >= 1 raises
    :class:`NeumannDivergenceError`.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"need 0 < r < 1, got r={r}")
    norms = record.norms(orientation)
    N = record.truncation_N
    q = norms[N + 1] / r ** (N + 1)
    if q >= 1.0:
        raise NeumannDivergenceError(
            f"Neumann tail ratio q = {q:.6g} >= 1 at N={N} "
            "(r too close to the essential spectrum, or no spectral gap)"
        )
    partial = math.fsum(norms[k] / r**k for k in range(N + 1))
    return (partial / r) / (1.0 - q)


def h_star(record: SpectralRecord, r: float, delta: float, alpha0: float, B0: float,
           *, orientation: str = "column") -> ResolventBound:
    """Computable resolvent-sup surrogate for the certification chain.

    Requires the spectral layout that justifies the rank-one split: the
    unit eigenvalue is simple and every other eigenvalue has modulus at
    most r - delta.  Both follow from ``record.spectral_radius_bound <=
    r - delta`` (see the module docstring); otherwise
    :class:`SpectralStructureError` is raised.
    """
    alpha0 = float(alpha0)
    B0 = float(B0)
    r = float(r)
    delta = float(delta)
    if not 0 < r < 1:
        raise ValueError(f"need 0 < r < 1, got {r}")
    if delta <= 0:
        raise ValueError(f"need delta > 0, got {delta}")
    if r <= alpha0:
        raise ValueError(f"need r > alpha0, got r={r}, alpha0={alpha0}")
    radius = record.spectral_radius_bound
    if not radius <= r - delta:
        raise SpectralStructureError(
            f"spectral-radius bound {radius:.6g} of Q exceeds r - delta = "
            f"{r - delta:.6g}: the unit eigenvalue is not certified simple and "
            "alone outside the disc of radius r - delta"
        )
    neumann = neumann_bound(record, r, orientation=orientation)
    resolvent_l1 = record.projection_norm / delta + neumann
    value = (B0 / (r - alpha0) + 1.0) * resolvent_l1 + 1.0 / (r - alpha0) + 2.0 / r
    return ResolventBound(r=r, delta=delta, neumann_bound=neumann,
                          resolvent_l1_bound=resolvent_l1, h_star=value,
                          orientation=orientation)
