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

P is row-stochastic and u sums to 1, so e_i Q^k = e_i P^k - u P^k exactly.
Everything is computed from the factors P = A B, with B the m distinct
rows of P and A the n x m 0/1 class membership, and P itself is not
kept: its nonzeros are gathered from B only for the k = 1 norms, which
then add in P's row order, bit for bit as over the expanded matrix.  The
assembly hands over its distinct rows (``UlamMatrix.rows``), and
:func:`_equal_rows` over those alone merges the classes it did not
group; ``UlamMatrix.lumped`` keeps the result.  Equal rows make the chain
exactly lumpable (Kemeny-Snell, *Finite Markov Chains* 6.3): the distinct
rows of P^k are M^(k-1) B with the quotient M = B A (m x m).  For the
later powers narrow dense column blocks of the quotient iterate are
stepped by the CSR matrix M^T, and v_k = u A M^(k-1) follows the same
recurrence from A^T u, so w_k = u P^k = v_k B.  Each power's single
subtraction is taken in the quotient, e_c M^(k-1) - v_k, where equal rows
cancel it exactly, and only that difference is expanded by B^T to take
|e_i P^k - w_k|.  No power of P is formed, and every stepping product
multiplies nonnegative numbers.

``h_star`` bounds the resolvent with the column family, the convention
under which the reference outputs for the bundled example map were
produced.  The row family is the induced norm for the density action;
``neumann_bound`` takes either family, and certification reports the
row family's Neumann bound alongside for audit.

The invariant mass vector is u = v B, with v the iterate of power
iteration on the quotient M stopped by a Collatz-Wielandt bracket of the
dominant eigenvalue, which must contain 1 to within its rounding bound:
v M = v gives u P = v B A B = v M B = u.

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

numpy (and ``scipy.sparse``) are imported inside the functions that make or
read arrays.  A record keeps its mass vector as little-endian float64
bytes and its norms as floats, so reading a cached record, its
spectral-radius bound and the bounds above load no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .ulam import UlamMatrix

if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse as sp

__all__ = [
    "SpectralRecord",
    "ResolventBound",
    "SpectralStructureError",
    "NoUnitEigenvalueError",
    "InvariantDensityError",
    "PowerIterationError",
    "NeumannDivergenceError",
    "compute_record",
    "neumann_bound",
    "h_star",
    "dominant_left_eigenpair",
]

#: a record holds the norms of Q^1 .. Q^N_POWERS (truncation index N_POWERS - 1)
N_POWERS = 6
#: relative width of the Collatz-Wielandt bracket that stops power iteration
BRACKET_WIDTH = 1e-12
SUBMULT_SLACK = 1e-10
#: columns per dense block (wider blocks raise peak memory, not speed)
_BLOCK = 64


class SpectralStructureError(RuntimeError):
    """Spectral layout does not support the rank-one resolvent split."""


class NoUnitEigenvalueError(SpectralStructureError):
    """The dominant eigenvalue's bracket excludes 1 (matrix not stochastic?)."""


class InvariantDensityError(RuntimeError):
    """The invariant density has a negative entry."""


class PowerIterationError(RuntimeError):
    """The power iteration's Collatz-Wielandt bracket did not narrow."""


class NeumannDivergenceError(ArithmeticError):
    """Neumann tail ratio q >= 1 at the record's truncation index."""


def dominant_left_eigenpair(P: sp.csr_matrix | UlamMatrix, keep: np.ndarray | None = None):
    """Power iteration for the dominant left eigenpair of a nonnegative matrix A.

    Steps ``y = x A``, as ``A^T x`` with A^T in CSR, from the uniform vector
    with L1 normalization and returns ``(value, x, (lower, upper),
    iterations)``: the last mass ratio ``sum(y)``, the normalized iterate
    and the Collatz-Wielandt bracket (Horn-Johnson, *Matrix Analysis*, 8.1)

        min y_i / x_i  <=  rho(A)  <=  max y_i / x_i      over the x_i > 0.

    It stops once the bracket's relative width is at most
    :data:`BRACKET_WIDTH`, and forms the bracket only on steps where the
    mass ratio has settled to that width.  A bracket that does not narrow in
    10^6 steps raises :class:`PowerIterationError`.  Total mass loss (a
    hole that every orbit falls into) returns 0.0, a zero vector and
    (0.0, 0.0): the iterate is nonnegative, so its sum is exactly 0 then.

    Zero entries of x drop out of the bracket, which still encloses rho(A):
    the iterate's support only shrinks and keeps every bin on a cycle of A,
    so A restricted to it keeps every irreducible class of A and rho(A).

    ``P`` is a CSR matrix, whose transpose is built for this call, or an
    :class:`UlamMatrix`, whose cached ``transposed`` is used.  A 0/1
    ``keep`` mask makes A the matrix P with the rows where it is 0 zeroed,
    ``x -> (x * keep) @ P``: the open system of a hole, as its closed
    matrix with the hole's bins masked.  Bit for bit the same as iterating
    the explicit open matrix P_H, since its dropped entries only add
    ``P[i, j] * 0.0`` to nonnegative sums.
    """
    import numpy as np

    PT = P.transposed if isinstance(P, UlamMatrix) else P.T.tocsr()
    n = PT.shape[0]
    x = np.full(n, 1.0 / n)
    previous = math.inf
    for it in range(1, 10**6 + 1):
        y = PT @ (x if keep is None else x * keep)
        value = float(y.sum())
        if value == 0.0:
            return 0.0, y, (0.0, 0.0), it
        if abs(value - previous) <= BRACKET_WIDTH * value:
            support = x > 0.0
            ratios = y[support] / x[support]
            lower, upper = float(ratios.min()), float(ratios.max())
            if upper - lower <= BRACKET_WIDTH * upper:
                y /= value
                return value, y, (lower, upper), it
        y /= value          # in place: a new array per step doubled later page faults
        previous, x = value, y
    raise PowerIterationError(f"the Collatz-Wielandt bracket did not narrow to relative width "
                              f"{BRACKET_WIDTH:g} in {it} steps (last mass ratio {value!r})")


@dataclass(frozen=True)
class SpectralRecord:
    """r-independent spectral data of one closed Ulam matrix.

    Cached between runs: the unit eigenvalue and invariant mass vector
    from power iteration, and both power-norm families of Q.  The mass
    vector is held as its little-endian float64 bytes, as a record file
    stores it; :attr:`mass_vector` makes the array.
    """

    n_bins: int
    map_fingerprint: str
    eigenvalues: tuple[float, ...]        # (unit eigenvalue,); see spectral_radius_bound
    mass_bytes: bytes                     # invariant probability masses, '<f8'
    projection_norm: float                # ||Pi1||_1 = sum |mass|
    q_power_norms: tuple[float, ...]      # row family, [0] = ||1 - Pi1||
    q_power_norms_colsum: tuple[float, ...]  # column family, [0] = 1
    unit_residual: float
    power_iterations: int

    @property
    def truncation_N(self) -> int:
        return len(self.q_power_norms) - 2

    @property
    def mass_vector(self) -> np.ndarray:
        """Invariant probability masses (>= 0, sum 1): a new float64 array."""
        import numpy as np

        return np.frombuffer(self.mass_bytes, dtype="<f8").astype(np.float64)

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
        norm propagates, so the gate in :func:`h_star` rejects it.  Each
        root is one libm ``pow``, so the value does not depend on the
        CPU's SIMD level.
        """
        roots = [norm ** (1.0 / k)
                 for norms in (self.q_power_norms, self.q_power_norms_colsum)
                 for k, norm in enumerate(norms[1:], 1)]
        return math.nan if any(map(math.isnan, roots)) else min(roots)


@dataclass(frozen=True)
class ResolventBound:
    """Computable bound chain for sup ||(z - P)^-1|| off the spectrum."""

    r: float
    delta: float
    neumann_bound: float          # uniform bound on ||R(z)||_1 over |z| >= r
    resolvent_l1_bound: float     # ||Pi1||/delta + neumann_bound
    h_star: float

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


def _equal_rows(P: sp.csr_matrix):
    """Classes of equal rows of a float64 CSR matrix: ``(first, classes,
    copies)``, the lowest row of each class, the class of each row and the
    rows in each class, with the classes in the order of their lowest rows.

    Rows are equal when their column indices and data bits are.  The rows
    of each length are sorted by a table of their length, indices and data
    bits; the sort is stable, so each class's lowest row comes first, and a
    class starts wherever a sorted row differs from the one before it.
    """
    import numpy as np

    indptr = P.indptr
    nnz = np.diff(indptr)
    bits = P.data.view(np.int64)
    rep = np.empty(P.shape[0], dtype=np.intp)
    for length in np.unique(nnz):
        rows = np.flatnonzero(nnz == length)
        at = indptr[rows, None] + np.arange(length)
        # the length column gives lexsort a key even for empty rows
        table = np.hstack((np.full((len(rows), 1), length), P.indices[at], bits[at]))
        order = np.lexsort(table.T)
        table, rows = table[order], rows[order]
        new = np.r_[True, (table[1:] != table[:-1]).any(axis=1)]
        rep[rows] = rows[new][np.cumsum(new) - 1]
    return np.unique(rep, return_inverse=True, return_counts=True)


def _lumped(matrix: UlamMatrix):
    """``(B, quotient, classes)``: the m distinct rows of P, in the order of
    the first bin that has each, their quotient chain M = B A and the class
    of each bin, so P = A B with A the n x m 0/1 class membership.
    M[c, d] is the mass that a row of class c sends into the bins of
    class d; ``quotient`` holds it as a trivially factored
    :class:`UlamMatrix` on the m classes, so its transpose is built once
    for every iteration and power stepped on it.  Read through
    ``UlamMatrix.lumped``, which keeps the result.

    The classes are found by :func:`_equal_rows` over the matrix's
    assembled rows alone, which merges the equal rows that the assembly did
    not group (a tent map's mirrored branches); the assembled rows are in
    the order of their first bins, so the classes are exactly those of
    ``_equal_rows(P)``.
    """
    import scipy.sparse as sp

    rows = matrix.rows
    first, classes, _ = _equal_rows(rows)
    if matrix.row_of is not None:
        classes = classes[matrix.row_of]
    m = len(first)
    B = rows if m == rows.shape[0] else rows[first]     # first is 0 .. m-1 when all differ
    M = sp.csr_matrix((B.data, classes[B.indices], B.indptr), shape=(m, m),
                      copy=True)    # summing duplicates sorts in place; B keeps its order
    M.sum_duplicates()
    return B, UlamMatrix(m, M, matrix.map_fingerprint), classes


def _q_power_norms(B: sp.csr_matrix, quotient: UlamMatrix, classes: np.ndarray,
                   u: np.ndarray) -> tuple[list[float], list[float]]:
    """Row- and column-family norms of Q^k, k = 0..N_POWERS, from the
    factors P = A B (``classes`` gives A) and their quotient M = B A.

    Q = (1 - Pi1) P, i.e. x Q = x P - (sum x) u P.  P is row-stochastic
    and u sums to 1, so e_i Q^k = e_i P^k - w_k with w_k = u P^k; the
    distinct rows of P^k are M^(k-1) B, and w_k = v_k B with
    v_k = u A M^(k-1), stepped from v_1 = A^T u.

    k = 1 from the nonzeros of P, gathered from B for these sums alone and
    dropped after them (O(nnz(P))), so that w = u P and the column sums add
    in P's row order: row i of Q has L1 norm sum over the support of row i
    of (|P_ij - w_j| - |w_j|), plus ||w||_1; column j has that excess
    summed down column j, plus n |w_j| (w = w_1).

    k >= 2 per block of ``_BLOCK`` distinct rows, S = (M^T)[:, block]
    steps as S <- M^T S (CSR, dense m x block).  The deviation is
    subtracted in the quotient and then expanded, Z = |B^T (S - v_k)| =
    |(those rows of P^k) - w_k|^T, so the stepping products stay
    nonnegative.  Column sums of Z are row-family norms; its row sums,
    weighted by each row's count in P and added over the blocks in order,
    are the column family.
    """
    import numpy as np

    m, n = B.shape
    M, MT = quotient.matrix, quotient.transposed
    row_norms = [float(np.max(np.abs(1.0 - u) + (np.abs(u).sum() - np.abs(u))))]
    col_norms = [1.0]
    P = B[classes]
    w = u @ P
    wj = w[P.indices]
    excess = np.abs(P.data - wj) - np.abs(wj)
    # reduceat over the row starts (no Ulam row is empty) adds in the order
    # of scipy's CSR row sums.  Q = 0 cancels to roundoff of either sign; a
    # norm is >= 0
    row_norms.append(max(0.0, float(np.max(np.add.reduceat(excess, P.indptr[:-1])
                                           + np.abs(w).sum()))))
    col_norms.append(max(0.0, float(np.max(np.bincount(P.indices, excess, n)
                                           + n * np.abs(w)))))
    del P, w, wj, excess
    copies = np.bincount(classes, minlength=m)
    BT = B.T.tocsr()
    # v_k = u A M^(k-1), so w_k = v_k B and equal rows cancel v_k exactly
    v = [np.bincount(classes, weights=u, minlength=m)]
    for _ in range(N_POWERS - 1):
        v.append(MT @ v[-1])
    ones = np.ones(n)
    row_maxima = np.zeros(N_POWERS - 1)
    col_sums = np.zeros((N_POWERS - 1, n))
    # each block's S = (M^T)[:, block] is scattered from M's rows, which
    # hold no duplicate entries
    m_rows = np.repeat(np.arange(m), np.diff(M.indptr))
    for start in range(0, m, _BLOCK):
        stop = min(start + _BLOCK, m)
        nz = slice(M.indptr[start], M.indptr[stop])
        S = np.zeros((m, stop - start))
        S[M.indices[nz], m_rows[nz] - start] = M.data[nz]
        for k in range(N_POWERS - 1):
            if k:
                S = MT @ S
            dev = BT @ (S - v[k + 1][:, None])
            np.abs(dev, out=dev)
            row_maxima[k] = max(row_maxima[k], (ones @ dev).max())
            col_sums[k] += dev @ copies[start:start + _BLOCK]
    row_norms += row_maxima.tolist()
    col_norms += col_sums.max(axis=1).tolist()
    return row_norms, col_norms


def _density(B: sp.csr_matrix, quotient: UlamMatrix):
    """``(eigenvalue, u, (lower, upper), iterations)``: u = v B, with v the
    power iterate of the quotient M = B A and ``(lower, upper)`` its
    Collatz-Wielandt bracket (see :func:`invariant_density`)."""
    import numpy as np

    lam, v, (lower, upper), iterations = dominant_left_eigenpair(quotient)
    slack = (int(np.bincount(quotient.matrix.indices, minlength=1).max()) + 1) * 2.0**-53
    if not lower * (1.0 - slack) <= 1.0 <= upper * (1.0 + slack):
        raise NoUnitEigenvalueError(f"the dominant eigenvalue's bracket [{lower!r}, {upper!r}], "
                                    f"widened by {slack:.3g} relative, excludes 1")
    u = v @ B
    if u.min() < 0.0:
        raise InvariantDensityError(f"invariant density has a negative entry ({u.min():.3e})")
    return lam, u, (lower, upper), iterations


def invariant_density(matrix: UlamMatrix):
    """``(eigenvalue, u, (lower, upper), iterations)`` of a closed Ulam
    matrix: u its invariant mass vector (>= 0, summing to 1) and a
    Collatz-Wielandt bracket of :func:`dominant_left_eigenpair`.

    The iteration runs on the quotient M = B A of P's equal rows
    (``UlamMatrix.lumped``): if v M = v, then u = v B has u P = v B A B =
    v M B = u, and P's spectral radius is M's.  Each ratio of the bracket
    is a sum of at most c products, c the largest column count of M, and
    one division, so it is within (c + 1) 2^-53 relative of the exact
    ratio.  Raises :class:`NoUnitEigenvalueError` when the bracket, widened
    outward by that bound, excludes 1, and :class:`InvariantDensityError`
    when u has a negative entry (P has one).
    """
    B, quotient, _ = matrix.lumped
    return _density(B, quotient)


def compute_record(matrix: UlamMatrix) -> SpectralRecord:
    """All r-independent spectral data of a closed Ulam matrix, from its
    factors (P's nonzeros are gathered only for the k = 1 norms, and not
    kept); raises as :func:`invariant_density` does, so a sub-stochastic
    matrix gives :class:`NoUnitEigenvalueError`."""
    import numpy as np

    B, quotient, classes = matrix.lumped
    lam, u, _bracket, iterations = _density(B, quotient)
    row_norms, col_norms = _q_power_norms(B, quotient, classes, u)
    _check_submultiplicative(row_norms, "row")
    _check_submultiplicative(col_norms, "column")
    w = np.bincount(classes, weights=u, minlength=B.shape[0]) @ B      # u P

    return SpectralRecord(
        n_bins=matrix.n_bins,
        map_fingerprint=matrix.map_fingerprint,
        eigenvalues=(lam,),
        mass_bytes=u.astype("<f8", copy=False).tobytes(),
        projection_norm=float(np.abs(u).sum()),
        q_power_norms=tuple(row_norms),
        q_power_norms_colsum=tuple(col_norms),
        unit_residual=float(np.abs(w - lam * u).sum()),
        power_iterations=iterations,
    )


# -- bounds --------------------------------------------------------------------

def neumann_bound(norms, r: float) -> float:
    """Uniform bound on ||R(z)||_1 over |z| >= r via the truncated series.

    ``norms`` is one family of ||Q^k||, k = 0..N+1 (a record's
    ``q_power_norms`` or ``q_power_norms_colsum``).  With
    q = ||Q^(N+1)|| / r^(N+1) < 1 the value is

        (1/r) * (sum_{k=0}^{N} ||Q^k|| / r^k) / (1 - q);

    q >= 1 raises :class:`NeumannDivergenceError`.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"need 0 < r < 1, got r={r}")
    N = len(norms) - 2
    q = norms[N + 1] / r ** (N + 1)
    if q >= 1.0:
        raise NeumannDivergenceError(
            f"Neumann tail ratio q = {q:.6g} >= 1 at N={N} "
            "(r too close to the essential spectrum, or no spectral gap)"
        )
    partial = math.fsum(norms[k] / r**k for k in range(N + 1))
    return (partial / r) / (1.0 - q)


def h_star(record: SpectralRecord, r: float, delta: float, alpha0: float,
           B0: float) -> ResolventBound:
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
    neumann = neumann_bound(record.q_power_norms_colsum, r)
    resolvent_l1 = record.projection_norm / delta + neumann
    value = (B0 / (r - alpha0) + 1.0) * resolvent_l1 + 1.0 / (r - alpha0) + 2.0 / r
    return ResolventBound(r=r, delta=delta, neumann_bound=neumann,
                          resolvent_l1_bound=resolvent_l1, h_star=value)
