"""Standard-library exact evaluation of the Q-power norms of a small matrix.

An independent reading of the definition in the ``holecert.spectral``
module docstring, used by the tests to check the program's
double-precision norms.  It imports nothing from ``holecert``: the float
entries of P and u are taken as exact rationals, and

    Q^k = P^k - 1 (u P^k)

is evaluated in ``Fraction`` arithmetic, so both norm families are exact
for the given floats.  Entry 0 of each family follows the program's
convention: the row family holds ||1 - 1 u|| and the column family 1.
"""

from fractions import Fraction

#: largest bin count the oracle accepts; P^6 of a 40-bin matrix in
#: Fractions takes about a second
MAX_BINS = 40


def q_power_norms(P, u, n_powers: int) -> tuple[list[Fraction], list[Fraction]]:
    """Exact row- and column-family norms of Q^k, k = 0..n_powers.

    ``P`` is a square sequence of rows of floats, ``u`` a sequence of
    floats of the same length.
    """
    n = len(u)
    if n > MAX_BINS:
        raise ValueError(f"exact norms are for at most {MAX_BINS} bins, got {n}")
    P = [{j: Fraction(v) for j, v in enumerate(row) if v != 0} for row in P]
    u = [Fraction(v) for v in u]
    row_norms = [max(sum(abs((i == j) - u[j]) for j in range(n)) for i in range(n))]
    col_norms = [Fraction(1)]
    Pk = [{i: Fraction(1)} for i in range(n)]
    for _ in range(n_powers):
        Pk = [_row_times(row, P) for row in Pk]
        w = _row_times(dict(enumerate(u)), Pk)
        Q = [[row.get(j, 0) - w.get(j, 0) for j in range(n)] for row in Pk]
        row_norms.append(max(sum(abs(v) for v in row) for row in Q))
        col_norms.append(max(sum(abs(row[j]) for row in Q) for j in range(n)))
    return row_norms, col_norms


def _row_times(row: dict, M: list) -> dict:
    """The sparse row vector ``row`` times the matrix of sparse rows ``M``."""
    out = {}
    for l, a in row.items():
        for j, b in M[l].items():
            out[j] = out.get(j, 0) + a * b
    return out
