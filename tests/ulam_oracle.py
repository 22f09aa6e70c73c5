"""Standard-library Ulam matrix of a piecewise map, one exact row at a time.

The row-by-row ``Fraction`` assembly that ``holecert.ulam.build_closed``
used before its vectorised integer assembly, kept as the reference the
tests compare that assembly against bit for bit.  It imports nothing from
``holecert``: a map is any object with a ``branches`` sequence whose
branches have ``lo``, ``hi``, Moebius coefficients ``p``, ``q``, ``r``,
``s``, ``image``, ``increasing`` and a forward call, all exact on
``Fraction`` input.  Preimages come from the inverse formula here.

Each entry n * lambda(bin_i intersect T^-1 bin_j) is an exact ``Fraction``
rounded once to float.  ``rows_csr`` assembles only the rows asked for, so
a test at a large bin count can sample rows instead of building all n.
"""

from fractions import Fraction


def inverse(branch, y):
    """Preimage (s y - q)/(p - r y) of y under x -> (p x + q)/(r x + s)."""
    return (branch.s * y - branch.q) / (branch.p - branch.r * y)


def branch_preimage(tmap, branch_index: int, interval):
    """Preimage of an interval under one branch, as an ordered pair.

    ``interval`` is a pair (lo, hi) with lo <= hi, or None for the empty
    set.  Returns (xlo, xhi) with xlo <= xhi, or None when the interval
    misses the branch range; monotonicity makes the preimage one interval.
    """
    if interval is None:
        return None
    jlo, jhi = interval
    if jhi < jlo:
        raise ValueError(f"interval endpoints out of order: {interval}")
    if jhi == jlo:
        return None
    b = tmap.branches[branch_index]
    ylo, yhi = b.image
    lo = max(jlo, ylo)
    hi = min(jhi, yhi)
    if hi <= lo:
        return None
    p, q = inverse(b, lo), inverse(b, hi)
    if not b.increasing:
        p, q = q, p
    # clip to the domain (a no-op for exact inverses)
    p = max(p, b.lo)
    q = min(q, b.hi)
    if q < p:
        return None
    return (p, q)


def row_entries(tmap, n: int, i: int) -> dict:
    """Row i of the n-bin closed matrix as {column: exact Fraction}."""
    lo, hi = Fraction(i, n), Fraction(i + 1, n)
    row = {}
    for bi, branch in enumerate(tmap.branches):
        a = max(lo, branch.lo)
        b = min(hi, branch.hi)
        if b <= a:
            continue
        ya, yb = branch(a), branch(b)
        if ya > yb:
            ya, yb = yb, ya
        j0 = int(ya * n)
        ybn = yb * n
        j1 = int(ybn) - 1 if ybn.denominator == 1 else int(ybn)
        j1 = min(j1, n - 1)
        for j in range(j0, j1 + 1):
            seg = branch_preimage(tmap, bi, (max(ya, Fraction(j, n)),
                                             min(yb, Fraction(j + 1, n))))
            if seg is None:
                continue
            length = seg[1] - seg[0]
            if length > 0:
                row[j] = row.get(j, Fraction(0)) + length * n
    return row


def rows_csr(tmap, n: int, rows) -> tuple[list, list, list]:
    """CSR arrays (indptr, indices, data) of the given rows, in that order."""
    indptr, indices, data = [0], [], []
    for i in rows:
        row = row_entries(tmap, n, i)
        cols = sorted(row)
        indices.extend(cols)
        data.extend(float(row[j]) for j in cols)
        indptr.append(len(indices))
    return indptr, indices, data


def closed_csr(tmap, n: int) -> tuple[list, list, list]:
    """CSR arrays (indptr, indices, data) of the n-bin closed matrix."""
    return rows_csr(tmap, n, range(n))
