"""Escape behavior of concrete open systems.

The dominant eigenpair of the sub-stochastic open Ulam matrix (the closed
one with the hole's rows zeroed, stepped as the masked chain B D A of the
closed matrix's factors, on the classes of its assembly; the holes on one
matrix share its column array) gives the discrete escape factor e_H (escape
rate -ln e_H), a Collatz-Wielandt bracket of it and the conditionally
invariant density estimate.  A second tool runs the shrinking-hole
experiment: for nested aligned holes around a point y, the ratios
(1 - e_H) / lambda(H) approach f*(y) when y is non-periodic and
f*(y) (1 - 1/|(T^p)'(y)|) when y has period p, f* the invariant density.
Ulam densities only converge in L1, so any pointwise f* read off the
closed matrix is advisory; for full-branch piecewise-linear maps f* = 1
is exact and used directly.  numpy is imported inside the functions that
make or read arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .cache import PipelineCache
from .maps import PiecewiseMap, affine_onto, as_rational
from .spectral import PowerIterationError, dominant_left_eigenpair, invariant_density
from .ulam import Hole, UlamMatrix

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EscapeEstimate",
    "PointClassification",
    "AsymptoticRatioExperiment",
    "PowerIterationError",
    "estimate_escape",
    "classify_point",
    "asymptotic_ratio",
]

PERIOD_SEARCH_LIMIT = 32


@dataclass(frozen=True)
class EscapeEstimate:
    """Dominant eigendata of one open system."""

    hole: Hole
    n_bins: int
    e_H: float                         # the last mass ratio, in the bracket
    e_H_lower: float                   # Collatz-Wielandt bracket of the
    e_H_upper: float                   # float matrix's spectral radius
    escape_rate: float                 # -ln e_H (inf on total escape)
    accim_density: np.ndarray          # piecewise-constant values, integral 1
    iterations: int
    total_escape: bool = False


def estimate_escape(closed: UlamMatrix, hole: Hole) -> EscapeEstimate:
    """Escape factor and accim density of the open system of a closed Ulam
    matrix and a hole.

    Power iteration on the sub-stochastic open system (the dominant
    eigenpair of a nonnegative matrix is exactly what the iteration
    delivers, and the accim density comes for free): e_H is the last mass
    ratio, stopped once its Collatz-Wielandt bracket [e_H_lower, e_H_upper]
    has relative width at most 1e-12 (:class:`PowerIterationError` if it
    never narrows), and clamped into that bracket, which its rounding can
    leave by an ulp.  A hole that swallows everything reachable yields
    e_H = 0 with ``total_escape`` set.

    The open matrix is P_H = D A B, with P = A B the closed matrix's
    factors (``closed.rows``, ``closed.row_of``) and D the 0/1 mask of the
    bins outside the hole.  The iteration runs on the m x m chain
    M_H = B D A (``closed.masked_quotient``), which has P_H's nonzero
    eigenvalues (Horn-Johnson, *Matrix Analysis*, 1.3); the columns of a
    row that fall in one class stay duplicate entries, which each step
    adds.  v M_H = e_H v gives the accim mass vector x = v B, normalised:
    x P_H = v M_H B = e_H x.  The hole's endpoints must be multiples of
    1/n for the matrix's bin count n
    (:class:`~holecert.ulam.HoleAlignmentError`).
    """
    n = closed.n_bins
    hole_bins = hole.bin_range(n)   # raises HoleAlignmentError if misaligned
    lam, v, (lower, upper), iters = dominant_left_eigenpair(closed.masked_quotient(hole_bins))
    lam = min(max(lam, lower), upper)
    x = closed.rows.T @ v
    if lam:
        x /= x.sum()
    x *= n
    return EscapeEstimate(hole=hole, n_bins=n, e_H=lam, e_H_lower=lower, e_H_upper=upper,
                          escape_rate=-math.log(lam) if lam else math.inf,
                          accim_density=x, iterations=iters, total_escape=lam == 0.0)


@dataclass(frozen=True)
class PointClassification:
    """Orbit type of the hole's center point."""

    kind: str                     # "periodic" | "non-periodic"
    period: int | None
    derivative: float | None      # (T^p)'(y) along the exact orbit


def classify_point(tmap: PiecewiseMap, y) -> PointClassification:
    """Classify y as periodic (with period and cycle derivative) or not.

    y is anything :func:`~holecert.maps.as_rational` accepts, and the
    exact point ``as_rational(y)`` is classified up to period 32.  A float
    is its decimal value: 0.3333333333333333 is non-periodic under
    10x mod 1, and ``"1/3"`` or ``Fraction(1, 3)`` is its fixed point.
    The orbit stops at its first return to y, at the first repeat of
    another point (the orbit is then caught in a cycle without y), or
    where it leaves [0, 1) (it reaches 1, the image end of a branch) and
    cannot return.
    """
    orbit = [as_rational(y)]
    # points compare as as_integer_ratio keys, far cheaper than Fractions
    start = orbit[0].as_integer_ratio()
    seen = {start}
    for p in range(1, PERIOD_SEARCH_LIMIT + 1):
        x = tmap.evaluate(orbit[-1])
        key = x.as_integer_ratio()
        if key == start:
            deriv = math.prod(float(tmap.derivative(v)) for v in orbit)
            return PointClassification("periodic", p, deriv)
        # branch images lie in [0, 1], so the orbit leaves [0, 1) only at 1
        if key in seen or key == (1, 1):
            break
        seen.add(key)
        orbit.append(x)
    return PointClassification("non-periodic", None, None)


@dataclass(frozen=True)
class AsymptoticRatioExperiment:
    """Shrinking-hole ratios around one point, with the expected limit."""

    point: float
    widths: tuple[Fraction, ...]
    holes: tuple[Hole, ...]
    n_bins: tuple[int, ...]
    e_values: tuple[float, ...]
    ratios: tuple[float, ...]            # (1 - e_H) / lambda(H)
    extrapolated_limit: float
    low_confidence: bool
    classification: PointClassification
    f_star_value: float
    f_star_source: str                   # "uniform-exact" | "ulam-advisory"
    predicted_limit: float


def _nested_aligned_hole(y: Fraction, n: int, k: int,
                         previous: Hole | None) -> Hole:
    """k-bin hole on the 1/n partition containing y, nested in ``previous``."""
    lo_idx, hi_idx = 0, n - k
    if previous is not None:
        lo_idx = max(lo_idx, math.ceil(previous.a * n))
        hi_idx = min(hi_idx, math.floor(previous.b * n) - k)
    centered = math.floor(y * n) - (k - 1) // 2
    idx = min(max(centered, lo_idx), hi_idx)
    if idx < lo_idx or idx > hi_idx:
        raise ValueError(
            f"cannot nest a {k}-bin hole containing {y} on the 1/{n} partition"
        )
    hole = Hole(Fraction(idx, n), Fraction(idx + k, n))
    if not (hole.a <= y <= hole.b):
        raise ValueError(f"hole {hole} does not contain y = {y}")
    return hole


def asymptotic_ratio(tmap: PiecewiseMap, y, widths, bins_per_hole: int, *,
                     cache=None) -> AsymptoticRatioExperiment:
    """Run the shrinking-hole experiment at a point.

    Parameters
    ----------
    y : anything :func:`~holecert.maps.as_rational` accepts, in [0, 1)
        Point the holes shrink towards (kept inside, or on the boundary of,
        every hole); a float is its decimal value, as in
        :func:`classify_point`.
    widths : strictly decreasing hole measures; each width w must satisfy
        bins_per_hole / w integral so the hole spans exactly
        ``bins_per_hole`` bins of its own partition.
    bins_per_hole : number of partition bins each hole spans.
    cache : optional :class:`holecert.cache.PipelineCache` supplying the
        closed matrices (they are shared between experiments at the same
        widths); a memory-only one when omitted.

    The extrapolated limit is the intercept of a least-squares line of
    ratio against hole measure (a single width is returned as-is and
    flagged low confidence).  The predicted limit uses f*(y) = 1 exactly
    for full-branch piecewise-affine maps; otherwise f*(y) is read off the
    finest closed Ulam density, which has L1 but no pointwise control, so
    the prediction is advisory only.
    """
    import numpy as np

    y = as_rational(y)
    if not 0 <= y < 1:
        raise ValueError(f"y must lie in [0, 1), got {y}")
    widths = [as_rational(w) for w in widths]
    if not widths:
        raise ValueError("need at least one width")
    if any(b <= a for a, b in zip(widths[1:], widths)):
        raise ValueError(f"widths must be strictly decreasing, got {widths}")
    if bins_per_hole < 1:
        raise ValueError("bins_per_hole must be positive")
    if cache is None:
        cache = PipelineCache()

    holes: list[Hole] = []
    bins: list[int] = []
    evals: list[float] = []
    previous: Hole | None = None
    for w in widths:
        n_frac = bins_per_hole / w
        if n_frac.denominator != 1:
            raise ValueError(
                f"width {w} incompatible with bins_per_hole={bins_per_hole}: "
                f"bin count {n_frac} is not an integer"
            )
        n = int(n_frac)
        hole = _nested_aligned_hole(y, n, bins_per_hole, previous)
        closed = cache.closed_matrix(tmap, n)
        est = estimate_escape(closed, hole)
        holes.append(hole)
        bins.append(n)
        evals.append(est.e_H)
        previous = hole

    measures = np.array([float(w) for w in widths])
    ratios = (1.0 - np.array(evals)) / measures
    low_confidence = len(widths) == 1
    if low_confidence:
        limit = float(ratios[0])
    else:
        coeffs = np.polyfit(measures, ratios, 1)
        limit = float(coeffs[1])

    classification = classify_point(tmap, y)

    if affine_onto(tmap.branches):
        f_star_value, source = 1.0, "uniform-exact"
    else:
        # the finest partition's density, read in the bin of y
        _lam, u, _bracket, _it = invariant_density(closed)
        f_star_value = float(u[int(y * n)] * n)
        source = "ulam-advisory"
    predicted = f_star_value
    if classification.kind == "periodic":
        predicted *= 1.0 - 1.0 / abs(classification.derivative)

    return AsymptoticRatioExperiment(
        point=float(y), widths=tuple(widths), holes=tuple(holes),
        n_bins=tuple(bins), e_values=tuple(evals),
        ratios=tuple(float(t) for t in ratios),
        extrapolated_limit=limit, low_confidence=low_confidence,
        classification=classification, f_star_value=f_star_value,
        f_star_source=source, predicted_limit=predicted,
    )
