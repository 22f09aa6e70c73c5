"""Spectral-stability constant chains of Keller-Liverani type.

Two operators satisfying a common Lasota-Yorke inequality

    ||P^n f||_BV <= A alpha^n ||f||_BV + B ||f||_1

stay spectrally close when their mixed-norm distance |||P1 - P2||| (BV
unit ball into L1) is small; the admissible distance is an explicit
function of the inequality constants and a resolvent bound H for P1.
This module evaluates every constant of that chain:

    n1   = ceil( ln(2A) / ln(r/alpha) )
    C    = r^-n1,            D = A (A + B + 2)
    n2   = max( 0, ceil( ln(8 B D C H) / ln(r/alpha) ) )
    gamma = ln(r/alpha) / ln(1/alpha)
    eps1 = r^(n1+n2) / ( 8 B (H B + (1-r)^-1) )
    eps0 = min( eps1,
                [ r^n1 / ( 4 B (H (D+B) + 2 A (A+B) + (1-r)^-1) ) ]^gamma )

plus the closeness coefficients a, b of the resolvent-difference bound
and the transferred BV-resolvent bound

    4 (A+B) / (1-r) * r^-n1  +  1 / (2 eps1),

which is what lets a coarse-mesh computation cover every finer mesh.
The leading coefficient is A = 1 for the inequalities used here, and the
code evaluates these formulas in floats with A = 1 substituted.

Constant sets, exact rationals from :func:`ly_constants` (the one place
their formulas live), come in two modes.  ``hole-uniform`` covers the closed
operator, its Ulam discretizations, and every open (hole) operator at
once; it needs alpha0 < 1/3 and uses

    alpha = 3 alpha0,   B = (1 - alpha0 + B0) / (1 - alpha).

``closed-only`` covers just the closed operator and its discretizations,
with the sharper alpha0 itself and B_hat = 1 + B0/(1 - alpha0); it is
the right mode for transferring resolvent bounds between meshes before
re-entering the hole-uniform chain (the coarse-to-fine bootstrap).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .maps import as_rational

__all__ = [
    "LYConstants",
    "KLConstants",
    "KLDomainError",
    "ly_constants",
    "kl_constants",
]

HOLE_UNIFORM = "hole-uniform"
CLOSED_ONLY = "closed-only"


class KLDomainError(ValueError):
    """Parameters outside the admissible region (e.g. r <= alpha)."""


@dataclass(frozen=True)
class LYConstants:
    """Derived Lasota-Yorke constant set in one of the two modes, exactly.

    Every constant is a ``Fraction``.  ``alpha``, ``B`` and ``D = B + 3``
    are the *effective* constants the chain runs with; ``B_hat`` and
    ``Gamma`` are mode-independent.
    """

    alpha0: Fraction
    B0: Fraction
    mode: str
    alpha: Fraction
    B: Fraction
    B_hat: Fraction
    D: Fraction
    Gamma: Fraction


def ly_constants(alpha0, B0, mode: str = HOLE_UNIFORM) -> LYConstants:
    """Constant set for the common Lasota-Yorke inequality.

    Parameters
    ----------
    alpha0, B0 : rational or float
        Variation-inequality constants of the map (trusted inputs).
    mode : "hole-uniform" (default) or "closed-only"

    Raises
    ------
    KLDomainError
        When alpha0 is outside (0, 1) or B0 is negative, and in
        hole-uniform mode when alpha0 >= 1/3 (the hole-uniform inequality
        is only available below 1/3).
    """
    a0 = as_rational(alpha0)
    b0 = as_rational(B0)
    if not (0 < a0 < 1):
        raise KLDomainError(f"alpha0 must lie in (0, 1), got {a0}")
    if b0 < 0:
        raise KLDomainError(f"B0 must be nonnegative, got {b0}")
    if mode not in (HOLE_UNIFORM, CLOSED_ONLY):
        raise ValueError(f"unknown mode {mode!r}")

    B_hat = 1 + b0 / (1 - a0)
    Gamma = max(1 + a0, b0)

    if mode == HOLE_UNIFORM:
        if a0 >= Fraction(1, 3):
            raise KLDomainError(
                f"hole-uniform constants need alpha0 < 1/3, got alpha0 = {a0}; "
                "use closed-only mode for closed-system work")
        alpha = 3 * a0
        B = (1 - a0 + b0) / (1 - alpha)
    else:
        alpha = a0
        B = B_hat
    return LYConstants(alpha0=a0, B0=b0, mode=mode, alpha=alpha, B=B, B_hat=B_hat,
                       D=B + 3, Gamma=Gamma)        # D = A (A + B + 2) with A = 1


@dataclass(frozen=True)
class KLConstants:
    """Full constant chain for one (r, H) input."""

    ly: LYConstants
    r: float
    H: float
    n1: int
    C: float
    n2: int
    gamma: float
    epsilon1: float
    epsilon0: float
    a: float
    b: float
    resolvent_transfer_bound: float

    @property
    def mesh_threshold(self) -> float:
        """(2 Gamma)^-1 epsilon0: the mesh comparison value."""
        return self.epsilon0 / (2 * self.ly.Gamma)


def kl_constants(ly: LYConstants, r, H) -> KLConstants:
    """Evaluate the constant chain at radius r and resolvent bound H.

    ``H`` is a resolvent bound for the reference operator: feed the
    computable surrogate from :func:`holecert.spectral.h_star` (then
    epsilon0 realizes the computable lower-bound variant) or a
    transferred BV bound from a coarser mesh.  The separation delta acts
    only through ``H``, which already bounds the resolvent on
    |z - 1| > delta.
    """
    r = float(r)
    H = float(H)
    if not (sys.float_info.min <= ly.alpha and ly.D <= sys.float_info.max):
        raise KLDomainError("alpha and D = B + 3 must lie in the normal double range")
    alpha, B, D = float(ly.alpha), float(ly.B), float(ly.D)
    if not alpha < r < 1:
        raise KLDomainError(f"need alpha < r < 1, got alpha={alpha}, r={r}")
    if not (math.isfinite(H) and H > 0):
        raise KLDomainError(f"need a finite H > 0, got H = {H}")

    log_ratio = math.log(r / alpha)
    n1 = math.ceil(math.log(2) / log_ratio)
    if alpha ** n1 > r ** n1 / 2 + 1e-14:
        raise KLDomainError(f"n1 = {n1} misses alpha^n1 <= r^n1/2 in double precision "
                            f"(alpha = {alpha}, r = {r})")
    if -n1 * math.log(r) > math.log(sys.float_info.max):
        raise KLDomainError(
            f"r^-n1 = {r}^-{n1} overflows double precision (n1 = {n1})")
    C = r ** (-n1)
    product = 8 * B * D * C * H
    if not math.isfinite(product):
        raise KLDomainError(
            f"8 B D C H = 8 B D r^-n1 H overflows double precision (n1 = {n1}, H = {H})")
    # n2 counts powers of the transfer operator: when 8 B D C H <= alpha/r
    # the ceiling is negative and n2 = 0 already meets its inequality
    n2 = max(0, math.ceil(math.log(product) / log_ratio))
    gamma = log_ratio / math.log(1 / alpha)
    if not 0 < gamma < 1:
        raise KLDomainError(f"gamma = ln(r/alpha)/ln(1/alpha) rounds to {gamma}, outside "
                            f"(0, 1) (alpha = {alpha}, r = {r})")
    one_minus_r_inv = 1.0 / (1.0 - r)

    epsilon1 = r ** (n1 + n2) / (8 * B * (H * B + one_minus_r_inv))
    if not epsilon1 >= sys.float_info.min:
        # 1/(2 epsilon1) below would divide by zero or overflow
        raise KLDomainError(
            f"r^(n1+n2) = {r}^{n1 + n2} underflows double precision: epsilon1 = "
            f"{epsilon1!r} is zero or subnormal (n1 = {n1}, n2 = {n2})")
    base = r ** n1 / (4 * B * (H * (D + B) + 2 * (1 + B) + one_minus_r_inv))
    epsilon0 = min(epsilon1, base ** gamma)

    a = (8 * (2 * (1 + B) + one_minus_r_inv) * (1 + B) ** 2 * C + 1) / (1 - r)
    b = 2 * ((4 * (1 + B) ** 2 * (D + B) + B) * one_minus_r_inv * C + B)

    transfer = 4 * (1 + B) / (1 - r) * C + 1 / (2 * epsilon1)
    if not all(map(math.isfinite, (a, b, transfer))):
        raise KLDomainError(f"a, b or the transfer bound overflows double precision "
                            f"(n1 = {n1}, r = {r}, B = {B})")

    out = KLConstants(ly=ly, r=r, H=H, n1=n1, C=C, n2=n2,
                      gamma=gamma, epsilon1=epsilon1, epsilon0=epsilon0,
                      a=a, b=b, resolvent_transfer_bound=transfer)
    _validate_chain(out)
    return out


def _validate_chain(k: KLConstants) -> None:
    alpha = float(k.ly.alpha)
    if not (0 < k.gamma < 1):
        raise AssertionError(f"gamma = {k.gamma} outside (0, 1)")
    if k.epsilon0 > k.epsilon1 * (1 + 1e-15):
        raise AssertionError(f"epsilon0 = {k.epsilon0} exceeds epsilon1 = {k.epsilon1}")
    # defining property of n1: alpha^n1 <= r^n1 / 2 (A = 1)
    if alpha ** k.n1 > k.r ** k.n1 / 2 + 1e-14:
        raise AssertionError(f"n1 = {k.n1} violates alpha^n1 <= r^n1/2")
    for name in ("epsilon1", "epsilon0", "a", "b", "resolvent_transfer_bound", "C"):
        v = getattr(k, name)
        if not (math.isfinite(v) and v > 0):
            raise AssertionError(f"{name} = {v} is not finite and positive")

