"""Certification driver: mesh refinement and the hole-size certificate.

Given a map with hole-uniform Lasota-Yorke constants (alpha0 < 1/3) and an
escape tolerance ell, the driver fixes r = 1 - ell and
delta = 1/(ceil(1/ell) + 1) < ell, and refines a uniform Ulam partition until

    mesh  <=  (2 Gamma)^-1 epsilon0(P_mesh, r, delta)          (comparison step)

with epsilon0 evaluated through the computable resolvent surrogate of
:func:`holecert.spectral.h_star`.  That surrogate is only issued when the
spectral-radius bound of the mass-free part is at most r - delta, so the
unit eigenvalue is simple and the only one of modulus above r - delta;
the separation step (no other eigenvalue above r within 2 delta of 1)
therefore holds on every pass that reaches the comparison, and the
paper's delta-halving loop is not needed.  A successful run certifies:
every aligned hole H with lambda(H) <= Gamma * epsilon_com yields an
open system with an accim, 1 - e_H < delta_com, and escape rate below
-ln(1 - ell).

A failed pass makes one refinement decision.  When the closed-only
(sharper-constants) comparison holds at the analysed mesh, its resolvent
bound transfers to every finer mesh: the run certifies at the smallest
power-of-ten bin count whose mesh clears the transferred comparison,
with no spectral analysis there.  Otherwise the next pass analyses the
smallest power-of-ten bin count whose mesh clears the current comparison
value.  A decision that needs more than ``LADDER_CAP`` bins ends the run
with a failed report naming the cap and the threshold.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .cache import PipelineCache
from .kl import (
    CLOSED_ONLY,
    HOLE_UNIFORM,
    KLConstants,
    KLDomainError,
    kl_constants,
    ly_constants,
)
from .maps import PiecewiseMap, as_rational
from .spectral import h_star, neumann_bound

__all__ = [
    "CertificationReport",
    "CertificateBounds",
    "IterationRecord",
    "SeparationResult",
    "certificate_bounds",
    "next_power_of_ten_bins",
    "run_certification",
    "separation_check",
]

#: largest bin count of the power-of-ten refinement ladder
LADDER_CAP = 10**8


@dataclass
class IterationRecord:
    """One pass of the comparison machinery (the audit trail)."""

    index: int
    n_bins: int
    mesh: Fraction
    delta: Fraction
    used_bootstrap: bool
    h_star: float | None
    transferred_H: float | None
    neumann: float | None
    neumann_rowsum: float | None
    n1: int
    n2: int
    epsilon0: float
    threshold: float            # (2 Gamma)^-1 epsilon0
    step7_pass: bool
    closed_only_threshold: float | None = None
    spectral_radius_bound: float | None = None   # None on bootstrap passes


@dataclass
class CertificationReport:
    """Certificate plus the full iteration log."""

    status: str                      # "certified" | "failed"
    reason: str | None
    map_label: str
    map_fingerprint: str
    ell: Fraction
    r: Fraction
    Gamma: Fraction
    escape_coefficient: float        # bounds (1 - e_H) / lambda(H)
    escape_guarantee: float          # -ln(1 - ell)
    delta_com: Fraction | None
    epsilon_com: Fraction | None
    hole_bound: Fraction | None      # Gamma * epsilon_com
    iterations: list[IterationRecord] = field(default_factory=list)
    final_constants: KLConstants | None = None

    @property
    def certified(self) -> bool:
        return self.status == "certified"


@dataclass(frozen=True)
class SeparationResult:
    passed: bool
    witness: complex | None
    cluster: tuple[complex, ...]   # eigenvalues within delta of 1


def separation_check(eigenvalues, r, delta) -> SeparationResult:
    """Check the peripheral eigenvalues apart from the cluster at 1.

    Passes when every listed eigenvalue of modulus above ``r`` other than
    the unit eigenvalue itself keeps its closed delta-ball disjoint from
    the one around 1, i.e. |z - 1| > 2 delta.  The first violator is
    returned as witness; ``cluster`` reports everything within delta of 1.
    :func:`run_certification` does not call it: the spectral gate of
    :func:`holecert.spectral.h_star` already implies it.  It stays as the
    reference arithmetic of the paper's separation step, which the
    acceptance suite (criterion C7) checks.
    """
    r = float(r)
    delta = float(delta)
    unit_tol = 1e-8
    cluster = tuple(z for z in eigenvalues if abs(z - 1.0) <= delta)
    for z in eigenvalues:
        if abs(z) <= r or abs(z - 1.0) <= unit_tol:
            continue
        if abs(z - 1.0) <= 2 * delta:
            return SeparationResult(False, complex(z), cluster)
    return SeparationResult(True, None, cluster)


def next_power_of_ten_bins(bound: float) -> int:
    """Smallest power-of-ten bin count whose mesh, as the double nearest
    1/n, is at most ``bound``."""
    if bound <= 0 or not math.isfinite(bound):
        raise ValueError(f"mesh bound must be positive and finite, got {bound}")
    n = 1
    while float(Fraction(1, n)) > bound:
        n *= 10
    return n


def run_certification(tmap: PiecewiseMap, ell, bins_init: int = 1000,
                      cache: PipelineCache | None = None) -> CertificationReport:
    """Run the certification loop on a map.

    ``ell`` is the escape tolerance in (0, 1): the certificate guarantees
    an escape rate below -ln(1 - ell).  The loop runs at r = 1 - ell and
    delta = 1/(ceil(1/ell) + 1), starting at ``bins_init`` bins.

    Returns a report whose status is "certified" on success (with
    delta_com, epsilon_com, and the hole bound Gamma * epsilon_com) or
    "failed" with the blocking comparison recorded.  Spectral-structure
    errors from the analysis propagate as exceptions; cap exhaustion does
    not raise.
    """
    ell = as_rational(ell)
    if not 0 < ell < 1:
        raise ValueError(f"ell must lie in (0, 1), got {ell}")
    bins_init = operator.index(bins_init)
    if bins_init < 1:
        raise ValueError("bins_init must be positive")
    delta = Fraction(1, math.ceil(1 / ell) + 1)
    ly = ly_constants(tmap.alpha0, tmap.B0, HOLE_UNIFORM)
    ly_closed = ly_constants(tmap.alpha0, tmap.B0, CLOSED_ONLY)
    if not ell < 1 - ly.alpha:
        raise KLDomainError(f"need ell < 1 - alpha = {1 - ly.alpha}, got ell = {ell}")
    r_frac = 1 - ell
    r = float(r_frac)
    escape_coefficient = 1 + float((2 * ly.alpha0 + ly.B0) / (r_frac - ly.alpha))

    cache = cache if cache is not None else PipelineCache(None)
    report = CertificationReport(
        status="failed", reason=None, map_label=tmap.label,
        map_fingerprint=tmap.fingerprint, ell=ell, r=r_frac, Gamma=ly.Gamma,
        escape_coefficient=escape_coefficient,
        escape_guarantee=-math.log(1 - float(ell)),
        delta_com=None, epsilon_com=None, hole_bound=None,
    )

    n_bins = bins_init
    # every failed pass either certifies by transfer or moves to the ladder
    # mesh its threshold predicts, strictly finer than the one that failed;
    # so at most 1 + log10(LADDER_CAP) passes run before the cap ends the run
    while True:
        mesh = Fraction(1, n_bins)
        record = cache.spectral_record(tmap, n_bins)
        bound = h_star(record, r, float(delta), ly.alpha0, ly.B0)
        chain = kl_constants(ly, r, bound.h_star)
        rec = IterationRecord(
            index=len(report.iterations) + 1, n_bins=n_bins, mesh=mesh,
            delta=delta, used_bootstrap=False, h_star=bound.h_star,
            transferred_H=None, neumann=bound.neumann_bound,
            neumann_rowsum=neumann_bound(record.q_power_norms, r),
            n1=chain.n1, n2=chain.n2, epsilon0=chain.epsilon0,
            threshold=chain.mesh_threshold,
            step7_pass=float(mesh) <= chain.mesh_threshold,
            spectral_radius_bound=record.spectral_radius_bound,
        )
        report.iterations.append(rec)
        if rec.step7_pass:
            break
        # the closed-only comparison at this mesh decides whether its bound
        # transfers to every finer mesh
        closed = kl_constants(ly_closed, r, rec.h_star)
        rec.closed_only_threshold = closed.mesh_threshold
        transfer = float(mesh) < closed.mesh_threshold
        if transfer:
            chain = kl_constants(ly, r, closed.resolvent_transfer_bound)
        n_bins = next_power_of_ten_bins(chain.mesh_threshold)
        if n_bins > LADDER_CAP:
            report.reason = (
                f"{'transferred ' if transfer else ''}threshold {chain.mesh_threshold} "
                f"needs {n_bins} bins, past the ladder cap of {LADDER_CAP}"
            )
            return report
        if transfer:
            # the ladder mesh lies at or below the transferred threshold
            mesh = Fraction(1, n_bins)
            report.iterations.append(IterationRecord(
                index=rec.index + 1, n_bins=n_bins, mesh=mesh, delta=delta,
                used_bootstrap=True, h_star=None, transferred_H=chain.H,
                neumann=None, neumann_rowsum=None, n1=chain.n1, n2=chain.n2,
                epsilon0=chain.epsilon0, threshold=chain.mesh_threshold,
                step7_pass=True, closed_only_threshold=closed.mesh_threshold,
            ))
            break
    # h_star's gate already implies the separation step
    report.final_constants = chain
    report.status = "certified"
    report.delta_com = delta
    report.epsilon_com = mesh
    report.hole_bound = ly.Gamma * mesh
    return report


@dataclass(frozen=True)
class CertificateBounds:
    """What a certificate says about one concrete hole measure."""

    accim_exists: bool
    one_minus_eH_upper: float | None
    escape_upper: float | None


def certificate_bounds(report: CertificationReport, hole_measure) -> CertificateBounds:
    """Evaluate a certificate at a concrete hole measure.

    ``accim_exists`` is the guarantee lambda(H) <= Gamma * epsilon_com;
    when it holds, 1 - e_H is bounded by min(delta_com,
    escape_coefficient * lambda(H)) and the escape rate by
    -ln(1 - that).  A hole measure above the bound is a valid "no
    guarantee" answer, not an error.
    """
    if not report.certified:
        raise ValueError("certificate_bounds needs a certified report")
    hole_measure = as_rational(hole_measure)
    if hole_measure < 0:
        raise ValueError("hole measure must be nonnegative")
    if hole_measure > report.hole_bound:
        return CertificateBounds(False, None, None)
    one_minus = min(float(report.delta_com),
                    report.escape_coefficient * float(hole_measure))
    return CertificateBounds(True, one_minus, -math.log1p(-one_minus))
