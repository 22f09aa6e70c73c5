"""Certified hole sizes and escape rates for piecewise expanding interval maps.

The package discretizes the transfer operator of a piecewise expanding map
of [0, 1) with Ulam's method, extracts computable spectral-stability
constants, and turns them into a certificate: a hole size below which the
open system is guaranteed to carry an absolutely continuous conditionally
invariant measure with escape rate below a requested tolerance.  A second
set of tools estimates the actual escape rate of concrete holes and the
asymptotic effect of the hole position.
"""

__version__ = "0.1.0"

from .maps import (Branch, MapConfigError, MapDomainError, PiecewiseMap, as_rational,
                   bundled_map_path, full_branch_linear, load_map)
from .ulam import Hole, HoleAlignmentError, UlamMatrix, build_closed
from .spectral import (NeumannDivergenceError, ResolventBound, SpectralRecord,
                       SpectralStructureError, compute_record, dominant_left_eigenpair, h_star,
                       neumann_bound)
from .kl import KLConstants, KLDomainError, LYConstants, kl_constants, ly_constants
from .certify import (CertificateBounds, CertificationReport, certificate_bounds,
                      run_certification)
from .escape import (AsymptoticRatioExperiment, EscapeEstimate, PointClassification,
                     asymptotic_ratio, classify_point, estimate_escape)
from .cache import PipelineCache, default_cache_dir

__all__ = [
    "AsymptoticRatioExperiment", "Branch", "CertificateBounds", "CertificationReport",
    "EscapeEstimate", "Hole", "HoleAlignmentError",
    "KLConstants", "KLDomainError", "LYConstants", "MapConfigError", "MapDomainError",
    "NeumannDivergenceError", "PiecewiseMap", "PipelineCache", "PointClassification",
    "ResolventBound", "SpectralRecord", "SpectralStructureError", "UlamMatrix",
    "as_rational", "asymptotic_ratio", "build_closed",
    "bundled_map_path", "certificate_bounds", "classify_point", "compute_record",
    "default_cache_dir", "dominant_left_eigenpair", "estimate_escape",
    "full_branch_linear", "h_star", "kl_constants", "load_map", "ly_constants",
    "neumann_bound", "run_certification",
]
