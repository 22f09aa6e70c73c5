"""Piecewise expanding interval maps on [0, 1) with exact Moebius branches.

A map is a finite ordered list of strictly monotone branches whose
half-open domains partition [0, 1) and whose images lie in [0, 1].
Each branch is a Moebius map x -> (p x + q)/(r x + s) with exact rational
endpoints and coefficients (r = 0, s = 1 for an affine branch).
Preimages of rational points are therefore exact rationals, which is
what makes every Ulam matrix exact downstream.

A branch computes its exact integer form once, at construction: its
coefficients scaled by the lcm of their denominators, the numerators and
denominators of its endpoints and those of its image ends.  The domain,
constant-branch and pole checks, the image, the self-map check and
``PiecewiseMap.min_derivative`` run on those integers, and Ulam assembly
reads them (``Branch._integers``).

Each map carries the constants (alpha0, B0) of the variation inequality

    V(P f) <= alpha0 * V(f) + B0 * ||f||_1

satisfied by its transfer operator P.  These are trusted inputs: deriving
sharp constants for a general piecewise C^2 map is out of scope.  For
piecewise-affine maps whose branches are all onto [0, 1) the helper
``linear_onto_constants`` supplies alpha0 = 1/beta (beta the minimum
slope magnitude) and B0 = 0.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from importlib import resources
from numbers import Rational
from typing import Sequence

__all__ = [
    "Branch",
    "PiecewiseMap",
    "MapConfigError",
    "MapDomainError",
    "ExpansionWarning",
    "affine_onto",
    "as_rational",
    "bundled_map_path",
    "full_branch_linear",
    "linear_onto_constants",
    "load_map",
    "save_map",
    "map_from_dict",
]


class MapConfigError(ValueError):
    """Malformed map configuration (bad partition, parameters, or constants)."""


class MapDomainError(ValueError):
    """A point fell outside the union of branch domains."""


class ExpansionWarning(UserWarning):
    """The minimum derivative magnitude min |T'| is at most 1."""


def as_rational(value) -> Fraction:
    """Parse an exact rational from ``p/q`` strings, decimals, or numbers.

    Strings go through :class:`~fractions.Fraction` directly, so ``"1/9"``,
    ``"0.25"`` and ``"3"`` are all exact.  Floats are converted via their
    decimal representation (``0.1`` becomes 1/10, not the binary float).
    Booleans are rejected: JSON ``true``/``false`` are no numbers, and so
    are non-finite floats (JSON ``NaN``, or ``1e400``, which parses as inf).
    """
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MapConfigError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, Rational) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(str(value))
    raise MapConfigError(f"cannot parse rational from {value!r}")


@dataclass(frozen=True)
class Branch:
    """Strictly monotone branch x -> (p x + q)/(r x + s) on [lo, hi).

    Endpoints and coefficients are exact rationals with ps - qr != 0 and
    no pole in the closed domain.  The defaults r = 0, s = 1 give the
    affine branch x -> p x + q, written as a ``"linear"`` config entry.

    The constructor checks the branch on its exact integer form and sets
    ``linear``, ``increasing``, ``image`` and ``_integers`` from it.
    """

    lo: Fraction
    hi: Fraction
    p: Fraction
    q: Fraction
    r: Fraction = Fraction(0)
    s: Fraction = Fraction(1)
    #: r = 0 and s = 1, the form of a ``"linear"`` entry: x -> p x + q
    linear: bool = field(init=False, repr=False, compare=False)
    increasing: bool = field(init=False, repr=False, compare=False)
    #: closure of the image of the domain, as an ordered pair
    image: tuple = field(init=False, repr=False, compare=False)
    #: ``(P, Q, R, S)``, then the numerator and denominator of ``lo``,
    #: ``hi`` and both image ends, in that order
    _integers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo_n, lo_d = self.lo.numerator, self.lo.denominator
        hi_n, hi_d = self.hi.numerator, self.hi.denominator
        if not (0 <= lo_n and lo_n * hi_d < hi_n * lo_d and hi_n <= hi_d):
            raise MapConfigError(
                f"branch domain [{self.lo}, {self.hi}) is not a subinterval of [0, 1)"
            )
        coeffs = (self.p, self.q, self.r, self.s)
        scale = math.lcm(*(c.denominator for c in coeffs))
        P, Q, R, S = (c.numerator * (scale // c.denominator) for c in coeffs)
        det = P * S - Q * R
        if det == 0:
            raise MapConfigError("branch is constant (ps - qr = 0)")
        # R x + S is affine, so it vanishes on [lo, hi] iff its end values
        # do not share a strict sign
        at_lo, at_hi = R * lo_n + S * lo_d, R * hi_n + S * hi_d
        if at_lo * at_hi <= 0:
            raise MapConfigError("branch has a pole in its closed domain")
        ends = (Fraction(P * lo_n + Q * lo_d, at_lo), Fraction(P * hi_n + Q * hi_d, at_hi))
        image = ends if det > 0 else ends[::-1]
        assign = object.__setattr__         # the dataclass is frozen
        assign(self, "linear", R == 0 and S == scale)
        assign(self, "increasing", det > 0)
        assign(self, "image", image)
        assign(self, "_integers", (P, Q, R, S, lo_n, lo_d, hi_n, hi_d,
                                   *(v for e in image for v in (e.numerator, e.denominator))))

    def __call__(self, x):
        if self.linear:
            return self.p * x + self.q
        return (self.p * x + self.q) / (self.r * x + self.s)

    def derivative(self, x):
        if self.linear:
            return self.p
        den = self.r * x + self.s
        return (self.p * self.s - self.q * self.r) / (den * den)

    def to_dict(self) -> dict:
        if self.linear:
            coeffs = {"kind": "linear", "slope": self.p, "intercept": self.q}
        else:
            coeffs = {"kind": "moebius", "p": self.p, "q": self.q, "r": self.r, "s": self.s}
        return {"domain": [str(self.lo), str(self.hi)],
                **{k: str(v) for k, v in coeffs.items()}}


def _branch_from_dict(d: dict) -> Branch:
    try:
        kind, domain = d["kind"], d["domain"]
        if not (isinstance(domain, list) and len(domain) == 2):
            raise MapConfigError(f"branch domain must be a list [lo, hi], got {domain!r}")
        lo, hi = (as_rational(v) for v in domain)
        if kind == "linear":
            return Branch(lo, hi, as_rational(d["slope"]), as_rational(d["intercept"]))
        if kind == "moebius":
            return Branch(lo, hi, *(as_rational(d[k]) for k in "pqrs"))
    except KeyError as exc:
        raise MapConfigError(f"branch entry missing field {exc}") from exc
    raise MapConfigError(f"unknown branch kind {kind!r} in config")


class PiecewiseMap:
    """A piecewise expanding map of [0, 1) with its variation constants.

    Parameters
    ----------
    branches : sequence of Branch
        Monotone branches whose domains partition [0, 1) exactly.
    alpha0, B0 : rational
        Constants of the variation inequality V(Pf) <= alpha0 V(f) + B0 ||f||_1.
        Taken on trust from the caller/config.
    label : str
        Identifier used in fingerprints and reports.

    The constructor verifies the partition and that every branch image
    lies in [0, 1] (an exact comparison, so each Ulam row sums to 1
    exactly); an exact minimum |T'| <= 1 raises :class:`ExpansionWarning`
    (certification requires expansion separately via alpha0 < 1/3, so
    non-expanding maps remain usable for plumbing such as identity-map
    tests).
    """

    def __init__(self, branches: Sequence[Branch], alpha0, B0, label: str = "map"):
        branches = tuple(branches)
        if not branches:
            raise MapConfigError("map needs at least one branch")
        if branches[0].lo != 0 or branches[-1].hi != 1:
            raise MapConfigError("branch domains must cover [0, 1) exactly")
        for left, right in zip(branches, branches[1:]):
            if left.hi != right.lo:
                raise MapConfigError(
                    f"branch domains leave a gap or overlap at {left.hi} vs {right.lo}"
                )
        for b in branches:
            ylo_n, _, yhi_n, yhi_d = b._integers[8:]
            if ylo_n < 0 or yhi_n > yhi_d:
                ylo, yhi = b.image
                raise MapConfigError(
                    f"branch image [{ylo}, {yhi}] leaves [0, 1]: not a self-map"
                )
        self.branches = branches
        self.alpha0 = as_rational(alpha0)
        self.B0 = as_rational(B0)
        if not (0 < self.alpha0 < 1):
            raise MapConfigError(f"alpha0 must lie in (0, 1), got {self.alpha0}")
        if self.B0 < 0:
            raise MapConfigError(f"B0 must be nonnegative, got {self.B0}")
        self.label = str(label)
        self._breaks = [b.lo for b in branches]  # exact Fractions, sorted
        slope_min = self.min_derivative()
        if slope_min <= 1:
            warnings.warn(
                f"map {self.label!r}: min |T'| = {float(slope_min):.6g} <= 1 "
                "(not expanding)", ExpansionWarning, stacklevel=2,
            )

    # -- basic queries ----------------------------------------------------

    def branch_index_of(self, x) -> int:
        """Index of the branch whose domain contains the rational x (exact
        comparison; the domains partition [0, 1), so bisecting their left
        ends finds it)."""
        if not (0 <= x < 1):
            raise MapDomainError(f"x = {x} outside [0, 1)")
        return bisect_right(self._breaks, x) - 1

    def evaluate(self, x):
        """Apply the map: T(x) via the unique branch containing x.

        A rational x gives the exact rational T(x).
        """
        return self.branches[self.branch_index_of(x)](x)

    __call__ = evaluate

    def derivative(self, x):
        """T'(x) via the unique branch containing x, exact for rational x."""
        return self.branches[self.branch_index_of(x)].derivative(x)

    def min_derivative(self) -> Fraction:
        """Exact infimum of |T'| over all branches (expansion check).

        |T'| = |ps - qr|/(r x + s)^2 is monotone on a pole-free branch, so
        each branch's infimum sits at an endpoint of its domain.  In the
        branch's integer form it is |PS - QR| d^2/(R n + S d)^2 at x = n/d,
        and the candidates are compared by cross-multiplying.
        """
        best = None
        for b in self.branches:
            P, Q, R, S, lo_n, lo_d, hi_n, hi_d = b._integers[:8]
            det = abs(P * S - Q * R)
            for n, d in ((lo_n, lo_d), (hi_n, hi_d)):
                num, den = det * d * d, (R * n + S * d) ** 2
                if best is None or num * best[1] < best[0] * den:
                    best = num, den
        return Fraction(*best)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "alpha0": str(self.alpha0),
            "B0": str(self.B0),
            "branches": [b.to_dict() for b in self.branches],
        }

    @cached_property
    def fingerprint(self) -> str:
        """Stable hash of the canonical config (16 hex chars)."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def __repr__(self):
        return (f"PiecewiseMap({self.label!r}, {len(self.branches)} branches, "
                f"alpha0={self.alpha0}, B0={self.B0})")


# -- config I/O --------------------------------------------------------------

def map_from_dict(cfg: dict) -> PiecewiseMap:
    branches = cfg.get("branches") if isinstance(cfg, dict) else None
    if not (isinstance(branches, list) and all(isinstance(b, dict) for b in branches)):
        raise MapConfigError("config must be a JSON object whose 'branches' is a list "
                             "of branch objects")
    branches = [_branch_from_dict(b) for b in branches]
    if not branches:    # before the default constants, whose minimum needs a branch
        raise MapConfigError("map needs at least one branch")
    label = cfg.get("label", "map")
    if "alpha0" in cfg:
        alpha0 = as_rational(cfg["alpha0"])
        B0 = as_rational(cfg.get("B0", 0))
    else:
        try:
            alpha0, B0 = linear_onto_constants(branches)
        except MapConfigError as exc:
            raise MapConfigError(
                "config omits alpha0/B0 and the default only applies to "
                "piecewise-affine maps with every branch onto [0, 1)"
            ) from exc
    return PiecewiseMap(branches, alpha0, B0, label)


def load_map(path) -> PiecewiseMap:
    """Load a map from a JSON config file (see README for the schema)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MapConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return map_from_dict(cfg)


def save_map(m: PiecewiseMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(m.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def bundled_map_path() -> str:
    """Path of the bundled 10-branch example map config."""
    return str(resources.files("holecert.data").joinpath("tenfold_map.json"))


# -- helpers -----------------------------------------------------------------

def affine_onto(branches: Sequence[Branch]) -> bool:
    """True when every branch is affine (r = 0) and maps onto [0, 1].

    Lebesgue measure is then invariant, so the invariant density is 1.
    """
    return all(b.r == 0 and b.image == (0, 1) for b in branches)


def linear_onto_constants(branches: Sequence[Branch]) -> tuple[Fraction, Fraction]:
    """Default (alpha0, B0) = (1/beta, 0) for piecewise-affine onto maps.

    Applies only when :func:`affine_onto` holds; beta is the minimum
    |slope|.  Anything else raises, because no generic sharp constant is
    available.
    """
    if not affine_onto(branches):
        raise MapConfigError("default constants need every branch affine and onto [0, 1]")
    beta = min(abs(b.p / b.s) for b in branches)
    if beta <= 1:
        raise MapConfigError("map is not expanding (some |slope| <= 1)")
    return (1 / beta, Fraction(0))


def full_branch_linear(k: int, label: str | None = None) -> PiecewiseMap:
    """The full shift x -> k*x mod 1 with k onto affine branches."""
    if k < 2:
        raise MapConfigError("need at least 2 branches for an expanding full shift")
    branches = [
        Branch(Fraction(i, k), Fraction(i + 1, k), Fraction(k), Fraction(-i))
        for i in range(k)
    ]
    alpha0, B0 = linear_onto_constants(branches)
    return PiecewiseMap(branches, alpha0, B0, label or f"{k}x-mod-1")
