"""Piecewise expanding interval maps on [0, 1) with exact Moebius branches.

A map is a finite ordered list of strictly monotone branches whose
half-open domains partition [0, 1) and whose images lie in [0, 1].
Each branch is a Moebius map x -> (p x + q)/(r x + s) with exact rational
endpoints and coefficients (r = 0, s = 1 for an affine branch).
Preimages of rational points are therefore exact rationals, which is
what makes every Ulam matrix exact downstream.

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
import warnings
from bisect import bisect_right
from dataclasses import dataclass
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
    """
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MapConfigError(f"cannot parse rational from {value!r}") from exc
    raise MapConfigError(f"cannot parse rational from {value!r}")


def _is_rational(x) -> bool:
    return isinstance(x, Rational)


@dataclass(frozen=True)
class Branch:
    """Strictly monotone branch x -> (p x + q)/(r x + s) on [lo, hi).

    Endpoints and coefficients are exact rationals with ps - qr != 0 and
    no pole in the closed domain.  The defaults r = 0, s = 1 give the
    affine branch x -> p x + q, written as a ``"linear"`` config entry.
    """

    lo: Fraction
    hi: Fraction
    p: Fraction
    q: Fraction
    r: Fraction = Fraction(0)
    s: Fraction = Fraction(1)

    def __post_init__(self):
        if not (0 <= self.lo < self.hi <= 1):
            raise MapConfigError(
                f"branch domain [{self.lo}, {self.hi}) is not a subinterval of [0, 1)"
            )
        if self.p * self.s - self.q * self.r == 0:
            raise MapConfigError("branch is constant (ps - qr = 0)")
        # r x + s is affine, so it vanishes on [lo, hi] iff its end values
        # do not share a strict sign
        if (self.r * self.lo + self.s) * (self.r * self.hi + self.s) <= 0:
            raise MapConfigError("branch has a pole in its closed domain")

    @cached_property
    def linear(self) -> bool:
        """r = 0 and s = 1, the form of a ``"linear"`` entry: x -> p x + q."""
        return self.r == 0 and self.s == 1

    def __call__(self, x):
        if self.linear:
            return self.p * x + self.q
        return (self.p * x + self.q) / (self.r * x + self.s)

    def derivative(self, x):
        if self.linear:
            return self.p
        den = self.r * x + self.s
        return (self.p * self.s - self.q * self.r) / (den * den)

    @property
    def increasing(self) -> bool:
        return self.p * self.s - self.q * self.r > 0

    @property
    def image(self) -> tuple:
        """Closure of the image of the domain, as an ordered pair."""
        a, b = self(self.lo), self(self.hi)
        return (a, b) if a <= b else (b, a)

    def contains(self, x) -> bool:
        return self.lo <= x < self.hi

    def to_dict(self) -> dict:
        if self.linear:
            coeffs = {"kind": "linear", "slope": self.p, "intercept": self.q}
        else:
            coeffs = {"kind": "moebius", "p": self.p, "q": self.q, "r": self.r, "s": self.s}
        return {"domain": [str(self.lo), str(self.hi)],
                **{k: str(v) for k, v in coeffs.items()}}


def _branch_from_dict(d: dict) -> Branch:
    try:
        kind = d["kind"]
        lo, hi = (as_rational(v) for v in d["domain"])
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
            ylo, yhi = b.image
            if ylo < 0 or yhi > 1:
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

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def branch_index_of(self, x) -> int:
        """Index of the branch whose domain contains x (exact comparison)."""
        if isinstance(x, float):
            x = Fraction(x)  # exact binary value; boundary decisions stay exact
        if not (0 <= x < 1):
            raise MapDomainError(f"x = {x} outside [0, 1)")
        i = bisect_right(self._breaks, x) - 1
        if i < 0 or not self.branches[i].contains(x):
            raise MapDomainError(f"no branch domain contains x = {x}")
        return i

    def evaluate(self, x):
        """Apply the map: T(x) via the unique branch containing x.

        Rational input gives a rational result.
        """
        b = self.branches[self.branch_index_of(x)]
        return b(x if _is_rational(x) else float(x))

    __call__ = evaluate

    def derivative(self, x):
        b = self.branches[self.branch_index_of(x)]
        return b.derivative(x if _is_rational(x) else float(x))

    def orbit(self, x, length: int) -> list:
        """x, T(x), ..., T^(length-1)(x); exact for rational x."""
        pts = [x]
        for _ in range(length - 1):
            pts.append(self.evaluate(pts[-1]))
        return pts

    def min_derivative(self) -> Fraction:
        """Exact infimum of |T'| over all branches (expansion check).

        |T'| = |ps - qr|/(r x + s)^2 is monotone on a pole-free branch, so
        each branch's infimum sits at an endpoint of its domain.
        """
        return min(abs(b.derivative(x)) for b in self.branches for x in (b.lo, b.hi))

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
        return (f"PiecewiseMap({self.label!r}, {self.n_branches} branches, "
                f"alpha0={self.alpha0}, B0={self.B0})")


# -- config I/O --------------------------------------------------------------

def map_from_dict(cfg: dict) -> PiecewiseMap:
    if "branches" not in cfg:
        raise MapConfigError("config missing 'branches'")
    branches = [_branch_from_dict(b) for b in cfg["branches"]]
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
