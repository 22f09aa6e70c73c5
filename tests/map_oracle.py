"""Map construction in chained ``Fraction`` arithmetic, kept as the reference
of the integer form that ``holecert.maps.Branch`` computes at construction.

``Branch`` and ``check_map`` are the branch and map checks as they read
before that integer form: the domain, constant-branch and pole checks, the
image from two evaluations of the branch, ``_integers`` scaled from the
coefficients, the self-map and partition checks, and the minimum of |T'|
over both ends of every branch, each in ``Fraction``s.  ``map_from_config``
parses a config as ``holecert.maps.map_from_dict`` does and returns a
plain summary of the map, or raises the error the reference raises.
"""

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from holecert.maps import ExpansionWarning, MapConfigError, as_rational


@dataclass(frozen=True)
class Branch:
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
        if (self.r * self.lo + self.s) * (self.r * self.hi + self.s) <= 0:
            raise MapConfigError("branch has a pole in its closed domain")

    @cached_property
    def linear(self) -> bool:
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

    @cached_property
    def increasing(self) -> bool:
        return self.p * self.s - self.q * self.r > 0

    @cached_property
    def image(self) -> tuple:
        a, b = self(self.lo), self(self.hi)
        return (a, b) if a <= b else (b, a)

    @cached_property
    def _integers(self) -> tuple:
        coeffs = (self.p, self.q, self.r, self.s)
        scale = math.lcm(*(c.denominator for c in coeffs))
        ends = (self.lo, self.hi, *self.image)
        return (*(c.numerator * (scale // c.denominator) for c in coeffs),
                *(v for e in ends for v in (e.numerator, e.denominator)))

    def to_dict(self) -> dict:
        if self.linear:
            coeffs = {"kind": "linear", "slope": self.p, "intercept": self.q}
        else:
            coeffs = {"kind": "moebius", "p": self.p, "q": self.q, "r": self.r, "s": self.s}
        return {"domain": [str(self.lo), str(self.hi)],
                **{k: str(v) for k, v in coeffs.items()}}


def check_map(branches, alpha0, B0, label="map"):
    """The checks of ``PiecewiseMap.__init__``; returns ``(alpha0, B0,
    min_derivative)`` and warns as the map does."""
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
            raise MapConfigError(f"branch image [{ylo}, {yhi}] leaves [0, 1]: not a self-map")
    alpha0, B0 = as_rational(alpha0), as_rational(B0)
    if not (0 < alpha0 < 1):
        raise MapConfigError(f"alpha0 must lie in (0, 1), got {alpha0}")
    if B0 < 0:
        raise MapConfigError(f"B0 must be nonnegative, got {B0}")
    slope_min = min(abs(b.derivative(x)) for b in branches for x in (b.lo, b.hi))
    if slope_min <= 1:
        warnings.warn(f"map {str(label)!r}: min |T'| = {float(slope_min):.6g} <= 1 "
                      "(not expanding)", ExpansionWarning, stacklevel=2)
    return alpha0, B0, slope_min


def _branch(d):
    lo, hi = (as_rational(v) for v in d["domain"])
    if d["kind"] == "linear":
        return Branch(lo, hi, as_rational(d["slope"]), as_rational(d["intercept"]))
    return Branch(lo, hi, *(as_rational(d[k]) for k in "pqrs"))


def map_from_config(cfg):
    """Summary of the map a well-shaped config describes: per branch its
    fields, ``linear``, ``increasing``, ``image`` and ``_integers``, then
    ``alpha0``, ``B0``, ``min_derivative`` and ``fingerprint``."""
    branches = [_branch(d) for d in cfg["branches"]]
    label = cfg.get("label", "map")
    if "alpha0" in cfg:
        alpha0, B0 = as_rational(cfg["alpha0"]), as_rational(cfg.get("B0", 0))
    else:
        if not all(b.r == 0 and b.image == (0, 1) for b in branches):
            raise MapConfigError(
                "config omits alpha0/B0 and the default only applies to "
                "piecewise-affine maps with every branch onto [0, 1)")
        beta = min(abs(b.p / b.s) for b in branches)
        if beta <= 1:
            raise MapConfigError(
                "config omits alpha0/B0 and the default only applies to "
                "piecewise-affine maps with every branch onto [0, 1)")
        alpha0, B0 = 1 / beta, Fraction(0)
    alpha0, B0, slope_min = check_map(branches, alpha0, B0, label)
    canonical = {"label": str(label), "alpha0": str(alpha0), "B0": str(B0),
                 "branches": [b.to_dict() for b in branches]}
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return {"branches": [summary(b) for b in branches], "alpha0": alpha0, "B0": B0,
            "min_derivative": slope_min,
            "fingerprint": hashlib.sha256(blob.encode()).hexdigest()[:16]}


def summary(b):
    """A branch's fields and derived values, for comparison across classes."""
    return ((b.lo, b.hi, b.p, b.q, b.r, b.s),
            b.linear, b.increasing, b.image, b._integers)
