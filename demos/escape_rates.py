"""Estimate actual escape rates of concrete open systems.

The certificate promises existence and an upper bound; power iteration on
the sub-stochastic open matrix estimates what actually happens, and brackets
the escape factor between two Collatz-Wielandt ratios of its iterate.  This
script compares the certified bound against measured escape factors for
single-bin holes across the interval, on the bundled example map.
"""

from fractions import Fraction as F

import numpy as np

from holecert import (
    Hole,
    build_closed,
    bundled_map_path,
    estimate_escape,
    full_branch_linear,
    load_map,
    ly_constants,
)

# -- tiny instance first: the closed form is visible by hand ------------------
shift = full_branch_linear(10)
est = estimate_escape(build_closed(shift, 10), Hole(F(0), F(1, 10)))
print("10x mod 1, hole = first of 10 bins:")
print(f"  e_H = {est.e_H:.12g} (exactly 9/10: one of ten uniform bins dies "
      f"each step)")
print(f"  bracket [{est.e_H_lower!r}, {est.e_H_upper!r}], "
      f"escape rate = {est.escape_rate:.6g}")

# -- bundled map: deficit per unit hole measure across positions --------------
tmap = load_map(bundled_map_path())
n = 1000
closed = build_closed(tmap, n)
ly = ly_constants(tmap.alpha0, tmap.B0)
coefficient = 1 + float((2 * ly.alpha0 + ly.B0) / (1 - F(1, 25) - ly.alpha))

print()
print(f"bundled map at {n} bins: single-bin holes at a few positions")
print(f"  (the certified slope bound for ell = 1/25 is {coefficient:.6g})")
print(f"  {'hole':>16s} {'e_H':>14s} {'(1-e_H)/measure':>16s}")
rows = []
for k in (3, 137, 444, 500, 729, 999):
    hole = Hole(F(k, n), F(k + 1, n))
    est = estimate_escape(closed, hole)
    ratio = (1 - est.e_H) * n
    rows.append(ratio)
    print(f"  [{k:4d}/{n}, {k + 1:4d}/{n}) {est.e_H:14.10f} {ratio:16.6f}")
print(f"  max deficit slope observed: {max(rows):.6f} "
      f"(< {coefficient:.6f} as certified)")

print()
print("where the invariant density is larger, the same-size hole escapes "
      "faster; demos/hole_position.py pushes this to the shrinking-hole limit.")
