"""Certify a hole-size bound for the bundled 10-branch example map.

Runs the full pipeline (Ulam matrix -> spectral data and spectral-radius
gate -> constant chain -> comparison check) at escape tolerance ell = 1/25
and mesh 2e-4, then evaluates the certificate at a few concrete hole
measures.

Cold runtime is dominated by the norms of the first six Q-powers of the
5000 x 5000 matrix (several seconds); re-runs are instant with a cache
directory, e.g.

    HOLECERT_CACHE_DIR=~/.cache/holecert python demos/certify_bundled_map.py

Pass a bin count to run at another mesh (the comparison step will refuse
meshes that are too coarse and refine on its own).
"""

import sys
from fractions import Fraction as F

from holecert import (
    PipelineCache,
    bundled_map_path,
    certificate_bounds,
    default_cache_dir,
    load_map,
    run_certification,
)

bins_init = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
tmap = load_map(bundled_map_path())
cache = PipelineCache(default_cache_dir())

print(f"map: {tmap}")
print(f"certifying escape tolerance ell = 1/25 starting at {bins_init} bins...")
report = run_certification(tmap, F(1, 25), bins_init, cache=cache)

for it in report.iterations:
    source = f"transferred H = {it.transferred_H:.6g}" if it.used_bootstrap \
        else f"H* = {it.h_star:.6g}"
    print(f"  mesh {str(it.mesh):>9s}  delta {str(it.delta):>5s}  {source:24s} "
          f"n2 = {it.n2:2d}  threshold = {it.threshold:.6g}  "
          f"{'pass' if it.step7_pass else 'refine'}")

if not report.certified:
    print(f"FAILED: {report.reason}")
    sys.exit(1)

print(f"certified: delta_com = {report.delta_com}, "
      f"epsilon_com = {report.epsilon_com}")
print(f"any aligned hole with measure <= {report.hole_bound} "
      f"(~{float(report.hole_bound):.3e}) admits an accim with escape rate "
      f"< {report.escape_guarantee:.6g}")

print()
print("certificate evaluated at concrete hole measures:")
for measure in (report.hole_bound, report.hole_bound / 2, F(1, 100)):
    res = certificate_bounds(report, measure)
    if res.accim_exists:
        print(f"  lambda(H) = {str(measure):>9s}: accim guaranteed, "
              f"1 - e_H <= {res.one_minus_eH_upper:.6g}, "
              f"escape rate <= {res.escape_upper:.6g}")
    else:
        print(f"  lambda(H) = {str(measure):>9s}: outside the certified range")
