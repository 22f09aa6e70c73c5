"""Walk through the constant cascade that powers a certificate.

Everything here is pure arithmetic (no matrices): starting from the
variation-inequality constants (alpha0, B0) of the bundled example map,
derive the common Lasota-Yorke constants exactly, then evaluate the
spectral-stability chain at a resolvent bound H and watch how the
admissible mesh (and with it the certifiable hole size) falls out.
"""

from fractions import Fraction as F

from holecert import kl_constants, ly_constants
from holecert.kl import CLOSED_ONLY

alpha0, B0 = F(1, 9), F(2, 9)

print("== Lasota-Yorke constants (hole-uniform mode, exact) ==")
ly = ly_constants(alpha0, B0)
for name in ("alpha0", "B0", "alpha", "B", "B_hat", "D", "Gamma"):
    print(f"  {name:6s} = {getattr(ly, name)}")

print()
print("== the same inputs in closed-only mode (sharper, no holes) ==")
ly_c = ly_constants(alpha0, B0, CLOSED_ONLY)
print(f"  alpha  = {ly_c.alpha}   B = {ly_c.B}   D = {ly_c.D}")

print()
print("== constant chain at r = 24/25 ==")
print("   (H sweeps over plausible resolvent bounds on |z - 1| > 1/26;")
print("    smaller H certifies larger holes: the mesh threshold is")
print("    (2 Gamma)^-1 epsilon0)")
print(f"  {'H':>10s} {'n1':>3s} {'n2':>3s} {'epsilon1':>12s} {'epsilon0':>12s} "
      f"{'mesh threshold':>15s} {'hole bound':>12s}")
for H in (10.0, 45.46070939, 100.0, 1000.0):
    chain = kl_constants(ly, F(24, 25), H)
    hole_bound = ly.Gamma * chain.mesh_threshold
    print(f"  {H:10.4g} {chain.n1:3d} {chain.n2:3d} {chain.epsilon1:12.5e} "
          f"{chain.epsilon0:12.5e} {chain.mesh_threshold:15.10f} {hole_bound:12.5e}")

print()
print("== the coarse-to-fine transfer ==")
chain_closed = kl_constants(ly_c, F(39, 40), 63.73181657)
print(f"  closed-only mesh threshold: {chain_closed.mesh_threshold:.10g}")
print(f"  transferred BV resolvent bound (valid on every finer mesh): "
      f"{chain_closed.resolvent_transfer_bound:.10g}")
chain_fine = kl_constants(ly, F(39, 40), chain_closed.resolvent_transfer_bound)
print(f"  re-entering the hole-uniform chain with it: n2 = {chain_fine.n2}, "
      f"mesh threshold = {chain_fine.mesh_threshold:.10g}")
print(f"  -> mesh 1e-5 clears it: {1e-5 <= chain_fine.mesh_threshold}")
