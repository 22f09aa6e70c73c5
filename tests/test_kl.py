import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import holecert as hc
from holecert.kl import (
    CLOSED_ONLY,
    HOLE_UNIFORM,
    KLDomainError,
    kl_constants,
    ly_constants,
)

import kl_oracle

# reference inputs shared by the analytic-closure tests: the variation
# constants of the bundled map and the resolvent bounds of its reference runs
A0, B0 = F(1, 9), F(2, 9)
H_REF_1 = 45.46070939          # mesh 2e-4, r = 24/25, delta = 1/26
H_REF_2 = 63.73181657          # mesh 2e-4, r = 39/40, delta = 1/41
H_REF_2_FINE = 1036.693385     # transferred bound continuing the same run


class TestLYConstants:
    def test_bundled_map_values(self):
        ly = ly_constants(A0, B0)
        assert ly.Gamma == F(10, 9)
        assert ly.alpha == F(1, 3)
        assert ly.B == F(5, 3)
        assert ly.D == F(14, 3)
        assert ly.B_hat == F(5, 4)

    def test_linear_map_values(self):
        ly = ly_constants(F(1, 10), 0)
        assert ly.alpha == F(3, 10)
        assert ly.B == F(9, 7)
        assert ly.Gamma == F(11, 10)

    def test_closed_only_values(self):
        ly = ly_constants(A0, B0, CLOSED_ONLY)
        assert ly.alpha == F(1, 9)
        assert ly.B == F(5, 4)
        assert ly.D == F(17, 4)   # A (A + B_hat + 2)
        assert ly.Gamma == F(10, 9)

    def test_hole_uniform_needs_small_alpha0(self):
        with pytest.raises(KLDomainError, match="hole-uniform constants need alpha0 < 1/3"):
            ly_constants(F(2, 5), 0)
        ly = ly_constants(F(2, 5), 0, CLOSED_ONLY)   # fine closed-only
        assert ly.alpha == F(2, 5)

    def test_domain_checks(self):
        with pytest.raises(KLDomainError):
            ly_constants(0, 0)
        with pytest.raises(KLDomainError):
            ly_constants(F(1, 9), -1)

    @given(st.fractions(min_value=0, max_value=F(1, 3)).filter(lambda a: 0 < a < F(1, 3)),
           st.fractions(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_two_forms_of_B_agree(self, a0, b0):
        # B and the inequality's own form 1 + (2 a0 + b0)/(1 - 3 a0) are one rational
        B = (1 - a0 + b0) / (1 - 3 * a0)
        assert 1 + (2 * a0 + b0) / (1 - 3 * a0) == B
        assert ly_constants(a0, b0).B == B


class TestKLChain:
    def test_reference_run_coarse(self):
        chain = kl_constants(ly_constants(A0, B0), F(24, 25), H_REF_1)
        assert chain.n1 == 1
        assert chain.C == pytest.approx(25 / 24, rel=1e-14)
        assert chain.n2 == 8
        assert chain.mesh_threshold == pytest.approx(2.319492040e-4, rel=1e-6)

    def test_reference_run_tighter_tolerance(self):
        chain = kl_constants(ly_constants(A0, B0), F(39, 40), H_REF_2)
        assert chain.n1 == 1
        assert chain.C == pytest.approx(40 / 39, rel=1e-14)
        assert chain.n2 == 8
        assert chain.mesh_threshold == pytest.approx(1.763820641e-4, rel=1e-6)

    def test_reference_run_transferred_bound(self):
        # faithful evaluation of the chain at the published transferred bound;
        # the frozen threshold is checked against the standard-library
        # evaluation of the same formulas (see the acceptance suite for the
        # reference diff)
        chain = kl_constants(ly_constants(A0, B0), F(39, 40), H_REF_2_FINE)
        assert chain.n2 == 11
        assert chain.mesh_threshold == pytest.approx(1.2744333974548e-5, rel=1e-9)
        exact = kl_oracle.chain(A0, B0, F(39, 40), H_REF_2_FINE)
        assert exact.n2 == 11
        assert float(exact.mesh_threshold) == pytest.approx(chain.mesh_threshold,
                                                            rel=1e-12)
        assert float(exact.mesh_threshold) == pytest.approx(1.2744333974548e-5,
                                                            rel=1e-9)

    def test_hand_computed_chain(self):
        # plug-in arithmetic cross-check with alpha0 = 1/10, B0 = 0
        ly = ly_constants(F(1, 10), 0)
        r, H = 0.96, 30.0
        chain = kl_constants(ly, r, H)
        alpha, B, D = 0.3, 9 / 7, 1 * (1 + 9 / 7 + 2)
        log_ratio = math.log(r / alpha)
        n1 = math.ceil(math.log(2) / log_ratio)
        C = r ** (-n1)
        n2 = math.ceil(math.log(8 * B * D * C * H) / log_ratio)
        eps1 = r ** (n1 + n2) / (8 * B * (H * B + 1 / (1 - r)))
        base = r ** n1 / (4 * B * (H * (D + B) + 2 * (1 + B) + 1 / (1 - r)))
        eps0 = min(eps1, base ** (log_ratio / math.log(1 / alpha)))
        assert chain.n1 == n1 and chain.n2 == n2
        assert chain.epsilon1 == pytest.approx(eps1, rel=1e-14)
        assert chain.epsilon0 == pytest.approx(eps0, rel=1e-14)

    def test_domain_error_r_below_alpha(self):
        with pytest.raises(KLDomainError):
            kl_constants(ly_constants(A0, B0), F(1, 4), 10.0)
        for H in (0.0, math.nan, math.inf):
            with pytest.raises(KLDomainError, match=f"H = {H}"):
                kl_constants(ly_constants(A0, B0), F(24, 25), H)

    @pytest.mark.parametrize("mode, alpha0, B0, r, H, message", [
        # ln(r/alpha) is too coarse for n1 when r and alpha both sit near 1
        (CLOSED_ONLY, 1 - F(1, 10**9), 4, 1 - 2 * 2.0**-53, 1e85,
         "misses alpha^n1 <= r^n1/2 in double precision"),
        # B is about 2e97, and 1/(1-r) enters a twice
        (CLOSED_ONLY, F(19, 20), 10**97, 1 - 3 * 2.0**-53, 1e-230,
         "a, b or the transfer bound overflows double precision"),
        (CLOSED_ONLY, F(1, 10**400), 1, 0.5, 1.0, "alpha and D = B + 3 must lie"),
        (HOLE_UNIFORM, A0, 10**400, 0.96, 1.0, "alpha and D = B + 3 must lie"),
    ], ids=["n1", "a-b-transfer", "tiny-alpha", "huge-B"])
    def test_double_precision_limits(self, mode, alpha0, B0, r, H, message):
        with pytest.raises(KLDomainError, match=re.escape(message)):
            kl_constants(ly_constants(alpha0, B0, mode), r, H)

    @given(st.sampled_from((HOLE_UNIFORM, CLOSED_ONLY)),
           st.one_of(st.fractions(min_value=0, max_value=1, max_denominator=10**9),
                     st.integers(1, 400).map(lambda k: F(1, 10**k)))
           .filter(lambda t: 0 < t < 1),
           st.one_of(st.fractions(min_value=0, max_value=100, max_denominator=10**9),
                     st.integers(0, 400).map(lambda k: F(10**k))),
           st.sampled_from(("above alpha", "inside", "below 1")),
           st.integers(min_value=1, max_value=8),
           st.floats(min_value=0, max_value=1),
           st.floats(min_value=-300, max_value=300))
    @settings(max_examples=300, deadline=None)
    def test_only_domain_errors_escape(self, mode, t, b0, where, ulps, u, log10_H):
        # every input the chain cannot evaluate in double precision is a
        # KLDomainError: r a few ulps from alpha or from 1, H log-uniform
        ly = ly_constants(t / 3 if mode == HOLE_UNIFORM else t, b0, mode)
        alpha = float(ly.alpha)
        if where == "inside":
            r = alpha + (1 - alpha) * u
        else:
            r, toward = (alpha, 1.0) if where == "above alpha" else (1.0, 0.0)
            for _ in range(ulps):
                r = math.nextafter(r, toward)
        try:
            chain = kl_constants(ly, r, 10.0 ** log10_H)
        except KLDomainError:
            return
        assert 0 < chain.gamma < 1 and chain.epsilon0 > 0

    @given(st.fractions(min_value=F(1, 50), max_value=F(30, 100)),
           st.floats(min_value=0.1, max_value=0.9),
           st.floats(min_value=1.0, max_value=1e4))
    @settings(max_examples=60, deadline=None)
    def test_chain_properties(self, a0, margin, H):
        ly = ly_constants(a0, F(1, 4))
        r = ly.alpha + (1 - ly.alpha) * margin
        chain = kl_constants(ly, r, H)
        # gamma identity r = alpha^(1 - gamma)
        assert ly.alpha ** (1 - chain.gamma) == pytest.approx(r, rel=1e-12)
        assert chain.epsilon0 <= chain.epsilon1 * (1 + 1e-15)
        assert chain.a > 0 and chain.b > 0
        # ceiling tightness of n1
        assert ly.alpha ** chain.n1 <= r ** chain.n1 / 2 + 1e-14
        if chain.n1 > 1:
            assert ly.alpha ** (chain.n1 - 1) > r ** (chain.n1 - 1) / 2

    def test_monotone_decreasing_in_H(self):
        ly = ly_constants(A0, B0)
        values = [kl_constants(ly, F(24, 25), H).epsilon0
                  for H in (10.0, 30.0, 100.0, 300.0, 1000.0)]
        assert values == sorted(values, reverse=True)
        values1 = [kl_constants(ly, F(24, 25), H).epsilon1
                   for H in (10.0, 30.0, 100.0, 300.0, 1000.0)]
        assert values1 == sorted(values1, reverse=True)


class TestBootstrap:
    def test_closed_only_comparison_value(self):
        # the closed-only chain at the coarse resolvent bound
        chain = kl_constants(ly_constants(A0, B0, CLOSED_ONLY),
                             F(39, 40), H_REF_2)
        assert chain.mesh_threshold == pytest.approx(2.425063815e-4, rel=1e-6)

    def test_transfer_bound_value(self):
        bound = kl_constants(ly_constants(A0, B0, CLOSED_ONLY), F(39, 40),
                             H_REF_2).resolvent_transfer_bound
        # transferred bound: 4(A+B)/(1-r) r^-n1 + 1/(2 eps1), frozen and
        # checked against its exact rational value from the standard-library
        # evaluation; the published reference value is 1036.693385 and the
        # agreed acceptance window is 10% relative
        assert bound == pytest.approx(1048.2987275, rel=1e-9)
        assert abs(bound / 1036.693385 - 1) <= 0.10
        exact = kl_oracle.chain(A0, B0, F(39, 40), H_REF_2, closed_only=True)
        transfer = float(exact.resolvent_transfer_bound)
        assert transfer == pytest.approx(1048.2987275, rel=1e-9)
        assert bound == pytest.approx(transfer, rel=1e-12)

    def test_tiny_H_keeps_bound_finite(self):
        bound = kl_constants(ly_constants(A0, B0, CLOSED_ONLY), F(39, 40),
                             1e-12).resolvent_transfer_bound
        assert math.isfinite(bound) and bound > 0
