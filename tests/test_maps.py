import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import holecert as hc
from ulam_oracle import branch_preimage, inverse
from holecert.maps import (
    Branch,
    ExpansionWarning,
    MapConfigError,
    MapDomainError,
    as_rational,
    linear_onto_constants,
    map_from_dict,
)


def identity_map():
    with pytest.warns(ExpansionWarning):
        return hc.PiecewiseMap([Branch(F(0), F(1), F(1), F(0))],
                               alpha0=F(1, 2), B0=0, label="identity")


class TestRationalParsing:
    def test_fraction_string(self):
        assert as_rational("1/9") == F(1, 9)

    def test_decimal_string(self):
        assert as_rational("0.25") == F(1, 4)

    def test_float_uses_decimal_repr(self):
        assert as_rational(0.1) == F(1, 10)

    def test_int(self):
        assert as_rational(3) == F(3)

    def test_garbage_rejected(self):
        with pytest.raises(MapConfigError):
            as_rational("one third")


class TestEvaluate:
    def test_moebius_branch_value(self, bundled_map):
        # 9x/(1-x) at x = 1/20: 9/20 / (19/20) = 9/19
        assert bundled_map.evaluate(F(1, 20)) == F(9, 19)

    def test_linear_branch_value(self, bundled_map):
        # 10x - 3 at x = 0.35
        assert bundled_map.evaluate(0.35) == pytest.approx(0.5, abs=1e-15)

    def test_identity(self):
        assert identity_map().evaluate(0.7) == 0.7

    def test_outside_domain(self, bundled_map):
        with pytest.raises(MapDomainError):
            bundled_map.evaluate(1.0)
        with pytest.raises(MapDomainError):
            bundled_map.evaluate(-0.25)

    def test_branch_boundaries_exact(self, bundled_map):
        # x = 1/10 belongs to the second branch: 10*(1/10) - 1 = 0
        assert bundled_map.evaluate(F(1, 10)) == 0


class TestBranchPreimage:
    def test_moebius_interval(self, bundled_map):
        # inverse of 9x/(1-x) is y/(9+y); preimage of [0, 1/10] is [0, 1/91]
        seg = branch_preimage(bundled_map, 0, (F(0), F(1, 10)))
        assert seg == (F(0), F(1, 91))
        # verify by forward evaluation of the endpoint
        assert bundled_map.evaluate(F(1, 91)) == F(1, 10)

    def test_linear_interval(self, bundled_map):
        # branch over [3/10, 2/5): inverse of 10x-3 is (y+3)/10
        seg = branch_preimage(bundled_map, 3, (F(1, 2), F(3, 5)))
        assert seg == (F(7, 20), F(9, 25))

    def test_empty_interval(self, bundled_map):
        assert branch_preimage(bundled_map, 0, None) is None
        assert branch_preimage(bundled_map, 0, (F(1, 2), F(1, 2))) is None

    def test_interval_missing_range(self):
        # branch [0, 1/2) -> [0, 1): preimage of anything above 1 is empty
        m = hc.full_branch_linear(2)
        assert branch_preimage(m, 0, (F(2), F(3))) is None

    def test_preimage_measure_matches_quadrature(self, bundled_map):
        # lambda(preimage) = integral over J of 1/|T'(T^-1 y)| dy
        branch = bundled_map.branches[0]
        J = (0.2, 0.7)
        seg = branch_preimage(bundled_map, 0, J)
        measure = float(seg[1] - seg[0])
        integrand = lambda y: 1.0 / abs(float(branch.derivative(float(inverse(branch, y)))))
        oracle, err = quad(integrand, J[0], J[1], epsabs=1e-12, epsrel=1e-12)
        assert measure == pytest.approx(oracle, abs=1e-9)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_through_inverse(self, y):
        m = hc.load_map(hc.bundled_map_path())
        for idx, branch in enumerate(m.branches):
            ylo, yhi = (float(v) for v in branch.image)
            if not ylo <= y <= yhi:
                continue
            x = inverse(branch, y)
            assert abs(float(branch(x)) - y) <= 1e-12


class TestValidation:
    def test_gap_rejected(self):
        with pytest.raises(MapConfigError):
            hc.PiecewiseMap(
                [Branch(F(0), F(1, 3), F(3), F(0)),
                 Branch(F(1, 2), F(1), F(2), F(-1))],
                alpha0=F(1, 3), B0=0)

    def test_not_covering_unit_interval(self):
        with pytest.raises(MapConfigError):
            hc.PiecewiseMap([Branch(F(0), F(1, 2), F(2), F(0))],
                            alpha0=F(1, 2), B0=0)

    def test_image_leaving_interval(self):
        with pytest.raises(MapConfigError):
            hc.PiecewiseMap([Branch(F(0), F(1), F(2), F(0))],
                            alpha0=F(1, 2), B0=0)
        # the image overshoots 1 by 5e-15: rejected by the exact comparison
        with pytest.raises(MapConfigError):
            hc.PiecewiseMap([Branch(F(0), F(1, 2), 2 + F(1, 10**14), F(0)),
                             Branch(F(1, 2), F(1), F(2), F(-1))],
                            alpha0=F(1, 2), B0=0)

    def test_slow_exact_branch_accepted(self):
        # slope 1e-5 with its image away from 0: accepted, and exact
        branch = Branch(F(0), F(1), F(1, 10**5), F(1, 2))
        assert branch.image == (F(1, 2), F(1, 2) + F(1, 10**5))
        assert branch(F(1, 3)) == F(1, 2) + F(1, 3 * 10**5)

    def test_degenerate_moebius(self):
        with pytest.raises(MapConfigError):
            Branch(F(0), F(1, 2), F(1), F(0), F(1), F(0))
        with pytest.raises(MapConfigError):   # slope 0
            Branch(F(0), F(1), F(0), F(1, 2))

    def test_pole_inside_domain(self):
        with pytest.raises(MapConfigError):
            Branch(F(0), F(1), F(1), F(0), F(-2), F(1))
        with pytest.raises(MapConfigError):   # pole at the right endpoint
            Branch(F(0), F(1, 2), F(1), F(0), F(-2), F(1))

    def test_bad_alpha0(self):
        branches = hc.full_branch_linear(2).branches
        with pytest.raises(MapConfigError):
            hc.PiecewiseMap(branches, alpha0=F(3, 2), B0=0)

    def test_expansion_warning_for_identity(self):
        identity_map()  # asserts the warning internally

    def test_min_derivative_exact(self, bundled_map, shift10):
        # 9x/(1-x) has T' = 9/(1-x)^2, smallest at its left endpoint 0
        assert bundled_map.min_derivative() == 9
        assert shift10.min_derivative() == 10


class TestDecreasingBranches:
    def test_tent_map_evaluates(self):
        tent = hc.PiecewiseMap(
            [Branch(F(0), F(1, 2), F(2), F(0)),
             Branch(F(1, 2), F(1), F(-2), F(2))],
            alpha0=F(1, 2), B0=1, label="tent")
        assert tent.evaluate(F(3, 4)) == F(1, 2)
        seg = branch_preimage(tent, 1, (F(0), F(1, 2)))
        assert seg == (F(3, 4), F(1))

    def test_decreasing_preimage_order(self):
        tent = hc.PiecewiseMap(
            [Branch(F(0), F(1, 2), F(2), F(0)),
             Branch(F(1, 2), F(1), F(-2), F(2))],
            alpha0=F(1, 2), B0=1, label="tent")
        lo, hi = branch_preimage(tent, 1, (F(1, 4), F(3, 4)))
        assert lo < hi


class TestConfigIO:
    def test_roundtrip(self, tmp_path, bundled_map):
        path = tmp_path / "map.json"
        hc.maps.save_map(bundled_map, path)
        again = hc.load_map(path)
        assert again.fingerprint == bundled_map.fingerprint
        assert again.alpha0 == bundled_map.alpha0

    def test_default_constants_for_linear_onto(self):
        cfg = {"label": "x5", "branches": [
            {"kind": "linear", "domain": [str(F(i, 5)), str(F(i + 1, 5))],
             "slope": "5", "intercept": str(-i)} for i in range(5)]}
        m = map_from_dict(cfg)
        assert m.alpha0 == F(1, 5)
        assert m.B0 == 0

    def test_default_constants_rejected_for_moebius(self):
        cfg = json.loads(Path(hc.bundled_map_path()).read_text())
        del cfg["alpha0"], cfg["B0"]
        with pytest.raises(MapConfigError):
            map_from_dict(cfg)

    def test_unknown_kind(self):
        with pytest.raises(MapConfigError):
            map_from_dict({"branches": [{"kind": "cubic", "domain": ["0", "1"]}],
                           "alpha0": "1/2", "B0": "0"})

    def test_fingerprint_stable(self, bundled_map):
        again = hc.load_map(hc.bundled_map_path())
        assert again.fingerprint == bundled_map.fingerprint

    def test_fingerprints_pinned(self, bundled_map, shift10):
        # the canonical config form names cache files and is quoted in reports
        assert bundled_map.fingerprint == "f063b0a9b04c5287"
        assert shift10.fingerprint == "e83ffca75c4e6b1a"

    def test_branch_kinds_roundtrip(self):
        cfg = json.loads(Path(hc.bundled_map_path()).read_text())
        assert map_from_dict(cfg).to_dict()["branches"] == cfg["branches"]
        # "linear" is shorthand for r = 0, s = 1 and is written exactly then
        assert Branch(F(0), F(1, 2), F(2), F(0), F(0), F(1)).to_dict() == {
            "kind": "linear", "domain": ["0", "1/2"], "slope": "2", "intercept": "0"}
        assert Branch(F(0), F(1, 2), F(4), F(0), F(0), F(2)).to_dict()["kind"] == "moebius"


class TestHelpers:
    def test_linear_onto_constants(self, shift10):
        alpha0, B0 = linear_onto_constants(shift10.branches)
        assert alpha0 == F(1, 10)
        assert B0 == 0

    def test_linear_onto_rejects_non_expanding(self):
        with pytest.raises(MapConfigError):
            linear_onto_constants([Branch(F(0), F(1), F(1), F(0))])

    def test_linear_onto_rejects_moebius(self, bundled_map):
        with pytest.raises(MapConfigError):
            linear_onto_constants(bundled_map.branches)

    def test_orbit_exact(self, shift10):
        orbit = shift10.orbit(F(1, 3), 4)
        assert orbit == [F(1, 3), F(1, 3), F(1, 3), F(1, 3)]
