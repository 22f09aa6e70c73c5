import math
from fractions import Fraction as F

import pytest

import holecert as hc
from holecert import cli
from holecert.certify import next_power_of_ten_bins, separation_check
from holecert.kl import CLOSED_ONLY, KLDomainError, kl_constants, ly_constants
from holecert.spectral import SpectralStructureError, compute_record

A0, B0 = F(1, 9), F(2, 9)


class TestSeparationCheck:
    def test_single_unit_eigenvalue(self):
        res = separation_check([1.0], 0.96, 1 / 26)
        assert res.passed and res.witness is None
        assert res.cluster == (1.0,)

    def test_real_violator(self):
        # |0.97 - 1| = 0.03 < 2/26: closed balls overlap
        res = separation_check([1.0, 0.97], 0.96, 1 / 26)
        assert not res.passed
        assert res.witness == 0.97

    def test_complex_pass(self):
        # |0.98 + 0.1i - 1| ~ 0.102 > 0.02
        res = separation_check([1.0, 0.98 + 0.1j], 0.96, 1 / 100)
        assert res.passed

    def test_eigenvalue_below_r_ignored(self):
        res = separation_check([1.0, 0.95], 0.96, 1 / 26)
        assert res.passed

    def test_near_unit_eigenvalue_blocks(self):
        # a distinct eigenvalue inside the delta-ball still blocks; it is
        # reported in the cluster but fails the two-ball disjointness
        res = separation_check([1.0, 1.0 - 1 / 30], 0.96, 1 / 26)
        assert not res.passed
        assert res.cluster == (1.0, 1.0 - 1 / 30)


class TestBinLadder:
    def test_power_of_ten(self):
        assert next_power_of_ten_bins(1.2607e-5) == 100000
        assert next_power_of_ten_bins(4.8e-4) == 10000
        assert next_power_of_ten_bins(2e-4) == 10000
        assert next_power_of_ten_bins(1e-4) == 10000

    def test_subnormal_bound(self):
        # 1.0 / 10**309 cannot convert the count to a float
        assert next_power_of_ten_bins(1e-310) == 10**310
        assert next_power_of_ten_bins(5e-324) == 10**324

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            next_power_of_ten_bins(0.0)


class FixedRecordCache(hc.PipelineCache):
    """Serves the record of one fixed matrix at every requested mesh."""

    def __init__(self, matrix):
        super().__init__(None)
        self._record = compute_record(matrix)

    def spectral_record(self, tmap, n_bins):
        return self._record


class TestRefinementStep:
    def test_reference_transfer(self):
        # the closed-only comparison holds at mesh 1/5000, so its resolvent
        # bound transfers and the ladder jumps to the transferred threshold
        ly, ly_closed = ly_constants(A0, B0), ly_constants(A0, B0, CLOSED_ONLY)
        closed = kl_constants(ly_closed, F(39, 40), 63.73181657)
        assert 1 / 5000 < closed.mesh_threshold
        transferred = closed.resolvent_transfer_bound
        assert abs(transferred / 1036.693385 - 1) <= 0.10
        fine = kl_constants(ly, F(39, 40), transferred)
        assert fine.n2 == 11
        assert fine.mesh_threshold >= 1.216687545e-5
        assert next_power_of_ten_bins(fine.mesh_threshold) == 100000

    def test_closed_only_failure_refines_on_ladder(self, bundled_map):
        # mesh 1/1000 fails even the closed-only comparison: no transfer,
        # the next pass analyses the ladder mesh the comparison predicts
        cache = FixedRecordCache(
            hc.build_closed(bundled_map, 1000))
        rep = hc.run_certification(bundled_map, F(1, 40), cache=cache)
        first, second = rep.iterations
        assert first.n_bins == 1000 and not first.step7_pass
        assert first.closed_only_threshold == pytest.approx(2.511e-4, rel=1e-3)
        assert first.closed_only_threshold < 1e-3
        assert second.n_bins == 10000
        assert not second.used_bootstrap
        assert second.transferred_H is None
        # the same record at the finer mesh clears the same threshold
        assert second.step7_pass
        assert rep.certified and rep.epsilon_com == F(1, 10000)


class TestLadderCap:
    """A refinement past LADDER_CAP ends the run with a failed report."""

    @pytest.fixture
    def capped(self, monkeypatch, bundled_map):
        monkeypatch.setattr(hc.certify, "LADDER_CAP", 10**4)
        return FixedRecordCache(hc.build_closed(bundled_map, 1000))

    def test_analysed_path(self, capped, bundled_map):
        # no transfer at mesh 1/1000, and the threshold needs 100 000 bins
        rep = hc.run_certification(bundled_map, F(1, 100), 1000, cache=capped)
        assert rep.status == "failed"
        (only,) = rep.iterations
        assert not only.step7_pass
        assert float(only.mesh) >= only.closed_only_threshold
        assert "cap of 10000" in rep.reason and str(only.threshold) in rep.reason
        assert "transferred" not in rep.reason

    def test_transfer_path(self, capped, bundled_map):
        # the closed-only comparison holds at mesh 1/5000, but the
        # transferred threshold needs 100 000 bins
        rep = hc.run_certification(bundled_map, F(1, 40), 5000, cache=capped)
        assert rep.status == "failed"
        (only,) = rep.iterations
        assert float(only.mesh) < only.closed_only_threshold
        closed = kl_constants(ly_constants(A0, B0, CLOSED_ONLY), rep.r, only.h_star)
        transferred = kl_constants(ly_constants(A0, B0), rep.r,
                                   closed.resolvent_transfer_bound)
        assert "cap of 10000" in rep.reason
        assert f"transferred threshold {transferred.mesh_threshold}" in rep.reason


class TestCertificateBounds:
    def make_report(self):
        m = hc.load_map(hc.bundled_map_path())
        rep = hc.CertificationReport(
            status="certified", reason=None, map_label=m.label,
            map_fingerprint=m.fingerprint, ell=F(1, 25), r=F(24, 25),
            Gamma=F(10, 9),
            escape_coefficient=1 + float((2 * A0 + B0) / (1 - F(1, 25) - F(1, 3))),
            escape_guarantee=-math.log(24 / 25),
            delta_com=F(1, 26), epsilon_com=F(1, 5000),
            hole_bound=F(10, 9) * F(1, 5000),
        )
        return rep

    def test_reference_hole(self):
        rep = self.make_report()
        # coefficient: 1 + (4/9)/(47/75) = 241/141
        assert rep.escape_coefficient == pytest.approx(float(F(241, 141)), rel=1e-12)
        res = hc.certificate_bounds(rep, F(10, 9) * F(1, 5000))
        assert res.accim_exists
        expected = float(F(241, 141)) * float(F(10, 9) / 5000)
        assert res.one_minus_eH_upper == pytest.approx(min(1 / 26, expected), rel=1e-12)
        assert res.escape_upper == pytest.approx(-math.log1p(-expected), rel=1e-12)

    def test_oversized_hole(self):
        res = hc.certificate_bounds(self.make_report(), F(1, 2))
        assert not res.accim_exists
        assert res.one_minus_eH_upper is None

    def test_zero_hole(self):
        res = hc.certificate_bounds(self.make_report(), 0)
        assert res.accim_exists
        assert res.one_minus_eH_upper == 0.0
        assert res.escape_upper == 0.0

    def test_needs_certified_report(self):
        rep = self.make_report()
        rep.status = "failed"
        with pytest.raises(ValueError):
            hc.certificate_bounds(rep, 0)


class NoRecordCache(hc.PipelineCache):
    """Fails on the first spectral record: no matrix may be built."""

    def spectral_record(self, tmap, n_bins):
        raise AssertionError("spectral record requested")


class TestConfig:
    """The loop's arguments are checked before any matrix work, and ell
    fixes delta = 1/(ceil(1/ell) + 1)."""

    def test_default_delta(self, shift10, pipeline_cache, monkeypatch):
        # ceil, not floor + 2: 1/ell is an integer at 1/25 and 1/40; the cap
        # ends each run after its first pass, which holds the delta
        monkeypatch.setattr(hc.certify, "LADDER_CAP", 10**3)
        for ell, delta in [(F(1, 25), F(1, 26)), (F(1, 40), F(1, 41)),
                           (F(3, 10), F(1, 5))]:     # ceil(10/3) + 1
            rep = hc.run_certification(shift10, ell, 100, cache=pipeline_cache)
            assert rep.iterations[0].delta == delta

    def test_ell_validation(self, bundled_map):
        # checked before the map's constants: alpha0 = 2/5 would raise first
        fat = hc.PiecewiseMap(bundled_map.branches, alpha0=F(2, 5), B0=0, label="fat")
        with pytest.raises(ValueError, match="ell must lie in"):
            hc.run_certification(fat, F(3, 2), cache=NoRecordCache())

    def test_float_ell(self, shift10, pipeline_cache, shift10_report):
        rep = hc.run_certification(shift10, 0.04, 100, cache=pipeline_cache)
        assert rep.ell == F(1, 25)
        assert rep == shift10_report

    def test_bins_init_validation(self, shift10):
        with pytest.raises(ValueError, match="bins_init must be positive"):
            hc.run_certification(shift10, F(1, 25), 0, cache=NoRecordCache())
        with pytest.raises(TypeError):
            hc.run_certification(shift10, F(1, 25), 2.5, cache=NoRecordCache())


@pytest.fixture(scope="module")
def shift10_report(shift10, pipeline_cache):
    return hc.run_certification(shift10, F(1, 25), 100, cache=pipeline_cache)


class TestRunCertification:
    def test_certifies(self, shift10_report):
        rep = shift10_report
        assert rep.certified
        assert rep.delta_com == F(1, 26)
        assert rep.epsilon_com is not None
        assert rep.hole_bound == F(11, 10) * rep.epsilon_com
        logged = cli._jsonify(rep)["iterations"]
        for k, it in enumerate(rep.iterations):
            if it.used_bootstrap:
                assert it.spectral_radius_bound is None
            else:
                assert it.spectral_radius_bound <= float(rep.r - it.delta)
            assert logged[k]["spectral_radius_bound"] == it.spectral_radius_bound

    def test_internal_consistency(self, shift10_report):
        # oracle: recompute the constant chain from the logged resolvent
        # bound and confirm the certificate's comparison still holds
        rep = shift10_report
        final = [it for it in rep.iterations if it.step7_pass][-1]
        ly = ly_constants(F(1, 10), 0)
        chain = kl_constants(ly, rep.r, final.h_star)
        assert chain.mesh_threshold == pytest.approx(final.threshold, rel=1e-12)
        assert float(rep.epsilon_com) <= chain.mesh_threshold + 1e-18

    def test_mesh_monotone(self, shift10_report):
        meshes = [it.mesh for it in shift10_report.iterations]
        # each pass is strictly finer than the last: this bounds the loop
        assert all(b < a for a, b in zip(meshes, meshes[1:]))
        deltas = [it.delta for it in shift10_report.iterations]
        assert all(b <= a for a, b in zip(deltas, deltas[1:]))

    def test_escape_tolerance_domain(self, shift10):
        with pytest.raises(KLDomainError):
            hc.run_certification(shift10, F(4, 5))

    def test_rejects_large_alpha0(self, bundled_map):
        tent_like = hc.PiecewiseMap(bundled_map.branches, alpha0=F(2, 5),
                                    B0=0, label="fat")
        with pytest.raises(KLDomainError, match="hole-uniform constants need alpha0 < 1/3"):
            hc.run_certification(tent_like, F(1, 25))


class TestOuterLoop:
    """A real spectrum that breaks the rank-one split stops the run."""

    def test_extra_peripheral_eigenvalue_raises_without_doctoring(
            self, shift10, decoupled_blocks):
        # eigenvalues 1 and 0.97: the bound exceeds r - delta = 24/25 - 1/26
        cache = FixedRecordCache(decoupled_blocks)
        with pytest.raises(SpectralStructureError):
            hc.run_certification(shift10, F(1, 25), 100, cache=cache)
