import json
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import holecert as hc
import map_oracle
from ulam_oracle import branch_preimage, inverse
from holecert.maps import (
    Branch,
    ExpansionWarning,
    MapConfigError,
    MapDomainError,
    affine_onto,
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

    @pytest.mark.parametrize("value, text", [
        (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    ])
    def test_non_finite_float_rejected(self, value, text):
        # Fraction("nan") used to escape as a bare ValueError
        with pytest.raises(MapConfigError) as exc:
            as_rational(value)
        assert str(exc.value) == f"cannot parse rational from {text}"
        assert type(exc.value) is MapConfigError


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

    @pytest.mark.parametrize("cfg", [
        ["branches"],
        {"branches": [1]},
        {"branches": {"a": 1}},
        {"branches": "linear"},
        {"branches": [{"kind": "linear", "domain": 5, "slope": "2", "intercept": "0"}]},
        # "01" used to be read as the domain [0, 1) of this identity map
        {"alpha0": "1/2", "B0": "0",
         "branches": [{"kind": "linear", "domain": "01", "slope": "1", "intercept": "0"}]},
        {"branches": [{"kind": "linear", "domain": ["0", "1/2", "1"], "slope": "2",
                       "intercept": "0"}]},
    ], ids=["top-level-list", "branch-not-object", "branches-object", "branches-string",
            "domain-number", "domain-string", "domain-three-ends"])
    def test_malformed_config_rejected(self, tmp_path, cfg):
        # a config of the wrong JSON shape is a config error, not a TypeError
        path = tmp_path / "map.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(MapConfigError):
            hc.load_map(path)

    @pytest.mark.parametrize("path, value", [
        (("branches", 0, "domain", 0), False), (("alpha0",), True), (("B0",), False),
        (("branches", 1, "slope"), True),
    ], ids=["domain-end", "alpha0", "B0", "slope"])
    def test_boolean_rejected(self, path, value):
        # bool is a numbers.Rational, so false used to load as 0 and true as 1
        cfg = {"alpha0": "1/2", "B0": "0", "branches": [
            {"kind": "linear", "domain": ["0", "1/2"], "slope": "2", "intercept": "0"},
            {"kind": "linear", "domain": ["1/2", "1"], "slope": "2", "intercept": "-1"}]}
        map_from_dict(cfg)
        *parents, last = path
        target = cfg
        for step in parents:
            target = target[step]
        target[last] = value
        with pytest.raises(MapConfigError, match="cannot parse rational"):
            map_from_dict(json.loads(json.dumps(cfg)))

    @pytest.mark.parametrize("field, literal, text", [
        ("alpha0", "NaN", "nan"), ("B0", "1e400", "inf"), ("slope", "-1e400", "-inf"),
    ])
    def test_non_finite_json_number_rejected(self, tmp_path, field, literal, text):
        # json.load reads NaN and 1e400 as the floats nan and inf
        cfg = {"alpha0": "1/2", "B0": "0", "branches": [
            {"kind": "linear", "domain": ["0", "1/2"], "slope": "2", "intercept": "0"},
            {"kind": "linear", "domain": ["1/2", "1"], "slope": "2", "intercept": "-1"}]}
        target = cfg["branches"][0] if field == "slope" else cfg
        target[field] = "@"
        path = tmp_path / "map.json"
        path.write_text(json.dumps(cfg).replace('"@"', literal))
        with pytest.raises(MapConfigError, match=f"^cannot parse rational from {text}$"):
            hc.load_map(path)

    @pytest.mark.parametrize("constants", [{}, {"alpha0": "1/2"}], ids=["default", "given"])
    def test_empty_branch_list_rejected(self, constants):
        # without alpha0 the default constants used to take the minimum of no slopes
        with pytest.raises(MapConfigError, match="^map needs at least one branch$"):
            map_from_dict({**constants, "branches": []})

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

    def test_affine_onto_reads_cached_images(self, monkeypatch):
        # images and orientations are computed once, when the map is built
        m = hc.full_branch_linear(7)
        decreasing = Branch(F(0), F(1), F(-1, 2), F(1, 2))
        assert not decreasing.increasing and decreasing.image == (F(0), F(1, 2))

        def refuse(self, x):
            raise AssertionError("branch evaluated again")

        monkeypatch.setattr(Branch, "__call__", refuse)
        assert affine_onto(m.branches)
        assert all(b.image == (0, 1) and b.increasing for b in m.branches)
        assert decreasing.image == (F(0), F(1, 2))


#: rationals for coefficients, and for image ends (0 and 1 often, a little
#: beyond [0, 1] sometimes)
COEFFICIENTS = st.fractions(min_value=-3, max_value=3, max_denominator=6)
IMAGE_ENDS = st.sampled_from([F(0), F(1)]) | st.fractions(F(-1, 4), F(5, 4), max_denominator=8)


@st.composite
def branch_entries(draw, lo, hi):
    """A config entry on [lo, hi): a branch fitted onto drawn image ends
    (affine or Moebius, either orientation), or drawn coefficients."""
    if hi > lo and draw(st.integers(0, 2)):
        ya, yb = sorted(draw(st.lists(IMAGE_ENDS, min_size=2, max_size=2, unique=True)))
        base, h = (ya, yb - ya) if draw(st.booleans()) else (yb, ya - yb)
        # t -> t/(t + c(1 - t)) on t = (x - lo)/(hi - lo) bends the affine
        # branch; c = 1 leaves it affine with s = hi - lo
        c = draw(st.sampled_from([None, F(1)]) | st.fractions(F(1, 4), 4, max_denominator=4))
        if c is None:
            p = h / (hi - lo)
            q, r, s = base - p * lo, F(0), F(1)
        else:
            s = c * (hi - lo) - (1 - c) * lo
            p, q, r = base * (1 - c) + h, base * s - h * lo, 1 - c
    else:
        p, q = draw(COEFFICIENTS), draw(COEFFICIENTS)
        r, s = (F(0), F(1)) if draw(st.booleans()) else (draw(COEFFICIENTS), draw(COEFFICIENTS))
    domain = [str(lo), str(hi)]
    if r == 0 and s == 1 and draw(st.booleans()):
        return {"kind": "linear", "domain": domain, "slope": str(p), "intercept": str(q)}
    return {"kind": "moebius", "domain": domain, **{k: str(v) for k, v in zip("pqrs", (p, q, r, s))}}


@st.composite
def map_configs(draw):
    """Configs of one to four branches; some leave a gap or an overlap, give
    a branch an empty domain or one reaching beyond [0, 1), or omit alpha0."""
    cuts = draw(st.lists(st.fractions(0, 1, max_denominator=12).filter(lambda x: 0 < x < 1),
                         max_size=3, unique=True))
    ends = [F(0), *sorted(cuts), F(1)]
    domains = list(zip(ends, ends[1:]))
    defect = draw(st.sampled_from(["none"] * 4 + ["gap", "overlap", "empty", "beyond"]))
    i = draw(st.integers(0, len(domains) - 1))
    lo, hi = domains[i]
    domains[i] = {"none": (lo, hi), "gap": (lo, (lo + hi) / 2), "overlap": (lo, (hi + 1) / 2),
                  "empty": (lo, lo), "beyond": (lo - F(1, 4), hi)}[defect]
    cfg = {"label": "drawn", "branches": [draw(branch_entries(lo, hi)) for lo, hi in domains]}
    if draw(st.integers(0, 3)):
        cfg["alpha0"] = str(draw(st.fractions(0, 1, max_denominator=9)))
        cfg["B0"] = str(draw(st.fractions(-1, 2, max_denominator=9)))
    return cfg


def built_or_raised(build, cfg):
    """``(summary or (exception type, message), warnings)`` of one build."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            result = build(cfg)
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in seen]


def summarise(cfg):
    m = map_from_dict(cfg)
    return {"branches": [map_oracle.summary(b) for b in m.branches], "alpha0": m.alpha0,
            "B0": m.B0, "min_derivative": m.min_derivative(), "fingerprint": m.fingerprint}


def config(*branches, **constants):
    """A config of Moebius entries ``(lo, hi, p, q, r, s)``, and alpha0 = 1/2,
    B0 = 0 unless given."""
    return {**{"alpha0": "1/2", "B0": "0"}, **constants, "branches": [
        {"kind": "moebius", "domain": [lo, hi], **dict(zip("pqrs", coeffs))}
        for lo, hi, *coeffs in branches]}


DOUBLING = [("0", "1/2", "2", "0", "0", "1"), ("1/2", "1", "2", "-1", "0", "1")]

#: one config per check of the reference, and maps with and without the warning
CONFIGS = {
    "bundled": json.loads(Path(hc.bundled_map_path()).read_text()),
    "shift3": hc.full_branch_linear(3).to_dict(),
    "decreasing-moebius": config(("0", "1/2", "-2", "1", "1", "1"), DOUBLING[1],
                                 alpha0="3/4", B0="2"),
    "identity": config(("0", "1", "1", "0", "0", "1")),
    "gap": config(("0", "1/3", "2", "0", "0", "1"), DOUBLING[1]),
    "overlap": config(("0", "2/3", "3/2", "0", "0", "1"), DOUBLING[1]),
    "short": config(DOUBLING[0]),
    "empty-domain": config(("0", "0", "2", "0", "0", "1"), *DOUBLING),
    "constant": config(("0", "1/2", "1", "1", "1", "1"), DOUBLING[1]),
    "pole": config(("0", "1/2", "1", "0", "-2", "1"), DOUBLING[1]),
    "image-outside": config(("0", "1/2", "3", "0", "0", "1"), DOUBLING[1]),
    "alpha0": config(*DOUBLING, alpha0="1"),
    "B0": config(*DOUBLING, B0="-1/9"),
    "no-constants-moebius": {"branches": json.loads(Path(hc.bundled_map_path()).read_text())
                             ["branches"]},
    "no-constants-affine": {"branches": config(DOUBLING[0], ("1/2", "1", "4", "-2", "0", "2"))
                            ["branches"]},
}


def assert_matches_reference(cfg):
    expected, expected_warnings = built_or_raised(map_oracle.map_from_config, cfg)
    got, got_warnings = built_or_raised(summarise, cfg)
    assert got == expected
    assert got_warnings == expected_warnings
    if isinstance(expected, dict):
        slow = expected["min_derivative"] <= 1
        assert [c for c, _ in got_warnings] == [ExpansionWarning] * slow


class TestIntegerForm:
    """The construction-time integer form against the Fraction checks it
    replaced (``tests/map_oracle.py``)."""

    @given(map_configs())
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_checks(self, cfg):
        assert_matches_reference(cfg)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_matches_fraction_checks_on(self, name):
        assert_matches_reference(CONFIGS[name])
