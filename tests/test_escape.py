import functools
import math
import re
from fractions import Fraction as F

import numpy as np
import scipy.sparse as sp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import holecert as hc
from holecert.maps import as_rational
from escape_oracle import build_open, open_matrix_escape, tolerance_escape
from holecert.escape import (
    PERIOD_SEARCH_LIMIT,
    PointClassification,
    PowerIterationError,
    classify_point,
    estimate_escape,
)


class TestEstimateEscape:
    def test_uniform_shift_small_instance(self, shift10):
        est = estimate_escape(hc.build_closed(shift10, 10), hc.Hole(F(0), F(1, 10)))
        assert est.e_H == pytest.approx(0.9, abs=1e-12)
        assert est.escape_rate == pytest.approx(-math.log(0.9), abs=1e-12)
        # dense eigensolve oracle on the 10 x 10 matrix
        w = np.linalg.eigvals(build_open(shift10, 10, hc.Hole(F(0), F(1, 10))).toarray())
        assert max(abs(w)) == pytest.approx(est.e_H, abs=1e-12)

    def test_accim_density_uniform(self, shift10):
        est = estimate_escape(hc.build_closed(shift10, 10),
                              hc.Hole(F(0), F(1, 10)))
        assert np.allclose(est.accim_density, 1.0, atol=1e-12)
        assert est.accim_density.sum() / 10 == pytest.approx(1.0, abs=1e-12)

    def test_total_escape_flagged(self, shift10):
        est = estimate_escape(hc.build_closed(shift10, 10), hc.Hole(F(0), F(1)))
        assert est.total_escape
        assert est.e_H == 0.0
        assert est.escape_rate == math.inf

    def test_bracket_within_width(self, bundled_map):
        closed = hc.build_closed(bundled_map, 200)
        est = estimate_escape(closed, hc.Hole(F(1, 2), F(51, 100)))
        assert 0 < est.e_H_lower <= est.e_H_upper < 1
        assert est.e_H_upper - est.e_H_lower <= 1e-12 * est.e_H_upper
        assert est.e_H == pytest.approx(est.e_H_lower, rel=1e-12)

    @pytest.mark.parametrize("tmap, n_bins, hole, steps", [
        # the first step has no settled mass ratio to test the bracket on
        (hc.full_branch_linear(10), 10, hc.Hole(F(0), F(1, 10)), 1),
        # digit word 01 of x -> 2x mod 1: the open chain's dominant eigenvalue
        # 1/2 is defective, and the bracket narrows only like 1/steps
        (hc.full_branch_linear(2), 4, hc.Hole(F(1, 4), F(1, 2)), 2000),
    ], ids=["stalled", "jordan-block"])
    def test_power_iteration_errors(self, cap_power_steps, tmap, n_bins, hole, steps):
        cap_power_steps(steps)
        message = f"did not narrow to relative width 1e-12 in {steps} steps"
        with pytest.raises(PowerIterationError, match=re.escape(message)):
            estimate_escape(hc.build_closed(tmap, n_bins), hole)

    def test_rounded_mass_ratio_clamped(self, shift10):
        # the last mass ratio is 0x1.cccccccccccccp-1, an ulp below the
        # bracket [0x1.ccccccccccccdp-1, 0x1.ccccccccccccdp-1]
        est = estimate_escape(hc.build_closed(shift10, 10), hc.Hole(F(0), F(1, 10)))
        assert est.e_H.hex() == est.e_H_lower.hex() == est.e_H_upper.hex() \
            == "0x1.ccccccccccccdp-1"
        assert est.escape_rate == -math.log(est.e_H)

    def test_monotone_in_hole_size(self, shift10):
        closed = hc.build_closed(shift10, 100)
        evals = [estimate_escape(closed, hc.Hole(F(0), F(k, 100))).e_H
                 for k in (1, 2, 3, 5, 8)]
        assert all(b <= a + 1e-14 for a, b in zip(evals, evals[1:]))


def oracle_holes(n):
    """One hole at 0, one ending at 1, an interior one and all of [0, 1)."""
    return [hc.Hole(F(0), F(1, n)), hc.Hole(F(n - 1, n), F(1)),
            hc.Hole(F(n // 3, n), F(n // 3 + max(1, n // 20), n)), hc.Hole(F(0), F(1))]


def assert_same_estimate(got, ref):
    assert (got.e_H.hex(), got.e_H_lower.hex(), got.e_H_upper.hex(), got.iterations,
            got.total_escape) \
        == (ref.e_H.hex(), ref.e_H_lower.hex(), ref.e_H_upper.hex(), ref.iterations,
            ref.total_escape)
    assert got.escape_rate == ref.escape_rate
    assert got.accim_density.tobytes() == ref.accim_density.tobytes()


def count_transposes(monkeypatch):
    """The CSR matrices transposed from now on, in order."""
    transposed = []
    transpose = sp.csr_matrix.transpose
    monkeypatch.setattr(sp.csr_matrix, "transpose",
                        lambda self, *a, **k: transposed.append(self) or transpose(self, *a, **k))
    return transposed


class TestMaskedIteration:
    """The closed matrix stepped with the hole masked against power
    iteration on the open matrix that the oracle's build_open forms, bit
    for bit."""

    @pytest.mark.parametrize("n", [10, 11, 100, 1000, 5000])
    @pytest.mark.parametrize("label", ["shift10", "bundled", "decreasing"])
    def test_matches_open_matrix(self, shift10, bundled_map, decreasing_map, label, n):
        tmap = {"shift10": shift10, "bundled": bundled_map, "decreasing": decreasing_map}[label]
        closed = hc.build_closed(tmap, n)
        for hole in oracle_holes(n):
            ref = open_matrix_escape(tmap, n, hole, closed=closed)
            est = estimate_escape(closed, hole)
            assert_same_estimate(est, ref)
            assert est.e_H_lower <= est.e_H <= est.e_H_upper

    def test_one_transpose_for_many_holes(self, bundled_map, monkeypatch):
        closed = hc.build_closed(bundled_map, 500)
        transposed = count_transposes(monkeypatch)
        for hole in oracle_holes(500):
            estimate_escape(closed, hole)
        assert len(transposed) == 1 and transposed[0] is closed.matrix

    @pytest.mark.parametrize("label, widths, bins_per_hole", [
        ("shift10", [F(1, 10), F(1, 100)], 10),
        # the advisory f* is read off the finest matrix, through the
        # quotient chain of its equal rows, whose transpose is kept too;
        # u = v B reads B through its transpose, a view that copies nothing
        ("bundled", [F(1, 50), F(1, 100)], 5),
    ])
    def test_cache_shares_transpose_between_points(self, shift10, bundled_map, monkeypatch,
                                                   label, widths, bins_per_hole):
        tmap = {"shift10": shift10, "bundled": bundled_map}[label]
        cache = hc.PipelineCache()
        transposed = count_transposes(monkeypatch)
        for y in (F(0), F(1, 7), math.sqrt(2) - 1):
            hc.asymptotic_ratio(tmap, y, widths, bins_per_hole, cache=cache)
        closed = [cache.closed_matrix(tmap, int(bins_per_hole / w)) for w in widths]
        expected = [m.matrix for m in closed]
        if label == "bundled":
            B, quotient, _ = closed[-1].lumped
            expected += [quotient.matrix, B, B, B]
        assert len(transposed) == len(expected)
        assert all(a is b for a, b in zip(transposed, expected))

    def test_closed_matrix_checks_kept(self, shift10):
        closed = hc.build_closed(shift10, 20)
        with pytest.raises(hc.HoleAlignmentError):
            estimate_escape(closed, hc.Hole(F(1, 3), F(1, 2)))


class TestAgainstToleranceLoop:
    """The bracket-stopped estimate against the power iteration stopped by
    tolerances that it replaced (``escape_oracle.tolerance_escape``)."""

    @pytest.mark.parametrize("n", [10, 11, 100, 1000, 5000])
    @pytest.mark.parametrize("label", ["shift10", "bundled", "decreasing"])
    def test_old_estimate_in_new_bracket(self, shift10, bundled_map, decreasing_map, label, n):
        tmap = {"shift10": shift10, "bundled": bundled_map, "decreasing": decreasing_map}[label]
        closed = hc.build_closed(tmap, n)
        for hole in oracle_holes(n):
            est = estimate_escape(closed, hole)
            old, _ = tolerance_escape(tmap, n, hole, closed=closed)
            assert est.e_H == pytest.approx(old, rel=1e-12, abs=0)
            assert est.e_H_lower * (1 - 1e-12) <= old <= est.e_H_upper * (1 + 1e-12)


def markov_polynomial(word, k):
    """Coefficients, from z^0 up, of f(z) = z^m + (1 - k z) c_w(z), where
    c_w(z) = sum of z^i over the shifts i < m at which the word ``w``
    overlaps itself (its autocorrelation polynomial)."""
    m = len(word)
    f = [F(0)] * m + [F(1)]
    for i in range(m):
        if word[i:] == word[:m - i]:
            f[i] += 1
            f[i + 1] -= k
    while f[-1] == 0:
        f.pop()
    return f


def _value(p, z):
    return sum(c * z**i for i, c in enumerate(p))


def _remainder(a, b):
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        for i, c in enumerate(b):
            a[len(a) - len(b) + i] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return a


def sturm_chain(p):
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while chain[-1] and (r := _remainder(chain[-2], chain[-1])):
        chain.append([-c for c in r])
    return [q for q in chain if q]


def roots_in(chain, a, b):
    """Distinct real roots in (a, b] of the polynomial heading a Sturm
    chain, for p(a) != 0 (Sturm's theorem)."""
    def changes(x):
        signs = [v > 0 for v in map(lambda q: _value(q, x), chain) if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))
    return changes(a) - changes(b)


def least_positive_root(f, steps=80):
    """``(lo, hi, simple)``: the least positive root of f lies in (lo, hi],
    hi - lo = 2^-steps, found by exact bisection on the Sturm root count,
    and ``simple`` says whether it is a simple root."""
    chain = sturm_chain(f)
    lo, hi = F(0), F(1)
    assert _value(f, lo) != 0 and roots_in(chain, lo, hi) >= 1
    for _ in range(steps):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if roots_in(chain, lo, mid) else (mid, hi)
    # the last entry of the chain is gcd(f, f'), whose roots are f's multiple roots
    return lo, hi, roots_in(sturm_chain(chain[-1]), F(0), hi) == 0


@functools.lru_cache(maxsize=None)
def shift_closed(k, n):
    return hc.build_closed(hc.full_branch_linear(k), n)


class TestMarkovHoles:
    """Exact escape factors of one-bin holes of x -> kx mod 1 at k^m bins.

    The bin of the digit word w is a Markov hole: its open chain has
    spectral radius e_H = rho_w / k, with 1/rho_w the least positive root
    of z^m + (1 - k z) c_w(z), c_w the word's autocorrelation polynomial
    (Guibas-Odlyzko 1981).  This generalises C4 to every word.
    """

    @pytest.mark.parametrize("n, j, coefficients, e_H", [
        (100, 0, [1, -9, -9], (9 + math.sqrt(117)) / 20),
        (100, 41, [1, -10, 1], (5 + math.sqrt(24)) / 10),
        (1000, 0, [1, -9, -9, -9], None),
        (1000, 410, [1, -10, 0, 1], None),
    ], ids=["100-bins-at-0", "100-bins-at-41", "1000-bins-at-0", "1000-bins-at-410"])
    def test_shrink_hole_holes(self, n, j, coefficients, e_H):
        # the 100- and 1000-bin holes of the shrinking-hole benchmark
        word = tuple(int(d) for d in str(j).zfill(len(str(n)) - 1))
        assert markov_polynomial(word, 10) == coefficients
        if e_H is not None:
            est = estimate_escape(shift_closed(10, n), hc.Hole(F(j, n), F(j + 1, n)))
            assert est.e_H == pytest.approx(e_H, rel=1e-13)

    @given(st.sampled_from([2, 3, 10]), st.integers(1, 3), st.integers(0, 999))
    @example(10, 2, 0).via("the hole at 0 on 100 bins")
    @example(10, 3, 410).via("a nested hole at 1000 bins")
    @example(2, 3, 3).via("a slower class feeds the dominant one")
    @settings(max_examples=60, deadline=None)
    def test_bracket_encloses_exact_escape_factor(self, k, m, j):
        n = k**m
        j %= n
        word = tuple(j // k**(m - 1 - i) % k for i in range(m))
        lo, hi, simple = least_positive_root(markov_polynomial(word, k))
        # a double root (k = 2, w = 01 or 10: f = (z - 1)^2) makes the dominant
        # eigenvalue defective, and the bracket narrows only like 1/steps
        assume(simple)
        closed = shift_closed(k, n)
        entry = F(closed.matrix.data[0])    # the rounded 1/k, in every entry
        assert (closed.matrix.data == closed.matrix.data[0]).all()
        est = estimate_escape(closed, hc.Hole(F(j, n), F(j + 1, n)))
        # the float matrix is entry * k times the chain, so its spectral
        # radius is entry * rho_w, inside (entry / hi, entry / lo]
        slack = F(k + 1, 2**53)
        assert F(est.e_H_lower) * (1 - slack) <= entry / hi
        assert entry / lo <= F(est.e_H_upper) * (1 + slack)


class TestClassifyPoint:
    def test_fixed_point_exact(self, shift10):
        for y in (F(0), F(1, 3)):
            cls = classify_point(shift10, y)
            assert cls.kind == "periodic" and cls.period == 1
            assert cls.derivative == pytest.approx(10.0)

    def test_period_two_exact(self, doubling):
        cls = classify_point(doubling, F(1, 3))
        assert cls.kind == "periodic" and cls.period == 2
        assert cls.derivative == pytest.approx(4.0)

    def test_rational_non_periodic(self, shift10):
        # 1/7 has (eventually) period-6 decimal digits: periodic under 10x
        cls = classify_point(shift10, F(1, 7))
        assert cls.kind == "periodic" and cls.period == 6
        # a long-period rational is non-periodic within the search horizon
        cls2 = classify_point(shift10, F(1, 97))
        assert cls2.kind == "non-periodic"

    def test_irrational_float_non_periodic(self, shift10):
        cls = classify_point(shift10, math.sqrt(2) - 1)
        assert cls.kind == "non-periodic"

    def test_float_is_its_decimal_value(self, shift10):
        # 0.3333333333333333 is 3333333333333333/10^16, not the fixed point
        # 1/3: its orbit falls onto the fixed point 0
        near = 0.3333333333333333
        cls = classify_point(shift10, near)
        assert cls == PointClassification("non-periodic", None, None)
        assert cls == classify_point(shift10, as_rational(near))
        assert classify_point(shift10, "1/3") == PointClassification("periodic", 1, 10.0)


@pytest.fixture(scope="module")
def tent():
    """The tent map 1 - 2x | 2x - 1: its decreasing branch sends 0 to 1."""
    return hc.PiecewiseMap([hc.Branch(F(0), F(1, 2), F(-2), F(1)),
                            hc.Branch(F(1, 2), F(1), F(2), F(-1))],
                           alpha0=F(1, 2), B0=0, label="tent")


class TestOrbitLeavesDomain:
    """An orbit that reaches 1 leaves [0, 1) and cannot return to y."""

    @pytest.mark.parametrize("label, y", [
        ("tent", F(0)), ("tent", 0.0), ("tent", F(1, 4)), ("tent", 0.25),
        # 1/5 -> 1/2 -> 0 -> 1 under the decreasing Moebius branch
        ("decreasing", F(0)), ("decreasing", 0.0), ("decreasing", F(1, 5)),
        ("decreasing", 0.5),
    ])
    def test_non_periodic(self, tent, decreasing_map, label, y):
        tmap = {"tent": tent, "decreasing": decreasing_map}[label]
        assert classify_point(tmap, y) == PointClassification("non-periodic", None, None)

    def test_periodic_point_of_same_map(self, decreasing_map):
        # 1/4 -> 2/5 -> 1/7 -> 5/8 -> 1/4 stays inside [0, 1)
        cls = classify_point(decreasing_map, F(1, 4))
        assert cls.kind == "periodic" and cls.period == 4

    @pytest.mark.parametrize("y", [F(0), 0.0])
    def test_shrinking_hole_at_zero(self, tent, y):
        # (1 - e_H)/w is 1.061 and 1.008 here and tends to f*(0) = 1, not
        # to the periodic value 1/2
        exp = hc.asymptotic_ratio(tent, y, [F(1, 100), F(1, 1000)], 10)
        assert exp.classification.kind == "non-periodic"
        assert exp.predicted_limit == 1.0
        assert exp.extrapolated_limit == pytest.approx(1.0, abs=0.01)


def classify_full_orbit(tmap, y):
    """classify_point with no early exit: the whole orbit of
    PERIOD_SEARCH_LIMIT + 1 points first, then the first return."""
    point = F(y)
    orbit = [point]
    for _ in range(PERIOD_SEARCH_LIMIT):
        orbit.append(tmap.evaluate(orbit[-1]))
    for p in range(1, PERIOD_SEARCH_LIMIT + 1):
        if orbit[p] == point:
            deriv = 1.0
            for k in range(p):
                deriv *= float(tmap.derivative(orbit[k]))
            return PointClassification("periodic", p, deriv)
    return PointClassification("non-periodic", None, None)


class TestFirstReturn:
    """Orbits stop at their first return to y or their first repeat of
    another point; the result is unchanged."""

    @given(st.sampled_from(["shift10", "doubling", "bundled"]),
           st.fractions(0, 1, max_denominator=200).filter(lambda y: y < 1)
           | st.floats(0, 1, exclude_max=True).map(as_rational))
    @settings(max_examples=300, deadline=None)
    def test_matches_full_orbit(self, shift10, doubling, bundled_map, label, y):
        tmap = {"shift10": shift10, "doubling": doubling, "bundled": bundled_map}[label]
        outcomes = []
        for classify in (classify_point, classify_full_orbit):
            try:
                outcomes.append(classify(tmap, y))
            except hc.MapDomainError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_fixed_point_stops_after_one_step(self, shift10, monkeypatch):
        calls = []
        evaluate = type(shift10).evaluate
        monkeypatch.setattr(type(shift10), "evaluate",
                            lambda self, x: calls.append(x) or evaluate(self, x))
        assert classify_point(shift10, F(0)).period == 1
        assert calls == [0]

    def test_cycle_without_y_stops_at_repeat(self, shift10, monkeypatch):
        # 16 decimal digits shift out in 16 steps onto the fixed point 0, and
        # the 17th step, from 0, repeats it: the orbit cannot return to y
        calls = []
        evaluate = type(shift10).evaluate
        monkeypatch.setattr(type(shift10), "evaluate",
                            lambda self, x: calls.append(x) or evaluate(self, x))
        assert classify_point(shift10, 0.8126903632435094).kind == "non-periodic"
        assert len(calls) == 17 and calls.index(0) == 16


class TestAsymptoticRatio:
    def test_structure_and_prediction(self, shift10):
        exp = hc.asymptotic_ratio(shift10, F(0), [F(1, 10), F(1, 100)], 10)
        assert exp.n_bins == (100, 1000)
        assert exp.classification.kind == "periodic"
        assert exp.predicted_limit == pytest.approx(0.9)
        assert exp.f_star_source == "uniform-exact"
        assert not exp.low_confidence
        # holes nested and aligned, each containing the point
        for h, n in zip(exp.holes, exp.n_bins):
            assert h.aligned_to(n)
            assert h.a <= 0 <= h.b
        assert exp.holes[1].a >= exp.holes[0].a
        assert exp.holes[1].b <= exp.holes[0].b
        assert all(r > 0 for r in exp.ratios)

    def test_single_width_low_confidence(self, shift10):
        exp = hc.asymptotic_ratio(shift10, F(0), [F(1, 100)], 10)
        assert exp.low_confidence
        assert exp.extrapolated_limit == exp.ratios[0]

    @pytest.mark.parametrize("y, widths, bins_per_hole, message", [
        (F(0), [F(3, 10)], 10, "bin count 100/3 is not an integer"),
        (F(0), [F(1, 100), F(1, 10)], 10, "widths must be strictly decreasing"),
        (F(1), [F(1, 10)], 10, "y must lie in [0, 1), got 1"),
        (F(0), [], 10, "need at least one width"),
        (F(0), [F(1, 10)], 0, "bins_per_hole must be positive"),
        # the 1/4-partition hole nested in [0, 1/3) stops at 1/4
        (F(29, 100), [F(1, 3), F(1, 4)], 1, "hole (0,1/4) does not contain y = 29/100"),
        # [1/3, 2/3) holds no 1-bin hole of the 1/4 partition
        (F(1, 3), [F(1, 3), F(1, 4)], 1,
         "cannot nest a 1-bin hole containing 1/3 on the 1/4 partition"),
    ], ids=["incompatible_width", "widths_must_decrease", "y_outside", "no_widths",
            "bins_per_hole", "nested_hole_misses_y", "cannot_nest"])
    def test_input_checks(self, shift10, y, widths, bins_per_hole, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            hc.asymptotic_ratio(shift10, y, widths, bins_per_hole)

    def test_position_effect(self, shift10):
        # equal-measure holes: at the fixed point escape is strictly slower
        width = [F(1, 100)]
        at_zero = hc.asymptotic_ratio(shift10, F(0), width, 10)
        at_irrational = hc.asymptotic_ratio(shift10, math.sqrt(2) - 1, width, 10)
        assert at_zero.e_values[0] > at_irrational.e_values[0]

    def test_float_runs_its_decimal_value(self, bundled_map):
        y = math.sqrt(2) - 1
        widths = [F(1, 50), F(1, 100)]
        assert hc.asymptotic_ratio(bundled_map, y, widths, 5) \
            == hc.asymptotic_ratio(bundled_map, as_rational(y), widths, 5)

    def test_ulam_advisory_density(self, bundled_map):
        exp = hc.asymptotic_ratio(bundled_map, F(1, 2), [F(1, 50)], 5)
        assert exp.f_star_source == "ulam-advisory"
        assert exp.predicted_limit is not None
