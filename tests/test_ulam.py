import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import holecert as hc
import ulam_oracle
from holecert.maps import Branch, ExpansionWarning
from holecert.ulam import HoleAlignmentError, UlamPartition


def brute_force_entry(tmap, n, i, j, samples=4000):
    """Riemann estimate of lambda(bin_i intersect T^-1 bin_j)/lambda(bin_i)."""
    lo, hi = i / n, (i + 1) / n
    hits = 0
    for k in range(samples):
        x = lo + (hi - lo) * (k + 0.5) / samples
        y = tmap.evaluate(x)
        if j / n <= y < (j + 1) / n:
            hits += 1
    return hits / samples


class TestBuildClosed:
    def test_doubling_four_bins(self, doubling):
        M = hc.build_closed(doubling, UlamPartition(4)).toarray()
        expected = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ])
        assert np.array_equal(M, expected)
        # independent oracle: midpoint sampling of the preimage measure
        for i in range(4):
            for j in range(4):
                assert M[i, j] == pytest.approx(
                    brute_force_entry(doubling, 4, i, j), abs=1e-3)

    def test_identity_matrix(self):
        with pytest.warns(ExpansionWarning):
            ident = hc.PiecewiseMap([Branch(F(0), F(1), F(1), F(0))],
                                    alpha0=F(1, 2), B0=0, label="identity")
        M = hc.build_closed(ident, UlamPartition(7)).toarray()
        assert np.array_equal(M, np.eye(7))

    def test_bundled_map_entry(self, bundled_map):
        M = hc.build_closed(bundled_map, UlamPartition(10))
        assert M.matrix[0, 0] == float(F(10, 91))

    def test_row_stochastic(self, bundled_map):
        M = hc.build_closed(bundled_map, UlamPartition(137))
        assert np.abs(M.row_sums() - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 9])
    def test_fewer_bins_than_branches(self, bundled_map, n):
        # several of the 10 branches share a bin; the assembly is still exact
        M = hc.build_closed(bundled_map, UlamPartition(n)).matrix
        indptr, indices, data = ulam_oracle.closed_csr(bundled_map, n)
        assert M.indptr.tolist() == indptr
        assert M.indices.tolist() == indices
        assert M.data.tolist() == data

    def test_mass_conservation(self, bundled_map):
        M = hc.build_closed(bundled_map, UlamPartition(50))
        rng = np.random.default_rng(7)
        c = rng.random(50)
        c /= c.sum()
        assert (c @ M.matrix).sum() == pytest.approx(1.0, abs=1e-12)

    def test_refinement_aggregation_exact(self, doubling):
        coarse = hc.build_closed(doubling, UlamPartition(4)).toarray()
        fine = hc.build_closed(doubling, UlamPartition(8)).toarray()
        # average paired rows, sum paired columns
        agg = 0.5 * (fine[0::2] + fine[1::2])
        agg = agg[:, 0::2] + agg[:, 1::2]
        assert np.array_equal(agg, coarse)

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=6, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_random_linear_maps_row_stochastic(self, k, n):
        m = hc.full_branch_linear(k)
        M = hc.build_closed(m, UlamPartition(n))
        sums = M.row_sums()
        assert np.abs(sums - 1.0).max() <= 1e-12
        assert M.matrix.min() >= 0.0

    @given(st.lists(st.integers(min_value=1, max_value=9),
                    min_size=2, max_size=5),
           st.integers(min_value=10, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_uneven_rational_partitions_row_stochastic(self, weights, n):
        # random rational partition, each piece mapped onto [0,1)
        total = sum(weights)
        cuts = [F(sum(weights[:i]), total) for i in range(len(weights) + 1)]
        branches = []
        for a, b in zip(cuts, cuts[1:]):
            slope = 1 / (b - a)
            branches.append(Branch(a, b, slope, -a * slope))
        m = hc.PiecewiseMap(branches, alpha0=F(1, 2), B0=0, label="uneven")
        M = hc.build_closed(m, UlamPartition(n))
        assert np.abs(M.row_sums() - 1.0).max() <= 1e-12


def onto_branch(kind, a, b, ya, yb, increasing, c=F(1, 2)):
    """Branch mapping [a, b) onto [ya, yb]; Moebius ones bend by c != 1.

    The Moebius branch is the affine image of t -> t/(t + c(1 - t)) on
    the unit interval, which fixes 0 and 1, composed with t = (x - a)/(b - a).
    """
    base, h = (ya, yb - ya) if increasing else (yb, ya - yb)
    if kind == "linear":
        slope = h / (b - a)
        return Branch(a, b, slope, base - slope * a)
    s = c * (b - a) - (1 - c) * a
    return Branch(a, b, base * (1 - c) + h, base * s - h * a, 1 - c, s)


HUGE = F(11400714819323198485, 2**64 + 13)  # about 0.618, denominator above 2^64
#: the first branch, a decreasing Moebius one, has coefficient denominators above 2^64
HUGE_BRANCHES = [onto_branch("moebius", F(0), F(2, 7), F(0), F(1), False, HUGE),
                 onto_branch("linear", F(2, 7), F(1), F(1, 3), HUGE, True)]
#: at 12 bins, row 2 of this map's rounded entries does not sum to 1.0
ROW_RULE_BRANCHES = [onto_branch("moebius", F(0), F(3, 7), F(0), F(1), True, F(1, 3)),
                     onto_branch("linear", F(3, 7), F(1), F(0), F(1), False)]


@st.composite
def random_branches(draw):
    """1-5 linear/Moebius branches, either orientation, cut off the grid."""
    k = draw(st.integers(min_value=1, max_value=5))
    inner = draw(st.lists(st.fractions(F(1, 997), F(996, 997), max_denominator=997),
                          min_size=k - 1, max_size=k - 1, unique=True))
    cuts = [F(0)] + sorted(inner) + [F(1)]
    branches = []
    for a, b in zip(cuts, cuts[1:]):
        # full images keep most branches expanding; others are narrower
        ends = draw(st.lists(st.fractions(0, 1, max_denominator=13)
                             | st.sampled_from([F(0), F(1), HUGE]),
                             min_size=2, max_size=2, unique=True))
        c = draw(st.sampled_from([F(1, 3), F(3, 2), F(5, 2), HUGE]))
        branches.append(onto_branch(draw(st.sampled_from(["linear", "moebius"])),
                                    a, b, min(ends), max(ends), draw(st.booleans()), c))
    return branches


class TestExactOracle:
    """build_closed against the row-by-row Fraction assembly of ulam_oracle."""

    @given(random_branches(), st.integers(min_value=5, max_value=80))
    @example(HUGE_BRANCHES, 37)
    @example(ROW_RULE_BRANCHES, 12)
    @settings(max_examples=50, deadline=None)
    def test_bit_identical_to_oracle(self, branches, n):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = hc.PiecewiseMap(branches, alpha0=F(1, 2), B0=0, label="random")
        if any(b.r == 0 and abs(b.p / b.s) <= 1 for b in branches):
            assert any(w.category is ExpansionWarning for w in caught)
        M = hc.build_closed(m, UlamPartition(n)).matrix
        indptr, indices, data = ulam_oracle.closed_csr(m, n)
        assert M.indptr.tolist() == indptr
        assert M.indices.tolist() == indices
        assert M.data.tolist() == data
        for i in range(n):
            assert sum(ulam_oracle.row_entries(m, n, i).values()) == 1

    def test_examples_pass_int64_and_renormalize(self):
        b = HUGE_BRANCHES[0]
        assert max(v.denominator for v in (b.p, b.q, b.r, b.s)) > 2**64
        with pytest.warns(ExpansionWarning):   # the Moebius branch is flat near 3/7
            m = hc.PiecewiseMap(ROW_RULE_BRANCHES, alpha0=F(1, 2), B0=0)
        row = ulam_oracle.row_entries(m, 12, 2)
        assert math.fsum(float(v) for v in row.values()) != 1.0


class TestBuildOpen:
    def test_uniform_shift_hole(self, shift10):
        part = UlamPartition(10)
        hole = hc.Hole(F(0), F(1, 10))
        open_m = hc.build_open(shift10, part, hole)
        M = open_m.toarray()
        assert np.array_equal(M[0], np.zeros(10))
        assert np.array_equal(M[1:], np.full((9, 10), 0.1))
        # dominant eigenvalue oracle: dense solve
        w = np.linalg.eigvals(M)
        assert max(abs(w)) == pytest.approx(0.9, abs=1e-12)

    def test_rows_match_closed_outside_hole(self, bundled_map):
        part = UlamPartition(40)
        closed = hc.build_closed(bundled_map, part)
        hole = hc.Hole(F(1, 4), F(3, 10))
        open_m = hc.build_open(bundled_map, part, hole, closed=closed)
        inside = set(hole.bin_range(part))
        C, O = closed.toarray(), open_m.toarray()
        for i in range(40):
            if i in inside:
                assert np.array_equal(O[i], np.zeros(40))
            else:
                assert np.array_equal(O[i], C[i])

    def test_degenerate_hole_rejected(self):
        with pytest.raises(ValueError):
            hc.Hole(F(1, 2), F(1, 2))

    def test_misaligned_hole_rejected(self, bundled_map):
        part = UlamPartition(5000)
        bad = hc.Hole(F(1, 2), F(1, 2) + F(2, 9000))
        with pytest.raises(HoleAlignmentError):
            hc.build_open(bundled_map, part, bad)

    def test_open_mode_metadata(self, shift10):
        part = UlamPartition(10)
        hole = hc.Hole(F(0), F(1, 10))
        open_m = hc.build_open(shift10, part, hole)
        assert open_m.mode == "open"
        assert open_m.hole == hole


class TestPartitionAndHole:
    def test_mesh_exact(self):
        assert UlamPartition(5000).mesh * 5000 == 1

    def test_bin_interval(self):
        assert UlamPartition(4).bin_interval(2) == (F(1, 2), F(3, 4))

    def test_hole_alignment(self):
        part = UlamPartition(10)
        assert hc.Hole(F(1, 5), F(1, 2)).aligned_to(part)
        assert not hc.Hole(F(1, 3), F(1, 2)).aligned_to(part)

    def test_hole_bin_range(self):
        part = UlamPartition(10)
        assert list(hc.Hole(F(1, 5), F(1, 2)).bin_range(part)) == [2, 3, 4]
