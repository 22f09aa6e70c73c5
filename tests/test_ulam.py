import math
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import holecert as hc
import ulam_branchwise
import ulam_oracle
from escape_oracle import build_open
from holecert import spectral, ulam
from holecert.maps import Branch, ExpansionWarning
from holecert.ulam import HoleAlignmentError, _cells, _grid, _groups, _int_dtype


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


def assert_matches_oracle(tmap, n):
    M = hc.build_closed(tmap, n).matrix
    indptr, indices, data = ulam_oracle.closed_csr(tmap, n)
    assert M.indptr.tolist() == indptr
    assert M.indices.tolist() == indices
    assert M.data.tolist() == data


class TestBuildClosed:
    def test_doubling_four_bins(self, doubling):
        M = hc.build_closed(doubling, 4).toarray()
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
        M = hc.build_closed(ident, 7).toarray()
        assert np.array_equal(M, np.eye(7))

    def test_bundled_map_entry(self, bundled_map):
        M = hc.build_closed(bundled_map, 10)
        assert M.matrix[0, 0] == float(F(10, 91))

    def test_row_stochastic(self, bundled_map):
        M = hc.build_closed(bundled_map, 137)
        assert np.abs(M.row_sums() - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n_bins, error", [(0, ValueError), (-3, ValueError),
                                               (2.5, TypeError)])
    def test_bin_count_checked(self, bundled_map, n_bins, error):
        with pytest.raises(error):
            hc.build_closed(bundled_map, n_bins)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 9])
    def test_fewer_bins_than_branches(self, bundled_map, n):
        # several of the 10 branches share a bin; the assembly is still exact
        assert_matches_oracle(bundled_map, n)

    def test_mass_conservation(self, bundled_map):
        M = hc.build_closed(bundled_map, 50)
        rng = np.random.default_rng(7)
        c = rng.random(50)
        c /= c.sum()
        assert (c @ M.matrix).sum() == pytest.approx(1.0, abs=1e-12)

    def test_refinement_aggregation_exact(self, doubling):
        coarse = hc.build_closed(doubling, 4).toarray()
        fine = hc.build_closed(doubling, 8).toarray()
        # average paired rows, sum paired columns
        agg = 0.5 * (fine[0::2] + fine[1::2])
        agg = agg[:, 0::2] + agg[:, 1::2]
        assert np.array_equal(agg, coarse)

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=6, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_random_linear_maps_row_stochastic(self, k, n):
        m = hc.full_branch_linear(k)
        M = hc.build_closed(m, n)
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
        M = hc.build_closed(m, n)
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
#: at 12 bins, the float sum of row 2's rounded entries is not 1.0
ROW_RULE_BRANCHES = [onto_branch("moebius", F(0), F(3, 7), F(0), F(1), True, F(1, 3)),
                     onto_branch("linear", F(3, 7), F(1), F(0), F(1), False)]


@st.composite
def random_branches(draw, cut_den=997, end_den=13, extra=(HUGE,)):
    """1-5 linear/Moebius branches, either orientation, cut off the grid.

    Cuts have denominators up to ``cut_den``, image ends up to ``end_den``;
    ``extra`` values may serve as image ends and bends.
    """
    k = draw(st.integers(min_value=1, max_value=5))
    inner = draw(st.lists(st.fractions(F(1, cut_den), F(cut_den - 1, cut_den),
                                       max_denominator=cut_den),
                          min_size=k - 1, max_size=k - 1, unique=True))
    cuts = [F(0)] + sorted(inner) + [F(1)]
    branches = []
    for a, b in zip(cuts, cuts[1:]):
        # full images keep most branches expanding; others are narrower
        ends = draw(st.lists(st.fractions(0, 1, max_denominator=end_den)
                             | st.sampled_from([F(0), F(1), *extra]),
                             min_size=2, max_size=2, unique=True))
        c = draw(st.sampled_from([F(1, 3), F(3, 2), F(5, 2), *extra]))
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
        assert_matches_oracle(m, n)
        for i in range(n):
            assert sum(ulam_oracle.row_entries(m, n, i).values()) == 1

    def test_examples_pass_int64_and_round_once(self):
        b = HUGE_BRANCHES[0]
        assert max(v.denominator for v in (b.p, b.q, b.r, b.s)) > 2**64
        with pytest.warns(ExpansionWarning):   # the Moebius branch is flat near 3/7
            m = hc.PiecewiseMap(ROW_RULE_BRANCHES, alpha0=F(1, 2), B0=0)
        row = ulam_oracle.row_entries(m, 12, 2)
        rounded = [float(row[j]) for j in sorted(row)]
        assert math.fsum(rounded) != 1.0
        # each entry is its exact value rounded once; the row is not rescaled
        M = hc.build_closed(m, 12).matrix
        assert M.indices[M.indptr[2]:M.indptr[3]].tolist() == sorted(row)
        assert M.data[M.indptr[2]:M.indptr[3]].tolist() == rounded


def cell_dtypes(tmap, n):
    """dtypes of the integer cell arrays that build_closed assembles."""
    branches, dtype = tmap.branches, _int_dtype(tmap.branches, n)
    grids = [_grid(b, n) for b in branches]
    return {_cells(branches, grids, run, n, dtype)[3].dtype for run in _groups(grids)}


def fits_int64(branch, n):
    """The a-priori bound under which a branch's cells are assembled in int64."""
    scale = math.lcm(*(c.denominator for c in (branch.p, branch.q, branch.r, branch.s)))
    coeffs = sum(abs(c * scale) for c in (branch.p, branch.q, branch.r, branch.s))
    big = max(coeffs * n, n + 1, branch.lo.numerator, branch.lo.denominator,
              branch.hi.numerator, branch.hi.denominator)
    return big**2 < 2**53


def split_map(a):
    """Two increasing linear branches onto [0, 1], split at a."""
    return hc.PiecewiseMap([onto_branch("linear", F(0), a, F(0), F(1), True),
                            onto_branch("linear", a, F(1), F(0), F(1), True)],
                           alpha0=F(1, 2), B0=0, label="split")


class TestAssemblyDtype:
    """The int64 and Python-int assemblies against the Fraction oracle.

    One decision per assembly: int64 when every branch fits (``fits_int64``).
    """

    # small coefficients, which keep (nearly) every drawn map on the int64 path
    @given(random_branches(cut_den=29, end_den=7, extra=()),
           st.integers(min_value=1, max_value=80))
    @settings(max_examples=40, deadline=None)
    def test_int64_path_bit_identical(self, branches, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExpansionWarning)
            m = hc.PiecewiseMap(branches, alpha0=F(1, 2), B0=0, label="small")
        assume(all(fits_int64(b, n) for b in m.branches))
        assert cell_dtypes(m, n) == {np.dtype(np.int64)}
        assert_matches_oracle(m, n)

    @pytest.mark.parametrize("n", [3, 10, 77])
    def test_object_path_bit_identical(self, n):
        # the breakpoint denominator 2 * 3^25 puts both branches past 2^53
        m = split_map(F(1, 2) + F(1, 3**25))
        assert cell_dtypes(m, n) == {np.dtype(object)}
        assert_matches_oracle(m, n)

    def test_huge_coefficients_take_object_path(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExpansionWarning)
            m = hc.PiecewiseMap(HUGE_BRANCHES, alpha0=F(1, 2), B0=0, label="huge")
        assert np.dtype(object) in cell_dtypes(m, 5)
        assert_matches_oracle(m, 5)

    @pytest.mark.parametrize("n", [659, 660])
    def test_either_side_of_the_switch(self, n):
        # the second branch, x -> (72001 x - 36001)/36000, leaves int64 at 660 bins
        m = split_map(F(36001, 72001))
        second = m.branches[1]
        assert fits_int64(second, 659) and not fits_int64(second, 660)
        assert fits_int64(m.branches[0], 660)
        # the whole assembly switches with the second branch
        assert cell_dtypes(m, n) == {np.dtype(np.int64 if n == 659 else object)}
        assert_matches_oracle(m, n)

    @pytest.mark.parametrize("name", ["bundled_map", "shift10"])
    def test_real_maps_use_int64_at_100000_bins(self, name, request):
        assert cell_dtypes(request.getfixturevalue(name), 100_000) == {np.dtype(np.int64)}

    @pytest.mark.parametrize("name, n", [("shift10", 100_000), ("bundled_map", 40_000)])
    def test_sampled_rows_match_oracle_at_large_n(self, name, n, request):
        tmap = request.getfixturevalue(name)
        assert cell_dtypes(tmap, n) == {np.dtype(np.int64)}
        ends = {i for b in tmap.branches
                for i in (math.floor(b.lo * n), math.ceil(b.hi * n) - 1)}
        interior = np.random.default_rng(12).integers(0, n, size=40).tolist()
        rows = sorted(ends | set(interior))
        sampled = hc.build_closed(tmap, n).matrix[rows]
        indptr, indices, data = ulam_oracle.rows_csr(tmap, n, rows)
        assert sampled.indptr.tolist() == indptr
        assert sampled.indices.tolist() == indices
        assert sampled.data.tolist() == data

    def test_benchmark_map_uses_int64(self):
        k = 20
        m = hc.PiecewiseMap(
            [Branch(F(0), F(1, k), F(k - 1), F(0), F(-1), F(1))]
            + [Branch(F(i, k), F(i + 1, k), F(k), F(-i)) for i in range(1, k)],
            alpha0=F(1, k - 1), B0=F(2, k - 1), label=f"{k}fold-moebius")
        assert cell_dtypes(m, 1500) == {np.dtype(np.int64)}


def kfold_moebius(k):
    """x -> (k-1)x/(1-x) on [0, 1/k) plus k-1 slope-k branches (the bench map is k = 20)."""
    return hc.PiecewiseMap(
        [Branch(F(0), F(1, k), F(k - 1), F(0), F(-1), F(1))]
        + [Branch(F(i, k), F(i + 1, k), F(k), F(-i)) for i in range(1, k)],
        alpha0=F(1, k - 1), B0=F(2, k - 1), label=f"{k}fold-moebius")


#: a decreasing linear branch, then an increasing Moebius one, meeting at 2/7:
#: off every grid but multiples of 7, so that bin is an end row of both
SHARED_ROW_BRANCHES = [onto_branch("linear", F(0), F(2, 7), F(0), F(1), False),
                       onto_branch("moebius", F(2, 7), F(1), F(0), F(1), True, F(5, 4))]


def assert_matches_branchwise(tmap, n):
    M = hc.build_closed(tmap, n).matrix
    for got, ref in zip((M.indptr, M.indices, M.data), ulam_branchwise.closed_csr(tmap, n)):
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


def runs(tmap, n):
    return list(_groups([_grid(b, n) for b in tmap.branches]))


def cut_branches(tmap, n):
    """The branches that the assembly splits into several runs."""
    widths = [j1 - j0 for j0, j1, _, _ in (_grid(b, n) for b in tmap.branches)]
    return {b for run in runs(tmap, n) for b, ta, tb in run if tb - ta < widths[b]}


class TestGroupedAssembly:
    """Runs of branches in one pass against the branch-by-branch assembly."""

    @pytest.mark.parametrize("label, n", [
        ("kfold20", n) for n in (1, 3, 7, 19, 20, 21, 100, 1500, 1501)
    ] + [
        ("bundled", n) for n in (1, 2, 3, 7, 9, 10, 1000, 4330, 5000, 40_000)
    ] + [
        ("shift10", n) for n in (10, 11, 100, 1000, 2000, 100_000)
    ] + [
        ("decreasing", 20_000),
        # a column repeated in the shared row at x = 1/2, and off-grid shared rows
        ("decreasing", 100_001), ("bundled", 40_001),
    ])
    def test_bit_identical_to_branchwise(self, bundled_map, shift10, decreasing_map, label, n):
        tmap = {"kfold20": kfold_moebius(20), "bundled": bundled_map, "shift10": shift10,
                "decreasing": decreasing_map}[label]
        if label == "decreasing":   # its decreasing branch is cut into runs
            assert 0 in cut_branches(tmap, n)
        assert_matches_branchwise(tmap, n)

    @pytest.mark.parametrize("label, n", [
        ("kfold20", 1500), ("shift10", 2000), ("bundled", 5000), ("shift10", 100_000),
    ])
    def test_group_boundaries_between_branches(self, bundled_map, shift10, label, n):
        # the cases above that split the branches into several passes
        tmap = {"kfold20": kfold_moebius(20), "bundled": bundled_map, "shift10": shift10}[label]
        grids = [_grid(b, n) for b in tmap.branches]
        split, cut = runs(tmap, n), cut_branches(tmap, n)
        assert len(split) > 1 and len(runs(tmap, 100)) == 1
        # every interval once, in domain order
        assert [(b, t) for run in split for b, ta, tb in run for t in range(ta, tb)] == [
            (b, t) for b, g in enumerate(grids) for t in range(g[1] - g[0])]
        # a branch over budget, and only such a branch, is cut into runs of
        # its intervals, each a run of its own
        assert cut == {b for b, (j0, j1, i0, i1) in enumerate(grids)
                       if j1 - j0 + i1 - i0 > ulam._GROUP_CELLS}
        assert all(len(run) == 1 for run in split if cut & {b for b, _, _ in run})

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 37, 100, 1000])
    @pytest.mark.parametrize("budget", [1, 40, ulam._GROUP_CELLS, 2 * ulam._GROUP_CELLS])
    def test_shared_end_rows(self, monkeypatch, n, budget):
        monkeypatch.setattr(ulam, "_GROUP_CELLS", budget)
        m = hc.PiecewiseMap(SHARED_ROW_BRANCHES, alpha0=F(1, 2), B0=0, label="shared")
        assert not m.branches[0].increasing
        if n % 7:
            assert _grid(m.branches[0], n)[3] == _grid(m.branches[1], n)[2]
        # a budget below its cells cuts the decreasing branch into runs
        j0, j1, i0, i1 = _grid(m.branches[0], n)
        assert (0 in cut_branches(m, n)) == (j1 - j0 + i1 - i0 > budget)
        assert_matches_branchwise(m, n)
        if n <= 100:
            assert_matches_oracle(m, n)

    @pytest.mark.parametrize("budget", [1, 100, 3000])
    def test_small_budgets(self, bundled_map, monkeypatch, budget):
        # one branch per pass, or a few, on maps with and without a Moebius branch
        monkeypatch.setattr(ulam, "_GROUP_CELLS", budget)
        for tmap in (bundled_map, kfold_moebius(20), hc.full_branch_linear(7)):
            for n in (13, 200, 1001):
                assert_matches_branchwise(tmap, n)

    def test_peak_memory_below_twice_the_matrix(self, shift10, decreasing_map, bundled_map):
        # the CSR arrays are allocated once and filled run by run, also on
        # meshes with a decreasing branch, a repeated column and off-grid rows
        for tmap, n in ((shift10, 100_000), (decreasing_map, 100_001), (bundled_map, 40_001)):
            tracemalloc.start()
            try:
                M = hc.build_closed(tmap, n).matrix
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * (M.data.nbytes + M.indices.nbytes + M.indptr.nbytes), n

    def test_repeat_build_uses_cached_branch_data(self, monkeypatch):
        m = kfold_moebius(20)
        assert all("_integers" in b.__dict__ for b in m.branches)   # set at construction
        first = hc.build_closed(m, 150).matrix

        def refuse(self, x):
            raise AssertionError("branch evaluated during a repeat build")

        monkeypatch.setattr(Branch, "__call__", refuse)
        again = hc.build_closed(m, 150).matrix
        for a, b in zip((first.indptr, first.indices, first.data),
                        (again.indptr, again.indices, again.data)):
            assert a.tobytes() == b.tobytes()


@st.composite
def translate_maps(draw):
    """``(map, d)``: a map with a run of 2-5 branches of length 1/d and one
    shape, translates (a linear or Moebius branch of either orientation, at
    an integer or a rational slope) or mirrored pairs, between filler
    branches.  The run starts at a rational point, so on most meshes its
    branches end inside bins, share their end rows with their neighbours
    and are assembled each on its own; on a mesh that holds its ends they
    are one family."""
    k = draw(st.integers(min_value=2, max_value=5))
    d = draw(st.integers(min_value=k, max_value=3 * k))
    length = F(1, d)
    start = (1 - k * length) * draw(st.sampled_from([F(0), F(1)])
                                    | st.fractions(0, 1, max_denominator=7))
    ends = sorted(draw(st.lists(st.sampled_from([F(0), F(1), F(1, 3), F(1, 2), F(3, 4)]),
                                min_size=2, max_size=2, unique=True)))
    kind = draw(st.sampled_from(["linear", "moebius"]))
    increasing, mirrored = draw(st.booleans()), draw(st.booleans())
    c = draw(st.sampled_from([F(1, 3), F(5, 2)]))
    branches = []
    if start > 0:
        branches.append(onto_branch("moebius", F(0), start, F(0), F(1), True, F(3, 2)))
    for t in range(k):
        lo = start + t * length
        flipped = mirrored and t % 2 == 1
        branches.append(onto_branch(kind, lo, lo + length, *ends, increasing != flipped, c))
    if start + k * length < 1:
        branches.append(onto_branch("linear", start + k * length, F(1), F(0), F(1), False))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExpansionWarning)
        return hc.PiecewiseMap(branches, alpha0=F(1, 2), B0=0, label="translates"), d


def tent_map():
    return hc.PiecewiseMap([Branch(F(0), F(1, 2), F(2), F(0)), Branch(F(1, 2), F(1), F(-2), F(2))],
                           alpha0=F(1, 2), B0=0, label="tent")


def assert_factors_match(tmap, n):
    """P from the factors is the oracle's matrix (and the branchwise
    assembly's, byte for byte), and the merged classes of its rows are those
    of ``_equal_rows(P)``, array for array."""
    U = hc.build_closed(tmap, n)
    assert_matches_oracle(tmap, n)
    P = U.matrix
    for got, ref in zip((P.indptr, P.indices, P.data), ulam_branchwise.closed_csr(tmap, n)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    B, _, classes = U.lumped
    first, ref_classes, copies = spectral._equal_rows(P)
    assert classes.dtype == ref_classes.dtype and classes.tobytes() == ref_classes.tobytes()
    assert np.unique(classes, return_index=True)[1].tobytes() == first.tobytes()
    assert np.bincount(classes).tobytes() == copies.tobytes()
    ref = P[first]
    for got, want in zip((B.indptr, B.indices, B.data), (ref.indptr, ref.indices, ref.data)):
        assert got.tobytes() == want.tobytes()
    # the rows are ordered by the first bin that has each
    seen = np.maximum.accumulate(U.row_of) if U.row_of is not None else np.arange(n)
    assert np.array_equal(np.unique(seen), np.arange(U.rows.shape[0]))
    return U


def assembled_rows(monkeypatch, tmap, n):
    """The rows that build_closed computes cells for."""
    rows = set()
    cells = ulam._cells

    def counting(*args):
        out = cells(*args)
        for f, c in zip(out[0].tolist(), out[1].tolist()):
            rows.update(range(f, f + c))
        return out

    monkeypatch.setattr(ulam, "_cells", counting)
    hc.build_closed(tmap, n)
    return rows


class TestTranslateFamilies:
    """The assembly of one branch per family of translates, against the
    exact oracle and the equal-row classes of the full matrix."""

    @given(translate_maps(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_translates(self, drawn, data):
        # any mesh, or a multiple of d bins, on which the run is one family
        # of translates (or two, of mirrored branches) when it starts on the grid
        tmap, d = drawn
        n = data.draw(st.integers(min_value=1, max_value=120)
                      | st.integers(min_value=1, max_value=120 // d).map(lambda t: t * d))
        assert_factors_match(tmap, n)

    @given(translate_maps(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_random_translates_on_their_grid(self, drawn, multiple):
        # a mesh of the breakpoints' common denominator: no row is shared
        tmap, _ = drawn
        n = multiple * math.lcm(*(b.lo.denominator for b in tmap.branches))
        assume(n <= 400)
        assert_factors_match(tmap, n)

    @pytest.mark.parametrize("label, n", [
        (label, n) for label in ("bundled", "kfold20", "shift10", "tent", "decreasing")
        for n in (1, 7, 20, 21, 100, 150, 1000, 1001, 1500)
    ] + [
        # meshes on which some translates end inside a bin, so that only
        # those with both ends on the grid form families
        ("kfold20", 1510), ("shift10", 15), ("shift10", 1005),
    ])
    def test_named_maps(self, bundled_map, shift10, decreasing_map, label, n):
        tmap = {"bundled": bundled_map, "kfold20": kfold_moebius(20), "shift10": shift10,
                "tent": tent_map(), "decreasing": decreasing_map}[label]
        assert_factors_match(tmap, n)

    @pytest.mark.parametrize("label, n, distinct", [("kfold20", 1500, 150),
                                                    ("shift10", 1000, 100)])
    def test_cells_only_for_distinct_rows(self, monkeypatch, shift10, label, n, distinct):
        # the bench map's 19 linear branches are one family, as are 10x mod 1's
        tmap = {"kfold20": kfold_moebius(20), "shift10": shift10}[label]
        assert len(assembled_rows(monkeypatch, tmap, n)) == distinct
        assert hc.build_closed(tmap, n).rows.shape == (distinct, n)

    @pytest.mark.parametrize("n", [8, 12, 37, 40])
    def test_object_path_translates(self, n):
        # three translates whose coefficient denominators pass 2^64, so the
        # family is assembled in Python integers; on 12 bins their ends
        # fall inside bins, which they share with their neighbours
        ends = [F(1, 8) + F(i, 4) for i in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExpansionWarning)
            m = hc.PiecewiseMap(
                [onto_branch("linear", F(0), ends[0], F(0), F(1), True)]
                + [onto_branch("moebius", a, b, F(0), F(1), True, HUGE)
                   for a, b in zip(ends, ends[1:])]
                + [onto_branch("linear", ends[-1], F(1), F(0), F(1), False)],
                alpha0=F(1, 2), B0=0, label="huge-translates")
        assert cell_dtypes(m, n) == {np.dtype(object)}
        assert_factors_match(m, n)

    def test_hand_built_matrix_is_its_own_factor(self):
        import scipy.sparse as sp

        P = sp.csr_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        U = ulam.UlamMatrix(2, P, "hand")
        assert U.matrix is P and U.row_of is None
        B, quotient, classes = U.lumped
        assert B.shape == (1, 2) and quotient.toarray().tolist() == [[1.0]]
        assert classes.tolist() == [0, 0]
        assert U.lumped[1] is quotient     # found once and kept


class TestBuildOpen:
    def test_uniform_shift_hole(self, shift10):
        hole = hc.Hole(F(0), F(1, 10))
        M = build_open(shift10, 10, hole).toarray()
        assert np.array_equal(M[0], np.zeros(10))
        assert np.array_equal(M[1:], np.full((9, 10), 0.1))
        # dominant eigenvalue oracle: dense solve
        w = np.linalg.eigvals(M)
        assert max(abs(w)) == pytest.approx(0.9, abs=1e-12)

    def test_rows_match_closed_outside_hole(self, bundled_map):
        closed = hc.build_closed(bundled_map, 40)
        hole = hc.Hole(F(1, 4), F(3, 10))
        open_m = build_open(bundled_map, 40, hole, closed=closed)
        inside = set(hole.bin_range(40))
        C, O = closed.toarray(), open_m.toarray()
        for i in range(40):
            if i in inside:
                assert np.array_equal(O[i], np.zeros(40))
            else:
                assert np.array_equal(O[i], C[i])

    @pytest.mark.parametrize("label, n_bins", [("shift10", 10), ("shift10", 100), ("bundled", 40),
                                               ("bundled", 1000)])
    @pytest.mark.parametrize("where", ["first", "last", "all"])
    def test_rows_dropped_from_csr(self, bundled_map, shift10, label, n_bins, where):
        # the closed matrix with the hole's rows emptied, indices sorted
        tmap = {"shift10": shift10, "bundled": bundled_map}[label]
        closed = hc.build_closed(tmap, n_bins).matrix
        a, b = {"first": (0, 3), "last": (n_bins - 3, n_bins), "all": (0, n_bins)}[where]
        open_m = build_open(tmap, n_bins, hc.Hole(F(a, n_bins), F(b, n_bins)))
        expected = closed.toarray()
        expected[a:b] = 0.0
        assert np.array_equal(open_m.toarray(), expected)
        assert open_m.has_sorted_indices
        assert open_m.nnz == closed.nnz - (closed.indptr[b] - closed.indptr[a])
        assert open_m.indptr.dtype == closed.indptr.dtype
        assert open_m.indices.dtype == closed.indices.dtype
        if where == "all":
            assert open_m.nnz == 0

    def test_degenerate_hole_rejected(self):
        with pytest.raises(ValueError):
            hc.Hole(F(1, 2), F(1, 2))

    def test_misaligned_hole_rejected(self, bundled_map):
        bad = hc.Hole(F(1, 2), F(1, 2) + F(2, 9000))
        with pytest.raises(HoleAlignmentError):
            build_open(bundled_map, 5000, bad)


class TestPartitionAndHole:
    def test_bin_interval(self):
        # bin 2 of 4 is [1/2, 3/4)
        assert hc.Hole(F(1, 2), F(3, 4)).bin_range(4) == range(2, 3)

    def test_hole_alignment(self):
        assert hc.Hole(F(1, 5), F(1, 2)).aligned_to(10)
        assert not hc.Hole(F(1, 3), F(1, 2)).aligned_to(10)

    def test_hole_bin_range(self):
        assert list(hc.Hole(F(1, 5), F(1, 2)).bin_range(10)) == [2, 3, 4]
