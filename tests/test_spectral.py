import dataclasses
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, event, given, settings, strategies as st, target

import holecert as hc
import norm_oracle
from escape_oracle import build_open
import spectral_oracle
from holecert import spectral
from holecert.maps import Branch
from holecert.spectral import (
    N_POWERS,
    InvariantDensityError,
    NeumannDivergenceError,
    NoUnitEigenvalueError,
    PowerIterationError,
    SpectralStructureError,
    _BLOCK,
    _equal_rows,
    _q_power_norms,
    compute_record,
    dominant_left_eigenpair,
    h_star,
    neumann_bound,
)
from holecert.ulam import UlamMatrix


def hand_matrix(entries):
    arr = np.asarray(entries, dtype=float)
    return UlamMatrix(arr.shape[0], sp.csr_matrix(arr), "test")


def factors(P):
    """``(B, quotient, classes)`` of a CSR matrix P, taken as the trivial
    factorisation."""
    return UlamMatrix(P.shape[0], sp.csr_matrix(P), "test").lumped


def factored_norms(P, u):
    """:func:`_q_power_norms` of P's factors."""
    return norms_of(factors(P), u)


def norms_of(lumped, u):
    """:func:`_q_power_norms` of factors ``(B, quotient, classes)`` at u."""
    return _q_power_norms(*lumped, u)


@pytest.fixture(scope="module")
def doubling2(doubling):
    return hc.build_closed(doubling, 2)


@pytest.fixture(scope="module")
def shift10_10(shift10):
    return hc.build_closed(shift10, 10)


def max_row_sum(M):
    """Induced L1 norm of x -> x @ M, densely."""
    return float(np.abs(M).sum(axis=1).max())


class TestOperatorNorm:
    """Row-family norms are induced norms of the density action x -> x @ M."""

    def test_identity(self):
        # entry 0 is ||1 - Pi1|| with u uniform: 4/5 + 4 * 1/5
        rec = compute_record(hand_matrix(np.eye(5)))
        assert rec.q_power_norms[0] == pytest.approx(1.6, abs=1e-15)
        assert rec.q_power_norms[1] == pytest.approx(1.6, abs=1e-15)

    def test_stochastic(self):
        rec = compute_record(hand_matrix([[0.5, 0.5], [0.5, 0.5]]))
        assert rec.q_power_norms[0] == 1.0
        assert rec.q_power_norms[1:] == (0.0,) * N_POWERS

    def test_identity_minus_uniform(self):
        rec = compute_record(hand_matrix(np.full((10, 10), 0.1)))
        assert rec.q_power_norms[0] == pytest.approx(
            max_row_sum(np.eye(10) - np.full((10, 10), 0.1)), abs=1e-15)

    def test_sparse_input(self):
        P = np.array([[0.5, 0.5], [0.25, 0.75]])
        rec = compute_record(hand_matrix(P))
        Q = P - np.outer(np.ones(2), rec.mass_vector @ P)
        assert rec.q_power_norms[1] == pytest.approx(max_row_sum(Q), abs=1e-15)


class TestPowerIteration:
    def test_uniform_matrix(self, shift10_10):
        lam, x, (lower, upper), _ = dominant_left_eigenpair(shift10_10.matrix)
        assert lam == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(x, 0.1, atol=1e-14)
        assert lower == pytest.approx(1.0, abs=1e-15) and upper - lower <= 1e-12 * upper

    def test_substochastic(self, shift10):
        open_m = build_open(shift10, 10, hc.Hole(F(0), F(1, 10)))
        lam, x, (lower, upper), _ = dominant_left_eigenpair(open_m)
        assert lam == pytest.approx(0.9, abs=1e-12)
        assert lower == pytest.approx(0.9, abs=1e-15) and upper - lower <= 1e-12 * upper

    def test_zero_matrix(self):
        lam, x, bracket, it = dominant_left_eigenpair(sp.csr_matrix((3, 3)))
        assert (lam, bracket, it) == (0.0, (0.0, 0.0), 1)
        assert not x.any()

    @pytest.mark.parametrize("masked", [False, True])
    def test_step_count_is_an_int(self, shift10_10, masked):
        # perfbench/tracing.py adds result[3] into its iteration counters.
        # A rank-one stochastic matrix maps the uniform vector to itself, and
        # the second step is the first on which the mass ratio has settled.
        keep = np.ones(10) if masked else None
        result = dominant_left_eigenpair(shift10_10, keep=keep)
        assert type(result[3]) is int and result[3] == 2

    def test_bracket_that_never_narrows(self, shift10_10, cap_power_steps):
        # the first step has no settled mass ratio to test the bracket on
        cap_power_steps(1)
        with pytest.raises(PowerIterationError, match="did not narrow .* in 1 steps"):
            dominant_left_eigenpair(shift10_10)

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(1, 40),
           st.sampled_from(["closed", "open", "zero", "hole"]))
    @settings(max_examples=40, deadline=None)
    def test_matches_row_vector_loop(self, seed, n, kind):
        # the transposed-CSR iteration against an x @ P loop
        rng = np.random.default_rng(seed)
        A = rng.random((n, n)) * (rng.random((n, n)) < 0.4) + 1e-3
        A /= A.sum(axis=1, keepdims=True)
        if kind == "open":
            lo = int(rng.integers(0, n))
            A[lo:int(rng.integers(lo, n)) + 1] = 0.0
        elif kind == "zero":
            A[:] = 0.0
        P = sp.csr_matrix(A)
        if kind == "hole":
            lo = int(rng.integers(0, 10 * n))
            P = build_open(hc.full_branch_linear(10), 10 * n,
                           hc.Hole(F(lo, 10 * n), F(lo + 1, 10 * n)))
        lam, x, bracket, it = dominant_left_eigenpair(P)
        ref_lam, ref_x, ref_bracket, ref_it = _row_vector_power_iteration(P)
        assert (lam, bracket, it) == (ref_lam, ref_bracket, ref_it)
        assert x.tobytes() == ref_x.tobytes()

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(2, 30),
           st.sampled_from(["irreducible", "feeder", "unfed", "hole rows"]))
    @settings(max_examples=40, deadline=None)
    def test_bracket_encloses_spectral_radius(self, seed, n, kind):
        # against a dense eigensolve, also where the iterate has zero
        # entries: bins that nothing maps into, or a class that feeds the
        # dominant one, is at most half as fast and whose mass underflows.
        # Each block is positive, so no class decays at nearly the rate of
        # the dominant one, which would stall the iteration.
        rng = np.random.default_rng(seed)
        A = rng.random((n, n)) + 0.01
        k = int(rng.integers(1, n))
        if kind == "feeder":
            A[:k, k:] = 0.0             # bins k.. feed bins 0..k-1, which keep their mass
            A /= A.sum(axis=1, keepdims=True)
            A[k:] *= 0.5
        elif kind == "unfed":
            A[:, :k] = 0.0              # nothing enters bins 0..k-1
        elif kind == "hole rows":
            A[:k] = 0.0
        lam, x, (lower, upper), _ = dominant_left_eigenpair(sp.csr_matrix(A))
        rho = float(np.abs(np.linalg.eigvals(A)).max())
        assert lower * (1 - 1e-12) - 1e-14 <= rho <= upper * (1 + 1e-12) + 1e-14
        assert upper - lower <= 1e-12 * upper
        assert x.min() >= 0.0


def _row_vector_power_iteration(P):
    """The power iteration with ``x @ P`` on every step."""
    n = P.shape[0]
    x = np.full(n, 1.0 / n)
    previous = math.inf
    for it in range(1, 10**6 + 1):
        y = x @ P
        value = float(y.sum())
        if value == 0.0:
            return 0.0, y, (0.0, 0.0), it
        if abs(value - previous) <= 1e-12 * value:
            ratios = y[x > 0] / x[x > 0]
            bracket = float(ratios.min()), float(ratios.max())
            if bracket[1] - bracket[0] <= 1e-12 * bracket[1]:
                return value, y / value, bracket, it
        previous = value
        x = y / value


class TestEigenAnalysis:
    def test_rank_one_doubling(self, doubling2):
        data = compute_record(doubling2)
        assert len(data.eigenvalues) == 1
        assert data.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert data.spectral_radius_bound <= 0.5
        # Q = P - Pi1 vanishes for the rank-one stochastic matrix
        assert data.q_power_norms[0] == pytest.approx(1.0, abs=1e-14)
        assert max(data.q_power_norms[1:]) <= 1e-14
        assert data.projection_norm == pytest.approx(1.0, abs=1e-14)

    def test_uniform_shift_spectrum(self, shift10_10):
        data = compute_record(shift10_10)
        assert len(data.eigenvalues) == 1
        assert data.spectral_radius_bound <= 1e-12
        # ||1 - Pi1|| = max row sum of I - uniform = 1.8
        assert data.q_power_norms[0] == pytest.approx(1.8, abs=1e-14)
        assert data.q_power_norms_colsum[0] == 1.0
        assert max(data.q_power_norms[1:]) <= 1e-13

    def test_invariant_density_normalization(self, bundled_map):
        M = hc.build_closed(bundled_map, 100)
        data = compute_record(M)
        density = data.invariant_density
        assert density.min() >= 0.0
        assert density.sum() / 100 == pytest.approx(1.0, abs=1e-13)

    def test_record_keeps_no_transpose(self, bundled_map):
        # the record's power iteration transposes for the call only; a
        # closed matrix keeps a transpose once an escape estimate asks
        M = hc.build_closed(bundled_map, 100)
        compute_record(M)
        assert "transposed" not in vars(M)

    def test_requires_closed_mode(self, shift10):
        # a sub-stochastic matrix wrapped by hand has no unit eigenvalue
        open_m = build_open(shift10, 10, hc.Hole(F(0), F(1, 10)))
        with pytest.raises(NoUnitEigenvalueError):
            compute_record(UlamMatrix(10, open_m, shift10.fingerprint))

    def test_no_unit_eigenvalue(self):
        M = hand_matrix([[0.5, 0.4], [0.4, 0.5]])
        with pytest.raises(NoUnitEigenvalueError):
            compute_record(M)

    @pytest.mark.parametrize("bracket, mass, error, match", [
        ((1.0 + 2.0**-50,) * 2, [0.5, 0.5], NoUnitEigenvalueError, "excludes 1"),
        ((1.0, 1.0), [1.0 + 1e-9, -1e-9], InvariantDensityError, "negative entry"),
    ], ids=["bracket-excludes-1", "negative-mass"])
    def test_invariant_density_checks(self, monkeypatch, bracket, mass, error, match):
        # a power iteration of the quotient (here P itself, whose two rows
        # differ) that hands back a bracket 8 * 2^-53 above 1, past its
        # rounding bound 2 * 2^-53 for one entry per column, or a negative mass
        monkeypatch.setattr("holecert.spectral.dominant_left_eigenpair",
                            lambda P: (1.0, np.array(mass), bracket, 1))
        with pytest.raises(error, match=match):
            compute_record(hand_matrix([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("n_bins", [10, 100, 1000, 100_000])
    def test_unit_bracket_of_shift10(self, shift10, n_bins):
        # the bracket can stop ulps above 1 (at 1000 bins, [1 + 2^-51,
        # 1 + 2^-51]), which only its rounding bound 11 * 2^-53 brings back
        lam, u, (lower, upper), _ = spectral.invariant_density(hc.build_closed(shift10, n_bins))
        assert lower * (1 - 11 * 2.0**-53) <= 1.0 <= upper * (1 + 11 * 2.0**-53)
        assert u.min() >= 0.0 and abs(u.sum() - 1.0) <= 1e-12
        if n_bins <= 1000:
            assert compute_record(hc.build_closed(shift10, n_bins)).eigenvalues == (lam,)

    def test_submultiplicativity_of_stored_norms(self, bundled_map):
        M = hc.build_closed(bundled_map, 60)
        data = compute_record(M)
        for norms in (data.q_power_norms, data.q_power_norms_colsum):
            for i in range(1, len(norms)):
                for j in range(1, len(norms) - i):
                    assert norms[i + j] <= norms[i] * norms[j] + 1e-10

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_stochastic_has_unit_eigenvalue(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.random((12, 12)) + 0.05
        A /= A.sum(axis=1, keepdims=True)
        data = compute_record(hand_matrix(A))
        assert data.spectral_radius_bound <= 0.95
        assert any(abs(z - 1) <= 1e-8 for z in data.eigenvalues)


def _assert_bound_covers_eigvals(matrix):
    """Every eigenvalue but the one nearest 1 lies in the bound's disc."""
    bound = compute_record(matrix).spectral_radius_bound
    w = np.linalg.eigvals(matrix.toarray())
    others = np.delete(w, np.argmin(np.abs(w - 1.0)))
    assert np.abs(others).max() <= bound + 1e-9
    return bound, others


class TestSpectralRadiusBound:
    """The power-norm gate against the dense eigensolver it replaces."""

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.random((12, 12)) * (rng.random((12, 12)) < 0.5) + 1e-3
        A /= A.sum(axis=1, keepdims=True)
        _assert_bound_covers_eigvals(hand_matrix(A))

    @pytest.mark.parametrize("n_bins", [60, 100])
    def test_bundled_map(self, bundled_map, n_bins):
        _assert_bound_covers_eigvals(hc.build_closed(bundled_map, n_bins))

    def test_full_branch_linear(self):
        _assert_bound_covers_eigvals(
            hc.build_closed(hc.full_branch_linear(3), 120))

    def test_nearly_decoupled(self, decoupled_blocks):
        bound, others = _assert_bound_covers_eigvals(decoupled_blocks)
        # the lumped two-state chain has eigenvalue 1 - 2 * leak = 0.97
        assert np.abs(others - 0.97).min() <= 1e-12
        assert bound >= 0.97 - 1e-12

    @pytest.mark.parametrize("entries", [
        [[0.99, 0.01], [0.01, 0.99]],
        [[0.95, 0.05], [0.05, 0.95]],
        np.eye(4),
    ])
    def test_hand_matrices(self, entries):
        _assert_bound_covers_eigvals(hand_matrix(entries))

    @pytest.mark.parametrize("row, col", [
        ((1.8, 0.9, 0.5, 0.3, 0.2, 0.1, 0.05), (1.0, 0.7, 0.6, 0.35, 0.15, 0.2, 0.01)),
        ((1.5, 0.97, 0.95, 0.93, 0.91, 0.9, 0.89), (1.0, 0.99, 0.98, 0.97, 0.96, 0.95, 0.94)),
        ((1.8, 0.9, 0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 0.9, 1e-17, 0.0, 0.0, 0.0, 0.0)),
    ])
    def test_is_the_libm_root_formula(self, doubling2, row, col):
        # exactly the least of math.pow(||Q^k||, 1/k) over k >= 1 and both families
        record = dataclasses.replace(compute_record(doubling2), q_power_norms=row,
                                     q_power_norms_colsum=col)
        expected = min(math.pow(norm, 1.0 / k)
                       for family in (row, col) for k, norm in enumerate(family[1:], 1))
        assert record.spectral_radius_bound == expected

    @pytest.mark.parametrize("family", ["q_power_norms", "q_power_norms_colsum"])
    def test_nan_norm_propagates(self, doubling2, family):
        record = compute_record(doubling2)
        norms = getattr(record, family)
        record = dataclasses.replace(record, **{family: norms[:-1] + (math.nan,)})
        assert math.isnan(record.spectral_radius_bound)

    @pytest.mark.parametrize("label, n_bins", [
        ("bundled", 1000), ("kfold20", 1500), ("shift10", 1000),
    ])
    def test_within_4_ulp_of_numpy_roots(self, bundled_map, label, n_bins):
        # numpy's SIMD power and libm's pow may differ in the last bits
        tmap = {"bundled": bundled_map, "kfold20": kfold_moebius(20),
                "shift10": hc.full_branch_linear(10)}[label]
        record = compute_record(hc.build_closed(tmap, n_bins))
        k = np.arange(1, len(record.q_power_norms))
        simd = float(np.min(np.concatenate(
            [np.asarray(norms[1:]) ** (1.0 / k)
             for norms in (record.q_power_norms, record.q_power_norms_colsum)])))
        assert abs(record.spectral_radius_bound - simd) <= 4 * math.ulp(simd)


def kfold_moebius(k):
    """x -> (k-1)x/(1-x) on [0, 1/k) plus k-1 slope-k branches (k = 10 is bundled)."""
    branches = [Branch(F(0), F(1, k), k - 1, 0, -1, 1)]
    branches += [Branch(F(i, k), F(i + 1, k), k, -i) for i in range(1, k)]
    return hc.PiecewiseMap(branches, alpha0=F(1, k - 1), B0=F(2, k - 1), label=f"{k}fold")


def random_stochastic(seed, n, density):
    """n x n row-stochastic matrix; every row keeps at least one nonzero."""
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)) * (rng.random((n, n)) < density)
    A[np.arange(n), rng.integers(0, n, n)] += rng.random(n) + 1e-3
    return A / A.sum(axis=1, keepdims=True)


def _assert_norms_match(P, u, expected, atol):
    P = sp.csr_matrix(P)
    got = factored_norms(P, u)
    # the deviations used to be formed over all bins, not in the quotient
    previous = spectral_oracle.quotient_q_power_norms(P, u, N_POWERS, _BLOCK)
    for family, reference, before in zip(got, expected, previous):
        assert len(family) == N_POWERS + 1
        assert all(math.isfinite(v) and v >= 0.0 for v in family)
        assert max(abs(a - float(b)) for a, b in zip(family, reference)) <= atol
        assert max(abs(a - b) for a, b in zip(family, before)) <= 1e-13


class TestQPowerNorms:
    """The sparse k = 1 norms and fused column blocks against the row-block
    code and exact Fractions.

    Tolerances are absolute: for 10x mod 1, Q^k = 0 for k >= 4 at every
    mesh, and the computed values there are roundoff.
    """

    @pytest.mark.parametrize("label, n_bins", [
        ("bundled", 1000), ("bundled", 200), ("bundled", 700), ("kfold20", 300),
        ("shift3", 90), ("shift10", 10), ("shift10", 1000),
    ] + [(label, n_bins) for label in ("bundled", "kfold20")
         for n_bins in (1, 63, 64, 65, 129)] + [
        ("bundled", 320), ("bundled", 640), ("kfold20", 640), ("kfold20", 660),
        ("kfold20", 1500),
    ])
    def test_matches_row_block_code(self, bundled_map, label, n_bins):
        # blocks of 64 run over the distinct rows of P: 63 and 129 bins have
        # that many, the next four cases 64, 128, 64 and 66 (rows repeat);
        # kfold20 at 1500 bins is the benchmark's matrix (150 distinct rows)
        tmap = {"bundled": bundled_map, "kfold20": kfold_moebius(20),
                "shift3": hc.full_branch_linear(3),
                "shift10": hc.full_branch_linear(10)}[label]
        M = hc.build_closed(tmap, n_bins)
        P, u = M.matrix, compute_record(M).mass_vector
        _assert_norms_match(P, u, spectral_oracle.q_power_norms(P, u, N_POWERS), 1e-12)
        if n_bins == 1:
            # P = [[1]], so Q = 0 and only the column family's head is 1
            assert P.toarray().tolist() == [[1.0]]
            row_norms, col_norms = factored_norms(P, u)
            assert row_norms == [0.0] * (N_POWERS + 1)
            assert col_norms == [1.0] + [0.0] * N_POWERS

    @pytest.mark.parametrize("label, n_bins", [
        ("bundled", 5000), ("shift10", 1000), ("kfold20", 1500), ("decreasing", 1001),
        ("shared", 100),
    ])
    def test_bit_identical_to_csr_sums(self, bundled_map, decreasing_map, label, n_bins):
        # the k = 1 sums taken from the nonzeros and the blocks seeded from
        # M's rows change no bit against the CSR matrices they replace; the
        # "shared" map's branches meet inside a bin, so one row has both
        shared = hc.PiecewiseMap([Branch(F(0), F(2, 7), F(-7, 2), F(1)),
                                  Branch(F(2, 7), F(1), F(7, 5), F(-2, 5))],
                                 alpha0=F(5, 7), B0=0, label="shared")
        tmap = {"bundled": bundled_map, "shift10": hc.full_branch_linear(10),
                "kfold20": kfold_moebius(20), "decreasing": decreasing_map,
                "shared": shared}[label]
        M = hc.build_closed(tmap, n_bins)
        P, u = M.matrix, compute_record(M).mass_vector
        assert norms_of(M.lumped, u) == spectral_oracle.excess_q_power_norms(
            P, u, N_POWERS, _BLOCK)

    @pytest.mark.parametrize("n_bins", [600, 1500])
    def test_memory_stays_in_column_blocks(self, n_bins):
        # no global P^2: a few dense n x _BLOCK blocks plus O(nnz(P)) arrays
        M = hc.build_closed(kfold_moebius(20), n_bins)
        P, u = M.matrix, compute_record(M).mass_vector
        tracemalloc.start()
        try:
            factored_norms(P, u)    # the classes of all n rows, the quotient and the norms
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_bins * _BLOCK * 8 + 64 * P.nnz

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(1, 300),
           st.sampled_from([1.0, 0.3, 0.02]), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_random_stochastic_matches_row_block_code(self, seed, n, density, repeat):
        P = random_stochastic(seed, n, density)
        if repeat:
            # rows drawn with replacement: many equal rows, still stochastic
            P = P[np.random.default_rng(seed + 2).integers(0, n, n)]
        u = np.random.default_rng(seed + 1).random(n)
        u /= u.sum()
        _assert_norms_match(P, u, spectral_oracle.q_power_norms(sp.csr_matrix(P), u, N_POWERS),
                            1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 65, 200, 1500])
    def test_equal_rows_cancel(self, n):
        # every row equal (m = 1): P = 1 r, u P^k = (sum u) s^(k-1) r with s
        # the sum of r, so Q^k = 0 for k >= 2 once u sums to 1 in floats.
        # Dyadic u sums to exactly 1 in any order; r is rounded.
        rng = np.random.default_rng(n)
        r = np.zeros(n)
        r[rng.choice(n, min(n, 40), replace=False)] = rng.random(min(n, 40)) + 0.01
        P = sp.csr_matrix(np.tile(r / r.sum(), (n, 1)))
        u = rng.multinomial(2**40, np.full(n, 1.0 / n)) / 2.0**40
        assert u.sum() == 1.0 and np.add.accumulate(u)[-1] == 1.0
        for norms in factored_norms(P, u):
            assert all(0.0 <= v <= 1e-15 for v in norms[2:])
        _assert_norms_match(P, u, spectral_oracle.quotient_q_power_norms(P, u, N_POWERS), 1e-15)

    def test_zero_powers_clamped(self, shift10_10):
        # P = 1 u exactly, so Q = 0 and the sparse k = 1 formula cancels to roundoff
        record = compute_record(shift10_10)
        for norms in (record.q_power_norms, record.q_power_norms_colsum):
            assert all(0.0 <= v <= 1e-15 for v in norms[1:])
        assert 0.0 <= record.spectral_radius_bound <= 1e-5
        P, u = shift10_10.matrix, record.mass_vector
        _assert_norms_match(P, u, spectral_oracle.quotient_q_power_norms(P, u, N_POWERS), 1e-15)

    @pytest.mark.parametrize("label, n_bins", [
        ("bundled", 20), ("bundled", 40), ("doubling", 2), ("doubling", 16),
        ("shift10", 10), ("shift10", 20),
    ])
    def test_exact_oracle(self, bundled_map, doubling, shift10, label, n_bins):
        tmap = {"bundled": bundled_map, "doubling": doubling, "shift10": shift10}[label]
        M = hc.build_closed(tmap, n_bins)
        u = compute_record(M).mass_vector
        exact = norm_oracle.q_power_norms(M.toarray().tolist(), u.tolist(), N_POWERS)
        _assert_norms_match(M.matrix, u, exact, 1e-13)

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([1.0, 0.3]))
    @settings(max_examples=15, deadline=None)
    def test_random_stochastic_exact_oracle(self, seed, density):
        P = random_stochastic(seed, 12, density)
        u = np.random.default_rng(seed + 1).random(12)
        u /= u.sum()
        exact = norm_oracle.q_power_norms(P.tolist(), u.tolist(), N_POWERS)
        _assert_norms_match(P, u, exact, 1e-13)


def _byte_key_classes(P):
    """Equal-row classes from one byte key per row, the loop _equal_rows
    replaced, with the classes relabelled in the order of their first rows."""
    keys = [P.indices[lo:hi].tobytes() + P.data[lo:hi].tobytes()
            for lo, hi in zip(P.indptr[:-1], P.indptr[1:])]
    _, first, classes = np.unique(np.array(keys, dtype=object), return_index=True,
                                  return_inverse=True)
    return np.unique(first[classes], return_inverse=True, return_counts=True)


def _csr_rows(rows):
    """4-column CSR matrix from rows given as lists of (column, value) pairs."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([j for row in rows for j, _ in row], dtype=np.int32)
    data = np.array([x for row in rows for _, x in row], dtype=float)
    return sp.csr_matrix((data, indices, indptr), shape=(len(rows), 4))


class TestEqualRows:
    """Sorted equal-row classes against the byte-key loop, bit for bit."""

    @staticmethod
    def matrix(label, bundled_map):
        if label == "all-equal":
            return sp.csr_matrix(np.tile(random_stochastic(5, 300, 0.1)[0], (300, 1)))
        if label == "all-distinct":
            return sp.csr_matrix(random_stochastic(6, 300, 0.1))
        tmap, n = {"kfold20": (kfold_moebius(20), 1500), "bundled": (bundled_map, 5000),
                   "shift10": (hc.full_branch_linear(10), 10_000)}[label]
        return hc.build_closed(tmap, n).matrix

    @pytest.mark.parametrize("label", ["kfold20", "bundled", "shift10", "all-equal",
                                       "all-distinct"])
    def test_matches_byte_keys(self, bundled_map, monkeypatch, label):
        P = self.matrix(label, bundled_map)
        got, ref = _equal_rows(P), _byte_key_classes(P)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert len(got[0]) == {"all-equal": 1, "all-distinct": 300}.get(label, len(got[0]))
        u = np.full(P.shape[0], 1.0 / P.shape[0])
        norms = factored_norms(P, u)
        monkeypatch.setattr(spectral, "_equal_rows", _byte_key_classes)
        assert factored_norms(P, u) == norms

    @pytest.mark.parametrize("rows, n_classes", [
        ([[(0, 0.5), (1, 0.5)], [(0, 0.5), (1, np.nextafter(0.5, 1.0))],
          [(0, 0.5), (1, 0.5)]], 2),
        ([[(0, 0.5), (1, 0.5)], [(0, 0.5), (2, 0.5)], [(1, 0.5), (2, 0.5)],
          [(0, 0.5), (2, 0.5)]], 3),
        ([[(0, 0.5)], [(0, 0.5), (1, 0.5)], [(0, 0.5), (1, 0.5), (2, 0.5)], [(0, 0.5)]], 3),
        ([[], [(0, 1.0)], [], [], [(0, 1.0)], []], 2),
    ], ids=["one-ulp-apart", "same-data-other-columns", "shared-prefix", "empty-rows"])
    def test_near_equal_rows_kept_apart(self, rows, n_classes):
        P = _csr_rows(rows)
        first, classes, copies = _equal_rows(P)
        assert (P[first][classes] != P).nnz == 0
        assert len(first) == n_classes and copies.sum() == P.shape[0]
        for a, b in zip((first, classes, copies), _byte_key_classes(P)):
            assert a.tobytes() == b.tobytes()


class TestFactoredRecord:
    """The record from the factors P = A B against the record computed from
    P itself (``spectral_oracle``): power iteration on P and the norms with
    the classes found over all of P's rows and w = u P."""

    @pytest.mark.parametrize("label, n_bins, u_rtol", [
        ("kfold20", 1500, 1e-13), ("bundled", 5000, 1e-13), ("bundled", 1000, 1e-13),
        ("shift10", 1000, 1e-13), ("tent", 1000, 1e-13),
        # the slowest to converge (40 steps): both iterates stop at a bracket
        # of relative width 1e-12 and still differ by 3.3e-13
        ("decreasing", 1001, 1e-12),
    ])
    def test_matches_p_iteration(self, bundled_map, shift10, decreasing_map, label, n_bins,
                                 u_rtol):
        tent = hc.PiecewiseMap([Branch(F(0), F(1, 2), F(2), F(0)),
                                Branch(F(1, 2), F(1), F(-2), F(2))], F(1, 2), 0, "tent")
        tmap = {"kfold20": kfold_moebius(20), "bundled": bundled_map, "shift10": shift10,
                "tent": tent, "decreasing": decreasing_map}[label]
        closed = hc.build_closed(tmap, n_bins)
        record = compute_record(closed)
        assert "matrix" not in vars(closed)     # the record never expands P
        B, quotient, classes = closed.lumped
        lam, u, (lower, upper), _ = spectral._density(B, quotient)
        slack = (np.bincount(quotient.matrix.indices).max() + 1) * 2.0**-53
        assert lower * (1 - slack) <= 1.0 <= upper * (1 + slack)
        P = closed.matrix
        _, u_p, _, _ = spectral_oracle.csr_invariant_density(P)
        assert np.all(np.abs(u - u_p) <= u_rtol * u_p)
        assert record.mass_vector.tobytes() == u.tobytes() and record.eigenvalues == (lam,)
        assert abs(record.unit_residual - np.abs(u @ P - lam * u).sum()) <= 1e-15
        # at the same u, both families bit for bit
        assert norms_of((B, quotient, classes), u_p) == spectral_oracle.csr_q_power_norms(
            P, u_p, N_POWERS)


class TestNeumannBound:
    def test_zero_q_trivial(self, doubling2):
        data = compute_record(doubling2)
        # only the leading term survives; both families have head 1 here
        assert neumann_bound(data.q_power_norms_colsum, 24 / 25) == pytest.approx(
            25 / 24, rel=1e-14)
        assert neumann_bound(data.q_power_norms, 24 / 25) == pytest.approx(
            25 / 24, rel=1e-14)

    def test_uniform_shift_row_head(self, shift10_10):
        # row family keeps the computed ||1 - Pi1|| = 1.8 as its head term
        data = compute_record(shift10_10)
        assert neumann_bound(data.q_power_norms, 0.9) == pytest.approx(2.0, rel=1e-12)
        assert neumann_bound(data.q_power_norms_colsum, 0.9) == pytest.approx(
            1 / 0.9, rel=1e-12)

    def test_divergent_tail_raises(self, doubling2):
        data = compute_record(doubling2)
        bad = dataclasses.replace(
            data, projection_norm=1.0,
            q_power_norms=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
            q_power_norms_colsum=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
        with pytest.raises(NeumannDivergenceError):
            neumann_bound(bad.q_power_norms_colsum, 0.5)
        # h_star's spectral gate (bound 2 > r - delta) fires before the series
        with pytest.raises(SpectralStructureError):
            h_star(bad, 0.5, 0.01, 0.1, 0.0)


class TestHStar:
    def test_rank_one_hand_computation(self, doubling2):
        # independent arithmetic: neumann = (1/r) * 1, resolvent = 1/delta + that,
        # h = (B0/(r-a0)+1) * resolvent + 1/(r-a0) + 2/r with B0 = 0
        data = compute_record(doubling2)
        r, delta, a0, B0 = 0.96, 1 / 26, 0.1, 0.0
        bound = h_star(data, r, delta, a0, B0)
        neumann = (1 / r) * 1.0
        resolvent = 26 + neumann
        expected = (B0 / (r - a0) + 1) * resolvent + 1 / (r - a0) + 2 / r
        assert bound.h_star == pytest.approx(expected, rel=1e-14)
        assert bound.resolvent_l1_bound == pytest.approx(resolvent, rel=1e-14)

    def test_monotone_in_delta(self, doubling2):
        data = compute_record(doubling2)
        values = [h_star(data, 0.96, d, 0.1, 0.0).h_star
                  for d in (0.01, 0.02, 0.05, 0.1, 0.2)]
        assert values == sorted(values, reverse=True)

    def test_rejects_extra_peripheral_eigenvalue(self):
        M = hand_matrix([[0.99, 0.01], [0.01, 0.99]])
        data = compute_record(M)   # eigenvalues 1 and 0.98
        assert data.spectral_radius_bound == pytest.approx(0.98, rel=1e-12)
        with pytest.raises(SpectralStructureError):
            h_star(data, 0.96, 1 / 26, 0.1, 0.0)

    def test_rejects_subdominant_near_r(self):
        M = hand_matrix([[0.95, 0.05], [0.05, 0.95]])  # eigenvalues 1 and 0.9
        data = compute_record(M)
        # below r, above r - delta: only the r - delta comparison rejects it
        assert 0.96 - 0.1 < data.spectral_radius_bound < 0.96
        with pytest.raises(SpectralStructureError):
            h_star(data, 0.96, 0.1, 0.1, 0.0)

    def test_rejects_multiple_unit_eigenvalues(self):
        M = hand_matrix(np.eye(4))
        data = compute_record(M)
        with pytest.raises(SpectralStructureError):
            h_star(data, 0.9, 0.01, 0.1, 0.0)

    def test_rejects_r_below_alpha0(self, doubling2):
        data = compute_record(doubling2)
        with pytest.raises(ValueError):
            h_star(data, 0.6, 0.01, 0.7, 0.0)


class TestResolventSpotCheck:
    """Solve (z - P) systems directly and compare against the bound.

    The row-family bound controls the density action x (z - P) = v, the
    column family the transposed action; the test map has a uniform
    invariant density so the projection term is valid for both.
    """

    def test_bound_dominates_direct_solves(self):
        m3 = hc.full_branch_linear(3)
        matrix = hc.build_closed(m3, 120)
        r, delta = 0.7, 0.05
        data = compute_record(matrix)
        row_bound = data.projection_norm / delta + neumann_bound(data.q_power_norms, r)
        bound_col = h_star(data, r, delta, float(m3.alpha0), 0.0)
        P = matrix.toarray()
        eye = np.eye(120)
        rng = np.random.default_rng(42)
        zs = [r * np.exp(2j * np.pi * t) for t in rng.random(20)]
        zs += [1 + delta * np.exp(2j * np.pi * t) for t in rng.random(20)]
        for z in zs:
            if abs(z) < r or abs(z - 1) < delta:
                continue
            v = rng.standard_normal(120)
            v /= np.abs(v).sum()
            A = z * eye - P
            x = np.linalg.solve(A.T, v)         # row action: x (z - P) = v
            assert np.abs(x).sum() <= row_bound + 1e-9
            y = np.linalg.solve(A, v)           # column action: (z - P) y = v
            assert np.abs(y).sum() <= bound_col.resolvent_l1_bound + 1e-9


def resolvent_norms(P, z):
    """Max row and max column sums of |(z I - P)^-1|, densely."""
    R = np.abs(np.linalg.inv(z * np.eye(len(P)) - P))
    return float(R.sum(axis=1).max()), float(R.sum(axis=0).max())


class TestResolventL1Bound:
    """The row-family resolvent bound against numpy on small dense matrices.

    ``projection_norm / delta + neumann_bound(q_power_norms, r)`` bounds the
    induced L1 norm of the density action x -> x (z - P)^-1, the max row sum,
    wherever |z| >= r and |z - 1| > delta, once spectral_radius_bound <=
    r - delta.  The column family is probed the same way without an
    assertion; a drawn point where its bound falls short is reported as an
    event and steered towards by ``target``.
    """

    @given(st.integers(2, 12), st.integers(0, 2**31 - 1), st.floats(0.05, 1.0),
           st.floats(0.01, 0.95), st.floats(0.0, 0.99), st.booleans(),
           st.floats(0.0, 2.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=150, deadline=None)
    def test_row_family_bounds_the_resolvent(self, n, seed, mixing, d, t, near_one, s, theta):
        rng = np.random.default_rng(seed)
        A = rng.random((n, n)) + 1e-3
        A /= A.sum(axis=1, keepdims=True)
        P = (1 - mixing) * np.eye(n) + mixing * A      # positive, row-stochastic
        record = compute_record(hand_matrix(P))
        N = record.truncation_N
        floor = max([record.spectral_radius_bound]
                    + [norms[N + 1] ** (1 / (N + 1))
                       for norms in (record.q_power_norms, record.q_power_norms_colsum)])
        assume(floor < 0.98)
        delta = d * (1 - floor)
        r = floor + delta + t * (1 - floor - delta)
        assert record.spectral_radius_bound <= r - delta and r < 1
        z = (1 + delta * (1 + s) * np.exp(1j * theta) if near_one
             else r * (1 + s) * np.exp(1j * theta))
        assume(abs(z) >= r and abs(z - 1) > delta)
        rows, cols = resolvent_norms(P, z)
        bound = record.projection_norm / delta + neumann_bound(record.q_power_norms, r)
        assert rows <= bound * (1 + 1e-9)
        col_bound = record.projection_norm / delta + neumann_bound(record.q_power_norms_colsum, r)
        target(cols / col_bound, label="column resolvent / column bound")
        if cols > col_bound:
            event("column family bound below the max column sum")
