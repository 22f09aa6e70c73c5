import dataclasses
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import holecert as hc
import norm_oracle
import spectral_oracle
from holecert.maps import Branch
from holecert.spectral import (
    N_POWERS,
    NeumannDivergenceError,
    NoUnitEigenvalueError,
    SpectralStructureError,
    _BLOCK,
    _q_power_norms,
    compute_record,
    dominant_left_eigenpair,
    h_star,
    neumann_bound,
    operator_l1_norm,
)
from holecert.ulam import UlamMatrix, UlamPartition


def hand_matrix(entries, mode="closed"):
    arr = np.asarray(entries, dtype=float)
    return UlamMatrix(UlamPartition(arr.shape[0]), sp.csr_matrix(arr), mode, "test")


@pytest.fixture(scope="module")
def doubling2(doubling):
    return hc.build_closed(doubling, UlamPartition(2))


@pytest.fixture(scope="module")
def shift10_10(shift10):
    return hc.build_closed(shift10, UlamPartition(10))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_l1_norm(np.eye(5)) == 1.0

    def test_stochastic(self):
        assert operator_l1_norm(np.array([[0.5, 0.5], [0.5, 0.5]])) == 1.0

    def test_identity_minus_uniform(self):
        M = np.eye(10) - np.full((10, 10), 0.1)
        assert operator_l1_norm(M) == pytest.approx(1.8, abs=1e-15)

    def test_sparse_input(self):
        assert operator_l1_norm(sp.csr_matrix(np.array([[1.0, -2.0], [0.0, 0.5]]))) == 3.0


class TestPowerIteration:
    def test_uniform_matrix(self, shift10_10):
        lam, x, res, _ = dominant_left_eigenpair(shift10_10.matrix)
        assert lam == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(x, 0.1, atol=1e-14)
        assert res <= 1e-12

    def test_substochastic(self, shift10):
        open_m = hc.build_open(shift10, UlamPartition(10), hc.Hole(F(0), F(1, 10)))
        lam, x, res, _ = dominant_left_eigenpair(open_m.matrix)
        assert lam == pytest.approx(0.9, abs=1e-12)
        assert res <= 1e-12

    def test_zero_matrix(self):
        lam, x, res, it = dominant_left_eigenpair(sp.csr_matrix((3, 3)))
        assert lam == 0.0


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
        M = hc.build_closed(bundled_map, UlamPartition(100))
        data = compute_record(M)
        density = data.invariant_density
        assert density.min() >= 0.0
        assert density.sum() / 100 == pytest.approx(1.0, abs=1e-13)

    def test_requires_closed_mode(self, shift10):
        open_m = hc.build_open(shift10, UlamPartition(10), hc.Hole(F(0), F(1, 10)))
        with pytest.raises(ValueError):
            compute_record(open_m)

    def test_no_unit_eigenvalue(self):
        M = hand_matrix([[0.5, 0.4], [0.4, 0.5]])
        with pytest.raises(NoUnitEigenvalueError):
            compute_record(M)

    def test_submultiplicativity_of_stored_norms(self, bundled_map):
        M = hc.build_closed(bundled_map, UlamPartition(60))
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
        _assert_bound_covers_eigvals(hc.build_closed(bundled_map, UlamPartition(n_bins)))

    def test_full_branch_linear(self):
        _assert_bound_covers_eigvals(
            hc.build_closed(hc.full_branch_linear(3), UlamPartition(120)))

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
    got = _q_power_norms(sp.csr_matrix(P), u)
    for family, reference in zip(got, expected):
        assert len(family) == N_POWERS + 1
        assert all(math.isfinite(v) and v >= 0.0 for v in family)
        assert max(abs(a - float(b)) for a, b in zip(family, reference)) <= atol


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
    ])
    def test_matches_row_block_code(self, bundled_map, label, n_bins):
        # blocks of 64 run over the distinct rows of P: 63 and 129 bins have
        # that many, the last four cases 64, 128, 64 and 66 (rows repeat)
        tmap = {"bundled": bundled_map, "kfold20": kfold_moebius(20),
                "shift3": hc.full_branch_linear(3),
                "shift10": hc.full_branch_linear(10)}[label]
        M = hc.build_closed(tmap, UlamPartition(n_bins))
        P, u = M.matrix, compute_record(M).mass_vector
        _assert_norms_match(P, u, spectral_oracle.q_power_norms(P, u, N_POWERS), 1e-12)
        if n_bins == 1:
            # P = [[1]], so Q = 0 and only the column family's head is 1
            assert P.toarray().tolist() == [[1.0]]
            row_norms, col_norms = _q_power_norms(P, u)
            assert row_norms == [0.0] * (N_POWERS + 1)
            assert col_norms == [1.0] + [0.0] * N_POWERS

    @pytest.mark.parametrize("n_bins", [600, 1500])
    def test_memory_stays_in_column_blocks(self, n_bins):
        # no global P^2: a few dense n x _BLOCK blocks plus O(nnz(P)) arrays
        M = hc.build_closed(kfold_moebius(20), UlamPartition(n_bins))
        P, u = M.matrix, compute_record(M).mass_vector
        tracemalloc.start()
        try:
            _q_power_norms(P, u)
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

    def test_zero_powers_clamped(self, shift10_10):
        # P = 1 u exactly, so Q = 0 and the sparse k = 1 formula cancels to roundoff
        record = compute_record(shift10_10)
        for norms in (record.q_power_norms, record.q_power_norms_colsum):
            assert all(0.0 <= v <= 1e-15 for v in norms[1:])
        assert 0.0 <= record.spectral_radius_bound <= 1e-5

    @pytest.mark.parametrize("label, n_bins", [
        ("bundled", 20), ("bundled", 40), ("doubling", 2), ("doubling", 16),
        ("shift10", 10), ("shift10", 20),
    ])
    def test_exact_oracle(self, bundled_map, doubling, shift10, label, n_bins):
        tmap = {"bundled": bundled_map, "doubling": doubling, "shift10": shift10}[label]
        M = hc.build_closed(tmap, UlamPartition(n_bins))
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


class TestNeumannBound:
    def test_zero_q_trivial(self, doubling2):
        data = compute_record(doubling2)
        # only the leading term survives; both orientations have head 1 here
        assert neumann_bound(data, 24 / 25) == pytest.approx(25 / 24, rel=1e-14)
        assert neumann_bound(data, 24 / 25, orientation="row") == pytest.approx(25 / 24, rel=1e-14)

    def test_uniform_shift_row_head(self, shift10_10):
        # row family keeps the computed ||1 - Pi1|| = 1.8 as its head term
        data = compute_record(shift10_10)
        assert neumann_bound(data, 0.9, orientation="row") == pytest.approx(2.0, rel=1e-12)
        assert neumann_bound(data, 0.9, orientation="column") == pytest.approx(1 / 0.9, rel=1e-12)

    def test_divergent_tail_raises(self, doubling2):
        data = compute_record(doubling2)
        bad = dataclasses.replace(
            data, projection_norm=1.0,
            q_power_norms=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
            q_power_norms_colsum=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
        with pytest.raises(NeumannDivergenceError):
            neumann_bound(bad, 0.5)
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
        matrix = hc.build_closed(m3, UlamPartition(120))
        r, delta = 0.7, 0.05
        data = compute_record(matrix)
        bound_row = h_star(data, r, delta, float(m3.alpha0), 0.0, orientation="row")
        bound_col = h_star(data, r, delta, float(m3.alpha0), 0.0, orientation="column")
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
            assert np.abs(x).sum() <= bound_row.resolvent_l1_bound + 1e-9
            y = np.linalg.solve(A, v)           # column action: (z - P) y = v
            assert np.abs(y).sum() <= bound_col.resolvent_l1_bound + 1e-9
