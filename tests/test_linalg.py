import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg

from mpadmm.admm import update_P
from mpadmm.data import generate_synthetic
from mpadmm.exceptions import ConvergenceError, ParameterError
import mpadmm.linalg as linalg
from mpadmm.linalg import (DENSE_CUTOFF, _fix_signs,
                           _openblas_threads_api,
                           apply_projection, build_pgram_operator,
                           side_basis, single_blas_thread,
                           soft_threshold_svd, svd_route,
                           symmetric_eig_topk_factored, truncated_svd)


def _projector_distance(M1, M2):
    return np.linalg.norm(M1 @ M1.T - M2 @ M2.T)


def _pgram(Y, Z, Phi, lam, rho1):
    """The P update's operator lam YY^T + (rho1/2) ZZ^T + (Phi Z^T +
    Z Phi^T)/2, formed densely."""
    return (lam * Y @ Y.T + 0.5 * rho1 * Z @ Z.T
            + 0.5 * (Phi @ Z.T + Z @ Phi.T))


def _rayleigh(M, C):
    """The Rayleigh quotients diag(M^T C M) of M's columns."""
    return np.einsum("ij,ij->j", M, C @ M)


class TestTruncatedSVD:
    def test_identity(self):
        res = truncated_svd(np.eye(5), 3)
        assert np.allclose(res.S, np.ones(3))

    def test_diagonal(self):
        res = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(res.S, [3.0, 2.0])
        # singular vectors are coordinate axes up to sign
        assert np.allclose(np.abs(res.U), np.eye(3)[:, :2], atol=1e-12)
        assert np.allclose(np.abs(res.V), np.eye(3)[:, :2], atol=1e-12)

    def test_random_dense_against_full_svd(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((40, 30))
        res = truncated_svd(A, 5)
        s_full = np.linalg.svd(A, compute_uv=False)
        assert np.max(np.abs(res.S - s_full[:5])) < 1e-8
        assert np.linalg.norm(res.U.T @ res.U - np.eye(5)) < 1e-10
        assert np.linalg.norm(res.V.T @ res.V - np.eye(5)) < 1e-10

    def test_randomized_path_against_dense_oracle(self):
        rng = np.random.default_rng(1)
        # decaying spectrum, min dim above the dense cutoff
        B = rng.standard_normal((120, 60)) * (0.7 ** np.arange(60))
        res = truncated_svd(B, 4)
        s_full = np.linalg.svd(B, compute_uv=False)
        assert np.max(np.abs(res.S - s_full[:4])) < 1e-8 * s_full[0]
        assert np.linalg.norm((res.U * res.S) @ res.V.T -
                              (np.linalg.svd(B)[0][:, :4] * s_full[:4])
                              @ np.linalg.svd(B)[2][:4]) < 1e-6 * s_full[0]

    def test_sparse_formats_match_csr(self):
        # CSC, COO, DOK and LIL input give bitwise the CSR result, on
        # every route
        rng = np.random.default_rng(2)
        for (n, m, density), route in (((120, 40, 0.5), "gram"),
                                       ((60, 150, 0.3), "lanczos"),
                                       ((25, 12, 0.6), "dense")):
            A = sp.random_array((n, m), density=density, format="csr",
                                rng=rng)
            assert svd_route(n, m, 3, A.nnz) == route
            want = truncated_svd(A, 3, seed=4)
            assert want.route == route
            for other in (A.tocsc(), A.tocoo(), A.todok(), A.tolil()):
                got = truncated_svd(other, 3, seed=4)
                assert got.route == route
                for a, b in ((got.U, want.U), (got.S, want.S),
                             (got.V, want.V)):
                    assert np.array_equal(a, b)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((20, 15))
        s1 = truncated_svd(A, 4).S
        s2 = truncated_svd(A[rng.permutation(20)][:, rng.permutation(15)], 4).S
        assert np.max(np.abs(s1 - s2)) < 1e-8

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            truncated_svd(np.eye(4), 5)
        with pytest.raises(ParameterError):
            truncated_svd(np.eye(4), 0)

    def test_near_degenerate_gap_matches_lapack_subspace(self, monkeypatch):
        # sigma_8 / sigma_9 = 1.0104: subspace iteration stalls near such a
        # gap, Lanczos does not
        pm, _, _ = generate_synthetic(300, 150, 8, 3, 0.5, 1.0, 0)
        A = pm.to_dense_zero_filled()
        U, s, _ = np.linalg.svd(A, full_matrices=False)
        assert s[7] / s[8] < 1.011
        by_row = sp.csr_array((pm.values, (pm.rows, pm.cols)), shape=A.shape)
        monkeypatch.setattr(linalg, "_GRAM_WORK", 0)  # Lanczos for both
        for op in (A, by_row):
            res = truncated_svd(op, 8)
            assert res.route == "lanczos"
            assert _projector_distance(res.U, U[:, :8]) <= 1e-8
            assert np.max(np.abs(res.S - s[:8])) <= 1e-12 * s[0]

    def test_wide_operator(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((40, 90))
        res = truncated_svd(A, 6)
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        assert np.max(np.abs(res.S - s[:6])) < 1e-12 * s[0]
        assert _projector_distance(res.U, U[:, :6]) < 1e-10
        assert _projector_distance(res.V, Vt[:6].T) < 1e-10
        assert np.linalg.norm(res.U.T @ A - res.S[:, None] * res.V.T) < 1e-10

    def test_zero_operator(self):
        # 3000 x 2000: a dense fill would need 48 MB
        n, m, k = 3000, 2000, 3
        Z = sp.csr_array((n, m))
        tracemalloc.start()
        try:
            res = truncated_svd(Z, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.route == "lanczos"
        assert np.array_equal(res.S, np.zeros(k))
        assert np.array_equal(res.U.T @ res.U, np.eye(k))
        assert np.array_equal(res.V.T @ res.V, np.eye(k))
        assert peak < 4 * 2**20

    def test_k_equals_min_dim_above_cutoff(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((50, 40))
        assert min(A.shape) > DENSE_CUTOFF
        s = np.linalg.svd(A, compute_uv=False)
        for dense, op in ((A, A), (A.T, A.T), (A, sp.csr_array(A))):
            res = truncated_svd(op, 40)
            assert np.max(np.abs(res.S - s)) < 1e-12 * s[0]
            assert (np.linalg.norm((res.U * res.S) @ res.V.T - dense)
                    < 1e-12 * s[0])

    @pytest.mark.parametrize("case", ["rank_one", "identity", "orthogonal"])
    def test_rank_deficient_operator_is_deterministic(self, case):
        # rank 1 < k, or a top singular value of multiplicity above k: the
        # Krylov space collapses and ARPACK asks for restart vectors,
        # which must come from the seeded generator
        if case == "rank_one":
            op = sp.csr_array(([3.0], ([4], [7])), shape=(60, 50))
            k, S = 5, np.array([3.0, 0.0, 0.0, 0.0, 0.0])
        elif case == "identity":
            op, k, S = np.eye(40), 3, np.ones(3)
        else:
            op = np.linalg.qr(np.random.default_rng(7).standard_normal((40, 40)))[0]
            k, S = 3, np.ones(3)
        first = truncated_svd(op, k, seed=2)
        assert first.S.shape == (k,)
        assert np.max(np.abs(first.S - S)) < 1e-12
        if case != "rank_one":
            for F in (first.U, first.V):
                assert np.max(np.abs(F.T @ F - np.eye(k))) < 1e-12
            A = np.asarray(op)
            assert np.max(np.abs(A @ first.V - first.U * first.S)) < 1e-12
        for _ in range(3):
            again = truncated_svd(op, k, seed=2)
            assert np.array_equal(again.U, first.U)
            assert np.array_equal(again.S, first.S)
            assert np.array_equal(again.V, first.V)

    def test_no_convergence_raises_with_best(self, monkeypatch):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((80, 60)) * (0.8 ** np.arange(60))
        _, s, Vt = np.linalg.svd(A, full_matrices=False)

        def stalled(gram, k, **kwargs):
            # two of the k requested eigenpairs converged
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "no convergence", s[:2] ** 2, Vt[:2].T.copy())

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        with pytest.raises(ConvergenceError) as info:
            truncated_svd(A, 4)
        best = info.value.best
        assert best.U.shape == (80, 2) and best.V.shape == (60, 2)
        assert np.max(np.abs(best.S - s[:2])) < 1e-12 * s[0]


def _observed(n, m, miss_frac):
    """Observed-entry count of `generate_synthetic` at miss_frac."""
    return n * m - int(miss_frac * n * m)


class TestGramRoute:
    def test_route_rule(self):
        # no data: the rule reads only the shape, k and the entry count
        protocol = (1000, 100, 5, _observed(1000, 100, 0.9))
        dense = (2000, 1000, 10, _observed(2000, 1000, 0.5))
        scale = (20000, 100, 5, _observed(20000, 100, 0.9))
        for n, m, k, nnz in (protocol, dense, scale):
            assert svd_route(n, m, k, nnz) == "gram"
            assert svd_route(n, m, k) == "lanczos"  # no CSR index
        # both sit exactly at m^2 = nnz, the Gram as large as the index
        assert protocol[1] ** 2 == protocol[3]
        assert dense[1] ** 2 == dense[3]
        assert svd_route(1000, 100, 5, 10 ** 4 - 1) == "lanczos"
        # m^2 > nnz: n = m = 1e4 at 10%, 20000 x 2000 at 2%
        assert svd_route(10 ** 4, 10 ** 4, 5, 10 ** 7) == "lanczos"
        assert svd_route(20000, 2000, 5, 8 * 10 ** 5) == "lanczos"
        # n m^2 > _GRAM_WORK nnz although m^2 <= nnz: 10000 x 1000 at 10%
        assert svd_route(10000, 1000, 5, 10 ** 6) == "lanczos"
        # wide shapes: the transposes of the Gram-route shapes
        for n, m, k, nnz in (protocol, dense, scale):
            assert svd_route(m, n, k, nnz) == "lanczos"
        assert svd_route(1000, DENSE_CUTOFF, 5, 32000) == "dense"
        assert svd_route(1000, 100, 100, 10 ** 5) == "dense"

    def test_result_names_its_route(self):
        # TruncatedSVD.route is svd_route's answer for the input: its
        # shape, k and, when sparse, its entry count
        rng = np.random.default_rng(42)
        for (n, m), want in (((300, 60), "gram"), ((80, 200), "lanczos"),
                             ((200, 20), "dense")):
            A = sp.random_array((n, m), density=0.5, format="csr", rng=rng)
            assert truncated_svd(A, 4).route == svd_route(n, m, 4, A.nnz)
            assert svd_route(n, m, 4, A.nnz) == want
        dense = rng.standard_normal((300, 60))
        assert truncated_svd(dense, 4).route == svd_route(300, 60, 4)
        assert svd_route(300, 60, 4) == "lanczos"

    def test_gram_matches_oracle_and_lanczos_at_near_degenerate_gap(
            self, monkeypatch):
        # the instance of test_near_degenerate_gap_matches_lapack_subspace:
        # sigma_8 / sigma_9 = 1.0104 and nnz = m^2
        pm, _, _ = generate_synthetic(300, 150, 8, 3, 0.5, 1.0, 0)
        A = pm.to_dense_zero_filled()
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        assert s[7] / s[8] < 1.011
        by_row = sp.csr_array((pm.values, (pm.rows, pm.cols)), shape=A.shape)
        assert svd_route(pm.n, pm.m, 8, by_row.nnz) == "gram"
        gram = truncated_svd(by_row, 8)
        monkeypatch.setattr(linalg, "_GRAM_WORK", 0)
        lanczos = truncated_svd(by_row, 8)
        assert (gram.route, lanczos.route) == ("gram", "lanczos")
        for res in (gram, lanczos):
            assert _projector_distance(res.U, U[:, :8]) <= 1e-8
            assert _projector_distance(res.V, Vt[:8].T) <= 1e-8
            assert np.max(np.abs(res.S - s[:8])) <= 1e-12 * s[0]
        assert np.max(np.abs(gram.S - lanczos.S)) <= 1e-12 * s[0]
        assert _projector_distance(gram.U, lanczos.U) <= 1e-8
        assert np.linalg.norm(A @ gram.V - gram.U * gram.S) <= 1e-12 * s[0]

    @pytest.mark.parametrize("block", [7 * 150, linalg._BLOCK],
                             ids=["7_rows", "one_block"])
    def test_gram_blocks_agree(self, monkeypatch, block):
        # blocks of 7 rows or one block: the same Gram to rounding
        rng = np.random.default_rng(40)
        A = sp.random_array((300, 150), density=0.6, format="csr", rng=rng)
        monkeypatch.setattr(linalg, "_BLOCK", block)
        G = linalg._csr_gram(A)
        dense = A.toarray()
        want = dense.T @ dense
        assert np.max(np.abs(np.triu(G) - np.triu(want))) <= (
            1e-14 * np.max(np.abs(want)))
        assert not np.any(np.tril(G, -1))

    def test_rank_deficient_is_deterministic(self):
        # rank 2 < k = 5, every entry observed
        rng = np.random.default_rng(41)
        L, R = rng.standard_normal((120, 2)), rng.standard_normal((40, 2))
        A = sp.csr_array(L @ R.T)
        assert svd_route(120, 40, 5, A.nnz) == "gram"
        s = np.linalg.svd(L @ R.T, compute_uv=False)
        first = truncated_svd(A, 5, seed=2)
        assert np.max(np.abs(first.S - s[:5])) <= 1e-12 * s[0]
        for F in (first.U, first.V):
            assert np.max(np.abs(F.T @ F - np.eye(5))) < 1e-12
        assert np.max(np.abs(A @ first.V - first.U * first.S)) <= 1e-12 * s[0]
        # no random numbers: the seed changes nothing
        for seed in (2, 2, 7):
            again = truncated_svd(A, 5, seed=seed)
            assert np.array_equal(again.U, first.U)
            assert np.array_equal(again.S, first.S)
            assert np.array_equal(again.V, first.V)

    def test_zero_operator(self):
        # every entry observed and zero: the zero-operator contract
        n, m, k = 100, 40, 3
        A = sp.csr_array((np.zeros(n * m), np.tile(np.arange(m), n),
                          np.arange(0, n * m + 1, m)), shape=(n, m))
        assert svd_route(n, m, k, A.nnz) == "gram"
        res = truncated_svd(A, k)
        assert res.route == "gram"
        assert np.array_equal(res.S, np.zeros(k))
        assert np.array_equal(res.U, np.eye(n, k))
        assert np.array_equal(res.V, np.eye(m, k))


class TestSymmetricEigTopkFactored:
    def test_matches_dense_eigh(self):
        rng = np.random.default_rng(6)
        n, d, k = 50, 4, 3
        Y = rng.standard_normal((n, d))
        Z = rng.standard_normal((n, k))
        Phi = rng.standard_normal((n, k))
        F1, F2 = build_pgram_operator(Y, Z, Phi, 0.7, 3.0)
        M, lam = symmetric_eig_topk_factored(F1, F2, k)
        C = F1 @ F2.T
        w, vecs = np.linalg.eigh(0.5 * (C + C.T))
        order = np.argsort(w)[::-1][:k]
        assert np.max(np.abs(lam - w[order])) < 1e-9
        assert _projector_distance(M, vecs[:, order]) < 1e-8

    def test_negative_spectrum_prefers_null_directions(self):
        # C = -v v^T has one negative eigenvalue; with k=2 the second
        # direction must come from the nullspace with eigenvalue 0
        v = np.array([[1.0], [2.0], [0.5], [-1.0]])
        M, lam = symmetric_eig_topk_factored(v, -v, 2)
        assert lam[0] == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(M.T @ M - np.eye(2)) < 1e-10


class TestPgramEigTopk:
    """The P update's compressed eigensolve (`update_P`) against a dense
    eigh of C = lam YY^T + (rho1/2) ZZ^T + (Phi Z^T + Z Phi^T)/2, its
    eigenvalues read as the Rayleigh quotients of M's columns."""

    @staticmethod
    def _update_P(Y, Z, Phi, lam, rho1, k):
        """`update_P` on Y's side basis and the compression of [Z, Phi]."""
        basis = side_basis(Y)
        return update_P(basis, linalg.pgram_compress(basis, Z, Phi), lam,
                        rho1, k)

    def _check(self, Y, Z, Phi, lam, rho1, k):
        """M orthonormal, C M = M diag(vals), vals the top k of eigh(C),
        and the projector equal to eigh's when the k-th gap is open."""
        M = self._update_P(Y, Z, Phi, lam, rho1, k)
        C = _pgram(Y, Z, Phi, lam, rho1)
        vals = _rayleigh(M, C)
        w, vecs = np.linalg.eigh(C)
        order = np.argsort(w)[::-1]
        scale = np.max(np.abs(w))
        assert np.linalg.norm(M.T @ M - np.eye(k)) < 1e-12
        assert np.linalg.norm(C @ M - M * vals) <= 1e-10 * scale
        assert np.max(np.abs(vals - w[order[:k]])) <= 1e-10 * scale
        if k == len(w) or w[order[k - 1]] - w[order[k]] > 1e-6 * scale:
            assert _projector_distance(M, vecs[:, order[:k]]) <= 1e-10
        return M, vals

    def test_all_ones_dual_rank_deficient_block(self):
        rng = np.random.default_rng(20)
        n, d, k = 40, 6, 3
        Y = rng.standard_normal((n, d))
        Z = rng.standard_normal((n, k))
        self._check(Y, Z, np.ones((n, k)), 1.0, 10.0, k)
        # more directions than C has nonzero eigenvalues: the rest must be
        # null vectors orthogonal to col(Y), never filler of a rank-
        # deficient block
        self._check(Y[:, :2], Z, np.ones((n, k)), 1.0, 10.0, 12)

    def test_copy_inside_side_span(self):
        rng = np.random.default_rng(21)
        n, d, k = 40, 6, 3
        Y = rng.standard_normal((n, d))
        Z = Y @ rng.standard_normal((d, k))
        self._check(Y, Z, rng.standard_normal((n, k)), 0.8, 4.0, k)

    def test_basis_covers_whole_space(self):
        rng = np.random.default_rng(22)
        n, d, k = 12, 8, 3  # d + 2k >= n
        Y = rng.standard_normal((n, d))
        self._check(Y, rng.standard_normal((n, k)),
                    rng.standard_normal((n, k)), 1.5, 2.0, k)

    def test_no_side_term(self):
        rng = np.random.default_rng(23)
        n, d, k = 40, 6, 3
        self._check(rng.standard_normal((n, d)), rng.standard_normal((n, k)),
                    rng.standard_normal((n, k)), 0.0, 10.0, k)

    def test_side_matrix_rank_below_d(self):
        rng = np.random.default_rng(24)
        n, d, k = 40, 6, 3
        Y = rng.standard_normal((n, 2)) @ rng.standard_normal((2, d))
        Qy, s2 = side_basis(Y)
        assert Qy.shape == (n, 2) and s2.shape == (2,)
        self._check(Y, rng.standard_normal((n, k)),
                    rng.standard_normal((n, k)), 1.0, 5.0, k)

    def test_negative_spectrum_prefers_null_directions(self):
        # C = YY^T - ZZ^T with col(Z) orthogonal to col(Y): two positive
        # eigenvalues, three negative, and n - 5 zeros; the top 3 are the
        # two positive ones and a null direction
        rng = np.random.default_rng(25)
        n, rho1 = 20, 4.0
        Q = np.linalg.qr(rng.standard_normal((n, 5)))[0]
        Y, Z = Q[:, :2] * [3.0, 2.0], Q[:, 2:] * [1.0, 1.5, 2.0]
        Phi = -(0.5 * rho1 + 1.0) * Z
        M = self._update_P(Y, Z, Phi, 1.0, rho1, 3)
        vals = _rayleigh(M, _pgram(Y, Z, Phi, 1.0, rho1))
        assert np.allclose(vals, [9.0, 4.0, 0.0], atol=1e-12)
        assert np.linalg.norm(M.T @ M - np.eye(3)) < 1e-12
        assert _projector_distance(M[:, :2], Q[:, :2]) < 1e-12
        assert np.linalg.norm(Q.T @ M[:, 2]) < 1e-12
        # col(Y) of order n - 1 holds Z, so one null direction is left
        # outside the basis: the top n - 2 are n - 3 zeros and the -1
        Qf = np.linalg.qr(np.hstack([Q, rng.standard_normal((n, n - 5))]))[0]
        Y = Qf[:, :n - 1] @ rng.standard_normal((n - 1, n - 1))
        M, vals = self._check(Y, Z, Phi, 0.0, rho1, n - 2)
        assert vals[-1] == pytest.approx(-1.0, abs=1e-12)

    def test_zero_operator_is_padded(self):
        n, k = 7, 2
        Y, zeros = np.zeros((n, 3)), np.zeros((n, k))
        M = self._update_P(Y, zeros, zeros, 1.0, 1.0, k)
        assert np.array_equal(_rayleigh(M, _pgram(Y, zeros, zeros, 1.0, 1.0)),
                              np.zeros(k))
        assert np.linalg.norm(M.T @ M - np.eye(k)) < 1e-12

    def test_agrees_with_factored_solver(self):
        rng = np.random.default_rng(26)
        n, d, k = 200, 30, 4
        Y = rng.standard_normal((n, d))
        Z = rng.standard_normal((n, k))
        Phi = rng.standard_normal((n, k))
        M0, v0 = symmetric_eig_topk_factored(
            *build_pgram_operator(Y, Z, Phi, 1.0, 10.0), k)
        M1 = self._update_P(Y, Z, Phi, 1.0, 10.0, k)
        C = _pgram(Y, Z, Phi, 1.0, 10.0)
        v1 = _rayleigh(M1, C)
        assert _projector_distance(M0, M1) < 1e-12
        assert np.max(np.abs(v0 - v1)) < 1e-12 * np.max(np.abs(v0))
        w = np.linalg.eigvalsh(C)[::-1][:k]
        assert np.max(np.abs(v1 - w)) < 1e-12 * np.max(np.abs(w))


def _ritz_problem(s2, B, n):
    """`pgram_ritz`'s inputs for T = diag(s2, 0) + sym(Z_b H^T) on
    coordinates B = [Z_b, Phi_b]: it reads only the bases' shapes."""
    q, r = B.shape[0], len(s2)
    return (np.zeros((n, r)), np.asarray(s2, float)), (np.zeros((n, q - r)), B)


def _ritz_T(basis, compressed, lam, rho1):
    """The order-q matrix `pgram_ritz` solves, formed densely."""
    s2, B = basis[1], compressed[1]
    k = B.shape[1] // 2
    Z, H = B[:, :k], 0.5 * rho1 * B[:, :k] + B[:, k:]
    T = 0.5 * (Z @ H.T + H @ Z.T)
    T[np.arange(len(s2)), np.arange(len(s2))] += lam * s2
    return T


class TestRitzStructured:
    """`pgram_ritz`'s structured route against its LAPACK route: a
    certified answer matches `eigh`, anything else is the LAPACK result
    bit for bit.

    The iteration starts at T's largest diagonal entries, so it is
    certified where T is dominated by its diagonal, as the solver's
    problems are (the side term lam YY^T against the rank-2k part);
    elsewhere it may fall back, and must then do so exactly."""

    @staticmethod
    def _both(monkeypatch, basis, compressed, lam, rho1, k):
        """Check both routes' results; returns the route the structured
        attempt ended on."""
        monkeypatch.setattr(linalg, "ritz_route", lambda q, k: "lapack")
        W0, v0, pad0 = linalg.pgram_ritz(basis, compressed, lam, rho1, k)
        monkeypatch.setattr(linalg, "ritz_route", lambda q, k: "structured")
        routes = []
        W1, v1, pad1 = linalg.pgram_ritz(basis, compressed, lam, rho1, k,
                                         routes=routes)
        monkeypatch.undo()
        assert pad1 == pad0
        if routes == ["lapack"]:
            assert np.array_equal(W1, W0) and np.array_equal(v1, v0)
            return "lapack"
        assert routes == ["structured"]
        T = _ritz_T(basis, compressed, lam, rho1)
        q = T.shape[0]
        assert np.max(np.abs(v1 - v0)) <= 8 * q * np.finfo(float).eps * (
            np.linalg.norm(T, 2))
        assert np.linalg.norm(W1.T @ W1 - np.eye(W1.shape[1])) < 1e-13
        assert _projector_distance(W1, W0) <= 1e-12
        return "structured"

    @staticmethod
    def _dominant(rng, q, r, k, scale=0.1):
        """Diagonal entries 0..1000, well spread at the top, and a rank-2k
        part of entries about `scale`."""
        s2 = np.sort(rng.uniform(0.0, 10.0, r) ** 3)[::-1]
        return s2, scale * rng.standard_normal((q, 2 * k))

    def test_inertia_count_matches_eigvalsh(self):
        # Haynsworth's count against the spectrum of the formed T, at
        # shifts between, below and above its eigenvalues
        rng = np.random.default_rng(39)
        for k in (1, 3):
            for _ in range(10):
                q = 30
                d = np.concatenate([rng.uniform(-1.0, 4.0, q - 2 * k),
                                    np.zeros(2 * k)])
                L = rng.standard_normal((q, 2 * k))
                T = np.diag(d) + 0.5 * (L[:, :k] @ L[:, k:].T
                                        + L[:, k:] @ L[:, :k].T)
                w = np.linalg.eigvalsh(T)
                for sigma in np.concatenate([[w[0] - 1.0, w[-1] + 1.0],
                                             0.5 * (w[1:] + w[:-1])]):
                    assert (linalg._inertia_count(d, L, sigma)
                            == int(np.sum(w > sigma)))
        # on a diagonal entry the count is not attempted
        assert linalg._inertia_count(d, L, d[0]) is None

    def test_well_separated_is_certified(self, monkeypatch):
        rng = np.random.default_rng(40)
        for k in (1, 2, 5):
            for _ in range(4):
                s2, B = self._dominant(rng, 100 + 2 * k, 100, k)
                basis, comp = _ritz_problem(s2, B, 300)
                assert self._both(monkeypatch, basis, comp, 1.0, 10.0,
                                  k) == "structured"

    def test_clustered_top_eigenvalues(self, monkeypatch):
        # the top 4 diagonal entries agree to 1e-9 and the rank-2k part
        # is small: the top 4 eigenvalues form a tight cluster, the 5th
        # lies far below
        rng = np.random.default_rng(41)
        s2 = np.concatenate([1e3 * (1 + 1e-9 * np.arange(4)),
                             rng.uniform(0.0, 1e2, 116)])
        for scale in (1e-3, 1e-6):
            B = scale * rng.standard_normal((130, 10))
            basis, comp = _ritz_problem(s2, B, 400)
            route = self._both(monkeypatch, basis, comp, 1.0, 10.0, 4)
            if scale == 1e-6:  # the rank-2k part is below the spacing
                assert route == "structured"
            # the top 2 end inside the cluster: the count finds all 4
            # above the shift
            assert self._both(monkeypatch, basis, comp, 1.0, 10.0,
                              2) == "lapack"
        # well separated, but the rank-2k part is as large as the gaps
        for _ in range(4):
            s2, B = self._dominant(rng, 110, 100, 5, scale=1.0)
            basis, comp = _ritz_problem(s2, B, 300)
            self._both(monkeypatch, basis, comp, 1.0, 10.0, 5)

    def test_repeated_diagonal_and_zero_block(self, monkeypatch):
        # d holds each value three times, then the zero block of Q2; the
        # top k take whole triples.  Started at three coordinates of one
        # triple, two iterates may meet on one eigenvector (they do at
        # k = 6 here), and the Rayleigh-Ritz residual then sends the call
        # to LAPACK
        rng = np.random.default_rng(42)
        for k in (3, 6):
            s2 = np.repeat(np.arange(40.0, 0.0, -1.0) ** 2, 3)
            B = 0.1 * rng.standard_normal((len(s2) + 2 * k, 2 * k))
            basis, comp = _ritz_problem(s2, B, 400)
            route = self._both(monkeypatch, basis, comp, 1.0, 10.0, k)
            if k == 3:
                assert route == "structured"
            # rows of B at zero: those diagonal entries are exact
            # eigenvalues of T, here the top one three times over
            B[:3] = 0.0
            self._both(monkeypatch, basis, comp, 1.0, 10.0, k)
            # the top k eigenvalues from the zero block alone
            B = rng.standard_normal(B.shape)
            basis, comp = _ritz_problem(np.zeros(len(s2)), B, 400)
            self._both(monkeypatch, basis, comp, 1.0, 10.0, k)

    def test_no_side_term(self, monkeypatch):
        # lam = 0: T = sym(Z_b H^T) has rank 2k and a zero diagonal part;
        # Z_b and H concentrated on the first k coordinates make T's top
        # k eigenvectors lie near them
        rng = np.random.default_rng(43)
        k, q = 4, 120
        B = 0.01 * rng.standard_normal((q, 2 * k))
        B[np.arange(k), np.arange(k)] += [3.0, 2.5, 2.0, 1.5]
        basis, comp = _ritz_problem(rng.uniform(0, 1, q - 2 * k), B, 300)
        assert self._both(monkeypatch, basis, comp, 0.0, 10.0,
                          k) == "structured"
        # generic Z_b and Phi_b, at rho1 = 10 and 0
        s2, B = self._dominant(rng, 110, 100, 5, scale=1.0)
        basis, comp = _ritz_problem(s2, B, 300)
        for rho1 in (10.0, 0.0):
            self._both(monkeypatch, basis, comp, 0.0, rho1, 5)

    def test_fewer_nonnegative_ritz_values_than_k(self, monkeypatch):
        # T = diag(9, 0.5, 0, 0, 0, 0) - Z Z^T of order q < 2k: fewer
        # than k nonnegative eigenvalues, so pad > 0
        rng = np.random.default_rng(44)
        for _ in range(5):
            Z = rng.standard_normal((6, 4))
            B = np.hstack([Z, -6.0 * Z])  # H = 5 Z - 6 Z = -Z at rho1 = 10
            basis, comp = _ritz_problem([9.0, 0.5], B, 50)
            self._both(monkeypatch, basis, comp, 1.0, 10.0, 4)
            assert linalg.pgram_ritz(basis, comp, 1.0, 10.0, 4)[2] > 0

    def test_rank_deficient_first_iterate(self, monkeypatch):
        # [Z, Phi] with Phi the all-ones initial dual, compressed as in
        # `solve`, at a shape the route rule sends to the iteration; the
        # factored operator is the independent reference
        rng = np.random.default_rng(45)
        n, d, k = 400, 120, 5
        Y = rng.standard_normal((n, d)) * np.geomspace(10.0, 0.1, d)
        Z = 0.1 * rng.standard_normal((n, k))
        Phi = np.ones((n, k))
        basis = side_basis(Y)
        comp = linalg.pgram_compress(basis, Z, Phi)
        assert comp[0].shape[1] == k + 1
        assert linalg.ritz_route(d + k + 1, k) == "structured"
        assert self._both(monkeypatch, basis, comp, 1.0, 10.0,
                          k) == "structured"
        routes = []
        M1 = update_P(basis, comp, 1.0, 10.0, k, routes=routes)
        assert routes == ["structured"]
        C = _pgram(Y, Z, Phi, 1.0, 10.0)
        v1 = _rayleigh(M1, C)
        w = np.linalg.eigvalsh(C)[::-1][:k]
        assert np.max(np.abs(v1 - w)) < 1e-12 * np.max(np.abs(w))
        M0, _ = symmetric_eig_topk_factored(
            *build_pgram_operator(Y, Z, Phi, 1.0, 10.0), k)
        assert _projector_distance(M0, M1) < 1e-12

    def test_singular_capacitance_ends_the_iteration(self, monkeypatch):
        # an exactly singular capacitance means a quotient has hit an
        # eigenvalue: the iteration stops there and the certificate judges
        # the iterate.  Unpatched, the iteration stops on its third step,
        # the second small residual; here that step's solve raises, after
        # the residual test has passed once
        rng = np.random.default_rng(48)
        s2, B = self._dominant(rng, 110, 100, 5)
        basis, comp = _ritz_problem(s2, B, 300)
        solve = np.linalg.solve
        calls = []

        def counted(*args):
            calls.append(len(calls) + 1)
            if raise_at == calls[-1]:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(*args)

        for raise_at in (None, 3):
            calls.clear()
            monkeypatch.setattr(np.linalg, "solve", counted)
            assert self._both(monkeypatch, basis, comp, 1.0, 10.0,
                              5) == "structured"
            assert calls == [1, 2, 3]

    def test_wrong_start_falls_back_to_lapack(self, monkeypatch):
        # T's largest diagonal entry (coordinate 0) lies near the
        # eigenvalue 1, while the top eigenvalue 10 lives on coordinates
        # 98 and 99, whose diagonal is 0: the iteration started at e_0
        # finds 1, and the count finds two eigenvalues above it
        q, a, eta = 100, np.sqrt(20.0), 1e-3
        B = np.zeros((q, 2))
        B[98, 0] = B[99, 1] = a
        B[0] = eta
        s2 = np.concatenate([[1.0, 0.9], np.linspace(0.5, 0.0, q - 4)])
        basis, comp = _ritz_problem(s2, B, 300)
        counts = []
        count = linalg._inertia_count

        def spy(d, L, sigma):
            counts.append(count(d, L, sigma))
            return counts[-1]

        monkeypatch.setattr(linalg, "_inertia_count", spy)
        monkeypatch.setattr(linalg, "ritz_route", lambda q, k: "structured")
        routes = []
        linalg.pgram_ritz(basis, comp, 1.0, 0.0, 1, routes=routes)
        assert routes == ["lapack"] and counts == [2]
        assert self._both(monkeypatch, basis, comp, 1.0, 0.0, 1) == "lapack"

    def test_failed_count_falls_back_to_lapack(self, monkeypatch):
        rng = np.random.default_rng(46)
        s2, B = self._dominant(rng, 110, 100, 5)
        basis, comp = _ritz_problem(s2, B, 300)
        assert self._both(monkeypatch, basis, comp, 1.0, 10.0,
                          5) == "structured"
        for wrong in (6, 4, None):
            monkeypatch.setattr(linalg, "_inertia_count",
                                lambda d, L, sigma: wrong)
            assert self._both(monkeypatch, basis, comp, 1.0, 10.0,
                              5) == "lapack"

    def test_badly_scaled_against_40_digit_reference(self, monkeypatch):
        # the top diagonal entry is 1e8 times the rest, as the side
        # matrix's mean direction makes it on `protocol`
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(47)
        q, r, k = 24, 20, 2
        s2 = np.concatenate([[1e8], np.arange(r - 1, 0, -1.0)])
        B = 0.05 * rng.standard_normal((q, 2 * k))
        basis, comp = _ritz_problem(s2, B, 100)
        assert self._both(monkeypatch, basis, comp, 1.0, 10.0,
                          k) == "structured"
        monkeypatch.setattr(linalg, "ritz_route", lambda q, k: "structured")
        W, vals, _ = linalg.pgram_ritz(basis, comp, 1.0, 10.0, k)
        # T in 40 digits from the same double inputs (H = 5 Z_b + Phi_b)
        with mpmath.workdps(40):
            Zm = mpmath.matrix(B[:, :k].tolist())
            Hm = 5 * Zm + mpmath.matrix(B[:, k:].tolist())
            Tm = (Zm * Hm.T + Hm * Zm.T) / 2
            for i in range(r):
                Tm[i, i] += s2[i]
            ev, evec = mpmath.eigsy(Tm)
            top = sorted(range(q), key=lambda i: -ev[i])[:k]
            ref_vals = np.array([float(ev[i]) for i in top])
            ref_vecs = np.array([[float(evec[j, i]) for i in top]
                                 for j in range(q)])
        eps = np.finfo(float).eps
        assert np.max(np.abs(vals - ref_vals)) <= 8 * q * eps * ref_vals[0]
        assert _projector_distance(W, ref_vecs) <= 1e-12


def _svd_basis(Y):
    """`side_basis` by the thin SVD of Y alone, its fallback route."""
    U, s, _ = np.linalg.svd(Y, full_matrices=False)
    r = linalg.numerical_rank(s, Y.shape)
    return np.ascontiguousarray(U[:, :r]), s[:r] ** 2


class TestPgramCompress:
    @staticmethod
    def _check(basis, Z, Phi, comp):
        """G = [Qy, Q2] B to 1e-13 ||G||, and Q2 orthonormal and orthogonal
        to Qy to 1e-13."""
        Qy, Q2, B = basis[0], *comp
        G = np.hstack([Z, Phi])
        scale = max(np.linalg.norm(G), 1.0)
        assert np.linalg.norm(np.hstack([Qy, Q2]) @ B - G) <= 1e-13 * scale
        assert np.abs(Q2.T @ Q2 - np.eye(Q2.shape[1])).max(initial=0.0) <= 1e-13
        assert np.abs(Qy.T @ Q2).max(initial=0.0) <= 1e-13

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513, 4097])
    def test_row_blocks_match_one_block(self, monkeypatch, n):
        # rank-deficient G as at the init: the all-ones dual, and a Z
        # inside col(Y), leave at most one direction outside col(Y).
        # Blocks of 128 rows from n = 257 (n d > 2 _SWEEP), the last one
        # a single row
        rng = np.random.default_rng(60 + n)
        d, k = 6, 3
        Y = rng.standard_normal((n, d))
        Z = Y @ rng.standard_normal((d, k))
        Phi = np.ones((n, k))
        basis = side_basis(Y)
        monkeypatch.setattr(linalg, "_SWEEP", 1 << 40)
        one = linalg.pgram_compress(basis, Z, Phi)
        monkeypatch.setattr(linalg, "_SWEEP", 128 * basis[0].shape[1])
        got = linalg.pgram_compress(basis, Z, Phi)
        for comp in (one, got):
            self._check(basis, Z, Phi, comp)
        assert got[0].shape == one[0].shape
        assert got[0].shape[1] == (0 if n <= d else 1)
        r = basis[0].shape[1]
        scale = np.linalg.norm(np.hstack([Z, Phi]))
        assert np.linalg.norm(got[1][:r] - one[1][:r]) <= 1e-13 * scale
        assert _projector_distance(got[0], one[0]) <= 1e-13

    def test_block_rule(self, monkeypatch):
        # 4097 x 40: n d > 2 _SWEEP, so 819-row blocks; and 1000 x 20, one
        # block, takes exactly the unblocked sweeps
        rng = np.random.default_rng(66)
        for n, d in ((4097, 40), (1000, 20)):
            Y = rng.standard_normal((n, d))
            Z, Phi = rng.standard_normal((2, n, 4))
            basis = side_basis(Y)
            got = linalg.pgram_compress(basis, Z, Phi)
            self._check(basis, Z, Phi, got)
            monkeypatch.setattr(linalg, "_SWEEP", 1 << 40)
            one = linalg.pgram_compress(basis, Z, Phi)
            monkeypatch.undo()
            assert (n * d > 2 * linalg._SWEEP) == (n == 4097)
            if n == 1000:
                assert np.array_equal(got[1], one[1])
            assert np.linalg.norm(got[1] - one[1]) <= 1e-13 * np.linalg.norm(
                one[1])


class TestSideBasis:
    @pytest.mark.parametrize("shape,cond", [
        ((1000, 150), 1.0), ((1000, 150), 1e4), ((2000, 20), 1.0),
        ((150, 150), 10.0)])
    def test_cholesky_qr2_matches_the_svd(self, shape, cond):
        rng = np.random.default_rng(70)
        Y = rng.standard_normal(shape) * np.geomspace(1.0, 1.0 / cond,
                                                      shape[1])
        assert linalg._cholesky_qr2(Y) is not None
        Qy, s2 = side_basis(Y)
        Qs, s2s = _svd_basis(Y)
        assert Qy.shape == Qs.shape and Qy.flags.c_contiguous
        assert np.abs(Qy.T @ Qy - np.eye(shape[1])).max() <= 1e-13
        assert _projector_distance(Qy, Qs) <= 1e-13
        assert np.all(np.diff(s2) <= 0.0)
        assert np.abs(s2 - s2s).max() <= 1e-14 * s2s[0]
        # Qy diagonalizes Y Y^T, as the Ritz problem's diagonal assumes
        D = (Qy.T @ Y) @ (Y.T @ Qy)
        assert np.abs(D - np.diag(s2)).max() <= 1e-14 * s2[0]

    @pytest.mark.parametrize("case", ["wide", "zero_column", "ratio",
                                      "rank"])
    def test_fallbacks_take_the_svd(self, monkeypatch, case):
        rng = np.random.default_rng(71)
        Y = rng.standard_normal((5, 8) if case == "wide" else (200, 12))
        if case == "zero_column":  # Y^T Y singular: the Cholesky fails
            Y[:, 3] = 0.0
        if case == "ratio":  # kappa 1e7, past _CHOL_RATIO
            Y *= np.geomspace(1.0, 1e-7, 12)
            R1 = np.linalg.cholesky(Y.T @ Y)
            diag = np.abs(np.diagonal(R1))
            assert diag.max() > linalg._CHOL_RATIO * diag.min()
        if case == "rank":  # R_2 R_1 read as rank d - 1
            monkeypatch.setattr(linalg, "numerical_rank",
                                lambda s, shape: len(s) - 1)
        assert linalg._cholesky_qr2(Y) is None
        Qy, s2 = side_basis(Y)
        Qs, s2s = _svd_basis(Y)
        assert np.array_equal(Qy, Qs) and np.array_equal(s2, s2s)
        assert Qy.shape[1] == {"wide": 5, "zero_column": 11, "ratio": 12,
                               "rank": 11}[case]

    @pytest.mark.parametrize("shape", [(1000, 150), (2000, 20)])
    def test_peak_within_three_squares_of_the_svd(self, shape):
        Y = np.random.default_rng(72).standard_normal(shape)
        peaks = []
        for basis in (_svd_basis, side_basis):
            basis(Y)  # warm: no first-call allocation is counted
            tracemalloc.start()
            try:
                basis(Y)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        d = shape[1]
        assert peaks[1] <= peaks[0] + 3 * d * d * 8


def test_cached_constants_are_read_only():
    from mpadmm.admm import _triu
    S = linalg._s_inverse(3)
    assert S is linalg._s_inverse(3)
    assert np.array_equal(S, [[0, 0, 0, 2, 0, 0], [0, 0, 0, 0, 2, 0],
                              [0, 0, 0, 0, 0, 2], [2, 0, 0, 0, 0, 0],
                              [0, 2, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0]])
    iu, ju = _triu(4)
    assert _triu(4)[0] is iu
    assert all(np.array_equal(a, b) for a, b in zip((iu, ju),
                                                    np.triu_indices(4)))
    for arr in (S, iu, ju):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


class TestRitzRoute:
    def test_route_rule(self):
        # q = d' + 2k: protocol and criterion 10 (d = 150, k = 5, and 156
        # at iteration 0, when [Z, Phi] has rank k + 1) iterate; `dense`
        # (d = 20, k = 10) and small problems keep LAPACK
        for q in (156, 160):
            assert linalg.ritz_route(q, 5) == "structured"
        assert linalg.ritz_route(40, 10) == "lapack"
        assert linalg.ritz_route(31, 10) == "lapack"
        assert linalg.ritz_route(linalg._RITZ_ORDER - 1, 2) == "lapack"
        assert linalg.ritz_route(linalg._RITZ_ORDER, 2) == "structured"
        assert linalg.ritz_route(149, 10) == "lapack"
        assert linalg.ritz_route(150, 10) == "structured"


class TestBuildPgramOperator:
    def test_zero_factors_reduce_to_side_gram(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((12, 3))
        Z = np.zeros((12, 2))
        F1, F2 = build_pgram_operator(Y, Z, Z, 2.0, 5.0)
        e1 = np.zeros(12)
        e1[0] = 1.0
        assert np.allclose(F1 @ (F2.T @ e1), 2.0 * Y @ Y.T @ e1, atol=1e-12)

    def test_zero_vector(self):
        rng = np.random.default_rng(8)
        F1, F2 = build_pgram_operator(rng.standard_normal((9, 2)),
                                      rng.standard_normal((9, 2)),
                                      rng.standard_normal((9, 2)), 1.0, 1.0)
        assert np.allclose(F1 @ (F2.T @ np.zeros(9)), 0.0)

    def test_matches_dense_materialization(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n, d, k = 20, 3, 2
            Y = rng.standard_normal((n, d))
            Z = rng.standard_normal((n, k))
            Phi = rng.standard_normal((n, k))
            lam, rho1 = rng.uniform(0.1, 3.0, size=2)
            F1, F2 = build_pgram_operator(Y, Z, Phi, lam, rho1)
            C = (lam * Y @ Y.T + 0.5 * rho1 * Z @ Z.T
                 + 0.5 * (Phi @ Z.T + Z @ Phi.T))
            v = rng.standard_normal(n)
            assert np.max(np.abs(F1 @ (F2.T @ v) - C @ v)) < 1e-10 * max(
                1.0, np.max(np.abs(C @ v)))

    def test_symmetry_probe(self):
        rng = np.random.default_rng(10)
        F1, F2 = build_pgram_operator(rng.standard_normal((15, 4)),
                                      rng.standard_normal((15, 3)),
                                      rng.standard_normal((15, 3)), 1.5, 2.5)
        for _ in range(10):
            v = rng.standard_normal(15)
            w = rng.standard_normal(15)
            assert abs((F1 @ (F2.T @ v)) @ w - (F1 @ (F2.T @ w)) @ v) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            build_pgram_operator(np.ones((5, 2)), np.ones((4, 2)),
                                 np.ones((4, 2)), 1.0, 1.0)


def _singular_values(case):
    rng = np.random.default_rng(12)
    A = {"empty": np.zeros((0, 4)), "all_zero": np.zeros((6, 4)),
         "rank_deficient": (rng.standard_normal((30, 2))
                            @ rng.standard_normal((2, 20))),
         "full_rank": rng.standard_normal((30, 20))}[case]
    return np.linalg.svd(A, compute_uv=False), A.shape


@pytest.mark.parametrize("case", ["empty", "all_zero", "rank_deficient",
                                  "full_rank"])
def test_numerical_rank_is_the_inline_cut(case):
    # the cut side_basis and dual_residual wrote out, and objective's
    s, shape = _singular_values(case)
    eps = np.finfo(float).eps
    if s.size and s[0] > 0:
        side_cut = int(np.sum(s > s[0] * max(shape) * eps))
    else:
        side_cut = 0
    rel = max(shape) * 2.0 ** -52
    objective_cut = int(np.sum(s > rel * s[0])) if s.size else 0
    want = {"empty": 0, "all_zero": 0, "rank_deficient": 2,
            "full_rank": 20}[case]
    assert linalg.numerical_rank(s, shape) == side_cut == objective_cut == want


class TestSoftThresholdSVD:
    def test_zero_threshold_identity(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((8, 6))
        assert np.linalg.norm(soft_threshold_svd(X, 0.0) - X) < 1e-10

    def test_full_shrinkage(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((7, 5))
        tau = np.linalg.svd(X, compute_uv=False)[0]
        assert np.allclose(soft_threshold_svd(X, tau), 0.0, atol=1e-10)

    def test_diagonal_case(self):
        assert np.allclose(soft_threshold_svd(np.diag([3.0, 1.0]), 2.0),
                           np.diag([1.0, 0.0]), atol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            X = rng.standard_normal((9, 7))
            Xp = rng.standard_normal((9, 7))
            lhs = np.linalg.norm(soft_threshold_svd(X, 0.8)
                                 - soft_threshold_svd(Xp, 0.8))
            assert lhs <= np.linalg.norm(X - Xp) + 1e-10

    def test_negative_tau(self):
        with pytest.raises(ParameterError):
            soft_threshold_svd(np.eye(2), -1.0)


def _fix_signs_loop(U, V=None):
    """Column-by-column reference of `_fix_signs`."""
    for j in range(U.shape[1]):
        col = U[:, j]
        scale = np.max(np.abs(col))
        if scale == 0.0:
            continue
        nz = np.nonzero(np.abs(col) > 1e-12 * scale)[0]
        if nz.size and col[nz[0]] < 0:
            U[:, j] = -col
            if V is not None:
                V[:, j] = -V[:, j]
    return U, V


class TestFixSigns:
    def test_bitwise_equal_to_loop(self):
        rng = np.random.default_rng(50)
        U = rng.standard_normal((9, 8))
        U[:, 0] = 0.0  # zero column
        U[:, 1] = -0.0
        U[:3, 2] = [-1e-13, 2e-13, -0.5]  # leading entries below the cut
        U[:2, 3] = [0.0, -3e-12]  # first entry above the cut is negative
        U[:2, 4] = [1e-20, -1.0]  # a positive tiny entry does not count
        U[0, 5] = np.nan  # no finite scale: left alone
        U[1, 6] = -np.inf
        V = rng.standard_normal((5, 8))
        want_u, want_v = _fix_signs_loop(U.copy(), V.copy())
        got_u, got_v = _fix_signs(U.copy(), V.copy())
        np.testing.assert_array_equal(got_u, want_u, strict=True)
        np.testing.assert_array_equal(got_v, want_v, strict=True)
        assert np.array_equal(np.signbit(got_u), np.signbit(want_u))
        assert got_u[2, 2] == 0.5 and got_u[1, 3] == 3e-12  # flipped
        got_u, got_v = _fix_signs(U.copy())
        assert got_v is None
        assert np.array_equal(np.signbit(got_u), np.signbit(want_u))

    def test_in_place(self):
        U = np.array([[-1.0, 2.0], [3.0, 4.0]])
        V = np.ones((3, 2))
        out_u, out_v = _fix_signs(U, V)
        assert out_u is U and out_v is V
        assert U.tolist() == [[1.0, 2.0], [-3.0, 4.0]]
        assert V.tolist() == [[-1.0, 1.0]] * 3


class TestApplyProjection:
    def test_full_span_identity(self):
        rng = np.random.default_rng(14)
        M = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        R = rng.standard_normal((6, 3))
        assert np.allclose(apply_projection(M, R), R, atol=1e-10)

    def test_annihilation(self):
        M = np.eye(5)[:, :2]
        R = np.zeros((5, 2))
        R[3:, :] = 1.0
        assert np.allclose(apply_projection(M, R), 0.0)

    def test_dense_oracle_and_idempotence(self):
        rng = np.random.default_rng(15)
        M = np.linalg.qr(rng.standard_normal((10, 3)))[0]
        R = rng.standard_normal((10, 4))
        P = M @ M.T
        out = apply_projection(M, R)
        assert np.max(np.abs(out - P @ R)) < 1e-12
        assert np.linalg.norm(apply_projection(M, out) - out) < 1e-10
        # composed with (I - projection) annihilates
        assert np.linalg.norm(apply_projection(M, R - out)) < 1e-10

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ParameterError):
            apply_projection(2.0 * np.eye(4)[:, :2], np.ones((4, 1)))


class TestSingleBlasThread:
    def test_finds_the_openblas_of_numpy_and_of_scipy(self):
        # each wheel that bundles an OpenBLAS gets an entry, so no BLAS
        # in the process keeps the host's thread count inside the block
        bundled = [pkg.__name__ for pkg in (np, scipy)
                   if any(Path(pkg.__file__).parents[1].glob(
                       f"{pkg.__name__}.libs/*openblas*"))]
        assert sorted(_openblas_threads_api()) == sorted(bundled)

    def test_nested_and_raising_blocks_restore(self, blas_threads):
        before = blas_threads()
        ones = dict.fromkeys(before, 1)
        for _, set_ in _openblas_threads_api().values():
            set_(2)
        try:
            with pytest.raises(RuntimeError):
                with single_blas_thread():
                    with single_blas_thread():
                        assert blas_threads() == ones
                    assert blas_threads() == ones
                    raise RuntimeError
            assert blas_threads() == dict.fromkeys(before, 2)
        finally:
            for name, (_, set_) in _openblas_threads_api().items():
                set_(before[name])
        assert blas_threads() == before

    def test_concurrent_blocks_restore_once(self, blas_threads):
        before = blas_threads()
        inside = []

        def worker():
            for _ in range(200):
                with single_blas_thread():
                    inside.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert inside == [dict.fromkeys(before, 1)] * 800
        assert blas_threads() == before
