import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from mpadmm.data import generate_synthetic
from mpadmm.exceptions import ConvergenceError, ParameterError
import mpadmm.linalg as linalg
from mpadmm.linalg import (DENSE_CUTOFF, _fix_signs,
                           _openblas_threads_api,
                           apply_projection, build_pgram_operator,
                           pgram_eig_topk, side_basis, single_blas_thread,
                           soft_threshold_svd, svd_route,
                           symmetric_eig_topk_factored, truncated_svd)


def _projector_distance(M1, M2):
    return np.linalg.norm(M1 @ M1.T - M2 @ M2.T)


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
        assert np.linalg.norm(res.compose() -
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
            assert np.linalg.norm(res.compose() - dense) < 1e-12 * s[0]

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
        op = build_pgram_operator(Y, Z, Phi, 0.7, 3.0)
        M, lam = symmetric_eig_topk_factored(op.F1, op.F2, k)
        C = op.F1 @ op.F2.T
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
    """The compressed eigensolve against a dense eigh of
    C = lam YY^T + (rho1/2) ZZ^T + (Phi Z^T + Z Phi^T)/2."""

    @staticmethod
    def _check(Y, Z, Phi, lam, rho1, k):
        """M orthonormal, C M = M diag(vals), vals the top k of eigh(C),
        and the projector equal to eigh's when the k-th gap is open."""
        M, vals = pgram_eig_topk(side_basis(Y), Z, Phi, lam, rho1, k)
        C = (lam * Y @ Y.T + 0.5 * rho1 * Z @ Z.T
             + 0.5 * (Phi @ Z.T + Z @ Phi.T))
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
        M, vals = pgram_eig_topk(side_basis(Y), Z, Phi, 1.0, rho1, 3)
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
        M, vals = pgram_eig_topk(side_basis(np.zeros((n, 3))),
                                 np.zeros((n, k)), np.zeros((n, k)), 1.0, 1.0,
                                 k)
        assert np.array_equal(vals, np.zeros(k))
        assert np.linalg.norm(M.T @ M - np.eye(k)) < 1e-12

    def test_agrees_with_factored_solver(self):
        rng = np.random.default_rng(26)
        n, d, k = 200, 30, 4
        Y = rng.standard_normal((n, d))
        Z = rng.standard_normal((n, k))
        Phi = rng.standard_normal((n, k))
        op = build_pgram_operator(Y, Z, Phi, 1.0, 10.0)
        M0, v0 = symmetric_eig_topk_factored(op.F1, op.F2, k)
        M1, v1 = pgram_eig_topk(side_basis(Y), Z, Phi, 1.0, 10.0, k)
        assert _projector_distance(M0, M1) < 1e-12
        assert np.max(np.abs(v0 - v1)) < 1e-12 * np.max(np.abs(v0))


class TestBuildPgramOperator:
    def test_zero_factors_reduce_to_side_gram(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((12, 3))
        Z = np.zeros((12, 2))
        op = build_pgram_operator(Y, Z, Z, 2.0, 5.0)
        e1 = np.zeros(12)
        e1[0] = 1.0
        assert np.allclose(op.apply(e1), 2.0 * Y @ Y.T @ e1, atol=1e-12)

    def test_zero_vector(self):
        rng = np.random.default_rng(8)
        op = build_pgram_operator(rng.standard_normal((9, 2)),
                                  rng.standard_normal((9, 2)),
                                  rng.standard_normal((9, 2)), 1.0, 1.0)
        assert np.allclose(op.apply(np.zeros(9)), 0.0)

    def test_matches_dense_materialization(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n, d, k = 20, 3, 2
            Y = rng.standard_normal((n, d))
            Z = rng.standard_normal((n, k))
            Phi = rng.standard_normal((n, k))
            lam, rho1 = rng.uniform(0.1, 3.0, size=2)
            op = build_pgram_operator(Y, Z, Phi, lam, rho1)
            C = (lam * Y @ Y.T + 0.5 * rho1 * Z @ Z.T
                 + 0.5 * (Phi @ Z.T + Z @ Phi.T))
            v = rng.standard_normal(n)
            assert np.max(np.abs(op.apply(v) - C @ v)) < 1e-10 * max(
                1.0, np.max(np.abs(C @ v)))

    def test_symmetry_probe(self):
        rng = np.random.default_rng(10)
        op = build_pgram_operator(rng.standard_normal((15, 4)),
                                  rng.standard_normal((15, 3)),
                                  rng.standard_normal((15, 3)), 1.5, 2.5)
        for _ in range(10):
            v = rng.standard_normal(15)
            w = rng.standard_normal(15)
            assert abs(op.apply(v) @ w - op.apply(w) @ v) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            build_pgram_operator(np.ones((5, 2)), np.ones((4, 2)),
                                 np.ones((4, 2)), 1.0, 1.0)


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
    def test_nested_and_raising_blocks_restore(self):
        api = _openblas_threads_api()
        if api is None:
            pytest.skip("NumPy links no OpenBLAS with a thread-count API")
        get, _ = api
        before = get()
        with pytest.raises(RuntimeError):
            with single_blas_thread():
                with single_blas_thread():
                    assert get() == 1
                assert get() == 1
                raise RuntimeError
        assert get() == before

    def test_concurrent_blocks_restore_once(self):
        api = _openblas_threads_api()
        if api is None:
            pytest.skip("NumPy links no OpenBLAS with a thread-count API")
        get, _ = api
        before = get()
        inside = []

        def worker():
            for _ in range(200):
                with single_blas_thread():
                    inside.append(get())

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
        assert len(inside) == 800 and set(inside) == {1}
        assert get() == before
