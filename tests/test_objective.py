import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mpadmm
from mpadmm import linalg, objective
from mpadmm.admm import solve
from mpadmm.baselines import iterative_svd, scaled_gd, soft_impute
from mpadmm.data import Hyperparams, PartialMatrix, generate_synthetic
from mpadmm.exceptions import ParameterError
from mpadmm.objective import (Metrics, err_l2, evaluate, fitted_rank,
                              objective_naive, objective_svd, ols_alpha,
                              r_squared, spectral_basis, spectral_bound,
                              worst_case_delta)

PROTOCOL = dict(n=1000, m=100, k=5, d=150, miss_frac=0.9, sigma=2.0)
DENSE = dict(n=2000, m=1000, k=10, d=20, miss_frac=0.5, sigma=2.0)


@pytest.fixture
def svd_shapes(monkeypatch):
    """The shape of each matrix that np.linalg.svd is called on, in
    order, from the start of the test."""
    svd, shapes = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def _random_instance(rng, n=15, m=10, d=4, frac=0.5):
    A = rng.standard_normal((n, m))
    mask = rng.random((n, m)) < frac
    mask[0, 0] = True  # at least one observation
    r, c = np.nonzero(mask)
    pm = PartialMatrix(n=n, m=m, rows=r, cols=c, values=A[r, c])
    Y = rng.standard_normal((n, d))
    return pm, Y


class TestOlsAlpha:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        X = np.linalg.qr(rng.standard_normal((10, 4)))[0]
        Y = rng.standard_normal((10, 3))
        assert np.allclose(ols_alpha(X, Y), X.T @ Y, atol=1e-10)

    def test_zero_matrix(self):
        assert np.allclose(ols_alpha(np.zeros((5, 3)), np.ones((5, 2))), 0.0)

    def test_rank_deficient_matches_pinv(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((12, 3))
        X = np.hstack([B, B])  # rank 3, 6 columns
        Y = rng.standard_normal((12, 2))
        oracle = np.linalg.pinv(X) @ Y
        assert np.max(np.abs(ols_alpha(X, Y) - oracle)) < 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 4))
        Y = rng.standard_normal((10, 3))
        resid = X @ ols_alpha(X, Y) - Y
        assert np.max(np.abs(X.T @ resid)) < 1e-8

    def test_factored_input_matches_dense(self):
        rng = np.random.default_rng(18)
        Y = rng.standard_normal((40, 6))
        for k in (1, 3):
            Uf = rng.standard_normal((40, k))
            Vf = rng.standard_normal((25, k))
            dense = ols_alpha(Uf @ Vf.T, Y)
            assert np.max(np.abs(ols_alpha((Uf, Vf), Y) - dense)) < \
                1e-12 * np.max(np.abs(dense))
        zero = (np.zeros((40, 2)), np.ones((25, 2)))
        assert np.array_equal(ols_alpha(zero, Y), np.zeros((25, 6)))

    def test_partial_minimization_optimality(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 5))
        Y = rng.standard_normal((12, 3))
        a_star = ols_alpha(X, Y)
        best = np.sum((Y - X @ a_star) ** 2)
        for _ in range(20):
            a = a_star + rng.standard_normal(a_star.shape)
            assert best <= np.sum((Y - X @ a) ** 2) + 1e-10


class TestObjectiveRoutes:
    def test_zero_matrix_value(self):
        rng = np.random.default_rng(4)
        pm, Y = _random_instance(rng)
        lam = 1.7
        ob = objective_naive(np.zeros((pm.n, pm.m)), pm, Y, lam, 1.0)
        expected = np.sum(pm.values ** 2) + lam * np.sum(Y * Y)
        assert ob.total == pytest.approx(expected, rel=1e-12)

    def test_isolated_nuclear_term(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 4))
        pm = PartialMatrix(n=6, m=4, rows=[], cols=[], values=[])
        gamma = 2.3
        ob = objective_naive(X, pm, np.zeros((6, 1)), 0.0, gamma)
        s = np.linalg.svd(X, compute_uv=False)
        assert ob.total == pytest.approx(gamma * s.sum(), rel=1e-12)

    def test_route_equivalence_50_random(self):
        rng = np.random.default_rng(6)
        for i in range(50):
            pm, Y = _random_instance(rng)
            if i % 3 == 0:  # rank-deficient X
                B = rng.standard_normal((pm.n, 2))
                C = rng.standard_normal((pm.m, 2))
                X = B @ C.T
            else:
                X = rng.standard_normal((pm.n, pm.m))
            lam, gamma = rng.uniform(0.1, 2.0, size=2)
            a = objective_naive(X, pm, Y, lam, gamma)
            b = objective_svd(X, pm, Y, lam, gamma)
            assert b.total == pytest.approx(a.total, rel=1e-8)
            assert b.fit_term == pytest.approx(a.fit_term, rel=1e-8, abs=1e-10)
            assert b.side_term == pytest.approx(a.side_term, rel=1e-8, abs=1e-8)
            assert b.reg_term == pytest.approx(a.reg_term, rel=1e-8)

    def test_factored_input_matches_naive(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pm, Y = _random_instance(rng)
            Uf = rng.standard_normal((pm.n, 3))
            Vf = rng.standard_normal((pm.m, 3))
            a = objective_naive(Uf @ Vf.T, pm, Y, 0.9, 1.1)
            b = objective_svd((Uf, Vf), pm, Y, 0.9, 1.1)
            assert b.total == pytest.approx(a.total, rel=1e-8)

    @pytest.mark.parametrize("block", [7, linalg._BLOCK])
    def test_fit_term_in_entry_blocks(self, monkeypatch, block):
        # blocks of 7 entries agree with one gather to rounding; one block
        # (nnz <= _BLOCK) is bitwise the one-gather sum of the factor route
        rng = np.random.default_rng(9)
        pm, _ = _random_instance(rng, n=20, m=12)
        Uf = rng.standard_normal((pm.n, 3))
        Vf = rng.standard_normal((pm.m, 3))
        X = Uf @ Vf.T
        resid = np.einsum("ij,ij->i", Uf[pm.rows], Vf[pm.cols]) - pm.values
        want = float(resid @ resid)
        monkeypatch.setattr(linalg, "_BLOCK", block)
        assert pm.nnz > 7
        got = objective.fit_term((Uf, Vf), pm)
        if block >= pm.nnz:
            assert got == want
        assert got == pytest.approx(want, rel=1e-13)
        assert objective.fit_term(X, pm) == pytest.approx(want, rel=1e-13)

    def test_factor_fit_term_gathers_factor_blocks_of_block_values(self):
        # a factor pair is gathered _BLOCK // k entries at a time, so each
        # of the two gathered factor blocks holds at most _BLOCK values
        # (2 MB); _BLOCK entries at a time would hold 2 * 8 * k * _BLOCK
        # bytes (42 MB at k = 10)
        rng = np.random.default_rng(23)
        n, m, k = 1024, 512, 10
        pm = PartialMatrix(n=n, m=m, rows=np.repeat(np.arange(n), m),
                           cols=np.tile(np.arange(m), n),
                           values=rng.standard_normal(n * m))
        Uf = rng.standard_normal((n, k))
        Vf = rng.standard_normal((m, k))
        tracemalloc.start()
        try:
            objective.fit_term((Uf, Vf), pm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * linalg._BLOCK

    def test_line_restricted_witness_values(self):
        # two-point rank-one family x = (t, t+1), scalar side info (1, 1)
        pm = PartialMatrix(n=2, m=1, rows=[], cols=[], values=[])
        Y = np.ones((2, 1))

        def f(t):
            X = np.array([[t], [t + 1.0]])
            return objective_svd(X, pm, Y, 1.0, 1.0).total

        assert f(-1.0) == pytest.approx(2.0, abs=1e-9)
        assert f(0.0) == pytest.approx(2.0, abs=1e-9)
        assert f(-0.5) == pytest.approx(2.0 + np.sqrt(2.0) / 2.0, abs=1e-9)
        assert f(3.0) == pytest.approx(5.04, abs=1e-9)

    def test_exact_fit_case(self):
        pm, si, gt = generate_synthetic(8, 6, 2, 2, 0.0, 0.0, seed=8)
        ob = objective_svd(gt.A_true, pm, si.Y, 3.0, 1.0)
        assert ob.fit_term == pytest.approx(0.0, abs=1e-10)
        assert ob.side_term == pytest.approx(0.0, abs=1e-8)


class TestSpectralBound:
    def test_zero_instance(self):
        pm = PartialMatrix(n=2, m=2, rows=[0], cols=[0], values=[0.0])
        assert spectral_bound(pm, np.zeros((2, 1)), 1.0, 1.0) == 0.0

    def test_single_observation(self):
        pm = PartialMatrix(n=2, m=2, rows=[0], cols=[0], values=[2.0])
        assert spectral_bound(pm, np.zeros((2, 1)), 1.0, 1.0) == 4.0

    def test_random_matches_raw_sums(self):
        rng = np.random.default_rng(9)
        pm, Y = _random_instance(rng)
        lam, gamma = 1.3, 0.7
        expected = (np.sum(pm.values ** 2) + lam * np.sum(Y * Y)) / gamma
        assert spectral_bound(pm, Y, lam, gamma) == pytest.approx(expected,
                                                                  rel=1e-12)

    def test_gamma_zero_rejected(self):
        pm = PartialMatrix(n=1, m=1, rows=[0], cols=[0], values=[1.0])
        with pytest.raises(ParameterError):
            spectral_bound(pm, np.zeros((1, 1)), 1.0, 0.0)


class TestWorstCaseDelta:
    def test_zero_matrix(self):
        _, inner = worst_case_delta(np.zeros((3, 2)), 2.0)
        assert inner == 0.0

    def test_diagonal(self):
        _, inner = worst_case_delta(np.diag([2.0, 1.0]), 3.0)
        assert inner == pytest.approx(9.0, rel=1e-12)

    def test_certificate_and_domination(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            X = rng.standard_normal((10, 7))
            gamma = rng.uniform(0.5, 3.0)
            Delta, inner = worst_case_delta(X, gamma)
            s = np.linalg.svd(X, compute_uv=False)
            assert inner == pytest.approx(gamma * s.sum(), rel=1e-8)
            assert np.linalg.svd(Delta, compute_uv=False)[0] <= gamma + 1e-10
            for _ in range(100):
                D = rng.standard_normal((10, 7))
                D *= gamma / np.linalg.svd(D, compute_uv=False)[0]
                assert np.sum(X * D) <= inner + 1e-8


class TestMetrics:
    def test_err_l2_trivials(self):
        A = np.arange(6.0).reshape(2, 3) + 1.0
        assert err_l2(A, A) == 0.0
        assert err_l2(np.zeros_like(A), A) == 1.0
        assert err_l2(2.0 * A, A) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ParameterError):
            err_l2(A, np.zeros_like(A))

    def test_r_squared_perfect_fit(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((12, 4))
        Y = X @ rng.standard_normal((4, 3))
        assert r_squared(X, Y) == pytest.approx(1.0, abs=1e-10)

    def test_r_squared_null_model(self):
        rng = np.random.default_rng(12)
        Y = rng.standard_normal((10, 2))
        X = np.zeros((10, 3))
        cen = Y - Y.mean(axis=0)
        expected = 1.0 - np.sum(Y * Y) / np.sum(cen * cen)
        assert r_squared(X, Y) == pytest.approx(expected, rel=1e-10)
        assert r_squared(X, Y) <= 0.0

    def test_r_squared_elementwise_oracle(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((14, 5))
        Y = rng.standard_normal((14, 3))
        alpha = np.linalg.pinv(X) @ Y
        ss_res = ss_tot = 0.0
        for j in range(3):
            resid = Y[:, j] - X @ alpha[:, j]
            ss_res += float(resid @ resid)
            cen = Y[:, j] - Y[:, j].mean()
            ss_tot += float(cen @ cen)
        assert r_squared(X, Y) == pytest.approx(1.0 - ss_res / ss_tot,
                                                rel=1e-10)

    def test_constant_y(self):
        Y = np.full((6, 2), 3.0)
        X = np.hstack([np.ones((6, 1)), np.zeros((6, 1))])
        assert r_squared(X, Y) == 1.0
        with pytest.raises(ParameterError):
            r_squared(np.zeros((6, 2)), Y)

    def test_fitted_rank(self):
        assert fitted_rank(np.zeros((4, 3))) == 0
        rng = np.random.default_rng(14)
        U = rng.standard_normal((10, 3))
        V = rng.standard_normal((8, 3))
        X = 100.0 * (U @ V.T)
        assert fitted_rank(X) == 3
        # tiny perturbation leaves the numerical rank unchanged
        assert fitted_rank(X + 1e-14 * rng.standard_normal(X.shape)) == 3

    def test_evaluate_bundle(self):
        rng = np.random.default_rng(15)
        pm, Y = _random_instance(rng)
        A_true = rng.standard_normal((pm.n, pm.m))
        X = rng.standard_normal((pm.n, pm.m))
        m = evaluate(X, pm, Y, A_true, 1.0, 1.0)
        assert m.err_l2 == pytest.approx(err_l2(X, A_true))
        assert m.objective.total == pytest.approx(
            objective_naive(X, pm, Y, 1.0, 1.0).total, rel=1e-8)


    @pytest.mark.parametrize("rank", [3, None], ids=["rank_k", "full_rank"])
    def test_evaluate_one_thin_svd_same_metrics(self, rank, svd_shapes):
        # rank k < min(n, m): one SVD, of the 20 x m sketch B = Q^T X,
        # never one of X; full rank: the sketches of 20 and 40 columns
        # both fail, and the thin SVD of X is taken once.  Either way
        # bitwise the standalone metrics.
        rng = np.random.default_rng(16)
        pm, Y = _random_instance(rng, n=60, m=40, d=5)
        A_true = rng.standard_normal((pm.n, pm.m))
        X = (rng.standard_normal((pm.n, rank)) @ rng.standard_normal(
            (rank, pm.m)) if rank else rng.standard_normal((pm.n, pm.m)))
        want = Metrics(err_l2=err_l2(X, A_true), r2=r_squared(X, Y),
                       fitted_rank=fitted_rank(X),
                       objective=objective_svd(X, pm, Y, 0.7, 1.3))
        svd_shapes.clear()
        got = evaluate(X, pm, Y, A_true, 0.7, 1.3)
        assert got == want  # bitwise: dataclass equality of the floats
        assert got.fitted_rank == (rank or 40)
        width = 4 * objective._OVERSAMPLE
        if rank:
            assert svd_shapes == [(width, pm.m)]
        else:
            assert svd_shapes == [(width, pm.m), (2 * width, pm.m), X.shape]

    def test_evaluate_makes_one_svd_call(self, svd_shapes):
        # one SVD, of the sketch's 20 x m matrix Q^T X, and none of X
        rng = np.random.default_rng(18)
        pm, Y = _random_instance(rng, n=200, m=40, d=3)
        X = rng.standard_normal((pm.n, 4)) @ rng.standard_normal((4, pm.m))
        svd_shapes.clear()
        got = evaluate(X, pm, Y, X, 1.0, 1.0)
        assert svd_shapes == [(4 * objective._OVERSAMPLE, pm.m)]
        assert got.fitted_rank == 4

    def test_sketch_widens_until_it_holds_the_rank(self, svd_shapes):
        # rank 30 > 20 columns: the first sketch cannot fix the rank, the
        # second (40 columns) does; still no SVD of X
        rng = np.random.default_rng(26)
        n, m = 1000, 300
        X = rng.standard_normal((n, 30)) @ rng.standard_normal((30, m))
        thin = np.linalg.svd(X, full_matrices=False)
        svd_shapes.clear()
        left, s = spectral_basis(X)
        assert svd_shapes == [(20, m), (40, m)]
        assert left.shape == (n, 30) and s.shape == (40,)
        assert np.allclose(left.T @ left, np.eye(30), rtol=0, atol=1e-13)
        # the same subspace and values as the thin SVD's
        P = thin.U[:, :30]
        assert np.linalg.norm(left - P @ (P.T @ left)) < 1e-12
        assert np.allclose(s[:30], thin.S[:30], rtol=1e-13, atol=0)

    @staticmethod
    def _near_cut(n, m, factor, seed):
        """An n x m matrix with singular values 1, 0.5 and factor times
        the numerical-rank cut max(n, m) * 2^-52 (s_1 = 1)."""
        rng = np.random.default_rng(seed)
        L = np.linalg.qr(rng.standard_normal((n, 3)))[0]
        R = np.linalg.qr(rng.standard_normal((m, 3)))[0]
        return (L * [1.0, 0.5, factor * max(n, m) * linalg._EPS]) @ R.T

    def test_evaluate_falls_back_when_certificate_fails(self, svd_shapes):
        # s_3 on the numerical-rank cut: no sketch can say on which side
        # it lies, so the thin SVD of X decides, and the metrics are
        # bitwise the full-SVD route's
        rng = np.random.default_rng(20)
        pm, Y = _random_instance(rng, n=60, m=40, d=4)
        A_true = rng.standard_normal((pm.n, pm.m))
        X = self._near_cut(pm.n, pm.m, 1.0, 20)
        thin = np.linalg.svd(X, full_matrices=False)
        r = linalg.numerical_rank(thin.S, X.shape)
        full = (thin.U[:, :r], thin.S)
        want = Metrics(err_l2=err_l2(X, A_true),
                       r2=r_squared(X, Y, svd=full),
                       fitted_rank=fitted_rank(X, svd=full),
                       objective=objective_svd(X, pm, Y, 0.8, 1.2, svd=full))
        assert objective._rayleigh_ritz(X, 4 * objective._OVERSAMPLE) is None
        svd_shapes.clear()
        left, s = spectral_basis(X)
        assert svd_shapes == [(20, pm.m), (40, pm.m), X.shape]
        assert np.array_equal(left, full[0]) and np.array_equal(s, thin.S)
        assert evaluate(X, pm, Y, A_true, 0.8, 1.2) == want

    @pytest.mark.parametrize("factor", [0.25, 0.5, 0.9, 0.99, 1.01, 1.1,
                                        2.0, 4.0])
    def test_rank_exact_for_a_value_next_to_the_cut(self, factor,
                                                    svd_shapes):
        # s_3 = factor * cut: the sketch's rank is the thin SVD's.  Within
        # the rounding slack of the cut the certificate fails and the thin
        # SVD decides; a factor of 4 or 1/4 lies outside it (slack about
        # 4 sqrt(200) eps ||X||_F = 0.32 cut here) and is certified
        n, m = 200, 100
        X = self._near_cut(n, m, factor, 27)
        thin = np.linalg.svd(X, full_matrices=False)
        svd_shapes.clear()
        left, s = spectral_basis(X)
        assert left.shape[1] == linalg.numerical_rank(thin.S, X.shape)
        if factor in (0.25, 4.0):
            assert svd_shapes == [(20, m)]
            assert left.shape[1] == (3 if factor > 1 else 2)

    def test_one_rank_for_a_value_near_the_noise_floor(self):
        # s_3 = 1e-13 s_1 lies above the numerical-rank cut
        # max(n, m) * 2^-52 * s_1 = 8.9e-15 s_1 (and below the 1e-12
        # relative cut that R^2 once used): every metric keeps its
        # direction.  That direction is fixed only to about
        # eps * s_1 / s_3, so R^2 and the side term reach their
        # rank-3 values to 1e-6.
        rng = np.random.default_rng(21)
        n, m = 60, 40
        L = np.linalg.qr(rng.standard_normal((n, 3)))[0]
        R = np.linalg.qr(rng.standard_normal((m, 3)))[0]
        X = (L * [1.0, 0.5, 1e-13]) @ R.T
        pm, _ = _random_instance(rng, n=n, m=m)
        left, s = spectral_basis(X)
        assert left.shape == (n, 3)
        assert linalg.numerical_rank(s, X.shape) == 3
        assert fitted_rank(X) == 3
        Y = L[:, 2:] + L[:, :1]  # in X's range only through s_3's direction
        assert r_squared(X, Y) == pytest.approx(1.0, rel=0, abs=1e-6)
        ob = objective_svd(X, pm, Y, 1.0, 1.0)
        assert ob.side_term == pytest.approx(0.0, abs=1e-6)
        assert ob.reg_term == float(s[:3].sum())

    def test_factor_pair_scores_as_its_dense_product(self):
        # s_3 = 5e-15 s_1 lies below the numerical-rank cut of a 200 x 100
        # estimate (4.4e-14 s_1): the factor pair and its product both
        # drop that direction from the side term and the nuclear norm
        rng = np.random.default_rng(23)
        n, m = 200, 100
        L = np.linalg.qr(rng.standard_normal((n, 3)))[0]
        R = np.linalg.qr(rng.standard_normal((m, 3)))[0]
        U, V = L * [1.0, 0.5, 5e-15], R
        pm, _ = _random_instance(rng, n=n, m=m)
        Y = rng.standard_normal((n, 4)) + 3.0 * L[:, 2:]
        pair = objective_svd((U, V), pm, Y, 1.0, 1.0)
        dense = objective_svd(U @ V.T, pm, Y, 1.0, 1.0)
        for got, want in ((pair.side_term, dense.side_term),
                          (pair.reg_term, dense.reg_term),
                          (pair.fit_term, dense.fit_term),
                          (pair.total, dense.total)):
            assert got == pytest.approx(want, rel=1e-12, abs=0)
        assert fitted_rank((U, V)) == fitted_rank(U @ V.T) == 2
        assert spectral_basis((U, V))[0].shape == (n, 2)
        assert r_squared((U, V), Y) == pytest.approx(r_squared(U @ V.T, Y),
                                                     rel=1e-12)

    @pytest.mark.parametrize("lam,gamma", [
        (np.nan, 1.0), (np.inf, 1.0), (-3.0, 1.0),
        (1.0, np.nan), (1.0, np.inf), (1.0, -1.0)])
    def test_bad_weights_rejected(self, lam, gamma):
        rng = np.random.default_rng(24)
        pm, Y = _random_instance(rng)
        X = rng.standard_normal((pm.n, pm.m))
        with pytest.raises(ParameterError):
            objective_svd(X, pm, Y, lam, gamma)
        with pytest.raises(ParameterError):
            objective_svd((X, np.eye(pm.m)), pm, Y, lam, gamma)
        with pytest.raises(ParameterError):
            evaluate(X, pm, Y, None, lam, gamma)

    def test_zero_weights_accepted(self):
        rng = np.random.default_rng(25)
        pm, Y = _random_instance(rng)
        X = rng.standard_normal((pm.n, pm.m))
        ob = objective_svd(X, pm, Y, 0.0, 0.0)
        assert ob.side_term == ob.reg_term == 0.0

    @staticmethod
    def _full_svd_metrics(X, pm, Y, A_true, lam, gamma):
        """The full thin SVD route: err_l2 over the whole matrices, R^2
        through `ols_alpha`'s dense path, rank and objective from X's
        thin SVD."""
        thin = np.linalg.svd(X, full_matrices=False)
        r = linalg.numerical_rank(thin.S, X.shape)
        resid = Y - X @ ols_alpha(X, Y)
        cen = Y - Y.mean(axis=0)
        return Metrics(
            err_l2=float(np.sum((X - A_true) ** 2) / np.sum(A_true ** 2)),
            r2=1.0 - float(np.sum(resid * resid) / np.sum(cen * cen)),
            fitted_rank=r,
            objective=objective_svd(X, pm, Y, lam, gamma,
                                    svd=(thin.U[:, :r], thin.S)))

    def _assert_agrees_with_full_svd(self, X, pm, Y, A_true):
        got = evaluate(X, pm, Y, A_true, 1.0, 1.0)
        want = self._full_svd_metrics(X, pm, Y, A_true, 1.0, 1.0)
        assert got.fitted_rank == want.fitted_rank
        assert got.err_l2 == pytest.approx(want.err_l2, rel=1e-14, abs=0)
        assert got.r2 == pytest.approx(want.r2, rel=0, abs=1e-12)
        for term, rel in (("fit_term", 1e-12), ("reg_term", 1e-12),
                          ("side_term", 1e-9), ("total", 1e-9)):
            assert getattr(got.objective, term) == pytest.approx(
                getattr(want.objective, term), rel=rel, abs=0)
        return spectral_basis(X)[0].shape[1] < min(X.shape)

    def test_evaluate_agrees_with_full_svd_on_protocol_estimates(self):
        # all four methods on ten protocol seeds; iterative_svd is capped at
        # 20 iterations: its imputed estimate is full rank either way, so
        # it takes the thin SVD route
        sketched = 0
        for seed in range(10):
            pm, si, gt = generate_synthetic(seed=seed, **PROTOCOL)
            k = PROTOCOL["k"]
            hp = Hyperparams(k=k, lam=1.0, gamma=1.0, max_iters=20,
                             seed=seed)
            state, _ = solve(pm, si, hp, track_objective=False,
                             track_dual_residual=False)
            for X in (state.x_hat(),
                      iterative_svd(pm, k, max_iters=20).X_hat,
                      soft_impute(pm, 1.0, k_cap=k).X_hat,
                      scaled_gd(pm, si.Y, 1.0, 1.0, k).X_hat):
                sketched += self._assert_agrees_with_full_svd(
                    X, pm, si.Y, gt.A_true)
        assert sketched == 30  # every rank-k estimate took the sketch

    def test_evaluate_agrees_with_full_svd_on_dense_estimate(self):
        pm, si, gt = generate_synthetic(seed=0, **DENSE)
        hp = Hyperparams(k=DENSE["k"], lam=1.0, gamma=1.0, max_iters=20,
                         seed=0)
        state, _ = solve(pm, si, hp, track_objective=False,
                         track_dual_residual=False)
        assert self._assert_agrees_with_full_svd(state.x_hat(), pm, si.Y,
                                                 gt.A_true)

    def test_evaluate_agrees_with_full_svd_on_dense_methods(self):
        # ADMM and soft_impute estimates of one more dense seed, both of
        # rank k, both certified by their 20-column sketch; soft_impute
        # stops after 2 of its full-SVD iterations (about 1 s each here)
        pm, si, gt = generate_synthetic(seed=1, **DENSE)
        k = DENSE["k"]
        hp = Hyperparams(k=k, lam=1.0, gamma=1.0, max_iters=20, seed=1)
        state, _ = solve(pm, si, hp, track_objective=False,
                         track_dual_residual=False)
        for X in (state.x_hat(),
                  soft_impute(pm, 1.0, k_cap=k, max_iters=2).X_hat):
            assert self._assert_agrees_with_full_svd(X, pm, si.Y, gt.A_true)

    def test_evaluate_memory_beside_inputs_is_the_sketch(self):
        # stated before measuring: without a ground truth, evaluate of a
        # rank-10 2000 x 1000 estimate with d = 20 holds beside its inputs
        # at most four n x 20 arrays (X Omega, its QR's copy, Q and the
        # basis) and two blocks of _SWEEP elements: 8 (4 n 20 + 2 _SWEEP)
        # bytes, 1.8 MB.  A values-only SVD's copy of X lies outside
        # tracemalloc's view; its certificate's 2 MB blocks do not.
        rng = np.random.default_rng(28)
        n, m = 2000, 1000
        X = rng.standard_normal((n, 10)) @ rng.standard_normal((10, m))
        rows, cols = np.nonzero(rng.random((n, m)) < 0.5)
        pm = PartialMatrix(n=n, m=m, rows=rows, cols=cols,
                           values=X[rows, cols] + 1.0)
        del rows, cols
        Y = rng.standard_normal((n, 20))
        tracemalloc.start()
        try:
            got = evaluate(X, pm, Y, None, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.fitted_rank == 10
        assert peak <= 8 * (4 * n * 20 + 2 * linalg._SWEEP)

    def test_evaluate_memory_at_estimate_rank(self):
        # beyond its inputs, evaluate of a rank-10 2000 x 1000 estimate
        # holds at most a quarter of one n x m array: no n x m temporary,
        # and no thin SVD factors U (n x m) and V^T (m x m)
        rng = np.random.default_rng(22)
        n, m = 2000, 1000
        X = rng.standard_normal((n, 10)) @ rng.standard_normal((10, m))
        A_true = X + rng.standard_normal((n, m))
        mask = rng.random((n, m)) < 0.5
        rows, cols = np.nonzero(mask)
        pm = PartialMatrix(n=n, m=m, rows=rows, cols=cols,
                           values=A_true[rows, cols])
        del mask, rows, cols
        Y = rng.standard_normal((n, 20))
        tracemalloc.start()
        try:
            got = evaluate(X, pm, Y, A_true, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.fitted_rank == 10
        assert peak <= 0.25 * 8 * n * m

    def test_r_squared_one_n_by_d_temporary(self):
        # the fitted block is freed before the centered total is formed
        rng = np.random.default_rng(19)
        n, m, d = 4000, 6, 40
        X = rng.standard_normal((n, m))
        Y = rng.standard_normal((n, d))
        U, s, _ = np.linalg.svd(X, full_matrices=False)
        tracemalloc.start()
        try:
            r_squared(X, Y, svd=(U, s))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * d * 8

    def test_evaluate_blas_single_threaded_inside_and_restored(
            self, monkeypatch, blas_threads):
        before = blas_threads()
        seen = []
        fit = objective.objective_svd

        def spy(*args, **kwargs):
            seen.append(blas_threads())
            return fit(*args, **kwargs)

        monkeypatch.setattr(objective, "objective_svd", spy)
        rng = np.random.default_rng(17)
        pm, Y = _random_instance(rng)
        X = rng.standard_normal((pm.n, pm.m))
        evaluate(X, pm, Y, X, 1.0, 1.0)
        assert seen == [dict.fromkeys(before, 1)]
        assert blas_threads() == before


class TestFactorizationBound:
    def test_nuclear_norm_bound_and_equality(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            Uf = rng.standard_normal((9, 3))
            Vf = rng.standard_normal((7, 3))
            nuc = np.linalg.svd(Uf @ Vf.T, compute_uv=False).sum()
            assert nuc <= 0.5 * (np.sum(Uf ** 2) + np.sum(Vf ** 2)) + 1e-8
        # equality at balanced factors
        X = rng.standard_normal((9, 7))
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        L = U * np.sqrt(s)
        R = Vt.T * np.sqrt(s)
        assert 0.5 * (np.sum(L ** 2) + np.sum(R ** 2)) == pytest.approx(
            s.sum(), rel=1e-10)


def _run_child(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a child Python on this package, failing the test if
    it has not returned within 60 s."""
    src = str(Path(mpadmm.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_evaluate_rejects_a_non_finite_estimate(bad):
    # in a child: the SVD of an estimate with an infinite entry may never
    # return, and one with a NaN raises LinAlgError
    out = _run_child(f"""
        import numpy as np
        from mpadmm.data import generate_synthetic
        from mpadmm.exceptions import NumericalError
        from mpadmm.objective import evaluate
        pm, si, gt = generate_synthetic(14, 10, 2, 2, 0.3, 0.2, 1)
        X = np.ones((14, 10))
        X[0, 0] = float("{bad}")
        try:
            evaluate(X, pm, si.Y, gt.A_true, 1.0, 1.0)
        except NumericalError as exc:
            print(exc)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "non-finite estimate"
