import numpy as np
import pytest
import scipy.sparse as sp

import mpadmm.baselines as baselines
from mpadmm.admm import ObservationMasks
from mpadmm.baselines import (iterative_svd, scaled_gd, scaled_gd_gradients,
                              scaled_gd_loss, soft_impute)
from mpadmm.data import PartialMatrix, generate_synthetic
from mpadmm.exceptions import ParameterError
from mpadmm.linalg import soft_threshold_svd
from mpadmm.objective import err_l2, ols_alpha


def _hide_entries(A, hidden):
    n, m = A.shape
    mask = np.ones((n, m), dtype=bool)
    for i, j in hidden:
        mask[i, j] = False
    r, c = np.nonzero(mask)
    return PartialMatrix(n=n, m=m, rows=r, cols=c, values=A[r, c])


def _naive_isvd_step(X, missing, k):
    """Per-entry reference for one imputation pass: each missing (i, j) is
    regressed on the right factor with its j-th row removed."""
    _, _, Vt = np.linalg.svd(X, full_matrices=False)
    V = Vt[:k].T
    X_new = X.copy()
    for i, j in zip(*np.nonzero(missing)):
        v_j = V[j]
        G = V.T @ V - np.outer(v_j, v_j)
        coef = np.linalg.pinv(G, rcond=1e-10) @ (V.T @ X[i] - v_j * X[i, j])
        X_new[i, j] = v_j @ coef
    return X_new


class TestIterativeSVD:
    def test_no_missing_returns_input(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 5))
        pm = _hide_entries(A, [])
        res = iterative_svd(pm, 2)
        assert res.iterations == 0
        assert res.termination == "tolerance_met"
        assert np.array_equal(res.X_hat, A)

    def test_row_mean_initialization(self):
        A = np.array([[1.0, 3.0, 100.0],
                      [4.0, 8.0, 6.0],
                      [-1.0, -2.0, -3.0]])
        pm = _hide_entries(A, [(0, 2), (2, 0), (2, 1), (2, 2)])
        res = iterative_svd(pm, 1, max_iters=0)
        # missing entries hold their row's observed mean; a fully hidden
        # row holds the global observed mean
        assert res.X_hat[0, 2] == pytest.approx(2.0)
        global_mean = np.mean([1.0, 3.0, 4.0, 8.0, 6.0])
        assert np.allclose(res.X_hat[2], global_mean)

    def test_observed_entries_preserved(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(0.5, 1.5, size=8)
        v = rng.uniform(0.5, 1.5, size=6)
        A = np.outer(u, v)
        pm = _hide_entries(A, [(0, 0), (3, 4), (7, 5)])
        res = iterative_svd(pm, 1)
        assert np.array_equal(res.X_hat[pm.rows, pm.cols], pm.values)

    def test_rank_one_completion_consistency(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(0.5, 1.5, size=10)
        v = rng.uniform(0.5, 1.5, size=8)
        A = np.outer(u, v)
        hidden = [(2, 3), (6, 1)]
        pm = _hide_entries(A, hidden)
        res = iterative_svd(pm, 1)
        assert res.termination == "tolerance_met"
        for i, j in hidden:
            # accuracy is limited by the absolute change-based stopping rule
            assert res.X_hat[i, j] == pytest.approx(A[i, j], abs=0.05)

    def test_matches_naive_per_entry_loop(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((9, 7))
        hidden = [(0, 1), (2, 2), (4, 6), (8, 0), (5, 3)]
        pm = _hide_entries(A, hidden)
        missing = ~pm.mask()
        # reproduce the row-mean start, then one vectorized pass
        res0 = iterative_svd(pm, 3, max_iters=0)
        res1 = iterative_svd(pm, 3, max_iters=1)
        want = _naive_isvd_step(res0.X_hat, missing, 3)
        assert np.max(np.abs(res1.X_hat - want)) < 1e-12

    @staticmethod
    def _one_pass(pm, k):
        """(closed-form pass, per-entry reference pass) from the row-mean
        start, and the start itself."""
        X0 = iterative_svd(pm, k, max_iters=0).X_hat
        got = iterative_svd(pm, k, max_iters=1).X_hat
        return got, _naive_isvd_step(X0, ~pm.mask(), k), X0

    def test_k1_matches_naive_per_entry_loop(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((9, 7))
        pm = _hide_entries(A, [(0, 1), (2, 2), (4, 6), (8, 0), (5, 3)])
        got, want, _ = self._one_pass(pm, 1)
        assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))

    def test_wide_matches_naive_per_entry_loop(self):
        # n < m: the basis comes from X X^T and the Q of X^T W
        rng = np.random.default_rng(14)
        A = rng.standard_normal((12, 30))
        pm = _hide_entries(A, [(0, 3), (5, 7), (11, 29), (2, 0), (6, 15)])
        got, want, _ = self._one_pass(pm, 3)
        assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))

    @staticmethod
    def _dominant_column(tilt):
        """12 x 6 data whose row-mean start has a largest column 2 that is
        orthogonal to the others, then tilted by `tilt` times column 0.
        With no tilt e_2 spans a top singular direction, so its leverage
        is 1 to rounding; rows 1 and 5 miss column 2."""
        rng = np.random.default_rng(15)
        A = rng.standard_normal((12, 6))
        hidden = [(1, 2), (1, 4), (5, 2), (5, 0)]
        fixed, others = [1, 5], [0, 1, 3, 4, 5]
        free = [i for i in range(12) if i not in fixed]
        X0 = A.copy()  # the row-mean start, which column 2 does not enter
        X0[1, [2, 4]] = A[1, [0, 1, 3, 5]].mean()
        X0[5, [2, 0]] = A[5, [1, 3, 4, 5]].mean()
        B = X0[:, others]
        r = 5.0 * rng.standard_normal(len(free))
        rhs = B[free].T @ r + B[fixed].T @ X0[fixed, 2]
        A[free, 2] = (r - B[free] @ np.linalg.solve(B[free].T @ B[free], rhs)
                      + tilt * B[free, 0])
        return _hide_entries(A, hidden)

    def _leverage_2(self, X):
        V = np.linalg.svd(X)[2][:2].T
        return V[2] @ V[2]

    def test_leverage_at_pinv_cut_matches_naive_per_entry_loop(self):
        # pinv cuts e_2 and both passes impute 0 there, where
        # 1 / (1 - l_j) would blow up
        got, want, start = self._one_pass(self._dominant_column(0.0), 2)
        assert abs(1.0 - self._leverage_2(start)) <= 1e-10
        assert np.all(got[[1, 5], 2] == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))

    def test_leverage_just_outside_pinv_cut_matches_naive_per_entry_loop(self):
        # 1 - l_2 is about 2e-6: pinv keeps the direction, and its weight
        # 1 / (1 - l_2) amplifies rounding in both passes alike
        got, want, start = self._one_pass(self._dominant_column(1e-2), 2)
        assert 1e-10 < 1.0 - self._leverage_2(start) < 1e-5
        assert np.all(np.abs(got[[1, 5], 2]) > 1.0)
        assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))

    def test_random_passes_match_naive_per_entry_loop(self):
        # one pass on random instances whose k-th gap is open and whose
        # leverages stay clear of 1, where the subspace is well defined
        rng = np.random.default_rng(16)
        checked = 0
        for _ in range(30):
            n, m = rng.integers(6, 16, size=2)
            k = int(rng.integers(1, min(n, m)))
            A = rng.standard_normal((n, m))
            hidden = {(int(rng.integers(n)), int(rng.integers(m)))
                      for _ in range(4)}
            pm = _hide_entries(A, hidden)
            X0 = iterative_svd(pm, k, max_iters=0).X_hat
            _, s, Vt = np.linalg.svd(X0)
            lev = np.sum(Vt[:k] ** 2, axis=0)
            if (s.size > k and s[k - 1] < 1.01 * s[k]) or np.max(lev) > 1 - 1e-3:
                continue
            got, want, _ = self._one_pass(pm, k)
            assert (np.max(np.abs(got - want))
                    <= 1e-11 * max(1.0, np.max(np.abs(want))))
            checked += 1
        assert checked >= 10

    def test_several_passes_match_naive_per_entry_loop(self):
        pm, _, _ = generate_synthetic(200, 40, 3, 5, 0.9, 0.5, seed=4)
        missing = ~pm.mask()
        want = iterative_svd(pm, 3, max_iters=0).X_hat
        for _ in range(4):
            want = _naive_isvd_step(want, missing, 3)
        got = iterative_svd(pm, 3, max_iters=4)
        assert got.iterations == 4 and got.termination == "max_iters"
        assert (np.max(np.abs(got.X_hat - want))
                <= 1e-11 * max(1.0, np.max(np.abs(want))))

    def test_closed_gap_is_deterministic(self):
        # rank-one data with constant rows: the row-mean start is the data
        # itself, so s_2 = s_3 = 0 and the rank-3 subspace is not unique;
        # only determinism is asked of the basis there
        u = np.random.default_rng(17).uniform(0.5, 1.5, size=12)
        A = np.outer(u, np.ones(8))
        pm = _hide_entries(A, [(0, 1), (3, 4), (7, 7), (11, 0)])
        runs = [iterative_svd(pm, 3, max_iters=3) for _ in range(2)]
        assert np.all(np.isfinite(runs[0].X_hat))
        assert np.array_equal(runs[0].X_hat, runs[1].X_hat)
        assert runs[0].iterations == runs[1].iterations

    def test_parameter_errors(self):
        pm = PartialMatrix(n=3, m=3, rows=[], cols=[], values=[])
        with pytest.raises(ParameterError):
            iterative_svd(pm, 1)
        pm = PartialMatrix(n=3, m=3, rows=[0], cols=[0], values=[1.0])
        with pytest.raises(ParameterError):
            iterative_svd(pm, 4)


class TestSoftImpute:
    def test_zero_threshold_fills_with_data(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 5))
        pm = _hide_entries(A, [(1, 1), (4, 2)])
        res = soft_impute(pm, 0.0)
        assert res.termination == "tolerance_met"
        assert np.max(np.abs(res.X_hat - pm.to_dense_zero_filled())) < 1e-12

    def test_total_shrinkage_returns_zero(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 4))
        pm = _hide_entries(A, [(0, 0)])
        tau = np.linalg.svd(pm.to_dense_zero_filled(),
                            compute_uv=False)[0] + 1.0
        res = soft_impute(pm, tau)
        assert res.iterations == 1
        assert np.allclose(res.X_hat, 0.0)

    def test_fixed_point_self_consistency(self):
        pm, _, _ = generate_synthetic(20, 15, 2, 2, 0.4, 0.0, seed=6)
        res = soft_impute(pm, 0.5, eps=1e-12)
        obs = pm.mask()
        W = np.where(obs, pm.to_dense_zero_filled(), res.X_hat)
        assert np.linalg.norm(soft_threshold_svd(W, 0.5) - res.X_hat) < 1e-3

    def test_each_step_is_the_prox_minimizer(self):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((8, 6))
        tau = 0.9
        Z = soft_threshold_svd(W, tau)

        def prox_obj(X):
            return (0.5 * np.sum((X - W) ** 2)
                    + tau * np.linalg.svd(X, compute_uv=False).sum())

        best = prox_obj(Z)
        for _ in range(50):
            assert best <= prox_obj(Z + 0.1 * rng.standard_normal(Z.shape)) + 1e-10

    def test_negative_tau(self):
        pm = PartialMatrix(n=2, m=2, rows=[0], cols=[0], values=[1.0])
        with pytest.raises(ParameterError):
            soft_impute(pm, -1.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau(self, tau):
        pm, _, _ = generate_synthetic(20, 15, 2, 2, 0.4, 0.0, seed=6)
        with pytest.raises(ParameterError):
            soft_impute(pm, tau)
        with pytest.raises(ParameterError):
            soft_threshold_svd(pm.to_dense_zero_filled(), tau)

    @pytest.mark.parametrize("k_cap", [0, -1, 16])
    def test_k_cap_out_of_range(self, k_cap):
        # -1 once zeroed only the last singular value; 16 > min(n, m)
        pm, _, _ = generate_synthetic(20, 15, 2, 2, 0.4, 0.0, seed=6)
        with pytest.raises(ParameterError):
            soft_impute(pm, 0.5, k_cap=k_cap)

    def test_k_cap_at_min_dimension_accepted(self):
        pm, _, _ = generate_synthetic(20, 15, 2, 2, 0.4, 0.0, seed=6)
        full = soft_impute(pm, 0.5, max_iters=3)
        capped = soft_impute(pm, 0.5, k_cap=15, max_iters=3)
        assert np.array_equal(full.X_hat, capped.X_hat)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1e-4])
    def test_bad_eps(self, eps):
        pm, _, _ = generate_synthetic(20, 15, 2, 2, 0.4, 0.0, seed=6)
        with pytest.raises(ParameterError):
            soft_impute(pm, 0.5, eps=eps)

    def test_negative_max_rank(self):
        with pytest.raises(ParameterError):
            soft_threshold_svd(np.eye(3), 0.5, max_rank=-1)
        assert np.array_equal(soft_threshold_svd(np.eye(3), 0.5, max_rank=0),
                              np.zeros((3, 3)))


class TestScaledGD:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        n, m, k, d = 5, 4, 2, 3
        A = rng.standard_normal((n, m))
        pm = _hide_entries(A, [(0, 1), (3, 2)])
        Y = rng.standard_normal((n, d))
        U = rng.standard_normal((n, k))
        V = rng.standard_normal((m, k))
        alpha = rng.standard_normal((m, d))
        lam, gamma = 0.7, 0.3
        obs = ObservationMasks.from_partial(pm).by_row
        gU, gV = scaled_gd_gradients(U, V, obs, Y, alpha, lam, gamma)
        h = 1e-5
        for arr, grad in ((U, gU), (V, gV)):
            for idx in np.ndindex(arr.shape):
                arr[idx] += h
                up = scaled_gd_loss(U, V, pm, Y, alpha, lam, gamma)
                arr[idx] -= 2 * h
                dn = scaled_gd_loss(U, V, pm, Y, alpha, lam, gamma)
                arr[idx] += h
                assert grad[idx] == pytest.approx((up - dn) / (2 * h),
                                                  abs=1e-5, rel=1e-5)

    def test_loss_and_gradients_bitwise_per_entry_gather(self):
        # the blocked gather of fit_term / fit_residuals against the
        # formula that gathers U[rows] and V[cols] at every entry at once
        pm, si, _ = generate_synthetic(n=1000, m=100, k=5, d=150,
                                       miss_frac=0.9, sigma=2.0, seed=0)
        rng = np.random.default_rng(18)
        U = rng.standard_normal((pm.n, 5))
        V = rng.standard_normal((pm.m, 5))
        Y = si.Y
        alpha = ols_alpha((U, V), Y)
        lam, gamma = 1.0, 1.0
        diff = np.einsum("ij,ij->i", U[pm.rows], V[pm.cols]) - pm.values
        E = Y - U @ (V.T @ alpha)
        want = (float(diff @ diff) + lam * float(np.sum(E * E))
                + 0.5 * gamma * (float(np.sum(U * U)) + float(np.sum(V * V))))
        assert scaled_gd_loss(U, V, pm, Y, alpha, lam, gamma) == want
        Rs = sp.csr_array((diff, (pm.rows, pm.cols)), shape=(pm.n, pm.m))
        want_u = (2.0 * (Rs @ V) - 2.0 * lam * (E @ (alpha.T @ V))
                  + gamma * U)
        want_v = (2.0 * (Rs.T @ U) - 2.0 * lam * (alpha @ (E.T @ U))
                  + gamma * V)
        obs = ObservationMasks.from_partial(pm).by_row
        gU, gV = scaled_gd_gradients(U, V, obs, Y, alpha, lam, gamma)
        assert np.array_equal(gU, want_u) and np.array_equal(gV, want_v)

    def test_gradients_on_one_index_per_run(self, monkeypatch):
        # scaled_gd builds the observation index once and hands it to
        # every gradient call; the gradients are bitwise those on a COO
        # conversion of the observations, as built per call before
        pm, si, _ = generate_synthetic(n=1000, m=100, k=5, d=150,
                                       miss_frac=0.9, sigma=2.0, seed=0)
        coo = sp.csr_array((pm.values, (pm.rows, pm.cols)),
                           shape=(pm.n, pm.m))
        built, seen, grads = [], [], baselines.scaled_gd_gradients
        from_partial = baselines.ObservationMasks.from_partial

        def count(data):
            built.append(from_partial(data))
            return built[-1]

        def spy(U, V, obs, Y, alpha, lam, gamma):
            seen.append(obs)
            got = grads(U, V, obs, Y, alpha, lam, gamma)
            want = grads(U, V, coo, Y, alpha, lam, gamma)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            return got

        monkeypatch.setattr(baselines.ObservationMasks, "from_partial", count)
        monkeypatch.setattr(baselines, "scaled_gd_gradients", spy)
        res = scaled_gd(pm, si.Y, 1.0, 1.0, 5, max_iters=5)
        assert len(seen) == res.iterations >= 1
        assert len(built) == 1
        assert all(obs is built[0].by_row for obs in seen)

    def test_exact_factors_are_a_fixed_point(self):
        # fully observed rank-k data with no regularization: the spectral
        # initialization is already optimal, so the run stops immediately
        pm, si, gt = generate_synthetic(15, 10, 2, 2, 0.0, 0.0, seed=9)
        res = scaled_gd(pm, si.Y, 0.0, 0.0, 2)
        assert res.termination == "tolerance_met"
        assert res.iterations == 1
        assert np.max(np.abs(res.X_hat - gt.A_true)) < 1e-8
        assert res.monotone_violations == 0

    def test_loss_decreases_from_spectral_init(self):
        pm, si, gt = generate_synthetic(30, 20, 2, 3, 0.2, 0.0, seed=10)
        res = scaled_gd(pm, si.Y, 1.0, 1e-6, 2, max_iters=300)
        A0 = pm.to_dense_zero_filled()
        Uf, s, Vt = np.linalg.svd(A0, full_matrices=False)
        U0 = Uf[:, :2] * np.sqrt(s[:2])
        V0 = Vt[:2].T * np.sqrt(s[:2])
        a0 = ols_alpha(U0 @ V0.T, si.Y)
        init_loss = scaled_gd_loss(U0, V0, pm, si.Y, a0, 1.0, 1e-6)
        a1 = ols_alpha(res.X_hat, si.Y)
        final_loss = scaled_gd_loss(res.U_f, res.V_f, pm, si.Y, a1, 1.0, 1e-6)
        assert final_loss < init_loss
        assert err_l2(res.X_hat, gt.A_true) < err_l2(A0, gt.A_true)
        assert res.U_f.shape == (30, 2) and res.V_f.shape == (20, 2)
        assert res.monotone_violations <= res.iterations

    def test_protocol_instance_does_not_diverge(self):
        # the paper's comparison instance, where the fixed step 1/(10 s1)
        # ignores the curvature of the lam ||Y - X alpha||^2 term; without
        # backtracking the loss rises from the first step and err_l2 ends
        # in the thousands
        pm, si, gt = generate_synthetic(n=1000, m=100, k=5, d=150,
                                        miss_frac=0.9, sigma=2.0, seed=0)
        res = scaled_gd(pm, si.Y, 1.0, 1.0, 5)
        assert np.all(np.isfinite(res.X_hat))
        assert err_l2(res.X_hat, gt.A_true) < 1.0
        assert res.monotone_violations == 0

    def test_parameter_errors(self):
        pm = PartialMatrix(n=3, m=3, rows=[0], cols=[0], values=[1.0])
        with pytest.raises(ParameterError):
            scaled_gd(pm, np.zeros((3, 1)), 1.0, 1.0, 4)
        empty = PartialMatrix(n=3, m=3, rows=[0], cols=[0], values=[0.0])
        with pytest.raises(ParameterError):
            scaled_gd(empty, np.zeros((3, 1)), 1.0, 1.0, 1)
        # zero data above the dense cutoff, where the start is Lanczos
        zero = PartialMatrix(n=60, m=40, rows=[0, 5], cols=[1, 2],
                             values=[0.0, 0.0])
        with pytest.raises(ParameterError):
            scaled_gd(zero, np.zeros((60, 1)), 1.0, 1.0, 2)

    @pytest.mark.parametrize("lam,gamma", [(np.nan, 1.0), (np.inf, 1.0),
                                           (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_weights(self, lam, gamma):
        pm, si, _ = generate_synthetic(20, 15, 2, 2, 0.4, 0.5, seed=8)
        with pytest.raises(ParameterError):
            scaled_gd(pm, si.Y, lam, gamma, 2)

    @pytest.mark.parametrize("lam,gamma", [(-1.0, 1.0), (1.0, -1.0)])
    def test_negative_weights(self, lam, gamma):
        # a negative weight makes the loss unbounded below
        pm, si, _ = generate_synthetic(20, 15, 2, 2, 0.4, 0.5, seed=8)
        with pytest.raises(ParameterError, match="nonnegative"):
            scaled_gd(pm, si.Y, lam, gamma, 2)

    def test_no_dense_fill(self, monkeypatch):
        def refuse(self):
            raise AssertionError("scaled_gd formed the zero-filled matrix")

        pm, si, gt = generate_synthetic(80, 50, 3, 2, 0.5, 0.5, seed=11)
        monkeypatch.setattr(PartialMatrix, "to_dense_zero_filled", refuse)
        res = scaled_gd(pm, si.Y, 1.0, 1.0, 3)
        assert err_l2(res.X_hat, gt.A_true) < 0.1


@pytest.mark.parametrize("run", [
    lambda pm, Y: iterative_svd(pm, 2),
    lambda pm, Y: soft_impute(pm, 0.5, k_cap=2),
    lambda pm, Y: scaled_gd(pm, Y, 1.0, 1.0, 2),
], ids=["iterative_svd", "soft_impute", "scaled_gd"])
def test_blas_single_threaded_inside_and_restored(run, monkeypatch,
                                                  blas_threads):
    before = blas_threads()
    seen = []
    result_type = baselines.BaselineResult

    def spy(*args, **kwargs):
        seen.append(blas_threads())
        return result_type(*args, **kwargs)

    monkeypatch.setattr(baselines, "BaselineResult", spy)
    pm, si, _ = generate_synthetic(15, 10, 2, 2, 0.4, 0.5, seed=6)
    run(pm, si.Y)
    assert seen == [dict.fromkeys(before, 1)]
    assert blas_threads() == before
