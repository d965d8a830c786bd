import ctypes
import functools
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse as sp

import mpadmm.admm as admm
import mpadmm.linalg as linalg
from mpadmm import objective
from mpadmm.admm import (IterateState, ObservationMasks, RankDeficiencyWarning,
                         SolveReport, augmented_lagrangian,
                         constraint_residuals,
                         dual_residual, first_order_check, primal_residuals,
                         ridge_groups, ridge_route, solve, update_duals,
                         update_P, update_U, update_V, update_Z)
from mpadmm.data import (Hyperparams, PartialMatrix, SideInfo,
                         generate_synthetic)
from mpadmm.exceptions import NumericalError, ParameterError
from mpadmm.linalg import (apply_projection, pgram_compress, side_basis,
                           single_blas_thread, truncated_svd)
from mpadmm.objective import err_l2


def _p_update(Y, Z, Phi, lam, rho1, k):
    """`update_P` on Y's side basis and the compression of [Z, Phi]."""
    basis = side_basis(Y)
    return update_P(basis, pgram_compress(basis, Z, Phi), lam, rho1, k)


def _dual_residual(st, Y, lam):
    """`dual_residual` on Y's side basis and the compression of st's
    [Z, Phi]."""
    basis = side_basis(Y)
    return dual_residual(st, basis, pgram_compress(basis, st.Z, st.Phi), lam)


def _random_state(rng, n=12, m=9, k=3, frac=0.6):
    A = rng.standard_normal((n, m))
    mask = rng.random((n, m)) < frac
    mask[0, :] = False  # keep one empty row
    mask[:, 0] = False  # and one empty column
    mask[1, 1] = True
    r, c = np.nonzero(mask)
    pm = PartialMatrix(n=n, m=m, rows=r, cols=c, values=A[r, c])
    st = IterateState(
        U=rng.standard_normal((n, k)),
        V=rng.standard_normal((m, k)),
        M=np.linalg.qr(rng.standard_normal((n, k)))[0],
        Z=rng.standard_normal((n, k)),
        Phi=rng.standard_normal((n, k)),
        Psi=rng.standard_normal((n, k)),
    )
    return pm, st


def _dense_row_oracle(pm, V, Z, Psi, gamma, rho2):
    """Per-row normal equations built from dense diagonal masks."""
    n, k = Z.shape
    A = pm.to_dense_zero_filled()
    W = pm.mask().astype(float)
    out = np.empty((n, k))
    for i in range(n):
        Wi = np.diag(W[i])
        G = 2.0 * V.T @ Wi @ V + (gamma + rho2) * np.eye(k)
        rhs = 2.0 * V.T @ Wi @ A[i] + Psi[i] + rho2 * Z[i]
        out[i] = np.linalg.solve(G, rhs)
    return out


def _dense_col_oracle(pm, U, gamma):
    """Per-column normal equations of the V step from dense masks."""
    A = pm.to_dense_zero_filled()
    W = pm.mask().astype(float)
    k = U.shape[1]
    out = np.empty((pm.m, k))
    for j in range(pm.m):
        Wj = np.diag(W[:, j])
        G = 2.0 * U.T @ Wj @ U + gamma * np.eye(k)
        out[j] = np.linalg.solve(G, 2.0 * U.T @ Wj @ A[:, j])
    return out


def _tracked(report) -> set:
    """Which of (dual_res, objective, lagrangian) each record holds."""
    return {(r.dual_res is not None, r.objective is not None,
             r.lagrangian is not None) for r in report.trace}


class TestUpdateU:
    def test_dense_oracle(self):
        rng = np.random.default_rng(0)
        pm, st = _random_state(rng)
        masks = ObservationMasks.from_partial(pm)
        got = update_U(st.V, st.Z, st.Psi, masks, 0.7, 3.0)
        want = _dense_row_oracle(pm, st.V, st.Z, st.Psi, 0.7, 3.0)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_empty_row_closed_form(self):
        rng = np.random.default_rng(1)
        pm, st = _random_state(rng)
        masks = ObservationMasks.from_partial(pm)
        gamma, rho2 = 0.9, 2.0
        got = update_U(st.V, st.Z, st.Psi, masks, gamma, rho2)
        # row 0 has no observations: ridge term only
        want0 = (st.Psi[0] + rho2 * st.Z[0]) / (gamma + rho2)
        assert np.max(np.abs(got[0] - want0)) < 1e-12

    def test_large_rho2_dominates(self):
        rng = np.random.default_rng(2)
        pm, st = _random_state(rng)
        masks = ObservationMasks.from_partial(pm)
        got = update_U(st.V, st.Z, st.Psi, masks, 1.0, 1e8)
        assert np.max(np.abs(got - st.Z)) < 1e-5

    def test_thread_invariance_exact(self):
        rng = np.random.default_rng(3)
        pm, st = _random_state(rng, n=30, m=20)
        masks = ObservationMasks.from_partial(pm)
        a = update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0)
        with ThreadPoolExecutor(1) as pool:
            b = update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0, pool=pool)
        assert np.array_equal(a, b)

    def test_bad_penalty(self):
        rng = np.random.default_rng(4)
        pm, st = _random_state(rng)
        masks = ObservationMasks.from_partial(pm)
        with pytest.raises(ParameterError):
            update_U(st.V, st.Z, st.Psi, masks, 0.0, 0.0)


class TestUpdateV:
    def test_dense_oracle(self):
        rng = np.random.default_rng(5)
        pm, st = _random_state(rng)
        masks = ObservationMasks.from_partial(pm)
        got = update_V(st.U, masks, 0.8)
        want = _dense_col_oracle(pm, st.U, 0.8)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_empty_column_is_zero(self):
        rng = np.random.default_rng(6)
        pm, st = _random_state(rng)
        masks = ObservationMasks.from_partial(pm)
        got = update_V(st.U, masks, 1.3)
        assert np.allclose(got[0], 0.0)

    def test_small_gamma_least_squares_limit(self):
        rng = np.random.default_rng(7)
        n, m, k = 10, 6, 2
        U = rng.standard_normal((n, k))
        A = rng.standard_normal((n, m))
        r, c = np.nonzero(np.ones((n, m), dtype=bool))
        pm = PartialMatrix(n=n, m=m, rows=r, cols=c, values=A[r, c])
        masks = ObservationMasks.from_partial(pm)
        got = update_V(U, masks, 1e-10)
        want = np.linalg.lstsq(U, A, rcond=None)[0].T
        assert np.max(np.abs(got - want)) < 1e-6

    def test_thread_invariance_exact(self):
        rng = np.random.default_rng(8)
        pm, st = _random_state(rng, n=25, m=18)
        masks = ObservationMasks.from_partial(pm)
        a = update_V(st.U, masks, 0.6)
        with ThreadPoolExecutor(1) as pool:
            b = update_V(st.U, masks, 0.6, pool=pool)
        assert np.array_equal(a, b)


@pytest.fixture(params=[None, 64], ids=["equal", "weighted"])
def split_always(request, monkeypatch):
    """Run the ridge products on two lanes at any size.  "weighted" also
    cuts the uint8 mask into row blocks of 64 elements (`linalg._blocks`),
    so the mask route's Gram lane runs many small products, and its V
    step sums over them, while the worker fills the right-hand sides."""
    monkeypatch.setattr(admm, "_SPLIT_WORK", 0)
    if request.param is not None:
        monkeypatch.setattr(linalg, "_BLOCK", request.param)


ROUTES = ("sparse", "mask")


def _force_route(monkeypatch, route):
    """Put every ridge step on `route` of `ridge_route`, whatever the
    density."""
    monkeypatch.setattr(admm, "_MASK_DENSITY",
                        0.0 if route == "mask" else np.inf)


class _ExecutorSpy:
    """Stands in for `ThreadPoolExecutor` and counts the pools made."""

    def __init__(self, monkeypatch):
        self.pools = []
        real = admm.ThreadPoolExecutor

        def make(*args, **kwargs):
            pool = real(*args, **kwargs)
            self.pools.append(pool)
            return pool

        monkeypatch.setattr(admm, "ThreadPoolExecutor", make)


class TestRidgeSplit:
    THREADS = (1, 2, 3, 8)

    def test_groups_rule(self):
        # the benchmark and criterion-10 shapes at their observed counts
        # ((1 - miss_frac) n m): protocol, scale and criterion 10 stay on
        # one lane, dense runs its right-hand sides on one worker
        for threads in self.THREADS:
            assert ridge_groups(10_000, 5, threads) == 1  # protocol
            assert ridge_groups(200_000, 5, threads) == 1  # scale
            for n in (2000, 4000):  # criterion 10
                assert ridge_groups(10 * n, 5, threads) == 1
            assert ridge_groups(1_000_000, 10, threads) == min(threads, 2)
        # k = 10: 55 Gram and 10 right-hand-side entries
        small = -(-admm._SPLIT_WORK // 65) - 1
        for k, nnz in ((10, small + 1), (1, 10 ** 9), (20, 10 ** 9)):
            assert ridge_groups(nnz, k, 1) == 1
            assert ridge_groups(nnz, k, 24) == 2
        assert ridge_groups(small, 10, 24) == 1

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_updates_bitwise_equal_for_every_thread_count(self, split_always,
                                                          monkeypatch, k):
        rng = np.random.default_rng(30 + k)
        pm, st = _random_state(rng, n=40, m=30, k=k, frac=0.5)
        masks = ObservationMasks.from_partial(pm)
        for route in ROUTES:
            _force_route(monkeypatch, route)
            assert ridge_groups(pm.nnz, k, 2) == 2
            want_u = update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0)
            want_v = update_V(st.U, masks, 0.6)
            with ThreadPoolExecutor(1) as pool:
                got_u = update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0,
                                 pool=pool)
                got_v = update_V(st.U, masks, 0.6, pool=pool)
            assert np.array_equal(got_u, want_u), route
            assert np.array_equal(got_v, want_v), route

    def test_many_workers_under_fast_switching(self, split_always,
                                               monkeypatch):
        # the caller and the worker each write their own rows of the
        # shared [Gram triangle | right-hand sides] buffer, switching
        # every microsecond
        rng = np.random.default_rng(34)
        pm, st = _random_state(rng, n=300, m=200, k=6, frac=0.5)
        masks = ObservationMasks.from_partial(pm)
        interval = sys.getswitchinterval()
        for route in ROUTES:
            _force_route(monkeypatch, route)
            want = update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0)
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(1) as pool:
                    for _ in range(20):
                        got = update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0,
                                       pool=pool)
                        assert np.array_equal(got, want), route
            finally:
                sys.setswitchinterval(interval)

    def test_worker_error_reaches_the_caller(self, monkeypatch,
                                             split_always):
        rng = np.random.default_rng(35)
        pm, st = _random_state(rng, n=30, m=20, k=3)
        masks = ObservationMasks.from_partial(pm)
        products = admm.sp.csr_array.__matmul__

        def fail_off_main(self, other):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return products(self, other)

        monkeypatch.setattr(admm.sp.csr_array, "__matmul__", fail_off_main)
        update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0)
        with (ThreadPoolExecutor(1) as pool,
              pytest.raises(RuntimeError, match="worker failed")):
            update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0, pool=pool)

    def test_split_above_the_size_bitwise_equal(self, monkeypatch):
        # the split size as it is: k = 10 and nnz above 2^24 / 65; a
        # direct call runs on the pool it is passed and opens none
        rng = np.random.default_rng(33)
        pm, st = _random_state(rng, n=600, m=500, k=10, frac=0.9)
        masks = ObservationMasks.from_partial(pm)
        spy = _ExecutorSpy(monkeypatch)
        assert ridge_groups(pm.nnz, 10, 2) == 2
        for route in ROUTES:
            _force_route(monkeypatch, route)
            want = update_V(st.U, masks, 0.6)
            with ThreadPoolExecutor(1) as pool:
                got = update_V(st.U, masks, 0.6, pool=pool)
            assert np.array_equal(got, want), route
        assert spy.pools == []

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("track", [True, False])
    def test_solve_bitwise_equal_for_every_thread_count(self, split_always,
                                                        monkeypatch, k,
                                                        track):
        pm, si, _ = generate_synthetic(40, 30, k, 3, 0.5, 0.5, seed=12)
        for route in ROUTES:
            _force_route(monkeypatch, route)
            runs = []
            for threads in self.THREADS:
                hp = Hyperparams(k=k, max_iters=20, eps=1e-16,
                                 threads=threads)
                state, report = solve(pm, si, hp, track_objective=track,
                                      track_dual_residual=track,
                                      track_lagrangian=track)
                assert report.iterations == 20
                assert report.ridge_route == route
                assert report.ridge_groups == min(threads, 2)
                runs.append((state, report))
            (want, r_want), *rest = runs
            for state, report in rest:
                for name in ("U", "V", "M", "Z", "Phi", "Psi"):
                    assert np.array_equal(getattr(state, name),
                                          getattr(want, name)), (route, name)
                assert report.trace == r_want.trace, route
            assert _tracked(r_want) == {(track, track, track)}

    def test_gram_route_solve_bitwise_equal_for_threads(self, split_always):
        pm, si, _ = generate_synthetic(300, 60, 4, 3, 0.5, 0.5, seed=13)
        runs = []
        for threads in (1, 2):
            hp = Hyperparams(k=4, max_iters=10, eps=1e-16, threads=threads)
            state, report = solve(pm, si, hp)
            assert report.init_route == "gram"
            assert report.ridge_groups == threads
            runs.append((state, report))
        (want, r_want), (got, r_got) = runs
        for name in ("U", "V", "M", "Z", "Phi", "Psi"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert r_got.trace == r_want.trace

    def test_no_executor_below_the_split_size(self, monkeypatch):
        # the benchmark's protocol instance: nnz * (q + k) = 2e5
        spy = _ExecutorSpy(monkeypatch)
        pm, si, _ = generate_synthetic(1000, 100, 5, 150, 0.9, 2.0, seed=0)
        _, report = solve(pm, si, Hyperparams(k=5, max_iters=20, threads=2))
        assert report.ridge_route == "sparse"
        assert report.ridge_groups == 1
        assert spy.pools == []

    def test_one_executor_per_solve(self, monkeypatch, split_always):
        spy = _ExecutorSpy(monkeypatch)
        pm, si, _ = generate_synthetic(40, 30, 3, 3, 0.5, 0.5, seed=12)
        for route in ROUTES:
            _force_route(monkeypatch, route)
            spy.pools.clear()
            _, report = solve(pm, si, Hyperparams(k=3, max_iters=4,
                                                  eps=1e-16, threads=3))
            assert report.iterations == 4
            assert report.ridge_groups > 1
            assert len(spy.pools) == 1
            assert spy.pools[0]._max_workers == report.ridge_groups - 1

    def test_no_worker_outlives_the_solve(self, split_always, monkeypatch):
        pm, si, _ = generate_synthetic(40, 30, 3, 3, 0.5, 0.5, seed=12)
        before = threading.active_count()
        for route in ROUTES:
            _force_route(monkeypatch, route)
            _, report = solve(pm, si, Hyperparams(k=3, max_iters=3,
                                                  threads=8))
            assert report.ridge_groups > 1
            assert threading.active_count() == before

    def test_blas_single_threaded_inside_and_restored(self, monkeypatch,
                                                      split_always,
                                                      blas_threads):
        before = blas_threads()
        seen = []
        products = admm.sp.csr_array.__matmul__

        def spy(self, other):
            seen.append(blas_threads())
            return products(self, other)

        pm, si, _ = generate_synthetic(40, 30, 3, 3, 0.5, 0.5, seed=12)
        monkeypatch.setattr(admm.sp.csr_array, "__matmul__", spy)
        monkeypatch.setattr(admm.sp.csc_array, "__matmul__", spy)
        for route in ROUTES:
            _force_route(monkeypatch, route)
            seen.clear()
            _, report = solve(pm, si, Hyperparams(k=3, max_iters=2,
                                                  threads=3))
            assert report.ridge_groups > 1
            assert seen and all(s == dict.fromkeys(before, 1) for s in seen)
            assert blas_threads() == before


class TestRidgeRoute:
    def test_route_rule(self):
        # the benchmark and criterion-10 shapes, at their observed counts
        # ((1 - miss_frac) n m): 10% observed stays sparse, dense takes
        # the mask
        assert ridge_route(1000, 100, 10_000) == "sparse"  # protocol
        assert ridge_route(20_000, 100, 200_000) == "sparse"  # scale
        for n in (2000, 4000):  # criterion 10
            assert ridge_route(n, 100, 10 * n) == "sparse"
        assert ridge_route(2000, 1000, 1_000_000) == "mask"  # dense
        # the cut at 30% observed
        assert ridge_route(100, 50, 1499) == "sparse"
        assert ridge_route(100, 50, 1500) == "mask"

    def test_solve_reports_the_route(self):
        pm, si, _ = generate_synthetic(60, 40, 3, 3, 0.5, 0.5, seed=14)
        _, report = solve(pm, si, Hyperparams(k=3, max_iters=2))
        assert report.ridge_route == "mask"
        pm, si, _ = generate_synthetic(60, 40, 3, 3, 0.9, 0.5, seed=14)
        _, report = solve(pm, si, Hyperparams(k=3, max_iters=2))
        assert report.ridge_route == "sparse"

    # Gate, fixed before measuring: the mask route's U and V steps lie
    # within 1e-13 of the sparse route's, relative to the largest entry.
    # The seeds were not used while the route was written.
    @pytest.mark.parametrize("n,m,k,frac,seed", [
        (300, 200, 5, 0.1, 401), (300, 200, 10, 0.25, 402),
        (300, 200, 10, 0.35, 403), (500, 60, 2, 0.7, 404),
        (80, 400, 6, 0.5, 405), (120, 90, 4, 1.0, 406)])
    @pytest.mark.parametrize("block", [None, 100])
    def test_mask_route_agrees_with_sparse(self, monkeypatch, n, m, k, frac,
                                           seed, block):
        if block is not None:  # many row blocks and many column blocks
            monkeypatch.setattr(linalg, "_BLOCK", block)
            assert min(len(list(linalg._blocks(n, m))),
                       len(list(linalg._blocks(m, n)))) > 1
        rng = np.random.default_rng(seed)
        pm, st = _random_state(rng, n=n, m=m, k=k, frac=frac)
        masks = ObservationMasks.from_partial(pm)
        got = {}
        for route, density in (("sparse", np.inf), ("mask", 0.0)):
            monkeypatch.setattr(admm, "_MASK_DENSITY", density)
            assert ridge_route(n, m, pm.nnz) == route
            got[route] = (update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0),
                          update_V(st.U, masks, 0.6))
        for a, b in zip(got["mask"], got["sparse"]):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
        # the dense oracle holds on the mask route too
        want = _dense_row_oracle(pm, st.V, st.Z, st.Psi, 0.5, 2.0)
        assert np.max(np.abs(got["mask"][0] - want)) < 1e-10

    @pytest.mark.parametrize("route", ROUTES)
    def test_non_finite_result_names_its_block(self, monkeypatch, route):
        # row 1 is observed at column 1 (`_random_state`)
        _force_route(monkeypatch, route)
        rng = np.random.default_rng(36)
        pm, st = _random_state(rng)
        masks = ObservationMasks.from_partial(pm)
        Z, U = st.Z.copy(), st.U.copy()
        Z[1] = np.nan
        U[1] = np.nan
        with pytest.raises(NumericalError,
                           match="^non-finite values after U update$"):
            update_U(st.V, Z, st.Psi, masks, 0.5, 2.0)
        with pytest.raises(NumericalError,
                           match="^non-finite values after V update$"):
            update_V(U, masks, 0.6)

    # the Cholesky solve against the per-row and per-column dense oracles,
    # on the mask route and on the sparse route; row 0 and column 0 are
    # unobserved
    @pytest.mark.parametrize("k", [1, 2, 10, 15])
    @pytest.mark.parametrize("block", [None, 100])
    def test_mask_route_against_the_oracles(self, monkeypatch, k, block):
        if block is not None:  # many row blocks and many column blocks
            monkeypatch.setattr(linalg, "_BLOCK", block)
        rng = np.random.default_rng(410 + k)
        pm, st = _random_state(rng, n=60, m=45, k=k, frac=0.5)
        want_u = _dense_row_oracle(pm, st.V, st.Z, st.Psi, 0.5, 2.0)
        want_v = _dense_col_oracle(pm, st.U, 0.6)
        for route in ROUTES:
            _force_route(monkeypatch, route)
            masks = ObservationMasks.from_partial(pm)
            got_u = update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0)
            got_v = update_V(st.U, masks, 0.6)
            assert np.max(np.abs(got_u - want_u)) < 1e-10, route
            assert np.max(np.abs(got_v - want_v)) < 1e-10, route
            assert np.all(got_v[0] == 0.0), route  # no observations

    @pytest.mark.parametrize("route", ROUTES)
    def test_singular_system_names_its_block(self, monkeypatch, route):
        # 4 x 4, all observed, every row of the other factor 1e8 (1, 2):
        # each system 8e16 [[1, 2], [2, 4]] + 1e-14 I is singular in
        # floating point, exactly (every product and sum is exact)
        _force_route(monkeypatch, route)
        r, c = np.nonzero(np.ones((4, 4)))
        pm = PartialMatrix(n=4, m=4, rows=r, cols=c,
                           values=np.arange(1.0, 17.0))
        masks = ObservationMasks.from_partial(pm)
        F = np.full((4, 2), 1e8) * [1.0, 2.0]
        zeros = np.zeros((4, 2))
        with pytest.raises(NumericalError, match="the V update is singular"):
            update_V(F, masks, 1e-14)
        with pytest.raises(NumericalError, match="the U update is singular"):
            update_U(F, zeros, zeros, masks, 1e-14, 0.0)

    def test_indefinite_or_nan_system_on_the_mask_route(self, monkeypatch):
        # and on the sparse route: a NaN row of V reaches every row's Gram
        # on the mask route (mask zeros times NaN), and on the sparse route
        # the Grams of the rows observed at column 2
        rng = np.random.default_rng(37)
        pm, st = _random_state(rng)
        assert np.any(pm.cols == 2)
        V = st.V.copy()
        V[2] = np.nan
        real = admm._mask_gram

        def negated(mask, W, transpose, out):
            real(mask, W, transpose, out)
            np.negative(out, out=out)

        for route in ROUTES:
            _force_route(monkeypatch, route)
            masks = ObservationMasks.from_partial(pm)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError,
                                   match="^non-finite values after U update$"):
                    update_U(V, st.Z, st.Psi, masks, 0.5, 2.0)
                # negate every Gram: the mask's products or the pattern
                if route == "mask":
                    monkeypatch.setattr(admm, "_mask_gram", negated)
                else:
                    masks.row_pattern = -masks.row_pattern
                with pytest.raises(NumericalError,
                                   match="U update is singular or indefinite"):
                    update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0)

    def test_cholesky_pivots(self):
        # columns of [Gram triangle | right-hand side] at k = 2
        B = np.array([[2.0, 1.0, 2.0, 1.0, 1.0],
                      [1.0, 2.0, 1.0, 1.0, 1.0],  # indefinite
                      [3.0, 1.0, 2.0, 0.0, 1.0]]).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="pivot 1"):
                admm._solve_cholesky(B.copy(), 2, 0.0, None)
            B[:3, 1] = np.nan
            got = admm._solve_cholesky(B.copy(), 2, 0.0, None)
        # 2 G x = 2 r, G and r as written in columns 0 and 2 of B
        want = [np.linalg.solve([[2.0, 1.0], [1.0, 2.0]], [1.0, 1.0]),
                np.linalg.solve([[3.0, 1.0], [1.0, 2.0]], [0.0, 1.0])]
        assert np.all(np.isnan(got[1]))
        assert np.max(np.abs(got[[0, 2]] - want)) < 1e-15

    def test_mask_route_never_builds_the_pattern(self, monkeypatch):
        def refuse(self):
            raise AssertionError("pattern built on the mask route")

        monkeypatch.setattr(ObservationMasks, "row_pattern", property(refuse))
        monkeypatch.setattr(ObservationMasks, "col_pattern", property(refuse))
        pm, si, _ = generate_synthetic(60, 40, 4, 3, 0.4, 0.5, seed=15)
        for threads in (1, 2):
            _, report = solve(pm, si, Hyperparams(k=4, max_iters=3,
                                                  threads=threads))
            assert report.ridge_route == "mask"


class TestObservationIndex:
    @staticmethod
    def _shuffled(pm, rng):
        order = rng.permutation(pm.nnz)
        return PartialMatrix(n=pm.n, m=pm.m, rows=pm.rows[order],
                             cols=pm.cols[order], values=pm.values[order])

    def test_no_observations(self):
        rng = np.random.default_rng(19)
        _, st = _random_state(rng)
        pm = PartialMatrix(n=12, m=9, rows=[], cols=[], values=[])
        masks = ObservationMasks.from_partial(pm)
        got_u = update_U(st.V, st.Z, st.Psi, masks, 0.9, 2.0)
        want_u = (st.Psi + 2.0 * st.Z) / (0.9 + 2.0)
        assert np.max(np.abs(got_u - want_u)) <= 1e-15 * np.max(np.abs(want_u))
        assert np.array_equal(update_V(st.U, masks, 1.3), np.zeros((9, 3)))

    def test_entry_order_does_not_matter(self):
        # the index is canonical CSR, so every sum runs in the same order
        rng = np.random.default_rng(20)
        pm, st = _random_state(rng, n=40, m=30, k=4)
        masks = ObservationMasks.from_partial(pm)
        shuffled = ObservationMasks.from_partial(self._shuffled(pm, rng))
        assert np.array_equal(update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0),
                              update_U(st.V, st.Z, st.Psi, shuffled, 0.5, 2.0))
        assert np.array_equal(update_V(st.U, masks, 0.6),
                              update_V(st.U, shuffled, 0.6))
        Y = rng.standard_normal((pm.n, 3))
        E = np.where(pm.mask(), st.x_hat() - pm.to_dense_zero_filled(), 0.0)
        dense = {"U_stationarity": 2.0 * E @ st.V + 0.7 * st.U - st.Psi,
                 "V_stationarity": 2.0 * E.T @ st.U + 0.7 * st.V}
        for key, resid in dense.items():
            a, b = (self._residual_norm(st, data, Y, key)
                    for data in (pm, self._shuffled(pm, rng)))
            assert a == b
            assert a == pytest.approx(np.linalg.norm(resid), rel=1e-12)
        # PartialMatrix stores the entries row-major, so every sum over
        # them, ||a||^2 of the tracked objective and evaluate's fit term
        # included, runs in one order
        pm, si, gt = generate_synthetic(2000, 1000, 10, 20, 0.5, 0.5,
                                        seed=20)
        hp = Hyperparams(k=10, max_iters=5, seed=20)
        (st_a, rep_a), (st_b, rep_b) = (
            solve(data, si, hp) for data in (pm, self._shuffled(pm, rng)))
        for name in ("U", "V", "M", "Z", "Phi", "Psi"):
            assert np.array_equal(getattr(st_a, name), getattr(st_b, name))
        assert rep_a.trace == rep_b.trace
        X_hat = st_a.x_hat()
        assert (objective.evaluate(X_hat, pm, si.Y, gt.A_true, 1.0, 1.0)
                == objective.evaluate(X_hat, self._shuffled(pm, rng), si.Y,
                                      gt.A_true, 1.0, 1.0))

    @staticmethod
    def _residual_norm(st, pm, Y, key):
        """The residual norm behind first_order_check's `key`: the
        smallest tolerance that passes, found by bisection on the bit
        patterns of positive doubles, which are ordered like the values."""
        lo, hi = 0, int(np.float64(np.inf).view(np.int64))
        while lo < hi:
            mid = (lo + hi) // 2
            tol = float(np.int64(mid).view(np.float64))
            if first_order_check(st, pm, Y, 1.0, 0.7, tol)[key]:
                hi = mid
            else:
                lo = mid + 1
        return float(np.int64(lo).view(np.float64))

    def test_col_rows_has_one_entry_per_column(self):
        rng = np.random.default_rng(21)
        pm, _ = _random_state(rng)
        col_rows = ObservationMasks.from_partial(pm).col_rows
        assert len(col_rows) == pm.m
        for j, rows in enumerate(col_rows):
            assert np.array_equal(rows, np.sort(pm.rows[pm.cols == j]))

    @staticmethod
    def _reference(pm):
        """The index built as scipy's COO conversion plus a sorted CSR copy
        of its transpose; the patterns follow on those two arrays."""
        by_row = sp.csr_array((pm.values, (pm.rows, pm.cols)),
                              shape=(pm.n, pm.m))
        by_row.sort_indices()
        return ObservationMasks(by_row=by_row, by_col=by_row.T.tocsr())

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_bitwise_equal_to_coo_reference(self, shuffle):
        rng = np.random.default_rng(23)
        pm, st = _random_state(rng, n=200, m=60, k=4, frac=0.3)
        if shuffle:
            pm = self._shuffled(pm, rng)
        masks, ref = ObservationMasks.from_partial(pm), self._reference(pm)
        assert masks.by_col.shape == (pm.m, pm.n)
        assert np.array_equal(update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0),
                              update_U(st.V, st.Z, st.Psi, ref, 0.5, 2.0))
        assert np.array_equal(update_V(st.U, masks, 0.6),
                              update_V(st.U, ref, 0.6))
        got = truncated_svd(masks.by_row, 4, seed=3)
        want = truncated_svd(ref.by_row, 4, seed=3)
        for a, b in ((got.U, want.U), (got.S, want.S), (got.V, want.V)):
            assert np.array_equal(a, b)

    def test_one_index_shared_by_all_views(self):
        pm, _, _ = generate_synthetic(50, 30, 2, 2, 0.5, 0.1, seed=4)
        masks = ObservationMasks.from_partial(pm)
        assert np.shares_memory(masks.by_row.data, pm.values)
        assert masks.by_row.indices.dtype == np.int32
        for view in (masks.by_col, masks.row_pattern, masks.col_pattern):
            assert np.shares_memory(view.indices, masks.by_row.indices)
            assert np.shares_memory(view.indptr, masks.by_row.indptr)
        assert np.shares_memory(masks.col_pattern.data, masks.row_pattern.data)

    def test_index_widens_past_int32(self):
        m = 2 ** 31
        pm = PartialMatrix(n=3, m=m, rows=[2, 0, 2], cols=[m - 1, 5, 0],
                           values=[3.0, 1.0, 2.0])
        by_row = ObservationMasks.from_partial(pm).by_row
        assert by_row.indices.dtype == by_row.indptr.dtype == np.int64
        assert np.array_equal(by_row.indptr, [0, 1, 1, 3])
        assert np.array_equal(by_row.indices, [5, 0, m - 1])
        assert np.array_equal(by_row.data, [1.0, 2.0, 3.0])

    def test_from_partial_builds_one_index(self):
        # what scales with nnz: the int32 column index (4 bytes per entry);
        # a second index, or a copy of np.nonzero's strided rows, would
        # add 4 or 8 more
        rng = np.random.default_rng(24)
        n, m = 2000, 500
        r, c = np.nonzero(rng.random((n, m)) < 0.5)
        pm = PartialMatrix(n=n, m=m, rows=r, cols=c,
                           values=rng.standard_normal(r.size))
        tracemalloc.start()
        tracemalloc.reset_peak()
        ObservationMasks.from_partial(pm)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 4 * pm.nnz + 16 * (n + 1) + 2 ** 16

    def test_patterns_built_on_first_use(self, monkeypatch):
        # the ridge steps build their route's Gram source, and only that
        rng = np.random.default_rng(26)
        pm, st = _random_state(rng, n=40, m=30, k=3)
        sources = {"row_pattern", "col_pattern", "mask"}
        for route in ROUTES:
            _force_route(monkeypatch, route)
            masks = ObservationMasks.from_partial(pm)
            truncated_svd(masks.by_row, 3)
            assert sources.isdisjoint(vars(masks))
            update_U(st.V, st.Z, st.Psi, masks, 0.5, 2.0)
            update_V(st.U, masks, 0.6)
            if route == "mask":
                assert sources & set(vars(masks)) == {"mask"}
                assert masks.mask.dtype == np.uint8
                assert np.array_equal(masks.mask, pm.mask())
            else:
                assert sources & set(vars(masks)) == {"row_pattern",
                                                      "col_pattern"}
                assert np.array_equal(masks.row_pattern.toarray(), pm.mask())
                assert np.array_equal(masks.col_pattern.toarray(),
                                      pm.mask().T)

    def test_init_never_holds_gram_and_pattern(self, monkeypatch):
        # nnz = m^2 = 1e6, beside the 4 MB int32 column index: the Gram
        # takes 8 MB, and the Gram route's row-block buffer 2 MB.  The
        # sparse route's pattern takes 8 MB of ones, the mask route's mask
        # 3 MB plus a 2 MB cast buffer; the Gram held with either one
        # would pass the bound of 8 m^2 + 8 nnz = 16 MB (22 and 17 MB)
        n, m = 3000, 1000
        pm, si, _ = generate_synthetic(n, m, 3, 2, 2.0 / 3.0, 0.5, seed=5)
        assert pm.nnz == m * m
        hp = Hyperparams(k=3, max_iters=1)
        for route in ROUTES:
            _force_route(monkeypatch, route)
            tracemalloc.start()
            try:
                _, report = solve(pm, si, hp, track_objective=False,
                                  track_dual_residual=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.init_route == "gram"
            assert report.ridge_route == route
            assert peak < 8 * m * m + 8 * pm.nnz, route

    def test_from_partial_unsorted_memory(self):
        # PartialMatrix puts unsorted input in row-major order, so the
        # index of either input costs the int32 columns (4 bytes per
        # entry) and indptr, its values shared with the PartialMatrix
        rng = np.random.default_rng(25)
        n, m = 2000, 500
        rows, cols = np.divmod(np.flatnonzero(rng.random(n * m) < 0.5), m)
        values = rng.standard_normal(rows.size)
        order = rng.permutation(rows.size)
        for pm in (PartialMatrix(n=n, m=m, rows=rows, cols=cols,
                                 values=values),
                   PartialMatrix(n=n, m=m, rows=rows[order],
                                 cols=cols[order], values=values[order])):
            tracemalloc.start()
            tracemalloc.reset_peak()
            masks = ObservationMasks.from_partial(pm)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert np.shares_memory(masks.by_row.data, pm.values)
            assert peak < 4 * pm.nnz + 16 * (n + 1) + 2 ** 16

    def test_update_U_memory_stays_linear(self):
        # an nnz x k^2 gather of V would need 8 nnz k^2 bytes (61 MB here)
        rng = np.random.default_rng(22)
        n, m, k = 600, 400, 8
        pm, st = _random_state(rng, n=n, m=m, k=k, frac=0.5)
        masks = ObservationMasks.from_partial(pm)
        budget = 4 * 8 * (pm.nnz + (n + m) * k * k)
        assert budget < 8 * pm.nnz * k * k / 8
        tracemalloc.start()
        tracemalloc.reset_peak()
        update_U(st.V, st.Z, st.Psi, masks, 1.0, 10.0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < budget


class TestUpdateP:
    @staticmethod
    def _dense_c(Y, Z, Phi, lam, rho1):
        return (lam * Y @ Y.T + 0.5 * rho1 * Z @ Z.T
                + 0.5 * (Phi @ Z.T + Z @ Phi.T))

    def test_side_info_only(self):
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((10, 4))
        zeros = np.zeros((10, 2))
        M = _p_update(Y, zeros, zeros, 2.0, 1.0, 2)
        w, vecs = np.linalg.eigh(Y @ Y.T)
        top = vecs[:, np.argsort(w)[::-1][:2]]
        assert np.linalg.norm(M @ M.T - top @ top.T) < 1e-8

    def test_dense_eig_oracle_and_optimality(self):
        rng = np.random.default_rng(10)
        n, k = 25, 3
        Y = rng.standard_normal((n, 5))
        Z = rng.standard_normal((n, k))
        Phi = rng.standard_normal((n, k))
        lam, rho1 = 1.4, 2.0
        M = _p_update(Y, Z, Phi, lam, rho1, k)
        C = self._dense_c(Y, Z, Phi, lam, rho1)
        assert np.linalg.norm(M.T @ M - np.eye(k)) < 1e-10
        inner = float(np.sum(C * (M @ M.T)))
        w = np.sort(np.linalg.eigvalsh(C))[::-1]
        assert inner == pytest.approx(w[:k].sum(), rel=1e-9)
        for _ in range(100):
            Q = np.linalg.qr(rng.standard_normal((n, k)))[0]
            assert float(np.sum(C * (Q @ Q.T))) <= inner + 1e-8

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            _p_update(np.ones((3, 1)), np.ones((3, 1)), np.ones((3, 1)),
                     1.0, 1.0, 4)


class TestUpdateZ:
    def test_dense_stationarity_oracle(self):
        rng = np.random.default_rng(11)
        n, k = 14, 3
        U = rng.standard_normal((n, k))
        M = np.linalg.qr(rng.standard_normal((n, k)))[0]
        Phi = rng.standard_normal((n, k))
        Psi = rng.standard_normal((n, k))
        rho1, rho2 = 1.7, 3.1
        got = update_Z(U, M, Phi, Psi, rho1, rho2)
        P = M @ M.T
        lhs = rho1 * (np.eye(n) - P) + rho2 * np.eye(n)
        rhs = rho2 * U - (np.eye(n) - P) @ Phi - Psi
        want = np.linalg.solve(lhs, rhs)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_fixed_point_inside_subspace(self):
        rng = np.random.default_rng(12)
        M = np.linalg.qr(rng.standard_normal((8, 2)))[0]
        U = M @ rng.standard_normal((2, 2))  # U lies in col(M)
        zeros = np.zeros((8, 2))
        got = update_Z(U, M, zeros, zeros, 2.0, 5.0)
        assert np.max(np.abs(got - U)) < 1e-10

    def test_bad_penalties(self):
        with pytest.raises(ParameterError):
            update_Z(np.ones((3, 1)), np.eye(3)[:, :1], np.ones((3, 1)),
                     np.ones((3, 1)), 0.0, 1.0)

    def test_matches_three_projection_expansion(self):
        # one projection of rho1 U + Phi - (rho1/rho2) Psi against the
        # expansion that projects U, Phi and Psi one by one
        rng = np.random.default_rng(14)
        n, k, rho2 = 60, 4, 3.0
        U, Phi, Psi = (rng.standard_normal((n, k)) for _ in range(3))
        M = np.linalg.qr(rng.standard_normal((n, k)))[0]
        PU, PPhi, PPsi = (M @ (M.T @ R) for R in (U, Phi, Psi))
        for rho1 in (0.01, 1.0, 100.0):
            want = (rho2 * U - Phi + PPhi - Psi + rho1 * PU
                    - (rho1 / rho2) * PPsi) / (rho1 + rho2)
            got = update_Z(U, M, Phi, Psi, rho1, rho2)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_projects_through_M_unchecked(self):
        # M is the P step's orthonormal factor: the Z step takes M (M^T R)
        # as it is and leaves the orthonormality check to the public
        # `apply_projection`
        M = 2.0 * np.eye(4)[:, :2]
        ones = np.ones((4, 2))
        R = ones  # rho1 U + Phi - (rho1 / rho2) Psi at rho1 = rho2 = 1
        want = (ones - ones - ones + M @ (M.T @ R)) / 2.0
        assert np.array_equal(update_Z(ones, M, ones, ones, 1.0, 1.0), want)
        with pytest.raises(ParameterError, match="orthonormal"):
            apply_projection(M, R)


class TestDuals:
    def test_update_formula(self):
        rng = np.random.default_rng(13)
        _, st = _random_state(rng)
        rho1, rho2 = 2.0, 3.0
        Phi, Psi = update_duals(st, constraint_residuals(st), rho1, rho2)
        P = st.M @ st.M.T
        assert np.max(np.abs(Phi - (st.Phi + rho1 * (st.Z - P @ st.Z)))) < 1e-10
        assert np.max(np.abs(Psi - (st.Psi + rho2 * (st.Z - st.U)))) < 1e-10

    def test_primal_residuals(self):
        rng = np.random.default_rng(14)
        _, st = _random_state(rng)
        P = st.M @ st.M.T
        phi_res, psi_res = primal_residuals(constraint_residuals(st))
        assert phi_res == pytest.approx(
            np.linalg.norm(st.Z - P @ st.Z), rel=1e-10)
        assert psi_res == pytest.approx(np.linalg.norm(st.Z - st.U), rel=1e-10)
        st.Z = st.U.copy()
        st.M = np.linalg.qr(st.Z)[0][:, :st.k]
        phi_res, psi_res = primal_residuals(constraint_residuals(st))
        assert phi_res < 1e-10 and psi_res == 0.0


class TestDualResidual:
    def test_aligned_is_zero(self):
        # Z spans the dominant eigenspace of the side-info gram
        Y = np.eye(5)[:, :2] * np.array([3.0, 2.0])
        st = IterateState(U=Y.copy(), V=np.zeros((4, 2)), M=np.eye(5)[:, :2],
                          Z=Y.copy(), Phi=np.zeros((5, 2)),
                          Psi=np.zeros((5, 2)))
        assert _dual_residual(st, Y, 1.0) < 1e-10

    def test_orthogonal_is_sqrt_k(self):
        Y = np.eye(4)[:, :1]
        Z = np.eye(4)[:, 1:2]  # orthogonal to the top eigvector
        st = IterateState(U=Z.copy(), V=np.zeros((3, 1)), M=Y.copy(),
                          Z=Z.copy(), Phi=np.zeros((4, 1)),
                          Psi=np.zeros((4, 1)))
        assert _dual_residual(st, Y, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_dense_oracle(self):
        rng = np.random.default_rng(15)
        n, k, d = 12, 3, 4
        Y = rng.standard_normal((n, d))
        _, st = _random_state(rng, n=n, k=k)
        lam = 1.3
        got = _dual_residual(st, Y, lam)
        # dense reference: projectors from full SVD / eigendecomposition
        Uz, sz, _ = np.linalg.svd(st.Z, full_matrices=False)
        rank = int(np.sum(sz > sz[0] * n * np.finfo(float).eps))
        P1 = Uz[:, :rank] @ Uz[:, :rank].T
        C = lam * Y @ Y.T + 0.5 * (st.Phi @ st.Z.T + st.Z @ st.Phi.T)
        w, vecs = np.linalg.eigh(C)
        M2 = vecs[:, np.argsort(w)[::-1][:k]]
        want = np.linalg.norm(M2 - P1 @ M2)
        assert got == pytest.approx(want, rel=1e-8)

    @staticmethod
    def _dense_oracle(st, Y, lam):
        """||P2 - P1 P2|| from dense n x n eigendecompositions."""
        n, k = st.Z.shape
        Uz, sz, _ = np.linalg.svd(st.Z, full_matrices=False)
        rank = (int(np.sum(sz > sz[0] * n * np.finfo(float).eps))
                if sz[0] > 0 else 0)
        P1 = Uz[:, :rank] @ Uz[:, :rank].T
        C = lam * Y @ Y.T + 0.5 * (st.Phi @ st.Z.T + st.Z @ st.Phi.T)
        w, vecs = np.linalg.eigh(C)
        M2 = vecs[:, np.argsort(w)[::-1][:k]]
        return np.linalg.norm(M2 - P1 @ M2)

    @pytest.mark.parametrize("case", ["padding", "padding_no_side",
                                      "rank_deficient", "zero_Z"])
    def test_dense_oracle_special_cases(self, case):
        # padding: C = lam y y^T - Z Z^T has one positive eigenvalue, so
        # k - 1 of the top k directions come from the null space
        rng = np.random.default_rng(18)
        n, k = 20, 3
        Y = rng.standard_normal((n, 4))
        Z = rng.standard_normal((n, k))
        Phi = rng.standard_normal((n, k))
        if case == "padding":
            Y, Phi = Y[:, :1], -Z
        elif case == "padding_no_side":
            Y, Phi = np.zeros((n, 2)), -Z
        elif case == "rank_deficient":
            Z[:, 2] = 0.5 * Z[:, 0]
        else:
            Z = np.zeros((n, k))
        st = IterateState(U=Z.copy(), V=np.zeros((5, k)), M=np.eye(n)[:, :k],
                          Z=Z, Phi=Phi, Psi=np.zeros((n, k)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            got = _dual_residual(st, Y, 1.7)
        assert got == pytest.approx(self._dense_oracle(st, Y, 1.7), rel=1e-10)

    def test_rank_deficiency_warns(self):
        n, k = 6, 2
        Z = np.zeros((n, k))
        Z[0, 0] = 1.0  # rank 1 < k
        st = IterateState(U=Z.copy(), V=np.zeros((4, k)), M=np.eye(n)[:, :k],
                          Z=Z, Phi=np.zeros((n, k)), Psi=np.zeros((n, k)))
        with pytest.warns(RankDeficiencyWarning):
            _dual_residual(st, np.eye(n)[:, :1], 1.0)


class TestFirstOrderCheck:
    @staticmethod
    def _stationary_fixture():
        """Hand-built exact stationary point.

        Two rows of data (1, 1) and (1, -1) are orthogonal, side info
        picks the first coordinate, and all couplings sit on the first
        axis.  Row stationarity reduces to the scalar quadratic
        4 w^2 + 4 w - 7 = 0 in w = u1^2, so u1^2 = sqrt(2) - 1/2.
        """
        w = np.sqrt(2.0) - 0.5
        u1 = np.sqrt(w)
        c = 2.0 * u1 / (2.0 * w + 1.0)
        pm = PartialMatrix(n=2, m=2, rows=[0, 0, 1, 1], cols=[0, 1, 0, 1],
                           values=[1.0, 1.0, 1.0, -1.0])
        Y = np.array([[1.0], [0.0]])
        st = IterateState(U=np.array([[u1], [0.0]]),
                          V=np.array([[c], [c]]),
                          M=np.array([[1.0], [0.0]]),
                          Z=np.array([[u1], [0.0]]),
                          Phi=np.array([[1.0], [0.0]]),
                          Psi=np.zeros((2, 1)))
        return pm, Y, st

    def test_exact_stationary_point(self):
        pm, Y, st = self._stationary_fixture()
        checks = first_order_check(st, pm, Y, 1.0, 1.0, 1e-6)
        assert all(checks.values())
        assert set(checks) == {"U_stationarity", "V_stationarity",
                               "P_alignment", "dual_balance",
                               "Z_projected", "Z_equals_U"}

    def test_perturbed_copy_fails(self):
        pm, Y, st = self._stationary_fixture()
        st.Z = st.Z + 0.1
        checks = first_order_check(st, pm, Y, 1.0, 1.0, 1e-6)
        assert not checks["Z_equals_U"]
        assert not checks["Z_projected"]

    @pytest.mark.parametrize("block", [7, linalg._BLOCK])
    def test_fit_residual_blocks_match_unblocked(self, monkeypatch, block):
        rng = np.random.default_rng(27)
        pm, st = _random_state(rng, n=40, m=30, k=4, frac=0.5)
        masks = ObservationMasks.from_partial(pm)
        obs = masks.by_row
        rows = np.repeat(np.arange(pm.n), np.diff(obs.indptr))
        want = (np.einsum("ij,ij->i", st.U[rows], st.V[obs.indices])
                - obs.data)
        monkeypatch.setattr(linalg, "_BLOCK", block)
        if block == 7:  # k = 4 values per entry: one entry a block
            assert len(list(linalg._blocks(obs.nnz, 4))) == obs.nnz
        E = admm.fit_residual(obs, st.U, st.V)
        assert np.array_equal(E.data, want)
        dense = (np.where(pm.mask(), st.x_hat(), 0.0)
                 - pm.to_dense_zero_filled())
        assert (np.max(np.abs(E.toarray() - dense))
                <= 1e-14 * np.max(np.abs(dense)))

    def test_fit_residual_gathers_factor_blocks_of_block_values(self):
        # beyond E (8 bytes per entry) and the entries' row index (at most
        # 8), the gather holds two factor blocks of at most _BLOCK values;
        # _BLOCK entries at a time would hold 2 * 8 * k * _BLOCK bytes
        rng = np.random.default_rng(28)
        n, m, k = 1024, 512, 10
        pm = PartialMatrix(n=n, m=m, rows=np.repeat(np.arange(n), m),
                           cols=np.tile(np.arange(m), n),
                           values=rng.standard_normal(n * m))
        masks = ObservationMasks.from_partial(pm)
        U = rng.standard_normal((n, k))
        V = rng.standard_normal((m, k))
        tracemalloc.start()
        try:
            admm.fit_residual(masks.by_row, U, V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * pm.nnz + 3 * 8 * linalg._BLOCK

    def test_converged_run_feasibility(self):
        pm, si, _ = generate_synthetic(20, 12, 2, 3, 0.3, 0.1, seed=3)
        hp = Hyperparams(k=2, lam=1.0, gamma=1.0, eps=1e-10, max_iters=300)
        state, report = solve(pm, si, hp, track_dual_residual=False)
        checks = first_order_check(state, pm, si.Y, hp.lam, hp.gamma, 1e-3)
        assert checks["Z_projected"]
        assert checks["Z_equals_U"]


class TestSolve:
    def test_exact_recovery_fully_observed(self):
        pm, si, gt = generate_synthetic(30, 20, 3, 2, 0.0, 0.0, seed=5)
        hp = Hyperparams(k=3, lam=0.0, gamma=1e-6, max_iters=20)
        state, report = solve(pm, si, hp)
        assert err_l2(state.x_hat(), gt.A_true) <= 1e-4

    def test_trace_lengths_and_timers(self):
        pm, si, _ = generate_synthetic(15, 10, 2, 2, 0.4, 0.5, seed=6)
        hp = Hyperparams(k=2, max_iters=7, eps=1e-14)
        state, report = solve(pm, si, hp)
        t = report.iterations
        assert t == 7 and report.termination == "max_iters"
        assert _tracked(report) == {(True, True, False)}
        assert set(report.subproblem_times) == {"U", "V", "P", "Z"}
        assert all(v >= 0.0 for v in report.subproblem_times.values())

    @pytest.mark.parametrize("shape, route", [((300, 60), "gram"),
                                              ((60, 300), "lanczos"),
                                              ((40, 30), "dense")],
                             ids=["gram", "lanczos", "dense"])
    def test_init_route_reported(self, shape, route):
        n, m = shape
        pm, si, _ = generate_synthetic(n, m, 3, 2, 0.5, 0.5, seed=7)
        _, report = solve(pm, si, Hyperparams(k=3, max_iters=1))
        assert report.init_route == route

    def test_init_time_reported_apart(self):
        pm, si, _ = generate_synthetic(15, 10, 2, 2, 0.4, 0.5, seed=6)
        _, report = solve(pm, si, Hyperparams(k=2, max_iters=2))
        assert report.init_time > 0.0
        assert set(report.subproblem_times) == {"U", "V", "P", "Z"}

    def test_tracking_time_reported_apart(self):
        pm, si, _ = generate_synthetic(15, 10, 2, 2, 0.4, 0.5, seed=6)
        hp = Hyperparams(k=2, max_iters=3)
        _, on = solve(pm, si, hp, track_lagrangian=True)
        _, off = solve(pm, si, hp, track_objective=False,
                       track_dual_residual=False)
        assert on.tracking_time > 0.0
        assert off.tracking_time == 0.0
        for report in (on, off):
            assert set(report.subproblem_times) == {"U", "V", "P", "Z"}

    @pytest.mark.parametrize("where,window", [
        ("side_basis", "init"), ("dual_residual", "tracking"),
        ("pgram_compress", "P")])
    def test_each_timing_window_holds_its_own_work(self, monkeypatch, where,
                                                   window):
        # a sleep in one place lands in its window and in no other: the
        # side basis in init_time, the dual residual in tracking_time, the
        # compressions after the init's in subproblem_times["P"]
        sleep = 0.1
        pm, si, _ = generate_synthetic(15, 10, 2, 3, 0.4, 0.5, seed=6)
        hp = Hyperparams(k=2, max_iters=2, eps=1e-16)
        solve(pm, si, hp)  # first-call costs land in no window below
        real, calls = getattr(admm, where), []

        def slow(*args, **kwargs):
            calls.append(1)
            if where != "pgram_compress" or len(calls) > 1:
                time.sleep(sleep)
            return real(*args, **kwargs)

        monkeypatch.setattr(admm, where, slow)
        _, report = solve(pm, si, hp)
        windows = {"init": report.init_time,
                   "tracking": report.tracking_time,
                   **report.subproblem_times}
        slept = sleep * (len(calls) - (where == "pgram_compress"))
        assert slept >= sleep
        assert windows.pop(window) >= slept
        assert all(t < sleep for t in windows.values()), windows

    @pytest.mark.parametrize("seed", [0, 37])
    def test_initial_state_and_iterate_rebuild_solve(self, seed):
        # the protocol instance solved by a hand-written loop of `iterate`
        # from `initial_state`, with solve's compression hand-off (every
        # iteration's, as the dual residual is tracked), gives solve's
        # bits: iterates, residuals, Lagrangian rows and init route
        pm, si, _ = generate_synthetic(1000, 100, 5, 150, 0.9, 2.0, seed=seed)
        hp = Hyperparams(k=5, max_iters=20, seed=seed)
        want, r_want = solve(pm, si, hp, track_objective=False,
                             track_lagrangian=True)
        assert r_want.iterations == 20
        report, rows = SolveReport(), []
        lagrangian = functools.partial(
            augmented_lagrangian, data=pm, Y=si.Y, lam=hp.lam,
            gamma=hp.gamma, rho1=hp.rho1, rho2=hp.rho2)
        with single_blas_thread():
            masks = ObservationMasks.from_partial(pm)
            state, route = admm.initial_state(masks, hp.k, hp.seed)
            basis = side_basis(si.Y)
            compressed = pgram_compress(basis, state.Z, state.Phi)
            for t in range(hp.max_iters):
                rows.append(admm.iterate(state, masks, basis, compressed,
                                         hp, report, lagrangian=lagrangian,
                                         iteration=t))
                compressed = pgram_compress(basis, state.Z, state.Phi)
        assert route == r_want.init_route
        for name in ("U", "V", "M", "Z", "Phi", "Psi"):
            assert (getattr(state, name).tobytes()
                    == getattr(want, name).tobytes()), name
        assert rows == [((r.phi_res, r.psi_res), r.lagrangian)
                        for r in r_want.trace]
        assert all(t > 0.0 for t in report.subproblem_times.values())
        assert report.tracking_time > 0.0

    def test_side_matrix_factored_once(self, monkeypatch):
        calls = []
        basis = admm.side_basis

        def spy(Y):
            calls.append(Y.shape)
            return basis(Y)

        monkeypatch.setattr(admm, "side_basis", spy)
        pm, si, _ = generate_synthetic(15, 10, 2, 3, 0.4, 0.5, seed=6)
        _, report = solve(pm, si, Hyperparams(k=2, max_iters=4, eps=1e-16))
        assert report.iterations == 4
        assert _tracked(report) == {(True, True, False)}
        assert calls == [(15, 3)]

    def test_blas_single_threaded_inside_and_restored(self, monkeypatch,
                                                      blas_threads):
        before = blas_threads()
        seen = []
        update_P = admm.update_P

        def spy(*args, **kwargs):
            seen.append(blas_threads())
            return update_P(*args, **kwargs)

        monkeypatch.setattr(admm, "update_P", spy)
        pm, si, _ = generate_synthetic(15, 10, 2, 2, 0.4, 0.5, seed=6)
        solve(pm, si, Hyperparams(k=2, max_iters=2, threads=2))
        assert seen == [dict.fromkeys(before, 1)] * 2
        assert blas_threads() == before

    def test_solve_bitwise_equal_for_every_scipy_blas_thread_count(self):
        # SciPy's own OpenBLAS, opened here and not through the package,
        # runs the Gram route's dsyrk and subset eigh of this init; the
        # solve caps it, so its setting outside leaves no trace
        libs = Path(scipy.__file__).parents[1].glob("scipy.libs/*openblas*")
        lib = next((ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
                    for path in libs), None)
        if not hasattr(lib, "scipy_openblas_set_num_threads"):
            pytest.skip("SciPy bundles no OpenBLAS with a thread-count API")
        get = lib.scipy_openblas_get_num_threads
        set_ = lib.scipy_openblas_set_num_threads
        pm, si, _ = generate_synthetic(600, 300, 5, 10, 0.5, 1.0, seed=941)
        hp = Hyperparams(k=5, max_iters=3, eps=1e-16)
        before = get()
        runs = []
        try:
            for threads in (1, 2):
                set_(threads)
                runs.append(solve(pm, si, hp))
                assert get() == threads
        finally:
            set_(before)
        (want, r_want), (got, r_got) = runs
        assert r_want.init_route == "gram" and r_want.iterations == 3
        for name in ("U", "V", "M", "Z", "Phi", "Psi"):
            assert (getattr(got, name).tobytes()
                    == getattr(want, name).tobytes()), name
        assert r_got.trace == r_want.trace

    def test_tracking_leaves_iterates_bitwise_unchanged(self):
        # the P update reads the compression of [Z, Phi] made after the
        # previous dual update, whether the dual residual reads it or not
        pm, si, _ = generate_synthetic(1000, 100, 5, 150, 0.9, 2.0, seed=0)
        hp = Hyperparams(k=5, max_iters=20, eps=1e-16)
        on, r_on = solve(pm, si, hp)
        off, r_off = solve(pm, si, hp, track_objective=False,
                           track_dual_residual=False)
        assert r_on.iterations == r_off.iterations == 20
        for name in ("U", "V", "M", "Z", "Phi", "Psi"):
            assert np.array_equal(getattr(on, name), getattr(off, name)), name
        assert ([(r.phi_res, r.psi_res) for r in r_on.trace]
                == [(r.phi_res, r.psi_res) for r in r_off.trace])
        assert _tracked(r_on) == {(True, True, False)}
        assert _tracked(r_off) == {(False, False, False)}

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("track", [True, False])
    @pytest.mark.parametrize("shape,route", [
        ((300, 60, 3, 120), "structured"), ((40, 25, 3, 4), "lapack")])
    def test_signs_of_m_are_never_read(self, monkeypatch, shape, route,
                                       track, threads):
        # every reader takes M through M M^T, so a P update that negates
        # two of M's columns leaves every other iterate and every trace
        # bitwise as they are.  Ritz problems of order d + 2k at most:
        # 126 >= 100 and >= 15 k take the structured route, 10 LAPACK
        n, m, k, d = shape
        pm, si, _ = generate_synthetic(n, m, k, d, 0.6, 0.5, seed=12)
        hp = Hyperparams(k=k, max_iters=8, eps=1e-16, threads=threads)
        flags = dict(track_objective=track, track_dual_residual=track,
                     track_lagrangian=track)
        want, r_want = solve(pm, si, hp, **flags)
        update_P = admm.update_P

        def flipped(*args, **kwargs):
            M = update_P(*args, **kwargs)
            M[:, [0, 2]] = -M[:, [0, 2]]
            return M

        monkeypatch.setattr(admm, "update_P", flipped)
        got, r_got = solve(pm, si, hp, **flags)
        assert (r_got.ritz_structured > 0) == (route == "structured")
        assert np.array_equal(got.x_hat(), want.x_hat())
        for name in ("U", "V", "Z", "Phi", "Psi"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(got.M[:, [0, 2]], -want.M[:, [0, 2]])
        assert np.array_equal(got.M[:, 1], want.M[:, 1])
        assert r_got.trace == r_want.trace
        assert r_want.iterations == 8
        assert _tracked(r_want) == {(track, track, track)}
        assert (r_got.iterations, r_got.termination, r_got.ritz_structured
                ) == (r_want.iterations, r_want.termination,
                      r_want.ritz_structured)

    @pytest.mark.parametrize("track", [True, False])
    def test_one_compression_per_iteration(self, monkeypatch, track):
        calls = []
        compress = admm.pgram_compress

        def spy(*args, **kwargs):
            calls.append(1)
            return compress(*args, **kwargs)

        monkeypatch.setattr(admm, "pgram_compress", spy)
        monkeypatch.setattr(linalg, "pgram_compress", spy)
        pm, si, _ = generate_synthetic(15, 10, 2, 3, 0.4, 0.5, seed=6)
        _, report = solve(pm, si, Hyperparams(k=2, max_iters=4, eps=1e-16),
                          track_dual_residual=track)
        assert report.iterations == 4
        # one at the init, then one after each dual update; untracked, the
        # last iteration's would be read by nothing and is not made
        assert len(calls) == (5 if track else 4)

    @pytest.mark.parametrize("track", [True, False])
    def test_no_unread_compression_once_the_tolerance_is_met(
            self, monkeypatch, track):
        calls = []
        compress = admm.pgram_compress

        def spy(*args, **kwargs):
            calls.append(1)
            return compress(*args, **kwargs)

        pm, si, _ = generate_synthetic(15, 10, 2, 2, 0.3, 0.1, seed=7)
        hp = Hyperparams(k=2, eps=1e-4, max_iters=500)
        want, r_want = solve(pm, si, hp, track_dual_residual=track)
        monkeypatch.setattr(admm, "pgram_compress", spy)
        got, report = solve(pm, si, hp, track_dual_residual=track)
        assert report.termination == "tolerance_met"
        assert report.iterations < hp.max_iters
        assert len(calls) == report.iterations + track
        assert np.array_equal(got.x_hat(), want.x_hat())

    @pytest.mark.parametrize("track", [True, False])
    def test_p_update_and_dual_residual_read_the_last_compression(
            self, monkeypatch, track):
        made, read = [], []
        compress, p_update = admm.pgram_compress, admm.update_P
        residual = admm.dual_residual

        def spy_compress(*args):
            made.append(compress(*args))
            return made[-1]

        def spy_p(basis, compressed, *args, **kwargs):
            read.append(("P", compressed))
            return p_update(basis, compressed, *args, **kwargs)

        def spy_dual(state, basis, compressed, *args, **kwargs):
            read.append(("dual", compressed))
            return residual(state, basis, compressed, *args, **kwargs)

        monkeypatch.setattr(admm, "pgram_compress", spy_compress)
        monkeypatch.setattr(admm, "update_P", spy_p)
        monkeypatch.setattr(admm, "dual_residual", spy_dual)
        pm, si, _ = generate_synthetic(15, 10, 2, 3, 0.4, 0.5, seed=6)
        _, report = solve(pm, si, Hyperparams(k=2, max_iters=4, eps=1e-16),
                          track_dual_residual=track)
        assert report.iterations == 4 and len(made) == (5 if track else 4)
        # made[0] at the init, made[t + 1] after iteration t's dual update:
        # the P update of t reads made[t], the dual residual of t made[t + 1]
        want = []
        for t in range(4):
            want.append(("P", made[t]))
            if track:
                want.append(("dual", made[t + 1]))
        assert [name for name, _ in read] == [name for name, _ in want]
        assert all(got is exp for (_, got), (_, exp) in zip(read, want))

    def test_tolerance_termination(self):
        pm, si, _ = generate_synthetic(15, 10, 2, 2, 0.3, 0.1, seed=7)
        hp = Hyperparams(k=2, eps=1e-4, max_iters=500)
        state, report = solve(pm, si, hp)
        assert report.termination == "tolerance_met"
        assert report.iterations >= 1
        assert max(report.trace[-1].phi_res ** 2,
                   report.trace[-1].psi_res ** 2) <= hp.eps

    def test_empty_omega_zero_side_info(self):
        pm = PartialMatrix(n=8, m=6, rows=[], cols=[], values=[])
        si = SideInfo(Y=np.zeros((8, 2)))
        hp = Hyperparams(k=2, max_iters=10)
        with pytest.warns(RankDeficiencyWarning):
            state, report = solve(pm, si, hp)
        assert np.allclose(state.V, 0.0)
        assert report.trace[-1].objective == pytest.approx(0.0, abs=1e-10)

    def test_no_observations(self):
        # above the dense cutoff: the Lanczos init sees a zero operator
        pm = PartialMatrix(n=60, m=40, rows=[], cols=[], values=[])
        si = SideInfo(Y=np.random.default_rng(3).standard_normal((60, 2)))
        with pytest.warns(RankDeficiencyWarning):
            state, report = solve(pm, si, Hyperparams(k=3, max_iters=5))
        assert report.iterations == 5
        assert np.array_equal(state.x_hat(), np.zeros((60, 40)))
        assert np.linalg.norm(state.M.T @ state.M - np.eye(3)) < 1e-12

    def test_no_dense_fill(self, monkeypatch):
        def refuse(self):
            raise AssertionError("solve formed the zero-filled n x m matrix")

        pm, si, gt = generate_synthetic(80, 50, 3, 2, 0.5, 0.5, seed=11)
        monkeypatch.setattr(PartialMatrix, "to_dense_zero_filled", refuse)
        state, _ = solve(pm, si, Hyperparams(k=3, max_iters=5))
        assert err_l2(state.x_hat(), gt.A_true) < 0.1

    def test_solve_loads_no_scipy_module(self):
        # a module imported inside a call would land in the first solve's
        # memory and time
        code = textwrap.dedent("""
            import sys
            import mpadmm
            before = {m for m in sys.modules if m.startswith("scipy")}
            pm, si, _ = mpadmm.generate_synthetic(80, 50, 3, 2, 0.5, 0.5, 1)
            mpadmm.solve(pm, si, mpadmm.Hyperparams(k=3, max_iters=2))
            new = {m for m in sys.modules if m.startswith("scipy")} - before
            print(sorted(new))
        """)
        src = str(Path(admm.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        assert out.stdout.strip() == "[]"

    def test_overlapping_solves_leave_warnings_shown(self):
        # two threads inside `solve` at once, the one that entered second
        # returning last: a solve that swapped the process's warning hook
        # (as `warnings.catch_warnings` does) would leave it pointing at
        # the first solve's list, and every later warning would vanish.
        # A fresh interpreter, so that pytest's own capture is not in play;
        # `update_U` is wrapped by the attribute swap perfbench's tracer uses
        code = textwrap.dedent("""
            import threading
            import warnings
            import mpadmm.admm as admm
            from mpadmm.data import Hyperparams, generate_synthetic
            pm, si, _ = generate_synthetic(30, 20, 2, 3, 0.3, 0.1, seed=5)
            inside, first_done = threading.Event(), threading.Event()
            barrier = threading.Barrier(2)
            update_U, held = admm.update_U, set()

            def hold(*args, **kwargs):
                me = threading.current_thread().name
                if me not in held:
                    held.add(me)
                    inside.set()
                    barrier.wait(timeout=60)
                    if me == "second":
                        first_done.wait(timeout=60)
                return update_U(*args, **kwargs)

            admm.update_U = hold
            solved = []

            def run():
                admm.solve(pm, si, Hyperparams(k=2, max_iters=2))
                solved.append(threading.current_thread().name)
                if solved == ["first"]:
                    first_done.set()

            first = threading.Thread(target=run, name="first")
            second = threading.Thread(target=run, name="second")
            first.start()
            inside.wait(timeout=60)
            second.start()
            first.join()
            second.join()
            print(solved)
            warnings.warn("shown after the solves")
        """)
        src = str(Path(admm.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-W", "default", "-c", code],
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        assert out.stdout.strip() == "['first', 'second']"
        assert "shown after the solves" in out.stderr

    def test_determinism(self):
        pm, si, _ = generate_synthetic(18, 12, 2, 2, 0.5, 0.5, seed=8)
        hp = Hyperparams(k=2, max_iters=10)
        s1, r1 = solve(pm, si, hp)
        s2, r2 = solve(pm, si, hp)
        assert np.array_equal(s1.U, s2.U)
        assert np.array_equal(s1.V, s2.V)
        assert r1.trace == r2.trace

    def test_shape_mismatch_rejected(self):
        pm, si, _ = generate_synthetic(10, 8, 2, 2, 0.3, 0.1, seed=9)
        with pytest.raises(ParameterError):
            solve(pm, SideInfo(Y=np.zeros((5, 2))), Hyperparams(k=2))

    def test_non_finite_data_raises_numerical_error(self):
        pm, si, _ = generate_synthetic(10, 8, 2, 2, 0.3, 0.1, seed=10)
        pm.values = pm.values.copy()
        pm.values[0] = np.nan  # bypasses construction-time validation
        with pytest.raises(NumericalError):
            solve(pm, si, Hyperparams(k=2))


class TestRitzSolves:
    """`report.ritz_structured` counts the P updates and dual residuals
    that certified Rayleigh-quotient iteration answered."""

    def test_protocol_is_certified(self):
        # the paper's instance: order 160, k = 5, on the iteration's
        # route.  On seeds 83 and 202 one Ritz solve each ends on an
        # exactly singular capacitance, which the certificate accepts
        for seed in (0, 83, 202):
            pm, si, _ = generate_synthetic(1000, 100, 5, 150, 0.9, 2.0,
                                           seed=seed)
            hp = Hyperparams(k=5, max_iters=20, seed=seed)
            _, report = solve(pm, si, hp)
            assert report.ritz_structured == 2 * report.iterations
            # untracked, the P updates alone
            _, report = solve(pm, si, hp, track_objective=False,
                              track_dual_residual=False)
            assert report.ritz_structured == report.iterations

    def test_dense_shape_keeps_lapack(self, monkeypatch):
        # `dense` (d = 20, k = 10, order 40) never tries the iteration
        def never(*args):
            raise AssertionError("the iteration was tried")

        monkeypatch.setattr(linalg, "_ritz_rqi", never)
        pm, si, _ = generate_synthetic(2000, 1000, 10, 20, 0.5, 2.0, seed=0)
        _, report = solve(pm, si, Hyperparams(k=10, max_iters=3, seed=0))
        assert report.iterations == 3 and report.ritz_structured == 0


class TestBlockDescent:
    def test_lagrangian_monotone_within_iteration(self):
        pm, si, _ = generate_synthetic(20, 14, 3, 2, 0.4, 0.5, seed=11)
        hp = Hyperparams(k=3, max_iters=30, eps=1e-14)
        state, report = solve(pm, si, hp, track_lagrangian=True)
        assert _tracked(report) == {(True, True, True)}
        for before, after_u, after_p, after_v, after_z, du_sq in (
                r.lagrangian for r in report.trace):
            scale = max(1.0, abs(before))
            # U minimizer descends by at least (gamma + rho2)/2 * ||dU||^2
            assert before - after_u >= \
                0.5 * (hp.gamma + hp.rho2) * du_sq - 1e-6 * scale
            # each remaining exact block minimizer never increases the value
            assert after_p <= after_u + 1e-6 * scale
            assert after_v <= after_p + 1e-6 * scale
            assert after_z <= after_v + 1e-6 * scale

    def test_proximal_U_step_full_descent_constant(self):
        full, si, _ = generate_synthetic(20, 14, 3, 2, 0.6, 0.5, seed=11)
        keep = full.rows >= 2  # rows 0 and 1 without observations
        pm = PartialMatrix(n=full.n, m=full.m, rows=full.rows[keep],
                           cols=full.cols[keep], values=full.values[keep])
        hp = Hyperparams(k=3, max_iters=30, eps=1e-14)
        _, report = solve(pm, si, hp, track_lagrangian=True)
        for before, after_u, _, _, _, du_sq in (r.lagrangian
                                                for r in report.trace):
            # the proximal term doubles the exact minimizer's guarantee,
            # also on rows without observations
            assert before - after_u >= \
                (hp.gamma + hp.rho2) * du_sq - 1e-9 * max(1.0, abs(before))

    def test_side_term_free_of_cancellation(self):
        # Y inside col(M) with ||Y||_F^2 ~ 1e11: the side term is zero up
        # to rounding of Y itself, not of ||Y||_F^2
        rng = np.random.default_rng(17)
        pm, st = _random_state(rng)
        Y = st.M @ (1e5 * rng.standard_normal((st.k, 4)))
        lam, gamma, rho1, rho2 = 1.0, 0.7, 2.0, 3.0
        with_y = augmented_lagrangian(st, pm, Y, lam, gamma, rho1, rho2)
        without = augmented_lagrangian(st, pm, np.zeros_like(Y), lam, gamma,
                                       rho1, rho2)
        assert abs(with_y - without) < 1e-9

    def test_lagrangian_matches_direct_evaluation(self):
        rng = np.random.default_rng(16)
        pm, st = _random_state(rng)
        Y = rng.standard_normal((pm.n, 3))
        lam, gamma, rho1, rho2 = 1.1, 0.7, 2.0, 3.0
        got = augmented_lagrangian(st, pm, Y, lam, gamma, rho1, rho2)
        X = st.x_hat()
        P = st.M @ st.M.T
        fit = sum((X[i, j] - v) ** 2
                  for i, j, v in zip(pm.rows, pm.cols, pm.values))
        side = lam * np.trace(Y.T @ (np.eye(pm.n) - P) @ Y)
        reg = 0.5 * gamma * (np.sum(st.U ** 2) + np.sum(st.V ** 2))
        rphi = (np.eye(pm.n) - P) @ st.Z
        rpsi = st.Z - st.U
        want = (fit + side + reg + np.sum(st.Phi * rphi)
                + np.sum(st.Psi * rpsi)
                + 0.5 * rho1 * np.sum(rphi ** 2)
                + 0.5 * rho2 * np.sum(rpsi ** 2))
        assert got == pytest.approx(want, rel=1e-10)


class _ObjectiveSpy:
    """Stands in for `objective.objective_svd`: records each call's keyword
    arguments and result, and the gather route's result (the fit term left
    to `fit_term`) at the same iterate."""

    def __init__(self, monkeypatch):
        self.calls = []  # (kwargs, result, gather-route result, ||a||^2)
        real = objective.objective_svd

        def spy(X, data, Y, lam, gamma, **kwargs):
            got = real(X, data, Y, lam, gamma, **kwargs)
            want = real(X, data, Y, lam, gamma)
            self.calls.append((kwargs, got, want,
                               float(data.values @ data.values)))
            return got

        monkeypatch.setattr(objective, "objective_svd", spy)

    def check(self, report):
        """One call per tracked iteration, each handed its fit term, within
        1e-12 ||a||^2 of the gathered fit and 1e-10 relative in total, and
        ||Y||_F^2, summed once per solve to the very side term that the
        call would compute itself."""
        assert len(self.calls) == report.iterations
        assert ([r.objective for r in report.trace]
                == [got.total for _, got, _, _ in self.calls])
        for kwargs, got, want, values_sq in self.calls:
            assert set(kwargs) == {"fit", "y_sq"}
            assert got.side_term == want.side_term
            assert abs(got.fit_term - want.fit_term) <= 1e-12 * values_sq
            assert abs(got.total - want.total) <= 1e-10 * abs(want.total)


class TestTrackedObjective:
    @pytest.mark.parametrize("seed", range(10))
    def test_protocol_within_bound_of_gather_route(self, monkeypatch, seed):
        pm, si, _ = generate_synthetic(1000, 100, 5, 150, 0.9, 2.0, seed=seed)
        spy = _ObjectiveSpy(monkeypatch)
        _, report = solve(pm, si, Hyperparams(k=5, max_iters=20))
        spy.check(report)

    def test_dense_size_within_bound_of_gather_route(self, monkeypatch):
        pm, si, _ = generate_synthetic(2000, 1000, 10, 20, 0.5, 2.0, seed=0)
        spy = _ObjectiveSpy(monkeypatch)
        _, report = solve(pm, si, Hyperparams(k=10, max_iters=20))
        assert report.iterations == 20
        spy.check(report)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_random_within_bound_of_gather_route(self, monkeypatch,
                                                 split_always, k, threads):
        rng = np.random.default_rng(40 + k)
        pm, _ = _random_state(rng, n=30, m=20, k=k)  # an empty row, column
        si = SideInfo(Y=rng.standard_normal((30, 4)))
        spy = _ObjectiveSpy(monkeypatch)
        _, report = solve(pm, si, Hyperparams(k=k, max_iters=15, eps=1e-16,
                                              threads=threads))
        assert report.ridge_groups == threads
        spy.check(report)

    def test_no_observations_within_bound_of_gather_route(self,
                                                          monkeypatch):
        pm = PartialMatrix(n=60, m=40, rows=[], cols=[], values=[])
        si = SideInfo(Y=np.random.default_rng(3).standard_normal((60, 2)))
        spy = _ObjectiveSpy(monkeypatch)
        with pytest.warns(RankDeficiencyWarning):
            _, report = solve(pm, si, Hyperparams(k=3, max_iters=5))
        spy.check(report)
        assert all(got.fit_term == 0.0 for _, got, _, _ in spy.calls)

    @pytest.mark.parametrize("track", [True, False])
    def test_one_objective_call_per_tracked_iteration(self, monkeypatch,
                                                      track):
        pm, si, _ = generate_synthetic(15, 10, 2, 2, 0.3, 0.1, seed=7)
        spy = _ObjectiveSpy(monkeypatch)
        _, report = solve(pm, si, Hyperparams(k=2, eps=1e-4, max_iters=500),
                          track_objective=track)
        assert report.termination == "tolerance_met"
        if track:
            spy.check(report)
        else:
            assert spy.calls == []
            assert _tracked(report) == {(True, False, False)}

    def test_tracking_memory_without_entry_gathers(self):
        # one nnz x k gather of this instance is 80 MB; the tracked fit term
        # costs O((n + m) k)
        pm, si, _ = generate_synthetic(2000, 1000, 10, 20, 0.5, 2.0, seed=0)
        hp = Hyperparams(k=10, max_iters=2)
        peaks = []
        for track in (False, True):
            tracemalloc.start()
            try:
                solve(pm, si, hp, track_objective=track,
                      track_dual_residual=track)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        untracked, tracked = peaks
        assert tracked <= untracked + 8 * 2 ** 20
