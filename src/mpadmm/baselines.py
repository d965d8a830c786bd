"""Reference completion methods benchmarked against the ADMM solver:
row-regression iterative SVD imputation, singular-value soft-impute,
and preconditioned (scaled) gradient descent on balanced factors.

Like `admm.solve`, each method runs NumPy's BLAS on one thread
(`single_blas_thread`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh

from .admm import ObservationMasks, fit_residual
from .data import PartialMatrix
from .exceptions import ParameterError
from .linalg import single_blas_thread, soft_threshold_svd, truncated_svd
from .objective import fit_term, ols_alpha

_MAX_HALVINGS = 60  # scaled_gd backtracking: 2^-60 is below double rounding


@dataclass
class BaselineResult:
    X_hat: np.ndarray
    iterations: int
    wall_time: float
    termination: str  # 'tolerance_met' | 'max_iters'
    U_f: Optional[np.ndarray] = None  # factored output (scaled_gd only)
    V_f: Optional[np.ndarray] = None
    jitter_used: bool = False
    monotone_violations: int = 0


@single_blas_thread()
def iterative_svd(data: PartialMatrix, k: int,
                  max_iters: int = 500) -> BaselineResult:
    """SVD imputation (Troyanskaya et al. 2001): re-estimate each missing
    entry (i, j) by regressing the rest of row i (column j excluded) on
    the right singular factor V of the current rank-k iterate with its
    j-th row removed.

    Any orthonormal basis of that subspace will do as V: the top-k
    eigenvectors of X^T X, or for wide X the Q of X^T W, W X X^T's.  Its
    leave-one-out Gram I - v_j v_j^T maps v_j by pinv(rcond=1e-10) to
    v_j / (1 - l_j), l_j = ||v_j||^2 (Sherman-Morrison), or to 0 where
    pinv cuts v_j (|1 - l_j| <= 1e-10 for k >= 2, 1 - l_j = 0 for k = 1).
    Missing entries start at their row's observed mean (global observed
    mean for empty rows) and are refit in one vectorized pass per
    iteration until their Frobenius change drops below 0.01.
    """
    if data.nnz == 0:
        raise ParameterError("iterative_svd requires at least one observation")
    if not 1 <= k <= min(data.n, data.m):
        raise ParameterError("k out of range")
    t0 = time.perf_counter()

    obs = data.mask()
    missing = ~obs
    X = data.to_dense_zero_filled()
    counts = obs.sum(axis=1)
    global_mean = float(data.values.mean())
    row_means = np.where(counts > 0,
                         X.sum(axis=1) / np.maximum(counts, 1), global_mean)
    X = np.where(missing, row_means[:, None], X)

    if not missing.any():
        return BaselineResult(X_hat=X, iterations=0,
                              wall_time=time.perf_counter() - t0,
                              termination="tolerance_met")

    termination = "max_iters"
    it = 0
    for it in range(1, max_iters + 1):
        if data.n >= data.m:
            V = eigh(X.T @ X, subset_by_index=[data.m - k, data.m - 1])[1]
        else:
            W = eigh(X @ X.T, subset_by_index=[data.n - k, data.n - 1])[1]
            V = np.linalg.qr(X.T @ W)[0]
        lev = np.einsum("ij,ij->i", V, V)
        cut = lev == 1.0 if k == 1 else np.abs(1.0 - lev) <= 1e-10
        w = np.divide(1.0, 1.0 - lev, out=np.zeros_like(lev), where=~cut)
        # imputed_ij = w_j v_j^T (V^T x_i - v_j X_ij)
        E = (X @ V) @ (V * w[:, None]).T  # n x m
        X_new = np.where(missing, E - X * (lev * w)[None, :], X)
        change = float(np.linalg.norm((X_new - X)[missing]))
        X = X_new
        if change < 0.01:
            termination = "tolerance_met"
            break
    return BaselineResult(X_hat=X, iterations=it,
                          wall_time=time.perf_counter() - t0,
                          termination=termination)


@single_blas_thread()
def soft_impute(data: PartialMatrix, tau: float, eps: float = 1e-4,
                k_cap: Optional[int] = None,
                max_iters: int = 500) -> BaselineResult:
    """Proximal imputation: Z <- S_tau(observed entries + previous iterate
    on the unobserved ones), starting from Z = 0."""
    if tau < 0:
        raise ParameterError("tau must be nonnegative")
    t0 = time.perf_counter()
    obs = data.mask()
    A_obs = data.to_dense_zero_filled()
    Z = np.zeros((data.n, data.m))
    termination = "max_iters"
    it = 0
    for it in range(1, max_iters + 1):
        W = np.where(obs, A_obs, Z)
        Z_new = soft_threshold_svd(W, tau, max_rank=k_cap)
        num = float(np.sum((Z_new - Z) ** 2))
        den = max(float(np.sum(Z * Z)), 1e-30)
        Z = Z_new
        if num / den < eps:
            termination = "tolerance_met"
            break
    return BaselineResult(X_hat=Z, iterations=it,
                          wall_time=time.perf_counter() - t0,
                          termination=termination)


def scaled_gd_loss(U, V, data: PartialMatrix, Y, alpha, lam: float,
                   gamma: float) -> float:
    """`fit_term` of (U, V) plus lam ||Y - U V^T alpha||_F^2 and
    (gamma/2)(||U||_F^2 + ||V||_F^2)."""
    E = Y - U @ (V.T @ alpha)
    return (fit_term((U, V), data) + lam * float(np.sum(E * E))
            + 0.5 * gamma * (float(np.sum(U * U)) + float(np.sum(V * V))))


def scaled_gd_gradients(U, V, data: PartialMatrix, Y, alpha, lam: float,
                        gamma: float, *, obs: Optional[sp.csr_array] = None):
    """Analytic gradients of scaled_gd_loss in (U, V) at fixed alpha.

    `obs` is the CSR array of the observed values,
    `ObservationMasks.by_row` of `data`; it is built here when None."""
    if obs is None:
        obs = ObservationMasks.from_partial(data).by_row
    Rs = fit_residual(obs, U, V)  # fit residual on Omega
    E = Y - U @ (V.T @ alpha)
    # the n x m product E alpha^T enters only through (E alpha^T) V and
    # (E alpha^T)^T U, so it is applied factor by factor
    gU = 2.0 * (Rs @ V) - 2.0 * lam * (E @ (alpha.T @ V)) + gamma * U
    gV = 2.0 * (Rs.T @ U) - 2.0 * lam * (alpha @ (E.T @ U)) + gamma * V
    return gU, gV


def _stable_inverse(G: np.ndarray):
    """Inverse of a k x k Gram matrix; falls back to a trace-scaled ridge
    when the matrix is numerically singular.  Returns (inverse, jittered)."""
    k = G.shape[0]
    try:
        c = np.linalg.cond(G)
    except np.linalg.LinAlgError:
        c = np.inf
    if not np.isfinite(c) or c > 1e14:
        G = G + 1e-10 * max(np.trace(G), 1.0) * np.eye(k)
        return np.linalg.inv(G), True
    return np.linalg.inv(G), False


@single_blas_thread()
def scaled_gd(data: PartialMatrix, Y, lam: float, gamma: float, k: int,
              max_iters: int = 1000) -> BaselineResult:
    """Preconditioned gradient descent on balanced factors U V^T.

    The factors start from the rank-k truncated SVD of the zero-filled
    data, taken on the CSR index of the observations as in `admm.solve`
    (its Gram or Lanczos route), so no n x m buffer is formed; the
    gradients reuse that index.  The regression weights are refit by
    least squares each iteration and held fixed during the gradient
    step; updates are right-multiplied by (V^T V)^-1 and
    (U^T U)^-1 respectively.  Each step starts at one tenth of the inverse
    leading singular value of the zero-filled data and is halved, up to
    60 times, until `scaled_gd_loss` with the weights refit at the trial
    point does not rise; a step that raises the loss is never taken.
    `monotone_violations` counts the iterations in which no such step was
    found; the iterate is then kept and the run stops.  Terminates at the
    iteration cap or when the relative objective improvement falls below
    1e-3.
    """
    if not 1 <= k <= min(data.n, data.m):
        raise ParameterError("k out of range")
    t0 = time.perf_counter()
    Y = np.atleast_2d(np.asarray(Y, dtype=float))

    masks = ObservationMasks.from_partial(data)  # one index for the run
    tsvd = truncated_svd(masks.by_row, k)
    if tsvd.S[0] <= 0:
        raise ParameterError("zero data matrix")
    eta = 1.0 / (10.0 * tsvd.S[0])
    sqrt_s = np.sqrt(tsvd.S)
    U = tsvd.U * sqrt_s
    V = tsvd.V * sqrt_s

    jitter_used = False
    violations = 0
    termination = "max_iters"
    alpha = ols_alpha((U, V), Y)
    loss_prev = scaled_gd_loss(U, V, data, Y, alpha, lam, gamma)
    it = 0
    for it in range(1, max_iters + 1):
        gU, gV = scaled_gd_gradients(U, V, data, Y, alpha, lam, gamma,
                                     obs=masks.by_row)
        inv_v, j1 = _stable_inverse(V.T @ V)
        inv_u, j2 = _stable_inverse(U.T @ U)
        jitter_used = jitter_used or j1 or j2
        dU, dV = gU @ inv_v, gV @ inv_u
        step = eta
        for _ in range(_MAX_HALVINGS + 1):
            U_try, V_try = U - step * dU, V - step * dV
            alpha_try = ols_alpha((U_try, V_try), Y)
            loss = scaled_gd_loss(U_try, V_try, data, Y, alpha_try, lam,
                                  gamma)
            if loss <= loss_prev:
                U, V, alpha = U_try, V_try, alpha_try
                break
            step *= 0.5
        else:
            # no descending step: keep the iterate, which ends the run
            violations += 1
            loss = loss_prev
        rel = (loss_prev - loss) / max(abs(loss_prev), np.finfo(float).tiny)
        loss_prev = loss
        if 0 <= rel < 1e-3:
            termination = "tolerance_met"
            break
    return BaselineResult(X_hat=U @ V.T, iterations=it,
                          wall_time=time.perf_counter() - t0,
                          termination=termination, U_f=U, V_f=V,
                          jitter_used=jitter_used,
                          monotone_violations=violations)
