"""Objective evaluation and solution quality metrics.

The objective being minimized is

    sum_{(i,j) in Omega} (X_ij - A_ij)^2
      + lam * Tr(Y^T (I - P_X) Y)
      + gamma * ||X||_*

where P_X projects onto the column space of X.  Two evaluation routes
are provided: a naive pseudo-inverse route (the oracle) and an SVD
route that never forms X^T X and accepts factored input U_f V_f^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PartialMatrix
from .exceptions import ParameterError
from .linalg import single_blas_thread

PINV_CUTOFF = 1e-12  # relative singular value cutoff in ols_alpha


@dataclass(frozen=True)
class ObjectiveBreakdown:
    fit_term: float
    side_term: float
    reg_term: float

    @property
    def total(self) -> float:
        return self.fit_term + self.side_term + self.reg_term


@dataclass(frozen=True)
class Metrics:
    err_l2: float
    r2: float
    fitted_rank: int
    objective: ObjectiveBreakdown


def _compact_svd(X_or_factors):
    """(U, s, Vt) of a dense matrix, or of U_f V_f^T for a factor pair
    (U_f, V_f) through thin QR of each factor and the SVD of the small
    core, without forming the product."""
    if isinstance(X_or_factors, tuple):
        Uf, Vf = (np.atleast_2d(np.asarray(f, dtype=float))
                  for f in X_or_factors)
        Qu, Ru = np.linalg.qr(Uf)
        Qv, Rv = np.linalg.qr(Vf)
        Uc, s, Vtc = np.linalg.svd(Ru @ Rv.T)
        return Qu @ Uc, s, Vtc @ Qv.T
    X = np.atleast_2d(np.asarray(X_or_factors, dtype=float))
    return np.linalg.svd(X, full_matrices=False)


def ols_alpha(X_or_factors, Y: np.ndarray, *, svd=None) -> np.ndarray:
    """Minimum-norm least squares solution (X^T X)^+ X^T Y; X is a dense
    matrix or a factor pair (U_f, V_f) with X = U_f V_f^T.  `svd`, when
    given, is X's thin SVD (U, s, Vt), taken instead of computing it."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    U, s, Vt = _compact_svd(X_or_factors) if svd is None else svd
    if U.shape[0] != Y.shape[0]:
        raise ParameterError("X and Y row counts disagree")
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((Vt.shape[1], Y.shape[1]))
    keep = s > PINV_CUTOFF * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return Vt.T @ (inv[:, None] * (U.T @ Y))


def _fit_term(X_at, data: PartialMatrix) -> float:
    """Squared fit residual on Omega; overwrites X_at, a fresh array of
    the estimate's observed entries, so no second nnz buffer is made."""
    X_at -= data.values
    return float(X_at @ X_at)


def objective_naive(X: np.ndarray, data: PartialMatrix, Y: np.ndarray,
                    lam: float, gamma: float) -> ObjectiveBreakdown:
    """Oracle route: explicit pseudo-inverse of X^T X for the side term."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    fit = _fit_term(X[data.rows, data.cols], data)
    P = X @ np.linalg.pinv(X.T @ X) @ X.T
    resid = Y - P @ Y
    side = lam * float(np.trace(Y.T @ resid))
    s = np.linalg.svd(X, compute_uv=False)
    return ObjectiveBreakdown(fit_term=fit, side_term=side,
                              reg_term=gamma * float(s.sum()))


def objective_svd(X_or_factors, data: PartialMatrix, Y: np.ndarray,
                  lam: float, gamma: float, *, svd=None) -> ObjectiveBreakdown:
    """SVD route; accepts a dense matrix or a factor pair (U_f, V_f).

    The side term uses Tr(Y^T (I - U U^T) Y) from the compact SVD of X at
    numerical rank; factored input is handled through thin QR of each
    factor, at O(k n (m + d)) cost and without densifying U_f V_f^T.
    `svd`, when given, is X's thin SVD (U, s, Vt), taken instead of
    computing it; only U and s are read.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    left, s, _ = _compact_svd(X_or_factors) if svd is None else svd
    if isinstance(X_or_factors, tuple):
        Uf, Vf = (np.asarray(f, dtype=float) for f in X_or_factors)
        X_at = np.einsum("ij,ij->i", Uf[data.rows], Vf[data.cols])
    else:
        X = np.atleast_2d(np.asarray(X_or_factors, dtype=float))
        X_at = X[data.rows, data.cols]

    # numerical rank: drop directions whose singular value underflows
    if s.size and s[0] > 0:
        r = int(np.sum(s > s[0] * max(1, len(s)) * np.finfo(float).eps))
    else:
        r = 0
    left = left[:, :r]

    fit = _fit_term(X_at, data)
    YtY = float(np.sum(Y * Y))
    proj = left.T @ Y
    side = lam * (YtY - float(np.sum(proj * proj)))
    return ObjectiveBreakdown(fit_term=fit, side_term=side,
                              reg_term=gamma * float(s[:r].sum()))


def spectral_bound(data: PartialMatrix, Y: np.ndarray, lam: float,
                   gamma: float) -> float:
    """A priori spectral norm bound (sum_Omega A_ij^2 + lam ||Y||_F^2) / gamma."""
    if gamma <= 0:
        raise ParameterError("gamma must be > 0")
    Y = np.asarray(Y, dtype=float)
    return (float(data.values @ data.values) + lam * float(np.sum(Y * Y))) / gamma


def worst_case_delta(X: np.ndarray, gamma: float):
    """Adversarial perturbation gamma*UV^T attaining <X, Delta> = gamma||X||_*."""
    if gamma < 0:
        raise ParameterError("gamma must be >= 0")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    r = int(np.sum(s > (s[0] * 1e-14 if s.size and s[0] > 0 else 0.0)))
    Delta = gamma * (U[:, :r] @ Vt[:r])
    return Delta, gamma * float(s[:r].sum())


def _square_sum(A: np.ndarray) -> float:
    """Sum of squares of a fresh temporary, squared in place so that no
    second buffer of its size is made."""
    A *= A
    return float(np.sum(A))


def err_l2(X_hat: np.ndarray, A_true: np.ndarray) -> float:
    """Relative squared Frobenius reconstruction error."""
    A_true = np.asarray(A_true, dtype=float)
    denom = float(np.sum(A_true * A_true))
    if denom == 0.0:
        raise ParameterError("A_true must be nonzero")
    return _square_sum(np.asarray(X_hat, dtype=float) - A_true) / denom


def r_squared(X_hat: np.ndarray, Y: np.ndarray, *, svd=None) -> float:
    """Pooled multivariate R^2 of the side info regressed on X_hat.

    Total sum of squares is column-mean centered and pooled over columns.
    `svd`, when given, is X_hat's thin SVD, passed on to `ols_alpha`.
    """
    X_hat = np.atleast_2d(np.asarray(X_hat, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    alpha = ols_alpha(X_hat, Y, svd=svd)
    fitted = X_hat @ alpha
    ss_res = _square_sum(np.subtract(Y, fitted, out=fitted))
    del fitted  # one n x d temporary at a time
    ss_tot = _square_sum(Y - Y.mean(axis=0, keepdims=True))
    if ss_tot == 0.0:
        if ss_res <= 1e-12 * max(1.0, float(np.sum(Y * Y))):
            return 1.0
        raise ParameterError("R^2 undefined: constant Y with nonzero residual")
    return 1.0 - ss_res / ss_tot


def _rank_of_values(s: np.ndarray, shape) -> int:
    """Count of the singular values s of an n x m matrix that lie above
    s_1 * max(n, m) * 2^-52."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > s[0] * max(shape) * 2.0 ** -52))


def fitted_rank(X_hat: np.ndarray) -> int:
    """Numerical rank: singular values above s_1 * max(n, m) * 2^-52."""
    X_hat = np.atleast_2d(np.asarray(X_hat, dtype=float))
    return _rank_of_values(np.linalg.svd(X_hat, compute_uv=False),
                           X_hat.shape)


@single_blas_thread()
def evaluate(X_hat: np.ndarray, data: PartialMatrix, Y: np.ndarray,
             A_true: np.ndarray, lam: float, gamma: float) -> Metrics:
    """Bundle of all solution quality metrics against a known ground truth.

    The thin SVD of X_hat is taken once: its singular values give the
    fitted rank (by `fitted_rank`'s rule), and it is shared by `r_squared`
    and `objective_svd`.  Runs NumPy's BLAS on one thread, like
    `admm.solve`, so that no idle OpenBLAS worker spins into the next solve
    (see `generate_synthetic`).
    """
    X_hat = np.atleast_2d(np.asarray(X_hat, dtype=float))
    err = err_l2(X_hat, A_true)
    U, s, Vt = np.linalg.svd(X_hat, full_matrices=False)
    rank = _rank_of_values(s, X_hat.shape)
    r2 = r_squared(X_hat, Y, svd=(U, s, Vt))
    del Vt  # objective_svd reads U and s only; frees an m x min(n, m) buffer
    return Metrics(err_l2=err, r2=r2, fitted_rank=rank,
                   objective=objective_svd(X_hat, data, Y, lam, gamma,
                                           svd=(U, s, None)))
