"""Objective evaluation and solution quality metrics.

The objective being minimized is

    sum_{(i,j) in Omega} (X_ij - A_ij)^2
      + lam * Tr(Y^T (I - P_X) Y)
      + gamma * ||X||_*

where P_X projects onto the column space of X.  Two evaluation routes
are provided: a naive pseudo-inverse route (the oracle) and an SVD
route that never forms X^T X and accepts factored input U_f V_f^T.

Every metric reads one decomposition of the estimate, `spectral_basis`,
and one rank r, `linalg.numerical_rank` on its n x m shape.  A factor
pair is decomposed through thin QR of each factor, never densified; a
dense estimate by a values-only SVD and a certified basis of its top-r
left singular subspace from an n x (r + p) sketch, so that the metrics
of a rank-r estimate need O((n + m) r) memory beside it rather than a
thin SVD's n x m factors.  Sums over the estimate's rows or observed
entries run in `linalg._blocks`, 2 MB at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PartialMatrix
from .exceptions import NumericalError, ParameterError
from .linalg import _EPS, _blocks, numerical_rank, single_blas_thread

# Range finder of Halko, Martinsson & Tropp (SIAM Rev. 2011): a Gaussian
# test matrix with _OVERSAMPLE columns beyond the rank.  Without them the
# residuals of the rank-5 estimates on protocol seed 2 read 114-150
# eps ||X||_F (3.1-4.7 with them), and 2 of 31 rank-k protocol and dense
# estimates failed the certificate.
_OVERSAMPLE = 5
# The basis is accepted when its residual and the singular value tail
# agree within _CERT_ULPS * sqrt(max(n, m)) * eps * ||X||_F.  Measured
# |residual - tail| <= 6.2 eps ||X||_F on protocol and dense estimates
# and random rank-r products from 30 x 20 to 2000 x 1000.
_CERT_ULPS = 4.0


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
    err_l2: float | None  # None without a ground truth
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


def ols_alpha(X_or_factors, Y: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares solution (X^T X)^+ X^T Y over X's
    `numerical_rank` directions; X is a dense matrix or a factor pair
    (U_f, V_f) with X = U_f V_f^T."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    U, s, Vt = _compact_svd(X_or_factors)
    if U.shape[0] != Y.shape[0]:
        raise ParameterError("X and Y row counts disagree")
    r = numerical_rank(s, (U.shape[0], Vt.shape[1]))
    return Vt[:r].T @ ((1.0 / s[:r])[:, None] * (U[:, :r].T @ Y))


def fit_residuals(Uf, Vf, rows, cols, values):
    """Yield (block, U_f V_f^T - A at the block's observed entries), from
    the row dots of Uf[rows] and Vf[cols] gathered in `_blocks` of k
    values per entry, so that no nnz x k array is formed."""
    for block in _blocks(len(cols), Uf.shape[1]):
        resid = np.einsum("ij,ij->i", Uf[rows[block]], Vf[cols[block]])
        resid -= values[block]
        yield block, resid


def fit_term(X_or_factors, data: PartialMatrix) -> float:
    """Squared fit residual on Omega of U_f V_f^T for a factor pair
    (`fit_residuals`), or of a dense estimate in `_blocks` of entries."""
    fit = 0.0
    if isinstance(X_or_factors, tuple):
        Uf, Vf = (np.asarray(f, dtype=float) for f in X_or_factors)
        for _, resid in fit_residuals(Uf, Vf, data.rows, data.cols,
                                      data.values):
            fit += float(resid @ resid)
        return fit
    X = np.atleast_2d(np.asarray(X_or_factors, dtype=float))
    for b in _blocks(data.nnz, 1):
        resid = X[data.rows[b], data.cols[b]]
        resid -= data.values[b]  # in place: no second block
        fit += float(resid @ resid)
        del resid  # one block alive at a time
    return fit


def _range_basis(X: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal n x r basis of the top-r left singular subspace of X,
    from the thin SVD of the sketch X Omega (Omega m x min(m, r + p)
    Gaussian, fixed seed)."""
    omega = np.random.default_rng(0).standard_normal(
        (X.shape[1], min(X.shape[1], r + _OVERSAMPLE)))
    return np.linalg.svd(X @ omega, full_matrices=False)[0][:, :r]


def _certified(X: np.ndarray, basis: np.ndarray, s: np.ndarray) -> bool:
    """Whether ||X - Q Q^T X||_F, summed over row blocks, equals the tail
    ||s_{r+1:}|| up to rounding: then Q = basis spans X's top-r left
    singular subspace to within rounding of X."""
    r = basis.shape[1]
    coef = basis.T @ X
    resid = 0.0
    for rows in _blocks(*X.shape):
        R = basis[rows] @ coef
        resid += _square_sum(np.subtract(X[rows], R, out=R))
        del R  # one block alive at a time
    tail = float(np.sqrt(s[r:] @ s[r:]))
    bound = _CERT_ULPS * np.sqrt(max(X.shape)) * _EPS * float(np.sqrt(s @ s))
    return abs(np.sqrt(resid) - tail) <= bound


def spectral_basis(X_or_factors):
    """(left, s) of an estimate X, a dense matrix or a factor pair
    (U_f, V_f) with X = U_f V_f^T: s its singular values (k of them for a
    pair), left an orthonormal basis of its top-r left singular subspace,
    where r = left.shape[1] = `numerical_rank(s, (n, m))` on X's full
    shape.

    A factor pair goes through `_compact_svd`.  A dense X's s comes from a
    values-only SVD, and its basis from `_range_basis` when that passes
    `_certified`; otherwise (also when r = 0 or r = min(n, m)) the thin
    SVD gives (U[:, :r], s).
    """
    if isinstance(X_or_factors, tuple):
        U, s, Vt = _compact_svd(X_or_factors)
        return U[:, :numerical_rank(s, (U.shape[0], Vt.shape[1]))], s
    X = np.atleast_2d(np.asarray(X_or_factors, dtype=float))
    s = np.linalg.svd(X, compute_uv=False)
    r = numerical_rank(s, X.shape)
    if 0 < r < s.size:
        basis = _range_basis(X, r)
        if _certified(X, basis, s):
            return basis, s
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    return U[:, :numerical_rank(s, X.shape)], s


def objective_naive(X: np.ndarray, data: PartialMatrix, Y: np.ndarray,
                    lam: float, gamma: float) -> ObjectiveBreakdown:
    """Oracle route: explicit pseudo-inverse of X^T X for the side term."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    fit = float(np.sum((X[data.rows, data.cols] - data.values) ** 2))
    P = X @ np.linalg.pinv(X.T @ X) @ X.T
    resid = Y - P @ Y
    side = lam * float(np.trace(Y.T @ resid))
    s = np.linalg.svd(X, compute_uv=False)
    return ObjectiveBreakdown(fit_term=fit, side_term=side,
                              reg_term=gamma * float(s.sum()))


def _check_weights(lam: float, gamma: float) -> None:
    """Raise `ParameterError` unless the side-term and nuclear-norm
    weights lam and gamma are finite and nonnegative."""
    for name, weight in (("lam", lam), ("gamma", gamma)):
        if not 0 <= weight < np.inf:
            raise ParameterError(f"{name} must be finite and nonnegative")


def objective_svd(X_or_factors, data: PartialMatrix, Y: np.ndarray,
                  lam: float, gamma: float, *, svd=None,
                  fit=None, y_sq=None) -> ObjectiveBreakdown:
    """SVD route; accepts a dense matrix or a factor pair (U_f, V_f).

    With (left, s) X's `spectral_basis` and r = left.shape[1] its
    numerical rank, the side term is lam Tr(Y^T (I - left left^T) Y) and
    the nuclear norm s_1 + ... + s_r; a factor pair costs O(k n (m + d))
    and is never densified.  `svd`, when given, is that (left, s) pair,
    taken instead of computing it.  `fit`, when given, is X's fit term on
    Omega, taken instead of computing it by `fit_term` (`solve` passes
    the one its V step determines).  `y_sq`, when given, is ||Y||_F^2,
    taken instead of summing Y's squares (`solve` sums them once per
    solve).  lam and gamma must be finite and nonnegative
    (`_check_weights`).
    """
    _check_weights(lam, gamma)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    left, s = spectral_basis(X_or_factors) if svd is None else svd
    if fit is None:
        fit = fit_term(X_or_factors, data)
    r = left.shape[1]

    if y_sq is None:
        y_sq = float(np.einsum("ij,ij->", Y, Y))
    proj = left.T @ Y
    side = lam * (y_sq - float(np.sum(proj * proj)))
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
    r = numerical_rank(s, X.shape)
    Delta = gamma * (U[:, :r] @ Vt[:r])
    return Delta, gamma * float(s[:r].sum())


def _square_sum(A: np.ndarray) -> float:
    """Sum of squares of a fresh temporary, squared in place so that no
    second buffer of its size is made."""
    A *= A
    return float(np.sum(A))


def err_l2(X_hat: np.ndarray, A_true: np.ndarray) -> float:
    """Relative squared Frobenius reconstruction error, summed over row
    blocks so that no temporary of the matrices' size is made."""
    X_hat = np.atleast_2d(np.asarray(X_hat, dtype=float))
    A_true = np.atleast_2d(np.asarray(A_true, dtype=float))
    if X_hat.shape != A_true.shape:
        raise ParameterError("X_hat and A_true shapes disagree")
    num = denom = 0.0
    for rows in _blocks(*A_true.shape):
        num += _square_sum(X_hat[rows] - A_true[rows])
        denom += _square_sum(A_true[rows].copy())
    if denom == 0.0:
        raise ParameterError("A_true must be nonzero")
    return num / denom


def r_squared(X_hat, Y: np.ndarray, *, svd=None) -> float:
    """Pooled multivariate R^2 of the side info regressed on X_hat, a
    dense matrix or a factor pair (U_f, V_f).

    Total sum of squares is column-mean centered and pooled over columns.
    The fitted values X_hat (X_hat^T X_hat)^+ X_hat^T Y are the projection
    of Y onto the r left singular vectors of X_hat's `spectral_basis`.
    `svd`, when given, is that (left, s) pair, taken instead of computing
    it.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    left, _ = spectral_basis(X_hat) if svd is None else svd
    if left.shape[0] != Y.shape[0]:
        raise ParameterError("X and Y row counts disagree")
    fitted = left @ (left.T @ Y)
    ss_res = _square_sum(np.subtract(Y, fitted, out=fitted))
    del fitted  # one n x d temporary at a time
    ss_tot = _square_sum(Y - Y.mean(axis=0, keepdims=True))
    if ss_tot == 0.0:
        if ss_res <= 1e-12 * max(1.0, float(np.sum(Y * Y))):
            return 1.0
        raise ParameterError("R^2 undefined: constant Y with nonzero residual")
    return 1.0 - ss_res / ss_tot


def fitted_rank(X_hat, *, svd=None) -> int:
    """Numerical rank r of X_hat, a dense matrix or a factor pair: the
    column count of its `spectral_basis`, which keeps the singular values
    above s_1 * max(n, m) * 2^-52.  `svd`, when given, is that (left, s)
    pair, taken instead of computing it."""
    left, _ = spectral_basis(X_hat) if svd is None else svd
    return left.shape[1]


@single_blas_thread()
def evaluate(X_hat: np.ndarray, data: PartialMatrix, Y: np.ndarray,
             A_true: np.ndarray | None, lam: float, gamma: float) -> Metrics:
    """Bundle of all solution quality metrics, against the ground truth
    A_true when it is known (`err_l2` is None when A_true is None).

    X_hat's `spectral_basis` is taken once and shared by `fitted_rank`,
    `r_squared` and `objective_svd`, so the bundle is bitwise the
    standalone metrics.  Runs every OpenBLAS on one thread, like
    `admm.solve` (`linalg.single_blas_thread`), so that the metrics (and
    the CLI's metrics.csv) do not depend on the host's core count and no
    idle OpenBLAS worker spins into the next solve (see
    `generate_synthetic`).

    Raises NumericalError when X_hat has a NaN or infinite entry, which
    the SVD would reject or on which it may not return; the check reads
    two reductions and allocates no n x m temporary.
    """
    X_hat = np.atleast_2d(np.asarray(X_hat, dtype=float))
    if not (np.isfinite(X_hat.min()) and np.isfinite(X_hat.max())):
        raise NumericalError("non-finite estimate")
    err = None if A_true is None else err_l2(X_hat, A_true)
    svd = spectral_basis(X_hat)
    return Metrics(err_l2=err, r2=r_squared(X_hat, Y, svd=svd),
                   fitted_rank=fitted_rank(X_hat, svd=svd),
                   objective=objective_svd(X_hat, data, Y, lam, gamma,
                                           svd=svd))
