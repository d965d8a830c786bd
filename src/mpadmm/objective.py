"""Objective evaluation and solution quality metrics.

The objective being minimized is

    sum_{(i,j) in Omega} (X_ij - A_ij)^2
      + lam * Tr(Y^T (I - P_X) Y)
      + gamma * ||X||_*

where P_X projects onto the column space of X.  Two evaluation routes
are provided: a naive pseudo-inverse route (the oracle) and an SVD
route that never forms X^T X and accepts factored input U_f V_f^T.

Dense estimates are decomposed by `spectral_basis`: all singular values
from a values-only SVD, and a certified basis of the top-r left singular
subspace from an n x (r + p) sketch, so that the metrics of a rank-r
estimate need O((n + m) r) memory beside it rather than a thin SVD's
n x m factors.  Sums over the estimate's rows or observed entries run in
blocks of _BLOCK elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PartialMatrix
from .exceptions import ParameterError
from .linalg import single_blas_thread

PINV_CUTOFF = 1e-12  # relative singular value cutoff in ols_alpha
_EPS = 2.0 ** -52
_BLOCK = 1 << 18  # float64 elements (2 MB) per row or entry block
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


def ols_alpha(X_or_factors, Y: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares solution (X^T X)^+ X^T Y; X is a dense
    matrix or a factor pair (U_f, V_f) with X = U_f V_f^T."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    U, s, Vt = _compact_svd(X_or_factors)
    if U.shape[0] != Y.shape[0]:
        raise ParameterError("X and Y row counts disagree")
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((Vt.shape[1], Y.shape[1]))
    keep = s > PINV_CUTOFF * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return Vt.T @ (inv[:, None] * (U.T @ Y))


def _fit_term(X_at, values) -> float:
    """Squared fit residual on Omega; overwrites X_at, a fresh array of
    the estimate's observed entries, so no second buffer of its size is
    made."""
    X_at -= values
    return float(X_at @ X_at)


def fit_term(X_or_factors, data: PartialMatrix) -> float:
    """Squared fit residual on Omega of a dense estimate or of U_f V_f^T
    for a factor pair (U_f, V_f), gathered and summed in blocks of _BLOCK
    observed entries: a factor pair gathers the row dots of U_f[rows] and
    V_f[cols] one block at a time, so no nnz x k array is formed."""
    if isinstance(X_or_factors, tuple):
        Uf, Vf = (np.asarray(f, dtype=float) for f in X_or_factors)

        def entries(rows, cols):
            return np.einsum("ij,ij->i", Uf[rows], Vf[cols])
    else:
        X = np.atleast_2d(np.asarray(X_or_factors, dtype=float))

        def entries(rows, cols):
            return X[rows, cols]
    fit = 0.0
    for start in range(0, data.nnz, _BLOCK):
        block = slice(start, start + _BLOCK)
        fit += _fit_term(entries(data.rows[block], data.cols[block]),
                         data.values[block])
    return fit


def _row_blocks(X: np.ndarray):
    """Slices of about _BLOCK elements over the rows of X."""
    step = max(1, _BLOCK // max(1, X.shape[1]))
    return (slice(i, i + step) for i in range(0, X.shape[0], step))


def _count_above(s: np.ndarray, rel: float) -> int:
    """Number of singular values above rel * s_1 (0 for a zero matrix)."""
    return int(np.sum(s > rel * s[0])) if s.size else 0


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
    for rows in _row_blocks(X):
        R = basis[rows] @ coef
        resid += _square_sum(np.subtract(X[rows], R, out=R))
        del R  # one block alive at a time
    tail = float(np.sqrt(s[r:] @ s[r:]))
    bound = _CERT_ULPS * np.sqrt(max(X.shape)) * _EPS * float(np.sqrt(s @ s))
    return abs(np.sqrt(resid) - tail) <= bound


def spectral_basis(X_hat: np.ndarray):
    """(left, s) of a dense estimate: s all its singular values, left an
    orthonormal basis of its top-r left singular subspace, r its numerical
    rank.

    s comes from a values-only SVD; r is `fitted_rank`'s count, and the
    basis is `_range_basis`'s when r is also the count above
    `objective_svd`'s and `ols_alpha`'s cut-offs and the basis passes
    `_certified`.  Otherwise (also when r = 0 or r = min(n, m)) the full
    thin SVD gives (U, s).  Every consumer reads the first columns of
    `left` that its own cut-off keeps.
    """
    X_hat = np.atleast_2d(np.asarray(X_hat, dtype=float))
    s = np.linalg.svd(X_hat, compute_uv=False)
    r = _rank_of_values(s, X_hat.shape)
    cuts = (s.size * _EPS, PINV_CUTOFF)  # objective_svd's, ols_alpha's
    if 0 < r < s.size and all(_count_above(s, c) == r for c in cuts):
        basis = _range_basis(X_hat, r)
        if _certified(X_hat, basis, s):
            return basis, s
    U, s, _ = np.linalg.svd(X_hat, full_matrices=False)
    return U, s


def objective_naive(X: np.ndarray, data: PartialMatrix, Y: np.ndarray,
                    lam: float, gamma: float) -> ObjectiveBreakdown:
    """Oracle route: explicit pseudo-inverse of X^T X for the side term."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    fit = _fit_term(X[data.rows, data.cols], data.values)
    P = X @ np.linalg.pinv(X.T @ X) @ X.T
    resid = Y - P @ Y
    side = lam * float(np.trace(Y.T @ resid))
    s = np.linalg.svd(X, compute_uv=False)
    return ObjectiveBreakdown(fit_term=fit, side_term=side,
                              reg_term=gamma * float(s.sum()))


def objective_svd(X_or_factors, data: PartialMatrix, Y: np.ndarray,
                  lam: float, gamma: float, *, svd=None,
                  fit=None) -> ObjectiveBreakdown:
    """SVD route; accepts a dense matrix or a factor pair (U_f, V_f).

    The side term uses Tr(Y^T (I - U U^T) Y) from the compact SVD of X at
    numerical rank; factored input is handled through thin QR of each
    factor, at O(k n (m + d)) cost and without densifying U_f V_f^T, and
    dense input through `spectral_basis`.  `svd`, when given, is X's
    `spectral_basis` (left, s) or thin SVD (U, s, Vt), taken instead of
    computing it; only its first two parts are read.  `fit`, when given,
    is X's fit term on Omega, taken instead of computing it by `fit_term`
    (`solve` passes the one its V step determines).
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if isinstance(X_or_factors, tuple):
        left, s, _ = _compact_svd(X_or_factors) if svd is None else svd
    else:
        X_or_factors = np.atleast_2d(np.asarray(X_or_factors, dtype=float))
        left, s = spectral_basis(X_or_factors) if svd is None else svd[:2]
    if fit is None:
        fit = fit_term(X_or_factors, data)

    # numerical rank: drop directions whose singular value underflows
    r = _count_above(s, max(1, s.size) * _EPS)
    left = left[:, :r]

    YtY = float(np.einsum("ij,ij->", Y, Y))
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
    """Relative squared Frobenius reconstruction error, summed over row
    blocks so that no temporary of the matrices' size is made."""
    X_hat = np.atleast_2d(np.asarray(X_hat, dtype=float))
    A_true = np.atleast_2d(np.asarray(A_true, dtype=float))
    if X_hat.shape != A_true.shape:
        raise ParameterError("X_hat and A_true shapes disagree")
    num = denom = 0.0
    for rows in _row_blocks(A_true):
        num += _square_sum(X_hat[rows] - A_true[rows])
        denom += _square_sum(A_true[rows].copy())
    if denom == 0.0:
        raise ParameterError("A_true must be nonzero")
    return num / denom


def r_squared(X_hat: np.ndarray, Y: np.ndarray, *, svd=None) -> float:
    """Pooled multivariate R^2 of the side info regressed on X_hat.

    Total sum of squares is column-mean centered and pooled over columns.
    The fitted values X_hat (X_hat^T X_hat)^+ X_hat^T Y are the projection
    of Y onto the left singular vectors that `ols_alpha`'s PINV_CUTOFF
    keeps, taken from `spectral_basis`.  `svd`, when given, is X_hat's
    `spectral_basis` (left, s) or thin SVD (U, s, Vt), taken instead of
    computing it.
    """
    X_hat = np.atleast_2d(np.asarray(X_hat, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    left, s = spectral_basis(X_hat) if svd is None else svd[:2]
    if left.shape[0] != Y.shape[0]:
        raise ParameterError("X and Y row counts disagree")
    left = left[:, :_count_above(s, PINV_CUTOFF)]
    fitted = left @ (left.T @ Y)
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
    return _count_above(s, max(shape) * _EPS)


def fitted_rank(X_hat: np.ndarray, *, svd=None) -> int:
    """Numerical rank: singular values above s_1 * max(n, m) * 2^-52.
    `svd`, when given, is X_hat's `spectral_basis` or thin SVD, whose
    singular values are read instead of computing them."""
    X_hat = np.atleast_2d(np.asarray(X_hat, dtype=float))
    s = np.linalg.svd(X_hat, compute_uv=False) if svd is None else svd[1]
    return _rank_of_values(s, X_hat.shape)


@single_blas_thread()
def evaluate(X_hat: np.ndarray, data: PartialMatrix, Y: np.ndarray,
             A_true: np.ndarray, lam: float, gamma: float) -> Metrics:
    """Bundle of all solution quality metrics against a known ground truth.

    X_hat's `spectral_basis` is taken once and shared by `fitted_rank`,
    `r_squared` and `objective_svd`, so the bundle is bitwise the
    standalone metrics.  Runs NumPy's BLAS on one thread, like
    `admm.solve`, so that no idle OpenBLAS worker spins into the next solve
    (see `generate_synthetic`).
    """
    X_hat = np.atleast_2d(np.asarray(X_hat, dtype=float))
    err = err_l2(X_hat, A_true)
    svd = spectral_basis(X_hat)
    return Metrics(err_l2=err, r2=r_squared(X_hat, Y, svd=svd),
                   fitted_rank=fitted_rank(X_hat, svd=svd),
                   objective=objective_svd(X_hat, data, Y, lam, gamma,
                                           svd=svd))
