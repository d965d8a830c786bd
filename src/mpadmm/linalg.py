"""Dense and sparse linear algebra primitives, and the two rules the
package shares: blocks of at most ``_BLOCK`` elements (`_blocks`) for
every blocked gather, scatter and sum, and the numerical-rank cut
s > s_1 max(n, m) eps (`numerical_rank`).

Truncated SVDs of dense or SciPy sparse arrays take one of three routes
(`svd_route`).  A tall sparse array (such as the observations' CSR
index) whose m x m Gram is no larger than its entry count is seeded
from that Gram, formed explicitly by dense rank updates and solved by
one LAPACK subset eigensolve.  Other arrays, dense ones included, go
through ARPACK's implicitly restarted Lanczos on the Gram operator,
applied as the products A x and A^T y and never formed.  Both work at
machine precision and depend little on the gap after the k-th singular
value.  Inputs whose smaller dimension is at most ``DENSE_CUTOFF``, and
requests for all min(n, m) triplets, take a full dense decomposition
instead; the dense path doubles as the test oracle.  The symmetric
eigenproblems of the P update (`admm.update_P`) and the dual residual
are low-rank and solved exactly by Rayleigh-Ritz on a basis of their
range, never as n x n matrices: Y's basis, taken once per solve by
CholeskyQR2 with the thin SVD as its fallback (`side_basis`), plus the
part of [Z, Phi] outside it, found by Gram-Schmidt sweeps over row
blocks of Y's basis (`pgram_compress`).  That Ritz problem is a
diagonal plus a rank-2k matrix; above a size (`ritz_route`) it is
solved by Rayleigh-quotient iteration on that form, kept only when its
certificate holds, with LAPACK's `eigh` as the fallback (`pgram_ritz`).
Their reference solve works on the operator's factor pair
(`build_pgram_operator`, `symmetric_eig_topk_factored`).
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse as sp
import scipy.sparse.linalg

from .exceptions import ConvergenceError, ParameterError

DENSE_CUTOFF = 32
_BLOCK = 1 << 18  # float64 elements (2 MB) per row or entry block
_EPS = np.finfo(float).eps  # 2^-52
# The Gram route's dense rank updates cost n m^2 / 2 multiply-adds, and
# its eigensolve O(m^3), against the Lanczos route's memory-bound sparse
# products, a few hundred passes over the nnz entries.  It is taken up to
# n m^2 = _GRAM_WORK nnz.  Rank-10 data plus noise, k = 10, one BLAS thread
# on 2 vCPUs, Lanczos -> Gram: 167 -> 42 ms at 2000 x 1000, density 0.5
# (n m^2 / nnz = 2e3); 434 -> 201 ms at 2000 x 2000, density 0.5 (4e3);
# 139 -> 97 ms at 10000 x 1000, density 0.1 (1e4); but 154 -> 233 ms at
# 4000 x 2000, density 0.1 (2e4), and 185 -> 601 ms at 3000 x 3000,
# density 0.1 (3e4).
_GRAM_WORK = 1 << 12
# `pgram_ritz` tries Rayleigh-quotient iteration (`_ritz_rqi`) before
# LAPACK's subset `eigh` from order q >= _RITZ_ORDER with q >= _RITZ_RATIO
# k (`ritz_route`): the iteration costs O(take q k^2) per step, the
# tridiagonal reduction O(q^3).  Mean time per `pgram_ritz` call in ms,
# eigh vs iteration (all certified), over the P updates and dual
# residuals of 6-iteration solves at n = 1000, m = 100, one BLAS thread:
#   k = 2:  q = 64  0.22 vs 0.31   q = 84  0.30 vs 0.33   q = 104 0.50 vs 0.48
#           q = 154 0.95 vs 0.32
#   k = 5:  q = 70  0.36 vs 0.41   q = 90  0.48 vs 0.48   q = 110 0.64 vs 0.47
#           q = 160 1.62 vs 0.78
#   k = 10: q = 40  0.38 vs 1.08   q = 120 1.27 vs 1.41   q = 170 2.07 vs 1.52
#   k = 20: q = 240 4.2 vs 4.6     q = 290 5.0 vs 5.1     q = 390 9.2 vs 6.3
_RITZ_ORDER = 100
_RITZ_RATIO = 15
_RQI_STEPS = 10  # cap on the iteration; it takes 3 steps on `protocol`
# the certificate's shift lies at least this fraction of the smallest
# kept Ritz value (and 8 q eps ||T||) below it
_RITZ_MARGIN = 2.0 ** -10
# `pgram_compress` sweeps Qy (n x d) in row blocks of _SWEEP elements
# (256 KB: 218 rows at d = 150, 1638 at d = 20), and in one block when n d
# <= 2 _SWEEP, where two blocks lost (the sweeps alone at 2k = 10: 300 x
# 150 149 vs 171 us, 2000 x 20 146 vs 167 us).  Median us per call (31
# alternating calls, the SVD of the remainder included), one block vs
# this rule, one BLAS thread on a 2-vCPU Intel Xeon host (OpenBLAS
# 0.3.31, NumPy 2.4.6), at 2k = 10 / 20 / 30 columns of [Z, Phi]:
#   d = 20:  n = 300 to 2000 one block, as are 2000: 385 / 913 / 2589
#            n = 4000    1147 vs 1167 /  2922 vs  2585 /  5160 vs  4680
#            n = 8000    2870 vs 2280 /  5832 vs  5087 / 10240 vs  9259
#            n = 20000   5760 vs 4642 / 13838 vs 12491 / 29438 vs 26611
#   d = 150: n = 300     one block: 183 / 304 / 665
#            n = 1000     835 vs  549 /  1221 vs   929 /  1924 vs  1561
#            n = 2000    1869 vs 1124 /  2546 vs  1868 /  4050 vs  3229
#            n = 4000    3866 vs 2334 /  5215 vs  3825 /  8125 vs  6463
#            n = 8000    7842 vs 4712 / 11155 vs  8035 / 18618 vs 15005
#            n = 20000  20599 vs 13031 / 40644 vs 32404 / 75510 vs 63780
_SWEEP = 1 << 15
# `side_basis` leaves CholeskyQR2 for the thin SVD when the diagonal of
# R_1 = chol(Y^T Y) spans more than this ratio: kappa(Y) is then at least
# as large, and Y^T Y has lost about 12 of its 16 digits
_CHOL_RATIO = 1e6


def _blocks(count: int, width: int):
    """Slices over count items, max(1, _BLOCK // width) at a time, so that
    a block of width values per item holds at most _BLOCK (2 MB)."""
    step = max(1, _BLOCK // max(1, width))
    return (slice(i, min(i + step, count)) for i in range(0, count, step))


def numerical_rank(s: np.ndarray, shape) -> int:
    """Count of the singular values s (non-increasing) of a matrix of
    `shape` that lie above s_1 * max(shape) * eps; 0 when s is empty or
    zero."""
    return int(np.sum(s > max(shape) * _EPS * s[0])) if s.size else 0


@dataclass(frozen=True)
class TruncatedSVD:
    """Leading singular triplets: U (n x k), S (k,), V (m x k), and the
    `svd_route` that computed them."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    route: str


def _fix_signs(U: np.ndarray, V: Optional[np.ndarray] = None):
    """Make the first nonzero entry of each column of U nonnegative.

    An entry counts as nonzero above 1e-12 times its column's largest
    magnitude; zero columns, and columns whose largest magnitude is not
    finite, are left as they are.  V, when given, is flipped in lockstep
    so the product is preserved.  Both are changed in place.
    """
    mag = np.abs(U.T, order="C")  # columns contiguous: fast reductions
    above = mag > 1e-12 * mag.max(axis=1, keepdims=True)
    first = above.argmax(axis=1)
    cols = np.arange(U.shape[1])
    flip = above[cols, first] & (U[first, cols] < 0)
    U[:, flip] = -U[:, flip]
    if V is not None:
        V[:, flip] = -V[:, flip]
    return U, V


def svd_route(n: int, m: int, k: int, nnz: Optional[int] = None) -> str:
    """The route `truncated_svd` takes for k triplets of an n x m array
    holding `nnz` stored entries (None: a dense array).

    "dense": min(n, m) <= DENSE_CUTOFF or k = min(n, m), a full SVD.
    "gram": a tall (n >= m) sparse array whose m x m Gram is no larger
    than its entries (m^2 <= nnz) and costs at most _GRAM_WORK
    multiply-adds per entry to form (n m^2 <= _GRAM_WORK nnz).
    "lanczos": every other array.
    """
    n, m, k = int(n), int(m), int(k)
    if min(n, m) <= DENSE_CUTOFF or k == min(n, m):
        return "dense"
    if (nnz is not None and n >= m and m * m <= nnz
            and n * m * m <= _GRAM_WORK * int(nnz)):
        return "gram"
    return "lanczos"


def _csr_gram(A: sp.csr_array) -> np.ndarray:
    """Upper triangle of A^T A for an n x m CSR array A, as an m x m
    Fortran-order array whose strict lower triangle is zero.

    Rows are taken in blocks of at most _BLOCK dense elements: each block
    is a zero-copy CSR view of the index arrays, scattered into one
    reused dense buffer and added by a BLAS rank update (dsyrk).
    """
    n, m = A.shape
    G = np.zeros((m, m), order="F")
    blocks = list(_blocks(n, m))  # the first is the largest
    buf = np.empty((blocks[0].stop if blocks else 0, m))
    indptr, indices, data = A.indptr, A.indices, A.data
    for rows in blocks:
        r0, r1 = rows.start, rows.stop
        a, b = indptr[r0], indptr[r1]
        # the views are assigned, not passed to the constructor, which
        # copies views of a much larger array
        block = sp.csr_array((r1 - r0, m))
        block.indptr = indptr[r0:r1 + 1] - a
        block.indices = indices[a:b]
        block.data = data[a:b]
        dense = block.toarray(out=buf[:r1 - r0])
        # dense^T is m x rows in Fortran order: G += dense^T dense
        G = scipy.linalg.blas.dsyrk(1.0, dense.T, beta=1.0, c=G, trans=0,
                                    lower=0, overwrite_c=1)
    return G


def truncated_svd(A, k: int, seed: int = 0) -> TruncatedSVD:
    """Leading-k singular triplets of A, a dense array or any SciPy
    sparse array.

    Above ``DENSE_CUTOFF``, and for k < min(n, m), the top-k eigenvectors
    of the smaller Gram, A^T A or A A^T, are found and the triplets read
    off the thin SVD of A applied to that basis.  The route is
    `svd_route`'s, with the entry count of a sparse A, and is returned
    as ``route``:

    - "gram": a tall sparse A whose Gram is small forms A^T A explicitly
      (`_csr_gram` of its CSR form) and takes its top k eigenvectors
      from one LAPACK MRRR subset eigensolve (``dsyevr``).  It draws no
      random numbers; `seed` is unused.
    - "lanczos": ARPACK's implicitly restarted Lanczos (``eigsh`` at
      tol=0, i.e. machine precision) on the Gram operator, applied as
      the products A x and A^T y and never formed.  The start vector and
      any restart vectors (ARPACK asks for them when A has rank below k)
      come from a generator seeded with `seed`.  Raises
      ConvergenceError, with the converged triplets as ``best``, when
      ARPACK runs out of restarts.

    Equal inputs give bitwise-equal results.  A zero A off the dense
    route gives S = 0 with coordinate-axis U and V.
    """
    sparse = sp.issparse(A)
    if sparse and A.format not in ("csr", "csc", "coo"):
        A = A.tocsr()  # one flat array of stored values (`data`)
    A = A.astype(float, copy=False) if sparse else np.asarray(A, dtype=float)
    n, m = A.shape
    if not 1 <= k <= min(n, m):
        raise ParameterError(f"rank k={k} out of range for {n}x{m} operator")

    route = svd_route(n, m, k, A.nnz if sparse else None)
    if route == "dense":
        U, s, Vt = np.linalg.svd(A.toarray() if sparse else A,
                                 full_matrices=False)
        U, Vh = U[:, :k].copy(), Vt[:k].T.copy()
        _fix_signs(U, Vh)
        return TruncatedSVD(U=U, S=s[:k].copy(), V=Vh, route=route)
    if not np.any(A.data if sparse else A):  # ARPACK would reject it
        return TruncatedSVD(U=np.eye(n, k), S=np.zeros(k), V=np.eye(m, k),
                            route=route)

    # the eigenvectors are those of the Gram of the smaller side
    fwd, back = (A, A.T) if n >= m else (A.T, A)

    def triplets(W):
        # W: orthonormalized Gram eigenvectors; fwd W = Ub diag(s) Vb^T
        W = np.linalg.qr(W)[0]
        Ub, s, Vbt = np.linalg.svd(fwd @ W, full_matrices=False)
        Wb = W @ Vbt.T
        U, V = (Ub, Wb) if n >= m else (Wb, Ub)
        _fix_signs(U, V)
        return TruncatedSVD(U=U, S=s, V=V, route=route)

    if route == "gram":
        _, W = scipy.linalg.eigh(_csr_gram(A.tocsr()), lower=False,
                                 subset_by_index=[m - k, m - 1],
                                 overwrite_a=True, check_finite=False)
        return triplets(W)

    p = min(n, m)
    gram = scipy.sparse.linalg.LinearOperator(
        (p, p), matvec=lambda x: back @ (fwd @ x), dtype=float)
    # eigsh rather than svds: svds hands no generator on to eigsh, whose
    # restart vectors would then be drawn from fresh OS entropy
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(p)
    try:
        _, W = scipy.sparse.linalg.eigsh(gram, k, v0=v0, tol=0, rng=rng)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError("truncated_svd: ARPACK did not converge",
                               best=triplets(exc.eigenvectors)) from exc
    return triplets(W)


def symmetric_eig_topk_factored(F1: np.ndarray, F2: np.ndarray, k: int,
                                seed: int = 0):
    """Top-k algebraic eigenpairs of the symmetric product C = F1 F2^T.

    With F1, F2 both n x q and C symmetric, col(F1) is an invariant
    subspace containing range(C) and C vanishes on its complement, so the
    full spectrum is eig(Q^T C Q) plus n - q zeros for Q = orth(F1).  Cost
    is O(n q^2) and exact up to the dense q x q eigensolve; no n x n
    buffer is formed.  When fewer than k eigenvalues of the compressed
    block are nonnegative, zero-eigenvalue directions from the complement
    are preferred over negative ones.
    """
    F1 = np.asarray(F1, dtype=float)
    F2 = np.asarray(F2, dtype=float)
    if F1.shape != F2.shape:
        raise ParameterError("factor shapes disagree")
    n, q = F1.shape
    if not 1 <= k <= n:
        raise ParameterError(f"rank k={k} out of range for {n}x{n} operator")

    Q = np.linalg.qr(F1)[0]
    T = (Q.T @ F1) @ (F2.T @ Q)
    lam, W = np.linalg.eigh(0.5 * (T + T.T))
    order = np.argsort(lam)[::-1]
    lam, W = lam[order], W[:, order]

    take = min(k, q)
    n_zero_better = 0
    if n > q:
        # count selected negatives that a complement null vector beats
        n_zero_better = int(np.sum(lam[:take] < 0.0))
    keep = take - n_zero_better
    M = Q @ W[:, :keep]
    lambdas = lam[:keep]

    pad = k - keep
    if pad > 0:
        if n - q < pad:
            raise ParameterError("operator order too small for requested k")
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((n, pad))
        G -= Q @ (Q.T @ G)
        if M.shape[1]:
            G -= M @ (M.T @ G)
        Mc = np.linalg.qr(G)[0][:, :pad]
        M = np.hstack([M, Mc])
        lambdas = np.concatenate([lambdas, np.zeros(pad)])

    M = np.ascontiguousarray(M)
    _fix_signs(M)
    return M, lambdas


def _multiply_in_place(Q: np.ndarray, T: np.ndarray) -> None:
    """Q <- Q T for an n x d Q and a d x d T, in row blocks of d rows
    through one d x d buffer."""
    n, d = Q.shape
    buf = np.empty((min(n, d), d))
    for i in range(0, n, d):
        block = buf[:min(d, n - i)]
        np.matmul(Q[i:i + d], T, out=block)
        Q[i:i + d] = block


def _cholesky_qr2(Y: np.ndarray):
    """(Qy, s2) of `side_basis` by CholeskyQR2, or None where it does not
    apply: d > n, a Cholesky that fails, R_1's diagonal ratio above
    _CHOL_RATIO, or R_2 R_1 of numerical rank below d.

    R_1 = chol(Y^T Y) and Q = Y R_1^-1, then R_2 = chol(Q^T Q) and Q <- Q
    R_2^-1: the second pass leaves Q orthonormal to rounding for kappa(Y)
    well below eps^-1/2 (Fukaya, Nakatsukasa, Yanagisawa & Yamamoto 2014;
    Yamamoto et al., ETNA 2015), and Y = Q R_2 R_1.  The SVD of the d x d
    R_2 R_1 = Ur diag(s) Vr^T then gives Qy = Q Ur and s2 = s^2.  Q is the
    one n x d array made; R_2^-1 and Ur are applied to it in place
    (`_multiply_in_place`), and each d x d temporary is freed before the
    next is made, so that at most three are held beside Q.  Every product
    runs on NumPy's BLAS.
    """
    n, d = Y.shape
    if not 0 < d <= n:
        return None
    try:
        R1 = np.linalg.cholesky(Y.T @ Y).T
    except np.linalg.LinAlgError:
        return None
    diag = np.abs(np.diagonal(R1))
    if not diag.max() <= _CHOL_RATIO * diag.min():  # NaN fails too
        return None
    Q = Y @ np.linalg.inv(R1)
    try:
        R2 = np.linalg.cholesky(Q.T @ Q).T
    except np.linalg.LinAlgError:
        return None
    R = R2 @ R1
    del R1
    T = np.linalg.inv(R2)
    del R2
    _multiply_in_place(Q, T)
    del T
    Ur, s, Vrt = np.linalg.svd(R)
    del R, Vrt
    if numerical_rank(s, Y.shape) < d:
        return None
    _multiply_in_place(Q, Ur)
    return Q, s * s


def side_basis(Y: np.ndarray):
    """(Qy, s2): orthonormal basis of col(Y) at numerical rank and the
    squared singular values, so that Y Y^T = Qy diag(s2) Qy^T.

    Taken by CholeskyQR2 (`_cholesky_qr2`) where it applies, which holds
    one n x d array plus at most three d x d ones.  Otherwise (d > n, a
    Cholesky that fails, an ill-conditioned or rank-deficient Y) it comes
    from the thin SVD of Y, and directions past `numerical_rank`
    (singular value at most s_1 * max(n, d) * eps) are dropped; their
    share of Y Y^T is below rounding.
    """
    Y = np.asarray(Y, dtype=float)
    fast = _cholesky_qr2(Y)
    if fast is not None:
        return fast
    U, s, _ = np.linalg.svd(Y, full_matrices=False)
    r = numerical_rank(s, Y.shape)
    return np.ascontiguousarray(U[:, :r]), s[:r] ** 2


def pgram_compress(basis, Z: np.ndarray, Phi: np.ndarray):
    """(Q2, B): an orthonormal basis Q2 of the part of G = [Z, Phi]
    outside col(Y), and the coordinates B of G in the basis [Qy, Q2], so
    that G = [Qy, Q2] B up to rounding; Y is given by its `side_basis`.

    G is projected off Qy twice (classical Gram-Schmidt with
    reorthogonalization) in three sweeps over row blocks of Qy: Cy =
    sum_b Qy_b^T G_b; then R_b = G_b - Qy_b Cy and C2 += Qy_b^T R_b while
    Qy_b is in cache; then R_b -= Qy_b C2.  Blocks hold _SWEEP elements
    of Qy, and an n x d' Qy of at most 2 _SWEEP elements is one block.
    Q2 is taken from the remainder's SVD at numerical rank relative to
    ||G||: G is often rank-deficient (the all-ones initial dual), and a
    QR would then return filler columns that are not orthogonal to Qy.
    B has d' + rank rows, d' = Qy's column count, and Z's coordinates are
    its first Z.shape[1] columns.
    """
    Qy, _ = basis
    Z = np.asarray(Z, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    if Z.shape[0] != Qy.shape[0] or Phi.shape != Z.shape:
        raise ParameterError("Y, Z, Phi row counts / shapes are inconsistent")
    R = np.hstack([Z, Phi])  # G, projected in place
    cut = max(R.shape) * _EPS * np.linalg.norm(R)
    n, d = Qy.shape
    step = _SWEEP // d if n * d > 2 * _SWEEP else max(n, 1)
    spans = [slice(i, i + step) for i in range(0, n, step)]
    Cy = np.zeros((d, R.shape[1]))
    for b in spans:
        Cy += Qy[b].T @ R[b]
    C2 = np.zeros_like(Cy)
    for b in spans:
        R[b] -= Qy[b] @ Cy
        C2 += Qy[b].T @ R[b]
    for b in spans:
        R[b] -= Qy[b] @ C2
    Cy += C2
    U2, s_r, Vt_r = np.linalg.svd(R, full_matrices=False)
    r2 = int(np.sum(s_r > cut))
    # the dropped part of R is below rounding
    return U2[:, :r2], np.vstack([Cy, s_r[:r2, None] * Vt_r[:r2]])


def ritz_route(q: int, k: int) -> str:
    """The route `pgram_ritz` tries first for a Ritz problem of order q
    whose off-diagonal part has rank 2k (k: Z's column count).

    "structured": q >= _RITZ_ORDER and q >= _RITZ_RATIO k, where
    Rayleigh-quotient iteration on the diagonal-plus-rank-2k form
    (`_ritz_rqi`) beats the dense tridiagonal reduction.
    "lapack": every other problem, solved by `scipy.linalg.eigh` only.
    """
    q, k = int(q), int(k)
    return ("structured" if q >= _RITZ_ORDER and q >= _RITZ_RATIO * k
            else "lapack")


@functools.cache
def _s_inverse(k: int) -> np.ndarray:
    """S^-1 = [[0, 2I], [2I, 0]] of order 2k, for S = [[0, I/2], [I/2,
    0]], the middle factor of sym(Z H^T) = [Z, H] S [Z, H]^T; built once
    per k, read-only."""
    S = np.zeros((2 * k, 2 * k))
    S[:k, k:] = S[k:, :k] = 2.0 * np.eye(k)
    S.flags.writeable = False
    return S


def _inertia_count(d: np.ndarray, L: np.ndarray, sigma: float):
    """Eigenvalues of T = diag(d) + L S L^T above sigma, S = [[0, I/2],
    [I/2, 0]] of order 2k, or None when rounding could change the count.

    By Haynsworth's inertia additivity over the bordered matrix [[E, L],
    [L^T, -S^-1]], E = diag(d) - sigma I, the count is #{d_j > sigma} +
    n_-(C) - k with C = S^-1 + L^T E^-1 L, S^-1 = [[0, 2I], [2I, 0]].
    The signs of C's eigenvalues are trusted only when each exceeds a
    bound on the rounding in forming C and in its eigensolve.
    """
    k = L.shape[1] // 2
    e = d - sigma
    if not np.all(e):
        return None
    Le = L / e[:, None]
    mu = np.linalg.eigvalsh(L.T @ Le + _s_inverse(k))
    # |fl(C) - C| <= (q + 2) eps sum_j L_j L_j^T / |e_j|, and eigvalsh
    # adds a multiple of eps ||C||
    formed = float(np.abs(L * Le).sum())
    err = 2 * _EPS * ((d.shape[0] + 2) * formed + 2 * k * np.abs(mu).max())
    if not np.all(np.abs(mu) > err):
        return None
    return int(np.sum(d > sigma)) + int(np.sum(mu < 0)) - k


def _shift_below(theta: float, d: np.ndarray, delta: float) -> float:
    """A shift in [theta - 2 delta, theta - delta]: the midpoint of the
    widest gap that the entries of d leave in that window, so at least
    delta / (2 (m + 1)) from every d_j, m of them inside."""
    lo, hi = theta - 2.0 * delta, theta - delta
    inside = d[(d > lo) & (d < hi)]
    if not inside.size:
        return 0.5 * (lo + hi)
    pts = np.concatenate([[lo], np.sort(inside), [hi]])
    i = int(np.argmax(np.diff(pts)))
    return 0.5 * (pts[i] + pts[i + 1])


def _ritz_rqi(d: np.ndarray, Z: np.ndarray, H: np.ndarray, take: int):
    """Top-take eigenpairs (non-increasing values, q x take orthonormal
    vectors) of T = diag(d) + (Z H^T + H Z^T)/2, or None when they are
    not certified.

    T is never formed.  With L = [Z, H] and S = [[0, I/2], [I/2, 0]], T =
    diag(d) + L S L^T, so (T - theta I)^-1 applies exactly by Woodbury
    through the 2k x 2k capacitance S^-1 + L^T (D - theta I)^-1 L (Golub,
    "Some modified matrix eigenvalue problems", SIAM Review 1973).  One
    Rayleigh-quotient iteration per pair runs on the batch, started at the
    coordinate vectors of T's take largest diagonal entries; each
    quotient is updated by its correction y^T x / y^T y, which keeps it
    accurate to an ulp.  It stops after two consecutive steps with every
    residual ||T x - theta x|| at most 2 eps ||T|| (||T|| bounded by
    max|d| + ||Z||_F ||H||_F), on an exactly singular capacitance (a
    quotient has hit an eigenvalue: convergence, not failure; Parlett,
    The Symmetric Eigenvalue Problem, 1998) or at _RQI_STEPS steps; a
    thin QR plus a take x take Rayleigh-Ritz finish it.  Only a
    non-finite residual returns None before the certificate.  The second
    step pays for itself: stopping at the first left the P step's
    projector 7e-12 from LAPACK's after one iteration at n = 4000, m =
    100, d = 150, k = 5, against 1.5e-15 with two.

    Certificate: the Ritz residual R must satisfy ||R||_F <= 4 q eps
    ||T||, and exactly take eigenvalues of T must lie above a shift sigma
    at least twice that (and _RITZ_MARGIN of the smallest Ritz value)
    below the smallest Ritz value and off every d_j (`_shift_below`,
    `_inertia_count`).  By Kahan's residual bound take eigenvalues lie
    within ||R||_2 of the Ritz values, all above sigma, so they are the
    top take.  A larger residual or a failed count returns None.
    """
    q, k = Z.shape
    L = np.hstack([Z, H])
    Lt = L.T
    Ls = 0.5 * np.hstack([H, Z])  # L S
    sq = np.einsum("ij,ij->j", L, L)  # squared column norms
    tnorm = float(np.abs(d).max() + np.sqrt(sq[:k].sum() * sq[k:].sum()))
    tol = 2.0 * _EPS * tnorm
    diag = d + np.einsum("ij,ij->i", Z, H)
    start = np.argsort(diag, kind="stable")[::-1][:take]
    X = np.zeros((q, take))
    X[start, np.arange(take)] = 1.0
    theta = diag[start]
    # capacitances of all pairs from one product: C_t = S^-1 + sum_j
    # L_j L_j^T / e_tj, with the rank-one terms L_j L_j^T as rows of KR
    k2 = 2 * k
    KR = np.einsum("ij,ik->ijk", L, L).reshape(q, k2 * k2)
    Sinv = _s_inverse(k)
    E = d[:, None] - theta
    hits = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_RQI_STEPS):
            Einv = 1.0 / E
            U = X * Einv
            C = (Einv.T @ KR).reshape(take, k2, k2) + Sinv
            try:
                w = np.linalg.solve(C, (Lt @ U).T[..., None])[..., 0]
            except np.linalg.LinAlgError:  # theta an exact eigenvalue
                break
            Y = U - Einv * (L @ w.T)  # (T - theta I)^-1 X, column-wise
            yy = np.einsum("ij,ij->j", Y, Y)
            theta = theta + np.einsum("ij,ij->j", Y, X) / yy
            X = Y / np.sqrt(yy)
            E = d[:, None] - theta
            R = E * X + Ls @ (Lt @ X)
            worst = float(np.einsum("ij,ij->j", R, R).max())
            if not math.isfinite(worst):  # a NaN or inf anywhere
                return None
            hits = hits + 1 if worst <= tol * tol else 0
            if hits == 2:
                break
    Q = np.linalg.qr(X)[0]
    A = Q.T @ (d[:, None] * Q + Ls @ (Lt @ Q))
    lams, G = np.linalg.eigh(0.5 * (A + A.T))
    lams, G = lams[::-1], G[:, ::-1]
    W = Q @ G
    R = (d[:, None] - lams) * W + Ls @ (Lt @ W)
    floor = 4 * q * _EPS * tnorm
    if not np.linalg.norm(R) <= floor:
        return None
    delta = max(2 * floor, _RITZ_MARGIN * abs(lams[-1]))
    sigma = _shift_below(float(lams[-1]), d, delta)
    if _inertia_count(d, L, sigma) != take:
        return None
    return lams, W


def pgram_ritz(basis, compressed, lam: float, rho1: float, k: int, *,
               routes: Optional[list] = None):
    """Coordinates of the top-k algebraic eigenvectors of lam*YY^T +
    (rho1/2)ZZ^T + (Phi Z^T + Z Phi^T)/2 in the basis [Qy, Q2] of
    `compressed` (`pgram_compress` of Z and Phi), with Y given by its
    `side_basis` (Qy, s2).

    The basis holds the operator's range, so this (d + 2k)-order
    Rayleigh-Ritz eigenproblem is exact up to rounding, and the operator
    vanishes on the basis' n - q dimensional complement.  Complement
    directions (eigenvalue 0) rank above negative Ritz values.  Returns
    (W, lambdas, pad): the q x keep coordinates of the kept Ritz vectors,
    their non-increasing eigenvalues, and the count pad = k - keep of
    complement directions that complete the top k.

    In these coordinates the operator is T = diag(lam s2, 0) + (Z_b H^T +
    H Z_b^T)/2 with H = (rho1/2) Z_b + Phi_b, a diagonal plus a rank-2k
    matrix.  Where `ritz_route` says "structured" its top pairs come from
    Rayleigh-quotient iteration on that form, with T never formed, and
    are kept only when certified: small residuals and a Haynsworth
    inertia count showing no other eigenvalue above them (`_ritz_rqi`).
    When they are not, and on the "lapack" route, T is formed and solved
    by LAPACK's subset `eigh`.  When `routes` is given, the route that
    produced the result, "structured" or "lapack", is appended to it.
    """
    Qy, s2 = basis
    Q2, B = compressed
    n = Qy.shape[0]
    if lam < 0 or rho1 < 0:
        raise ParameterError("lam and rho1 must be nonnegative")
    if not 1 <= k <= n:
        raise ParameterError(f"rank k={k} out of range for {n}x{n} operator")
    kz = B.shape[1] // 2
    Zb, Phib = B[:, :kz], B[:, kz:]
    Hb = 0.5 * rho1 * Zb + Phib
    r = Qy.shape[1]
    q = r + Q2.shape[1]
    take = min(k, q)

    pairs = None
    if take and ritz_route(q, kz) == "structured":
        d = np.zeros(q)
        d[:r] = lam * s2
        pairs = _ritz_rqi(d, Zb, Hb, take)
    if pairs is not None:
        lams, W = pairs
    elif take:
        H = Zb @ Hb.T
        T = 0.5 * (H + H.T)
        T[np.arange(r), np.arange(r)] += lam * s2
        lams, W = scipy.linalg.eigh(T, subset_by_index=[q - take, q - 1])
        lams, W = lams[::-1], W[:, ::-1]
    else:
        lams, W = np.zeros(0), np.zeros((0, 0))
    if routes is not None:
        routes.append("lapack" if pairs is None else "structured")
    pad = min(n - q, k - int(np.sum(lams >= 0.0)))
    keep = k - pad
    return W[:, :keep], lams[:keep], pad


def build_pgram_operator(Y: np.ndarray, Z: np.ndarray, Phi: np.ndarray,
                         lam: float, rho1: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Factor pair (F1, F2), both n x (d + 3k), of the symmetric operator
    C = lam*YY^T + (rho1/2)ZZ^T + (Phi Z^T + Z Phi^T)/2 = F1 F2^T.

    C is never formed: C v = F1 (F2^T v) costs O(n(d + k)), and
    `symmetric_eig_topk_factored` takes the pair as it is.
    """
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    n = Y.shape[0]
    if Z.shape[0] != n or Phi.shape != Z.shape:
        raise ParameterError("Y, Z, Phi row counts / shapes are inconsistent")
    if lam < 0 or rho1 < 0:
        raise ParameterError("lam and rho1 must be nonnegative")

    sl, sr, sh = np.sqrt(lam), np.sqrt(rho1 / 2.0), np.sqrt(0.5)
    F1 = np.hstack([sl * Y, sr * Z, sh * Phi, sh * Z])
    F2 = np.hstack([sl * Y, sr * Z, sh * Z, sh * Phi])
    return F1, F2


def soft_threshold_svd(X: np.ndarray, tau: float,
                       max_rank: Optional[int] = None) -> np.ndarray:
    """Singular value soft-thresholding: sum_i max(s_i - tau, 0) u_i v_i^T."""
    if not 0 <= tau < np.inf:
        raise ParameterError("tau must be finite and nonnegative")
    if max_rank is not None and max_rank < 0:
        raise ParameterError("max_rank must be >= 0")
    X = np.asarray(X, dtype=float)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    if max_rank is not None:
        s[max_rank:] = 0.0
    return (U * s) @ Vt


def _project(M: np.ndarray, R: np.ndarray) -> np.ndarray:
    """M (M^T R), with M's orthonormality taken on trust."""
    return M @ (M.T @ R)


def apply_projection(M: np.ndarray, R: np.ndarray) -> np.ndarray:
    """M (M^T R) for orthonormal-column M; O(k n c), idempotent.  Raises
    ParameterError when M's columns are not orthonormal to 1e-6."""
    M = np.asarray(M, dtype=float)
    R = np.asarray(R, dtype=float)
    k = M.shape[1]
    gram = M.T @ M
    if np.max(np.abs(gram - np.eye(k))) > 1e-6:
        raise ParameterError("M does not have orthonormal columns")
    return _project(M, R)


@functools.cache
def _openblas_threads_api() -> dict:
    """Package name -> (get, set) thread-count functions of the OpenBLAS
    that package bundles, for NumPy and SciPy.  Each wheel loads its own
    copy: NumPy's in `numpy.libs` (scipy_openblas_{get,set}_num_threads64_)
    and SciPy's in `scipy.libs` (scipy_openblas_{get,set}_num_threads).  A
    package that links another BLAS, or no OpenBLAS with these symbols,
    has no entry.  Only a library already in the process is opened
    (RTLD_NOLOAD); importing this module loads both."""
    found = {}
    mode = getattr(os, "RTLD_NOLOAD", 0)
    for pkg in (np, scipy):
        root = Path(pkg.__file__).parent
        for path in [*root.parent.glob(f"{pkg.__name__}.libs/*openblas*"),
                     *root.glob(".dylibs/*openblas*")]:
            try:
                lib = ctypes.CDLL(str(path), mode=mode)
            except OSError:
                continue
            pairs = ((getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                              None),
                      getattr(lib, f"{prefix}openblas_set_num_threads{suffix}",
                              None))
                     for prefix in ("scipy_", "") for suffix in ("64_", ""))
            pair = next((pair for pair in pairs if None not in pair), None)
            if pair is not None:
                found[pkg.__name__] = pair
                break
    return found


def _blas_threads() -> dict:
    """Package name -> thread count of each OpenBLAS that
    `_openblas_threads_api` finds."""
    return {name: get() for name, (get, _) in _openblas_threads_api().items()}


_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: dict = {}


@contextmanager
def single_blas_thread():
    """Run the block with every OpenBLAS in the process on one thread, then
    restore each one's setting.

    NumPy and SciPy each bundle an OpenBLAS (`_openblas_threads_api`), and
    both are capped: NumPy's runs the dense products, SciPy's the Gram
    route's `dsyrk` and subset `eigh`, ARPACK and the LAPACK Ritz route.  So
    the block gives the same bits whatever the host's core count or either
    library's thread setting.  One thread also costs little: the solver's
    dense operands are tall and thin (n x O(k + d)), where OpenBLAS threads
    gain little and, whenever another process holds a core, stall on each
    other: on 2 vCPUs with one core busy, a 20-iteration protocol solve
    took 1.6 s (0.7-1.9 s) on two threads and 0.33 s on one.  Nested and
    concurrent uses restore the settings once, when the last one exits.
    Without an OpenBLAS it does nothing.
    """
    global _blas_depth, _blas_saved
    api = _openblas_threads_api()
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = _blas_threads()
            for _, set_ in api.values():
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for name, (_, set_) in api.items():
                    set_(_blas_saved[name])
