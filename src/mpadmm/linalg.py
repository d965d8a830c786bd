"""Dense and implicit-operator linear algebra primitives.

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
eigenproblems of the P update are low-rank and solved exactly by
Rayleigh-Ritz on a basis of their range, never as n x n matrices.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse as sp
import scipy.sparse.linalg

from .exceptions import ConvergenceError, ParameterError

DENSE_CUTOFF = 32
_BLOCK = 1 << 18  # float64 elements (2 MB) per row or entry block
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


class LinearMap:
    """A linear operator given by matvec callbacks, never materialized.

    ``apply`` computes v -> M v and ``apply_transpose`` computes v -> M^T v.
    Both accept 1-d vectors or 2-d blocks of column vectors.
    """

    def __init__(self, rows: int, cols: int,
                 apply: Callable[[np.ndarray], np.ndarray],
                 apply_transpose: Callable[[np.ndarray], np.ndarray]):
        self.rows = int(rows)
        self.cols = int(cols)
        self.apply = apply
        self.apply_transpose = apply_transpose

    @property
    def shape(self):
        return (self.rows, self.cols)


@dataclass(frozen=True)
class TruncatedSVD:
    """Leading singular triplets: U (n x k), S (k,), V (m x k), and the
    `svd_route` that computed them."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    route: str

    def compose(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


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
    step = max(1, _BLOCK // m)
    buf = np.empty((min(step, n), m))
    indptr, indices, data = A.indptr, A.indices, A.data
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
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


def side_basis(Y: np.ndarray):
    """(Qy, s2): orthonormal basis of col(Y) at numerical rank and the
    squared singular values, so that Y Y^T = Qy diag(s2) Qy^T.

    Directions whose singular value falls below s_1 * max(n, d) * eps
    are dropped; their share of Y Y^T is below rounding.
    """
    Y = np.asarray(Y, dtype=float)
    U, s, _ = np.linalg.svd(Y, full_matrices=False)
    if s.size and s[0] > 0:
        r = int(np.sum(s > s[0] * max(Y.shape) * np.finfo(float).eps))
    else:
        r = 0
    return np.ascontiguousarray(U[:, :r]), s[:r] ** 2


def pgram_compress(basis, Z: np.ndarray, Phi: np.ndarray):
    """(Q2, B): an orthonormal basis Q2 of the part of G = [Z, Phi]
    outside col(Y), and the coordinates B of G in the basis [Qy, Q2], so
    that G = [Qy, Q2] B up to rounding; Y is given by its `side_basis`.

    G is projected off Qy twice (classical Gram-Schmidt with
    reorthogonalization) and Q2 is taken from the remainder's SVD at
    numerical rank relative to ||G||: G is often rank-deficient (the
    all-ones initial dual), and a QR would then return filler columns
    that are not orthogonal to Qy.  B has d' + rank rows, d' = Qy's
    column count, and Z's coordinates are its first Z.shape[1] columns.
    """
    Qy, _ = basis
    Z = np.asarray(Z, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    if Z.shape[0] != Qy.shape[0] or Phi.shape != Z.shape:
        raise ParameterError("Y, Z, Phi row counts / shapes are inconsistent")
    G = np.hstack([Z, Phi])
    Cy = Qy.T @ G
    R = G - Qy @ Cy
    C2 = Qy.T @ R
    R -= Qy @ C2
    Cy += C2
    U2, s_r, Vt_r = np.linalg.svd(R, full_matrices=False)
    cut = max(G.shape) * np.finfo(float).eps * np.linalg.norm(G)
    r2 = int(np.sum(s_r > cut))
    # the dropped part of R is below rounding
    return U2[:, :r2], np.vstack([Cy, s_r[:r2, None] * Vt_r[:r2]])


def pgram_ritz(basis, compressed, lam: float, rho1: float, k: int):
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
    H = Zb @ (0.5 * rho1 * Zb + Phib).T
    T = 0.5 * (H + H.T)
    r = Qy.shape[1]
    T[np.arange(r), np.arange(r)] += lam * s2

    q = r + Q2.shape[1]
    take = min(k, q)
    if take:
        lams, W = scipy.linalg.eigh(T, subset_by_index=[q - take, q - 1])
        lams, W = lams[::-1], W[:, ::-1]
    else:
        lams, W = np.zeros(0), np.zeros((0, 0))
    pad = min(n - q, k - int(np.sum(lams >= 0.0)))
    keep = k - pad
    return W[:, :keep], lams[:keep], pad


def pgram_eig_topk(basis, Z: np.ndarray, Phi: np.ndarray, lam: float,
                   rho1: float, k: int, seed: int = 0, *, compressed=None):
    """Top-k algebraic eigenpairs of lam*YY^T + (rho1/2)ZZ^T +
    (Phi Z^T + Z Phi^T)/2, with Y given by its `side_basis` (Qy, s2).

    Rayleigh-Ritz (`pgram_ritz`) on the orthonormal basis [Qy, Q2] of
    `compressed`, the `pgram_compress` of Z and Phi (computed here when
    None), lifted back to n rows.  Returns (M, lambdas) with M n x k
    orthonormal and lambdas non-increasing.  Complement directions of
    eigenvalue 0 are drawn from a Gaussian block seeded with `seed`.
    """
    if compressed is None:
        compressed = pgram_compress(basis, Z, Phi)
    W, lambdas, pad = pgram_ritz(basis, compressed, lam, rho1, k)
    Qy, Q2 = basis[0], compressed[0]
    n, r = Qy.shape
    M = Qy @ W[:r] + Q2 @ W[r:]
    if pad:
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, pad))
        for Q in (Qy, Q2, M):
            X -= Q @ (Q.T @ X)
        at = int(np.sum(lambdas >= 0.0))  # zeros go before any negatives
        M = np.hstack([M[:, :at], np.linalg.qr(X)[0], M[:, at:]])
        lambdas = np.concatenate([lambdas[:at], np.zeros(pad), lambdas[at:]])
    M = np.ascontiguousarray(M)
    _fix_signs(M)
    return M, lambdas


def build_pgram_operator(Y: np.ndarray, Z: np.ndarray, Phi: np.ndarray,
                         lam: float, rho1: float) -> LinearMap:
    """Implicit symmetric operator lam*YY^T + (rho1/2)ZZ^T + (Phi Z^T + Z Phi^T)/2.

    Stored only through its n x (d + 3k) factors F1, F2 with C = F1 F2^T;
    a matvec costs O(n(d + k)) and no n x n buffer is ever allocated.
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

    op = LinearMap(n, n, lambda v: F1 @ (F2.T @ v), lambda v: F2 @ (F1.T @ v))
    op.F1 = F1
    op.F2 = F2
    return op


def soft_threshold_svd(X: np.ndarray, tau: float,
                       max_rank: Optional[int] = None) -> np.ndarray:
    """Singular value soft-thresholding: sum_i max(s_i - tau, 0) u_i v_i^T."""
    if tau < 0:
        raise ParameterError("tau must be nonnegative")
    X = np.asarray(X, dtype=float)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    if max_rank is not None:
        s[max_rank:] = 0.0
    return (U * s) @ Vt


def apply_projection(M: np.ndarray, R: np.ndarray) -> np.ndarray:
    """M (M^T R) for orthonormal-column M; O(k n c), idempotent."""
    M = np.asarray(M, dtype=float)
    R = np.asarray(R, dtype=float)
    k = M.shape[1]
    gram = M.T @ M
    if np.max(np.abs(gram - np.eye(k))) > 1e-6:
        raise ParameterError("M does not have orthonormal columns")
    return M @ (M.T @ R)


@functools.cache
def _openblas_threads_api():
    """(get, set) thread-count functions of the OpenBLAS that NumPy has
    loaded, or None when NumPy links another BLAS or none is found.  Only
    a library already in the process is opened (RTLD_NOLOAD)."""
    pkg = Path(np.__file__).parent
    for path in [*pkg.parent.glob("numpy.libs/*openblas*"),
                 *pkg.glob(".dylibs/*openblas*")]:
        try:
            lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                              None)
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}",
                               None)
                if get is not None and set_ is not None:
                    return get, set_
    return None


_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 1


@contextmanager
def single_blas_thread():
    """Run the block with NumPy's OpenBLAS on one thread, then restore it.

    The solver's dense operands are tall and thin (n x O(k + d)), where
    OpenBLAS threads gain little and, whenever another process holds a
    core, stall on each other: on 2 vCPUs with one core busy, a 20-iteration
    protocol solve took 1.6 s (0.7-1.9 s) on two threads and 0.33 s on one.
    Nested and concurrent uses restore the setting once, when the last one
    exits.  Without an OpenBLAS it does nothing.
    """
    global _blas_depth, _blas_saved
    api = _openblas_threads_api()
    if api is None:
        yield
        return
    get, set_ = api
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_(_blas_saved)
