"""Mixed-projection ADMM solver.

Minimizes, over U (n x k), V (m x k) and a rank-k orthogonal projector
P = M M^T, the partially observed fit plus side-information and
factored nuclear-norm surrogate terms, by alternating closed-form
block updates on the augmented Lagrangian with copy variable Z and
dual variables Phi (projection constraint) and Psi (copy constraint).
"""

from __future__ import annotations

import contextlib
import functools
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import objective
from .data import Hyperparams, PartialMatrix, SideInfo
from .exceptions import NumericalError, ParameterError
from .linalg import (_blocks, _project, apply_projection,
                     build_pgram_operator, numerical_rank, pgram_compress,
                     pgram_ritz, side_basis, single_blas_thread,
                     symmetric_eig_topk_factored, truncated_svd)


class RankDeficiencyWarning(UserWarning):
    """Z had numerical rank below k when computing the dual residual."""


@dataclass
class ObservationMasks:
    """The observed values as one canonical (row-major sorted) CSR index,
    n x m, and `by_col`, its transpose: an m x n CSC view of the same
    arrays, so column-wise products run on the one index and sum each
    column's entries in increasing row order, as a sorted CSR copy of the
    transpose would.  Index arrays are int32 when n, m and nnz fit, else
    int64.

    The ridge steps' Gram source is built on first use: on the "sparse"
    route (`ridge_route`) the 0/1 patterns `row_pattern` and
    `col_pattern` (8 bytes of ones per entry, shared by both, on the same
    index arrays), on the "mask" route the dense n x m uint8 `mask` (1
    byte per cell), and never the other.  In `solve` that is the first
    ridge step, after the init's truncated SVD, so neither is held
    beside the m x m Gram that the SVD's Gram route forms from `by_row`.
    """

    by_row: sp.csr_array
    by_col: sp.sparray

    @classmethod
    def from_partial(cls, data: PartialMatrix) -> "ObservationMasks":
        """Build the index on `data`'s entries, which `PartialMatrix`
        keeps in row-major order: `indptr` from the row counts, the
        columns copied to the index dtype (4 bytes per entry when int32),
        and `values` shared with `data`."""
        n, m = data.n, data.m
        fits = max(n, m, data.nnz) <= np.iinfo(np.int32).max
        idx = np.int32 if fits else np.int64
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(data.rows, minlength=n), out=indptr[1:])
        by_row = sp.csr_array((data.values, data.cols.astype(idx), indptr),
                              shape=(n, m))
        return cls(by_row=by_row, by_col=by_row.T)

    @functools.cached_property
    def row_pattern(self) -> sp.csr_array:
        """`by_row`'s 0/1 pattern, sharing its index arrays."""
        return _with_data(self.by_row, np.ones(self.by_row.nnz))

    @functools.cached_property
    def col_pattern(self) -> sp.sparray:
        """`by_col`'s 0/1 pattern, sharing its index arrays and the ones
        of `row_pattern`."""
        return _with_data(self.by_col, self.row_pattern.data)

    @functools.cached_property
    def mask(self) -> np.ndarray:
        """The n x m 0/1 observation mask as uint8, C order, scattered
        from `by_row` with a 1-byte-per-entry temporary."""
        return _with_data(self.by_row,
                          np.ones(self.by_row.nnz, np.uint8)).toarray()

    @functools.cached_property
    def col_rows(self) -> list:
        """Row indices observed in each column, increasing; built on first
        use and kept."""
        csc = self.by_row.tocsc()
        return np.split(csc.indices, csc.indptr[1:-1])


def _with_data(mat: sp.sparray, data: np.ndarray) -> sp.sparray:
    """`mat`'s sparsity structure and format (CSR or CSC; shared, not
    copied) holding `data`."""
    return type(mat)((data, mat.indices, mat.indptr), shape=mat.shape)


@dataclass
class IterateState:
    U: np.ndarray
    V: np.ndarray
    M: np.ndarray  # orthonormal factor of P = M M^T, column signs unspecified
    Z: np.ndarray
    Phi: np.ndarray
    Psi: np.ndarray

    @property
    def k(self) -> int:
        return self.U.shape[1]

    def x_hat(self) -> np.ndarray:
        return self.U @ self.V.T


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """What `solve` reports for one iteration: the primal residuals
    ||(I - P)Z||_F and ||Z - U||_F, then the dual residual, the objective
    and the Lagrangian row (see `iterate`), each None when not tracked."""

    phi_res: float
    psi_res: float
    dual_res: float | None
    objective: float | None
    lagrangian: tuple | None


@dataclass
class SolveReport:
    trace: list = field(default_factory=list)  # an IterationRecord each
    subproblem_times: dict = field(default_factory=lambda: {"U": 0.0, "V": 0.0, "P": 0.0, "Z": 0.0})
    termination: str = "max_iters"
    # init_time: index build, `initial_state`, side basis and the first
    # compression of [Z, Phi]; tracking_time: the dual residual, the
    # objective and the Lagrangian.  Both are kept out of
    # subproblem_times, whose "P" includes the compressions (see `solve`).
    init_time: float = 0.0
    tracking_time: float = 0.0
    # threads (1 or 2) the U and V steps' products ran on (`ridge_groups`):
    # 2 when their right-hand sides ran on one worker beside the Gram; the
    # iterates are bitwise the same for every thread count
    ridge_groups: int = 1
    # the route the init's truncated SVD took (`TruncatedSVD.route`, by
    # `linalg.svd_route`): "gram", "lanczos", or "dense" for inputs at
    # most DENSE_CUTOFF on a side
    init_route: str = ""
    # where the U and V steps' Grams came from (`ridge_route`): "sparse"
    # (the observation pattern) or "mask" (BLAS on the dense uint8 mask);
    # both routes solve by batched Cholesky
    ridge_route: str = ""
    # Ritz solves (P updates plus tracked dual residuals) that certified
    # Rayleigh-quotient iteration answered (`linalg.pgram_ritz`); the
    # others ran LAPACK's `eigh`
    ritz_structured: int = 0

    @property
    def iterations(self) -> int:
        return len(self.trace)


# The ridge step's right-hand sides run on a worker beside the Gram only
# from _SPLIT_WORK multiply-adds (nnz * (q + k), about 1 ms of kernel time
# per lane): below it thread hand-off outweighs the gain.  On 2 vCPUs,
# nnz * (q + k) = 4e6 ran 4% slower split in two.
_SPLIT_WORK = 1 << 24
# Data with nnz >= _MASK_DENSITY n m take the "mask" route of
# `ridge_route`.  U + V step time in ms per iteration (median of 6 solves
# of 20 iterations per route, routes alternating, seed 0), sparse route
# vs mask route, one BLAS thread, on a 2-vCPU Intel Xeon host (OpenBLAS
# 0.3.31, NumPy 2.4.6), at threads = 1 / threads = 2 (one worker):
#   2000 x 1000, k = 10: density 0.1  17.2 vs 20.3 / 19.2 vs 24.7
#                        density 0.15 24.4 vs 23.9 / 26.6 vs 26.2
#                        density 0.2  25.7 vs 21.5 / 23.3 vs 18.7
#                        density 0.25 34.5 vs 23.0 / 30.5 vs 18.5
#                        density 0.3  36.5 vs 24.1 / 26.6 vs 15.8
#                        density 0.5  49.6 vs 24.0 / 45.7 vs 17.0
#   4000 x 500, k = 5:   density 0.1   6.5 vs 11.1 /  5.7 vs 10.3
#                        density 0.2  11.1 vs 12.3 / 11.6 vs 13.0
#                        density 0.3  12.7 vs 11.7 / 12.5 vs 11.8
#                        density 0.5  22.7 vs 15.4 / 19.6 vs 13.6
#   1000 x 100, k = 5:   density 0.1   1.5 vs  1.7 /  1.3 vs  1.6
#                        density 0.3   1.7 vs  1.6 /  1.8 vs  1.6
#                        density 0.5   2.4 vs  1.8 /  2.4 vs  1.8
#   2000 x 1000, k = 1:  density 0.3   3.6 vs  4.8 /  3.6 vs  5.0
# The crossover falls with k: near 0.15 at k = 10, 0.25-0.3 at k = 5,
# above 0.3 at k = 1.
_MASK_DENSITY = 0.3


def ridge_route(n: int, m: int, nnz: int) -> str:
    """Where the U and V steps on n x m data with `nnz` observations take
    their k x k Grams from.

    "mask": densely observed data (nnz >= _MASK_DENSITY n m, i.e. 30%)
    take them from dense BLAS products of blocks of the uint8 0/1 mask
    (`ObservationMasks.mask`), zeros included.
    "sparse": other data take them from the sparse product of the 0/1
    pattern (`ObservationMasks.row_pattern`) with F's outer products.
    Both routes take the right-hand sides from the sparse `values @ F`
    and solve the systems by one batched Cholesky (`_solve_cholesky`).
    """
    return "mask" if nnz >= _MASK_DENSITY * n * m else "sparse"


def ridge_groups(nnz: int, k: int, threads: int) -> int:
    """Lanes (1 or 2) that a ridge step with `nnz` observations and rank k
    runs its two products on: 2 at `threads` >= 2 once nnz (q + k) >=
    _SPLIT_WORK (q = k(k + 1)/2), the Gram triangle on the calling thread
    and the right-hand sides on one worker; 1 otherwise."""
    width = k * (k + 3) // 2
    return 2 if threads >= 2 and nnz * width >= _SPLIT_WORK else 1


def _mask_gram(mask: np.ndarray, W: np.ndarray, transpose: bool, out):
    """out = (mask @ W)^T (q x n, W m x q), or (mask^T @ W)^T (q x m, W n x
    q) when `transpose`: the Grams in the layout of `_solve_cholesky`.  By
    NumPy's BLAS over `_blocks` of rows of the uint8 mask, each cast into
    one reused contiguous float64 buffer: a block b writes its own
    columns W^T mask[b]^T of `out`, or, when `transpose`, adds W[b]^T
    mask[b] to all of it."""
    n, m = mask.shape
    blocks = list(_blocks(n, m))  # the first is the largest
    buf = np.empty((blocks[0].stop if blocks else 0, m))
    if transpose:
        out[...] = 0.0
    for b in blocks:
        block = buf[:b.stop - b.start]
        np.copyto(block, mask[b])
        if transpose:
            out += W[b].T @ block
        else:
            np.matmul(W.T, block.T, out=out[:, b])


@functools.cache
def _triu(k: int):
    """`np.triu_indices(k)`, the Gram triangle's (row, column) indices in
    the row-by-row order of `_solve_cholesky`; built once per k,
    read-only."""
    iu, ju = np.triu_indices(k)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _solve_cholesky(B, k, diag, extra) -> np.ndarray:
    """The systems (2 G_i + diag I) x_i = 2 r_i + extra_i of the (q + k) x
    n buffer B, whose column i holds G_i's upper triangle (q = k(k + 1)/2
    rows, row by row) and r_i, by one Cholesky factorization vectorized
    over the batch axis, with no k x k stack.

    B is factored in place: each matrix entry and each right-hand side is
    one contiguous length-n row.  The factor 2 is taken out exactly: each
    system is solved as (G_i + (diag/2) I) x_i = r_i + extra_i / 2, where
    halving is exact.  The upper factor R (A = R^T R) overwrites the
    triangle in k column steps, each a right-looking update of the
    trailing triangle; the forward (R^T) and back (R) substitutions take
    k steps each.  Cholesky needs no pivoting to be backward stable on
    these symmetric positive definite systems (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, Thm 10.3).  Raises
    LinAlgError on a pivot <= 0; a NaN pivot yields non-finite results.
    No floating-point warning escapes.
    """
    q = B.shape[0] - k
    off = [j * k - j * (j - 1) // 2 for j in range(k)]  # R_jj's row
    R, x = B[:q], B[q:]
    R[off] += 0.5 * diag
    if extra is not None:
        x += 0.5 * extra.T
    with np.errstate(all="ignore"):
        for j, o in enumerate(off):
            pivot = R[o]
            if np.any(pivot <= 0):  # a NaN pivot passes
                raise np.linalg.LinAlgError(f"pivot {j} not positive")
            np.sqrt(pivot, out=pivot)
            row = R[o + 1:o + k - j]  # R_{j, j+1..k-1}
            row /= pivot
            for a, i in enumerate(range(j + 1, k)):
                R[off[i]:off[i] + k - i] -= row[a] * row[a:]
        for j, o in enumerate(off):  # R^T y = b
            x[j] /= R[o]
            x[j + 1:] -= R[o + 1:o + k - j] * x[j]
        for j in reversed(range(k)):  # R x = y
            o = off[j]
            x[j] -= np.einsum("ij,ij->j", R[o + 1:o + k - j], x[j + 1:])
            x[j] /= R[o]
    return np.ascontiguousarray(x.T)


def _ridge_step(block: str, masks: ObservationMasks, F, diag, extra,
                pool) -> np.ndarray:
    """The ridge solves of the U step (`block` "U": one per row of the
    data, F = V) or the V step ("V": one per column, F = U, on the
    transposed index `by_col`): (2 F_i^T F_i + diag I) x_i = 2 F_i^T a_i
    + extra_i, where F_i holds the rows of F at row i's observed indices
    and a_i the observed values (extra_i = 0 when `extra` is None).

    Two products fill one (q + k) x n buffer in the layout of
    `_solve_cholesky`; no nnz x k^2 gather is ever formed.  The Gram
    triangles (q = k(k + 1)/2 entries, row by row) come from the route
    `ridge_route` picks, applied to the row-wise outer products of F:
    sparse products of the observation pattern (its transpose for V), or,
    on densely observed data, BLAS products of row blocks of the uint8
    mask (`_mask_gram`).  The right-hand sides (k entries) come from
    `values @ F`.  The Gram runs on the calling
    thread; the right-hand sides run there too when `pool` is None, and
    otherwise on `pool`'s worker (a `ThreadPoolExecutor`, as `solve`
    opens one per solve when `ridge_groups` is 2), which runs no BLAS.
    Each product is the same kernel on the same entries on either
    thread, so the result does not depend on `pool`, bit for bit.  Every
    system is then solved on the calling thread by one batched Cholesky
    (`_solve_cholesky`), on either route.

    Raises NumericalError naming the block when a system is singular or
    not positive definite, or when the result is not finite.
    """
    transpose = block == "V"
    values = masks.by_col if transpose else masks.by_row
    k = F.shape[1]
    iu, ju = _triu(k)
    q = iu.size
    B = np.empty((q + k, values.shape[0]))

    def gram():
        W = F[:, iu] * F[:, ju]
        if ridge_route(*masks.by_row.shape, values.nnz) == "mask":
            _mask_gram(masks.mask, W, transpose, out=B[:q])
        else:
            pattern = masks.col_pattern if transpose else masks.row_pattern
            B[:q] = (pattern @ W).T

    def rhs():
        B[q:] = (values @ F).T

    if pool is None:
        gram()
        rhs()
    else:
        worker = pool.submit(rhs)
        try:
            gram()
        finally:
            worker.result()
    try:
        out = _solve_cholesky(B, k, diag, extra)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"ridge system of the {block} update is "
                             f"singular or indefinite: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"non-finite values after {block} update")
    return out


def update_U(V, Z, Psi, masks: ObservationMasks, gamma: float, rho2: float,
             *, pool=None) -> np.ndarray:
    """Exact U block minimizer: one ridge solve per row of U, by
    `_ridge_step` with its `pool`."""
    if gamma + rho2 <= 0:
        raise ParameterError("gamma + rho2 must be > 0")
    return _ridge_step("U", masks, V, gamma + rho2, Psi + rho2 * Z, pool)


def update_V(U, masks: ObservationMasks, gamma: float, *,
             pool=None) -> np.ndarray:
    """Exact V block minimizer: one ridge solve per column of the data, by
    `_ridge_step` with its `pool`."""
    if gamma <= 0:
        raise ParameterError("gamma must be > 0")
    return _ridge_step("V", masks, U, gamma, None, pool)


def update_P(basis, compressed, lam: float, rho1: float, k: int,
             seed: int = 0, *, routes=None) -> np.ndarray:
    """Orthonormal factor M (n x k) of the projector maximizing the P
    subproblem: the top-k algebraic eigenvectors of lam*YY^T +
    (rho1/2)ZZ^T + (Phi Z^T + Z Phi^T)/2.

    Rayleigh-Ritz (`pgram_ritz`, handed `routes`) on the basis [Qy, Q2]
    of the operator's range, Y's `side_basis` (`basis`) plus the
    `pgram_compress` of Z and Phi (`compressed`), lifted to n rows.  The
    operator vanishes on the basis' complement, so complement directions
    (a Gaussian block seeded with `seed`) rank before any negative Ritz
    value.  Column signs are unspecified: callers read M M^T only.
    """
    W, lambdas, pad = pgram_ritz(basis, compressed, lam, rho1, k,
                                 routes=routes)
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
    return M


def update_Z(U, M, Phi, Psi, rho1: float, rho2: float) -> np.ndarray:
    """Closed-form stationary point of the Z subproblem.

    Solves (rho1 (I - P) + rho2 I) Z = rho2 U - (I - P) Phi - Psi.  With
    P = M M^T a projector the inverse expands to (I + (rho1/rho2) P) /
    (rho1 + rho2), so by linearity Z = (rho2 U - Phi - Psi + P (rho1 U +
    Phi - (rho1/rho2) Psi)) / (rho1 + rho2): one projection M (M^T R) and
    no n x n matrix.  M is `update_P`'s orthonormal factor, not checked
    again here.
    """
    if rho1 <= 0 or rho2 <= 0:
        raise ParameterError("rho1, rho2 must be > 0")
    PR = _project(M, rho1 * U + Phi - (rho1 / rho2) * Psi)
    return (rho2 * U - Phi - Psi + PR) / (rho1 + rho2)


def constraint_residuals(state: IterateState):
    """The residuals of the two constraints, ((I - P)Z, Z - U); M is
    taken as orthonormal, unchecked."""
    return state.Z - _project(state.M, state.Z), state.Z - state.U


def update_duals(state: IterateState, residuals, rho1: float, rho2: float):
    """Dual ascent Phi + rho1 (I - P)Z, Psi + rho2 (Z - U), on the
    `constraint_residuals` of `state` (`residuals`)."""
    resid_phi, resid_psi = residuals
    return state.Phi + rho1 * resid_phi, state.Psi + rho2 * resid_psi


def primal_residuals(residuals):
    """Frobenius norms of (I - P)Z and Z - U, from their
    `constraint_residuals` (`residuals`)."""
    resid_phi, resid_psi = residuals
    return float(np.linalg.norm(resid_phi)), float(np.linalg.norm(resid_psi))


def dual_residual(state: IterateState, basis, compressed, lam: float, *,
                  routes=None) -> float:
    """||P2 - P1 P2||_F where P1 projects onto col(Z) and P2 onto the top-k
    eigenspace of lam*YY^T + (Phi Z^T + Z Phi^T)/2.

    Computed in the (d + 2k) coordinates of the basis [Qy, Q2] of
    `compressed`, the `pgram_compress` of Z and Phi, which holds col(Z):
    P1 comes from the SVD of Z's coordinates at numerical rank, and P2
    from the kept Ritz vectors (`pgram_ritz`) plus `pad` complement
    directions, each orthogonal to col(Z) and so adding exactly 1 to the
    squared residual.  The Ritz vectors come from certified
    Rayleigh-quotient iteration on the problem's diagonal-plus-rank-2k
    form where `linalg.ritz_route` says "structured", and from LAPACK's
    `eigh` otherwise or when the certificate fails; `routes` is handed to
    `pgram_ritz`.  `basis` is Y's `side_basis`.  No random directions are
    drawn.
    """
    Z = state.Z
    k = state.k
    W, _, pad = pgram_ritz(basis, compressed, lam, 0.0, k, routes=routes)
    Uz, sz, _ = np.linalg.svd(compressed[1][:, :k], full_matrices=False)
    rank = numerical_rank(sz, Z.shape)  # n x k, not the coordinates' shape
    if rank < k:
        warnings.warn("Z has numerical rank below k; dual residual computed "
                      "at the actual rank", RankDeficiencyWarning)
    Qz = Uz[:, :rank]
    R = W - Qz @ (Qz.T @ W)
    return float(np.sqrt(np.sum(R * R) + pad))


def augmented_lagrangian(state: IterateState, data: PartialMatrix, Y,
                         lam: float, gamma: float, rho1: float,
                         rho2: float) -> float:
    """Value of the augmented Lagrangian at the current iterate.

    The side term is evaluated as lam * ||(I - P) Y||_F^2 rather than as
    lam * (||Y||_F^2 - ||M^T Y||_F^2): the difference of two large norms
    would carry rounding error of order eps * ||Y||_F^2 into every value.
    """
    U, V, M, Phi, Psi = state.U, state.V, state.M, state.Phi, state.Psi
    ry = Y - apply_projection(M, Y)
    side = lam * float(np.sum(ry * ry))
    reg = 0.5 * gamma * (float(np.sum(U * U)) + float(np.sum(V * V)))
    rphi, rpsi = constraint_residuals(state)
    return (objective.fit_term((U, V), data) + side + reg
            + float(np.sum(Phi * rphi)) + float(np.sum(Psi * rpsi))
            + 0.5 * rho1 * float(np.sum(rphi * rphi))
            + 0.5 * rho2 * float(np.sum(rpsi * rpsi)))


def fit_residual(obs: sp.csr_array, U, V) -> sp.csr_array:
    """E = U V^T - A on the observed entries, as a CSR array on the index
    of `obs`, the CSR array of the observed values A; its data are filled
    by `objective.fit_residuals`."""
    rows = np.repeat(np.arange(obs.shape[0], dtype=obs.indices.dtype),
                     np.diff(obs.indptr))
    E = np.empty(obs.nnz)
    for block, resid in objective.fit_residuals(U, V, rows, obs.indices,
                                                obs.data):
        E[block] = resid
    return _with_data(obs, E)


def first_order_check(state: IterateState, data: PartialMatrix, Y,
                      lam: float, gamma: float, tol: float) -> dict:
    """Residual tests of the stationarity system of the Lagrangian.

    Returns one boolean per condition: U and V row stationarity,
    P eigenspace alignment, dual balance Phi + Psi = P Phi, Z = P Z
    and Z = U.  The P eigenspace comes from the factored operator
    (`build_pgram_operator`, `symmetric_eig_topk_factored`), independent
    of the compressed eigensolve the solver uses.
    """
    masks = ObservationMasks.from_partial(data)
    U, V, M, Z, Phi, Psi = (state.U, state.V, state.M, state.Z,
                            state.Phi, state.Psi)
    k = state.k

    E = fit_residual(masks.by_row, U, V)
    res_u = float(np.sum((2.0 * (E @ V) + gamma * U - Psi) ** 2))
    res_v = float(np.sum((2.0 * (E.T @ U) + gamma * V) ** 2))

    F1, F2 = build_pgram_operator(Y, Z, Phi, lam, 0.0)
    M2, _ = symmetric_eig_topk_factored(F1, F2, k, seed=0)
    cross = float(np.sum((M.T @ M2) ** 2))
    res_p = np.sqrt(max(2.0 * k - 2.0 * cross, 0.0))

    res_dual = float(np.linalg.norm(Phi + Psi - apply_projection(M, Phi)))
    res_zp, res_zu = primal_residuals(constraint_residuals(state))

    return {
        "U_stationarity": bool(np.sqrt(res_u) <= tol),
        "V_stationarity": bool(np.sqrt(res_v) <= tol),
        "P_alignment": bool(res_p <= tol),
        "dual_balance": bool(res_dual <= tol),
        "Z_projected": bool(res_zp <= tol),
        "Z_equals_U": bool(res_zu <= tol),
    }


def initial_state(masks: ObservationMasks, k: int, seed: int = 0):
    """The ADMM init and the route its truncated SVD took (`init_route`).

    U0 = Z0 = L sqrt(S), V0 = R sqrt(S), M0 = L from the rank-k truncated
    SVD of the observed entries (the zero-filled data), taken on the CSR
    index of the observations (`truncated_svd` of `masks.by_row`, its
    Lanczos route seeded with `seed`); and all-ones duals.  Only the
    "dense" route, for k = min(n, m) or min(n, m) <= DENSE_CUTOFF = 32,
    forms an n x m buffer: at most 32 max(n, m) entries in the latter.
    """
    tsvd = truncated_svd(masks.by_row, k, seed=seed)
    sqrt_s = np.sqrt(tsvd.S)
    return IterateState(U=tsvd.U * sqrt_s, V=tsvd.V * sqrt_s, M=tsvd.U.copy(),
                        Z=tsvd.U * sqrt_s, Phi=np.ones(tsvd.U.shape),
                        Psi=np.ones(tsvd.U.shape)), tsvd.route


def _tracked(report: SolveReport, fn, *args, **kwargs):
    """fn(*args, **kwargs), its time added to `report.tracking_time`."""
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    report.tracking_time += time.perf_counter() - t0
    return value


def iterate(state: IterateState, masks: ObservationMasks, basis, compressed,
            hp: Hyperparams, report: SolveReport, *, pool=None, routes=None,
            lagrangian=None, iteration: int = 0):
    """One ADMM iteration on `state`, in place: the U, P, V and Z steps, each
    timed into `report.subproblem_times`, then the duals.  Returns the
    primal residuals (||(I - P)Z||_F, ||Z - U||_F) and the Lagrangian row.

    The U step is proximal: it minimizes the augmented Lagrangian plus
    (c/2) ||U - U^t||_F^2, c = (gamma + rho2)/2, which guarantees the
    sufficient decrease L(U^t) - L(U^{t+1}) >= (gamma + rho2) ||U^{t+1} -
    U^t||_F^2 (an exact minimizer guarantees only half, which rows without
    observations attain): `update_U` with penalty rho2 + c and copy target
    (rho2 Z + c U^t) / (rho2 + c).  `pool` goes to the U and V steps
    (`_ridge_step`); the P step reads Y's `side_basis` (`basis`) and the
    `pgram_compress` of [Z, Phi] made after the last dual update or at the
    init (`compressed`), and hands `routes` to `pgram_ritz`.

    `lagrangian`, when given, maps a state to its augmented Lagrangian;
    the row is then (L before, after U, after P, after V, after Z,
    ||U^{t+1} - U^t||_F^2), its L values timed into
    `report.tracking_time`, else None.  A non-finite M, Z, Phi or Psi
    raises NumericalError at `iteration`.  Outside `solve`, run it inside
    `linalg.single_blas_thread()` to get `solve`'s bits.
    """
    row = None if lagrangian is None else [_tracked(report, lagrangian,
                                                    state)]
    U_prev = state.U
    c = 0.5 * (hp.gamma + hp.rho2)  # the proximal U step's c
    for block in "UPVZ":
        t0 = time.perf_counter()
        if block == "U":
            state.U = update_U(
                state.V, (hp.rho2 * state.Z + c * U_prev) / (hp.rho2 + c),
                state.Psi, masks, hp.gamma, hp.rho2 + c, pool=pool)
        elif block == "P":
            state.M = update_P(basis, compressed, hp.lam, hp.rho1, hp.k,
                               seed=hp.seed, routes=routes)
        elif block == "V":
            state.V = update_V(state.U, masks, hp.gamma, pool=pool)
        else:
            state.Z = update_Z(state.U, state.M, state.Phi, state.Psi,
                               hp.rho1, hp.rho2)
        report.subproblem_times[block] += time.perf_counter() - t0
        if row is not None:
            row.append(_tracked(report, lagrangian, state))
    # the duals and the primal residuals share one (I - P)Z and Z - U; the
    # dual update changes neither
    residuals = constraint_residuals(state)
    state.Phi, state.Psi = update_duals(state, residuals, hp.rho1, hp.rho2)
    # U and V are finite here: `_ridge_step` raises otherwise
    for name in ("M", "Z", "Phi", "Psi"):
        if not np.all(np.isfinite(getattr(state, name))):
            raise NumericalError(f"non-finite {name} iterate",
                                 iteration=iteration)
    if row is not None:
        row = (*row, float(np.sum((state.U - U_prev) ** 2)))
    return primal_residuals(residuals), row


def _objective_at(state: IterateState, masks: ObservationMasks,
                  data: PartialMatrix, Y, hp: Hyperparams, values_sq: float,
                  y_sq: float) -> float:
    """`objective.objective_svd` of (U, V), handed ||Y||_F^2 (`y_sq`) and
    its fit term from the V step: V is the exact V-block minimizer for U,
    (2 G_j + gamma I) v_j = 2 r_j with R = A^T U over the observations, so
    the fit is ||a||^2 (`values_sq`) - <V, R> - (gamma / 2) ||V||_F^2, one
    sparse product plus O((m + n) k) with no observed entry gathered."""
    R = masks.by_col @ state.U
    fit = (values_sq - float(np.einsum("ij,ij->", state.V, R))
           - 0.5 * hp.gamma * float(np.einsum("ij,ij->", state.V, state.V)))
    return objective.objective_svd((state.U, state.V), data, Y, hp.lam,
                                   hp.gamma, fit=fit, y_sq=y_sq).total


@single_blas_thread()
def solve(data: PartialMatrix, side: SideInfo, hp: Hyperparams,
          track_objective: bool = True, track_dual_residual: bool = True,
          track_lagrangian: bool = False):
    """Run the full ADMM loop; returns (IterateState, SolveReport).

    From `initial_state`, runs `iterate` until both squared primal
    residual norms fall to eps ("tolerance_met") or for `hp.max_iters`
    iterations, with one `IterationRecord` each in `report.trace`.

    Y is factored once (`side_basis`), and the P update and the dual
    residual each solve their eigenproblem in that basis plus the span of
    [Z, Phi] (`pgram_compress`, `pgram_ritz`).  [Z, Phi] is compressed
    once at the init and once per iteration, after the dual update: the
    dual residual of iteration t, when tracked, and the P update of t + 1
    read the same compression, since the U step changes neither Z nor
    Phi.  Untracked, the last iteration makes none, as nothing would read
    it.  `report.ritz_structured` counts the Ritz solves that certified
    Rayleigh-quotient iteration answered; the rest ran LAPACK.

    When `report.ridge_groups` is 2, the U and V steps' right-hand sides
    run on one worker of an executor opened for the solve and closed when
    it returns.  The whole solve runs every OpenBLAS in the process,
    NumPy's and SciPy's, on one thread (`single_blas_thread`), so the
    iterates are the same bits on any host and for any `hp.threads`.
    That cap, restored on return, is the only process-wide state the
    solve changes: warnings (`RankDeficiencyWarning` from a tracked dual
    residual) reach the caller under the caller's filters.
    """
    Y = side.Y
    if Y.shape[0] != data.n:
        raise ParameterError("side info row count does not match the data")
    k = hp.k
    if k > min(data.n, data.m):
        raise ParameterError("k exceeds min(n, m)")
    if not (np.all(np.isfinite(data.values)) and np.all(np.isfinite(Y))):
        raise NumericalError("non-finite input data")

    t0 = time.perf_counter()
    masks = ObservationMasks.from_partial(data)
    state, init_route = initial_state(masks, k, hp.seed)
    basis = side_basis(Y)  # Y is fixed: factored once per solve
    compressed = pgram_compress(basis, state.Z, state.Phi)
    nnz = masks.by_row.nnz
    report = SolveReport(ridge_groups=ridge_groups(nnz, k, hp.threads),
                         init_route=init_route,
                         ridge_route=ridge_route(data.n, data.m, nnz))
    report.init_time = time.perf_counter() - t0
    routes = []  # the route of every Ritz solve (`pgram_ritz`)
    lagrangian = functools.partial(
        augmented_lagrangian, data=data, Y=Y, lam=hp.lam, gamma=hp.gamma,
        rho1=hp.rho1, rho2=hp.rho2) if track_lagrangian else None
    if track_objective:
        values_sq = float(data.values @ data.values)
        y_sq = float(np.einsum("ij,ij->", Y, Y))

    # one worker serves every split U and V step; leaving the block joins
    # it, so none outlives the solve
    workers = (ThreadPoolExecutor(1) if report.ridge_groups == 2
               else contextlib.nullcontext())
    with workers as pool:
        for t in range(hp.max_iters):
            (phi_res, psi_res), row = iterate(
                state, masks, basis, compressed, hp, report, pool=pool,
                routes=routes, lagrangian=lagrangian, iteration=t)
            met = max(phi_res ** 2, psi_res ** 2) <= hp.eps
            if track_dual_residual or not (met or t + 1 == hp.max_iters):
                t0 = time.perf_counter()
                compressed = pgram_compress(basis, state.Z, state.Phi)
                report.subproblem_times["P"] += time.perf_counter() - t0
            report.trace.append(IterationRecord(
                phi_res, psi_res, _tracked(
                    report, dual_residual, state, basis, compressed, hp.lam,
                    routes=routes) if track_dual_residual else None,
                _tracked(report, _objective_at, state, masks, data, Y, hp,
                         values_sq, y_sq) if track_objective else None, row))
            if met:
                report.termination = "tolerance_met"
                break

    report.ritz_structured = routes.count("structured")
    return state, report
