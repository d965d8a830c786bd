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
from .linalg import (_BLOCK, apply_projection, build_pgram_operator,
                     pgram_compress, pgram_eig_topk, pgram_ritz, side_basis,
                     single_blas_thread, symmetric_eig_topk_factored,
                     truncated_svd)


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
    M: np.ndarray  # orthonormal factor of P = M M^T
    Z: np.ndarray
    Phi: np.ndarray
    Psi: np.ndarray

    @property
    def k(self) -> int:
        return self.U.shape[1]

    def x_hat(self) -> np.ndarray:
        return self.U @ self.V.T


@dataclass
class SolveReport:
    iterations: int = 0
    phi_residual_trace: list = field(default_factory=list)
    psi_residual_trace: list = field(default_factory=list)
    dual_residual_trace: list = field(default_factory=list)
    objective_trace: list = field(default_factory=list)
    subproblem_times: dict = field(default_factory=lambda: {"U": 0.0, "V": 0.0, "P": 0.0, "Z": 0.0})
    termination: str = "max_iters"
    warnings: list = field(default_factory=list)
    lagrangian_trace: list = field(default_factory=list)  # filled when tracked
    # init_time: index build, truncated SVD and side basis;
    # tracking_time: dual_residual, the objective (its fit term from the
    # V step's products, then objective_svd) and augmented_lagrangian.
    # Both are kept out of subproblem_times, which holds block times only.
    # subproblem_times["P"] includes, when the dual residual is tracked,
    # the one compression of [Z, Phi] per iteration that the dual residual
    # and the next P update share; the dual residual itself then does no
    # n-row work.
    init_time: float = 0.0
    tracking_time: float = 0.0
    # column groups (threads) the U and V steps' products ran in; 1 when
    # they were not split (`ridge_groups`)
    ridge_groups: int = 1
    # the route the init's truncated SVD took (`TruncatedSVD.route`, by
    # `linalg.svd_route`): "gram", "lanczos", or "dense" for inputs at
    # most DENSE_CUTOFF on a side
    init_route: str = ""
    # where the U and V steps' Grams came from (`ridge_route`): "sparse"
    # (the observation pattern) or "mask" (BLAS on the dense uint8 mask)
    ridge_route: str = ""


# The ridge step's products split into column groups, one per worker
# thread, only from _SPLIT_WORK multiply-adds (nnz * (q + k), about 1 ms of
# kernel time per worker): below it thread hand-off outweighs the gain.  A
# group holds at least _GROUP_COLUMNS columns, since each group re-reads
# the whole index; one such pass costs about as much as _PASS_COLUMNS more
# columns.  On 2 vCPUs, nnz * (q + k) = 4e6 ran 4% slower split in two,
# and 55 columns in groups of 8 took 17.2 ms against 8.2 ms in one product
# (1.5 ms a pass, 0.12 ms a column).
_SPLIT_WORK = 1 << 24
_GROUP_COLUMNS = 8
_PASS_COLUMNS = 12
# Data with nnz >= _MASK_DENSITY n m take the "mask" route of
# `ridge_route`.  U + V step time in ms (median of 15), sparse route vs
# mask route, one BLAS thread on 2 vCPUs, at threads = 1 / threads = 2
# (one worker):
#   2000 x 1000, k = 10: density 0.2  12.1 vs 12.1 / 10.5 vs 10.5
#                        density 0.25 16.3 vs 15.8 /  9.1 vs 11.3
#                        density 0.3  19.9 vs 14.7 / 11.5 vs 10.2
#                        density 0.5  25.4 vs 15.0 / 15.5 vs 10.4
#   4000 x 500, k = 5:   density 0.2   5.3 vs  6.9 /  5.1 vs  6.7
#                        density 0.3   7.0 vs  7.5 /  7.2 vs  7.5
#                        density 0.5  11.5 vs  9.0 /  7.5 vs  6.0
#   1000 x 100, k = 5:   density 0.3   0.6 vs  0.6 /  0.6 vs  0.6
#                        density 0.5   0.8 vs  0.6 /  0.8 vs  0.6
#   2000 x 1000, k = 1:  density 0.3   1.1 vs  1.1 /  1.1 vs  1.1
_MASK_DENSITY = 0.3


def ridge_route(n: int, m: int, nnz: int) -> str:
    """Where the U and V steps on n x m data with `nnz` observations take
    their k x k Grams from.

    "mask": densely observed data (nnz >= _MASK_DENSITY n m, i.e. 30%)
    take them from dense BLAS products of blocks of the uint8 0/1 mask
    (`ObservationMasks.mask`), zeros included.
    "sparse": other data take them from the sparse product of the 0/1
    pattern (`ObservationMasks.row_pattern`) with F's outer products.
    Both routes take the right-hand sides from the sparse `values @ F`.
    """
    return "mask" if nnz >= _MASK_DENSITY * n * m else "sparse"


def _ridge_spans(nnz: int, k: int, threads: int,
                 route: str = "sparse") -> list:
    """Column spans [start, stop) of [Gram triangle | right-hand sides], q
    = k(k + 1)/2 and k columns, that a ridge step with `nnz` observations
    runs its products in, one span per thread: [(0, q + k)] below
    _SPLIT_WORK or at threads = 1.  Otherwise, on the "mask" route, they
    are [(0, q), (q, q + k)]: the Gram triangle's BLAS products on the
    calling thread, the sparse right-hand sides on one worker; on the
    "sparse" route there are at most `threads` and (q + k) //
    _GROUP_COLUMNS spans of about equal cost.  The span that crosses from
    the Gram columns into the right-hand sides runs two products, so the
    cuts are laid out as if _PASS_COLUMNS more columns sat between the
    two."""
    q = k * (k + 1) // 2
    width = q + k
    if nnz * width < _SPLIT_WORK or threads < 2:
        return [(0, width)]
    if route == "mask":
        return [(0, q), (q, width)]
    groups = max(1, min(threads, width // _GROUP_COLUMNS))
    length = width + _PASS_COLUMNS
    cuts = {0, width}
    for g in range(1, groups):
        at = round(length * g / groups)
        cuts.add(at if at <= q else max(q, at - _PASS_COLUMNS))
    cuts = sorted(cuts)
    return list(zip(cuts[:-1], cuts[1:]))


def ridge_groups(nnz: int, k: int, threads: int,
                 route: str = "sparse") -> int:
    """Column groups, each on its own thread, that a ridge step with `nnz`
    observations and rank k on `route` (`ridge_route`) splits its
    products into (1 when it does not split them); see `_ridge_spans`."""
    return len(_ridge_spans(nnz, k, threads, route))


def _mask_gram(mask: np.ndarray, W: np.ndarray, transpose: bool):
    """mask @ W (n x q, W m x q), or mask^T @ W (m x q, W n x q) when
    `transpose`, by NumPy's BLAS over blocks of rows of the uint8 mask (of
    its columns when `transpose`), at most _BLOCK cells each.  Each block
    is cast into one reused float64 buffer laid out in the mask's own
    memory order and writes its own rows of the product, so nothing is
    accumulated."""
    src = mask.T if transpose else mask
    length, width = src.shape
    step = max(1, _BLOCK // width)
    rows = min(step, length)
    buf = np.empty((width, rows)).T if transpose else np.empty((rows, width))
    out = np.empty((length, W.shape[1]))
    for a in range(0, length, step):
        block = buf[:min(step, length - a)]
        np.copyto(block, src[a:a + step])
        np.matmul(block, W, out=out[a:a + step])
    return out


def _ridge_rows(values: sp.sparray, gram, F, diag, extra, spans,
                pool) -> np.ndarray:
    """Row-wise ridge solves (2 F_i^T F_i + diag I) x_i = 2 F_i^T a_i + extra_i,
    where F_i holds the rows of F at row i's observed indices and a_i the
    observed values (extra_i = 0 when `extra` is None).

    All k x k Grams come from `gram` applied to the row-wise outer
    products of F (upper triangle only, q columns): a sparse 0/1 pattern's
    product, or `_mask_gram` (`ridge_route`).  The right-hand sides come
    from `values @ F` (k columns), and all rows are solved in one batched
    call; no nnz x k^2 gather is ever formed.  The q + k product columns
    run in the contiguous `spans` (`_ridge_spans`), the calling thread
    taking the first and `pool`'s workers the rest (a pool is opened for
    the call when None).  Each output element comes from the same kernel
    summing the same entries in the same order whatever the spans, so
    the result does not depend on them, bit for bit.  Workers run only
    sparse kernels and elementwise NumPy, no BLAS: `_mask_gram` runs
    only in the first span (`_ridge_spans`).
    """
    k = F.shape[1]
    iu, ju = np.triu_indices(k)
    q = iu.size
    first, *rest = spans
    if rest and pool is None:
        with ThreadPoolExecutor(len(rest)) as own:
            return _ridge_rows(values, gram, F, diag, extra, spans, own)
    G = np.empty((values.shape[0], k, k))

    def gram_columns(cols):
        """Gram triangle columns `cols` (a slice of 0..q), both halves."""
        block = gram(F[:, iu[cols]] * F[:, ju[cols]])
        G[:, iu[cols], ju[cols]] = block
        G[:, ju[cols], iu[cols]] = block

    if rest:
        rhs = np.empty((values.shape[0], k))

        def products(start, stop):
            """Columns [start, stop) of [Gram triangle | right-hand sides]."""
            if start < q:
                gram_columns(slice(start, min(stop, q)))
            if stop > q:
                lin = slice(max(start, q) - q, stop - q)
                rhs[:, lin] = values @ F[:, lin]

        futures = [pool.submit(products, *span) for span in rest]
        try:
            products(*first)
        finally:
            for future in futures:
                future.result()
    else:
        gram_columns(slice(0, q))
        rhs = values @ F
    G *= 2.0
    diag_idx = np.arange(k)
    G[:, diag_idx, diag_idx] += diag
    rhs *= 2.0
    if extra is not None:
        rhs += extra
    return np.linalg.solve(G, rhs[..., None])[..., 0]


def _ridge_plan(masks: ObservationMasks, k: int, threads: int,
                transpose: bool):
    """(Gram product, spans) of a U step, or of a V step when
    `transpose`, on `ridge_route`'s route for `masks`."""
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    nnz = masks.by_row.nnz
    route = ridge_route(*masks.by_row.shape, nnz)
    if route == "mask":
        gram = functools.partial(_mask_gram, masks.mask, transpose=transpose)
    else:
        pattern = masks.col_pattern if transpose else masks.row_pattern
        gram = pattern.__matmul__
    return gram, _ridge_spans(nnz, k, threads, route)


def update_U(V, Z, Psi, masks: ObservationMasks, gamma: float, rho2: float,
             threads: int = 1, *, pool=None) -> np.ndarray:
    """Exact U block minimizer: one ridge solve per row of U.

    The Grams come from the route `ridge_route` picks: sparse products
    of the observation pattern, or, on densely observed data, BLAS
    products of row blocks of the uint8 mask.  The products run on up to
    `threads` threads, split by column group, when the data are large
    enough (`ridge_groups`): on the mask route the calling thread runs
    the BLAS products and one worker the sparse right-hand sides.  The
    workers come from `pool` (a `ThreadPoolExecutor`, as `solve` opens
    once per solve), or from an executor opened for the call when None.
    The result is bitwise the same for every `threads`.
    """
    if gamma + rho2 <= 0:
        raise ParameterError("gamma + rho2 must be > 0")
    gram, spans = _ridge_plan(masks, V.shape[1], threads, transpose=False)
    out = _ridge_rows(masks.by_row, gram, V, gamma + rho2, Psi + rho2 * Z,
                      spans, pool)
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite values after U update")
    return out


def update_V(U, masks: ObservationMasks, gamma: float,
             threads: int = 1, *, pool=None) -> np.ndarray:
    """Exact V block minimizer: one ridge solve per column of the data,
    its right-hand sides from the transposed (CSC) view of the
    observation index, its Grams from the transposed pattern or, on the
    mask route, from mask^T products over column blocks of the mask.

    `threads` and `pool` act as in `update_U`: the same route and split,
    the same bitwise result for every thread count.
    """
    if gamma <= 0:
        raise ParameterError("gamma must be > 0")
    gram, spans = _ridge_plan(masks, U.shape[1], threads, transpose=True)
    out = _ridge_rows(masks.by_col, gram, U, gamma, None, spans, pool)
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite values after V update")
    return out


def update_P(Y, Z, Phi, lam: float, rho1: float, k: int,
             seed: int = 0, *, basis=None, compressed=None) -> np.ndarray:
    """Orthonormal factor M of the projector maximizing the P subproblem.

    M holds the k eigenvectors of largest algebraic eigenvalue of
    lam*YY^T + (rho1/2)ZZ^T + (Phi Z^T + Z Phi^T)/2, computed by
    `pgram_eig_topk` on the `side_basis` of Y (`basis`) and the
    `pgram_compress` of Z and Phi (`compressed`); each is computed here
    when None.
    """
    if k > Y.shape[0]:
        raise ParameterError("k exceeds the row dimension")
    if basis is None:
        basis = side_basis(Y)
    M, _ = pgram_eig_topk(basis, Z, Phi, lam, rho1, k, seed=seed,
                          compressed=compressed)
    return M


def update_Z(U, M, Phi, Psi, rho1: float, rho2: float) -> np.ndarray:
    """Closed-form stationary point of the Z subproblem.

    Solves (rho1 (I - P) + rho2 I) Z = rho2 U - (I - P) Phi - Psi with the
    inverse expanded through the projector, never forming an n x n matrix.
    """
    if rho1 <= 0 or rho2 <= 0:
        raise ParameterError("rho1, rho2 must be > 0")
    PU = apply_projection(M, U)
    PPhi = apply_projection(M, Phi)
    PPsi = apply_projection(M, Psi)
    return (rho2 * U - Phi + PPhi - Psi + rho1 * PU
            - (rho1 / rho2) * PPsi) / (rho1 + rho2)


def update_duals(state: IterateState, rho1: float, rho2: float):
    resid_phi = state.Z - apply_projection(state.M, state.Z)
    resid_psi = state.Z - state.U
    return state.Phi + rho1 * resid_phi, state.Psi + rho2 * resid_psi


def primal_residuals(state: IterateState):
    """Frobenius norms of (I - P)Z and Z - U."""
    phi_res = float(np.linalg.norm(state.Z - apply_projection(state.M, state.Z)))
    psi_res = float(np.linalg.norm(state.Z - state.U))
    return phi_res, psi_res


def dual_residual(state: IterateState, Y, lam: float, *, basis=None,
                  compressed=None) -> float:
    """||P2 - P1 P2||_F where P1 projects onto col(Z) and P2 onto the top-k
    eigenspace of lam*YY^T + (Phi Z^T + Z Phi^T)/2.

    Computed in the (d + 2k) coordinates of the basis [Qy, Q2] of
    `compressed`, the `pgram_compress` of Z and Phi, which holds col(Z):
    P1 comes from the SVD of Z's coordinates at numerical rank, and P2
    from the kept Ritz vectors (`pgram_ritz`) plus `pad` complement
    directions, each orthogonal to col(Z) and so adding exactly 1 to the
    squared residual.  `basis` is Y's `side_basis`; it and `compressed`
    are computed here when None.  No random directions are drawn.
    """
    Z = state.Z
    k = state.k
    if basis is None:
        basis = side_basis(Y)
    if compressed is None:
        compressed = pgram_compress(basis, Z, state.Phi)
    W, _, pad = pgram_ritz(basis, compressed, lam, 0.0, k)
    Uz, sz, _ = np.linalg.svd(compressed[1][:, :k], full_matrices=False)
    if sz.size and sz[0] > 0:
        rank = int(np.sum(sz > sz[0] * max(Z.shape) * np.finfo(float).eps))
    else:
        rank = 0
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
    U, V, M, Z, Phi, Psi = (state.U, state.V, state.M, state.Z,
                            state.Phi, state.Psi)
    ry = Y - apply_projection(M, Y)
    side = lam * float(np.sum(ry * ry))
    reg = 0.5 * gamma * (float(np.sum(U * U)) + float(np.sum(V * V)))
    rphi = Z - apply_projection(M, Z)
    rpsi = Z - U
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

    op = build_pgram_operator(Y, Z, Phi, lam, 0.0)
    M2, _ = symmetric_eig_topk_factored(op.F1, op.F2, k, seed=0)
    cross = float(np.sum((M.T @ M2) ** 2))
    res_p = np.sqrt(max(2.0 * k - 2.0 * cross, 0.0))

    res_dual = float(np.linalg.norm(Phi + Psi - apply_projection(M, Phi)))
    res_zp = float(np.linalg.norm(Z - apply_projection(M, Z)))
    res_zu = float(np.linalg.norm(Z - U))

    return {
        "U_stationarity": bool(np.sqrt(res_u) <= tol),
        "V_stationarity": bool(np.sqrt(res_v) <= tol),
        "P_alignment": bool(res_p <= tol),
        "dual_balance": bool(res_dual <= tol),
        "Z_projected": bool(res_zp <= tol),
        "Z_equals_U": bool(res_zu <= tol),
    }


@single_blas_thread()
def solve(data: PartialMatrix, side: SideInfo, hp: Hyperparams,
          track_objective: bool = True, track_dual_residual: bool = True,
          track_lagrangian: bool = False):
    """Run the full ADMM loop; returns (IterateState, SolveReport).

    Initialization: U0 = Z0 = L sqrt(S), V0 = R sqrt(S), M0 = L from the
    rank-k truncated SVD of the observed entries (the zero-filled data),
    taken on the CSR index of the observations (`truncated_svd` of
    `ObservationMasks.by_row`), so no n x m buffer is formed; and
    all-ones duals.  Tall data whose m x m Gram is no larger than the
    index take the Gram route, which forms that Gram and draws no random
    numbers; other data take Lanczos, seeded with `hp.seed`.  The route
    run is `report.init_route` (`TruncatedSVD.route`).

    Each iteration updates U, P, V and Z in turn, then the duals.  The U
    step is proximal: it minimizes the augmented Lagrangian plus
    (c/2) ||U - U^t||_F^2 with c = (gamma + rho2)/2, which guarantees the
    sufficient decrease L(U^t) - L(U^{t+1}) >= (gamma + rho2) ||U^{t+1} -
    U^t||_F^2 (an exact minimizer guarantees only half of that, and rows
    without observations attain the half).  It is the exact minimizer
    `update_U` called with penalty rho2 + c and copy target
    (rho2 Z + c U^t) / (rho2 + c).

    Y is factored once (`side_basis`), and the P update and the dual
    residual each solve their eigenproblem in that basis plus the span of
    [Z, Phi] (`pgram_compress`, `pgram_ritz`).  When the dual residual is
    tracked, [Z, Phi] is compressed once per iteration, after the dual
    update: the dual residual of iteration t and the P update of t + 1
    see the same Z and Phi, since the U step changes neither.

    The tracked objective is `objective.objective_svd` of the factors
    (U, V), handed its fit term, which costs one sparse product plus
    O((m + n) k) and gathers no observed entries.  V is the exact V-block
    minimizer for the current U, (2 G_j + gamma I) v_j = 2 r_j with G_j
    the Gram of U's rows observed in column j and R = A^T U over the
    observations, so the fit is ||a||^2 - <V, R> - (gamma / 2) ||V||_F^2.

    The U and V steps take their Grams from the observation pattern, or,
    on densely observed data, from BLAS on the uint8 mask (`ridge_route`;
    the route run is `report.ridge_route`).  `hp.threads` threads share
    their products when the data are large enough (`ridge_groups`; the
    count used is `report.ridge_groups`), on the workers of one executor
    opened for the solve and closed when it returns; the iterates do not
    depend on it, bit for bit.

    Terminates when both squared primal residual norms fall to eps, or at
    the iteration cap.  The whole solve runs NumPy's BLAS on one thread
    (`single_blas_thread`), whatever `hp.threads` says.
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
    tsvd = truncated_svd(masks.by_row, k, seed=hp.seed)
    sqrt_s = np.sqrt(tsvd.S)
    state = IterateState(
        U=tsvd.U * sqrt_s,
        V=tsvd.V * sqrt_s,
        M=tsvd.U.copy(),
        Z=tsvd.U * sqrt_s,
        Phi=np.ones((data.n, k)),
        Psi=np.ones((data.n, k)),
    )
    basis = side_basis(Y)  # Y is fixed: factored once per solve
    compressed = None  # [Z, Phi] after the last dual update, when tracked
    nnz = masks.by_row.nnz
    route = ridge_route(data.n, data.m, nnz)
    report = SolveReport(
        ridge_groups=ridge_groups(nnz, k, hp.threads, route),
        init_route=tsvd.route, ridge_route=route)
    report.init_time = time.perf_counter() - t0
    prox = 0.5 * (hp.gamma + hp.rho2)  # c of the proximal U step
    rho2_prox = hp.rho2 + prox

    def tracked(fn, *args, **kwargs):
        t0 = time.perf_counter()
        value = fn(*args, **kwargs)
        report.tracking_time += time.perf_counter() - t0
        return value

    if track_objective:
        values_sq = float(data.values @ data.values)

    def tracked_objective() -> float:
        """The objective at (U, V), its fit term from the V-step identity."""
        U, V = state.U, state.V
        R = masks.by_col @ U
        fit = (values_sq - float(np.einsum("ij,ij->", V, R))
               - 0.5 * hp.gamma * float(np.einsum("ij,ij->", V, V)))
        return objective.objective_svd((U, V), data, Y, hp.lam, hp.gamma,
                                       fit=fit).total

    def lagrangian() -> float:
        return tracked(augmented_lagrangian, state, data, Y, hp.lam,
                       hp.gamma, hp.rho1, hp.rho2)

    # one executor serves every split U and V step; leaving the block
    # joins its workers, so none outlives the solve
    workers = (ThreadPoolExecutor(report.ridge_groups - 1)
               if report.ridge_groups > 1 else contextlib.nullcontext())
    with warnings.catch_warnings(record=True) as caught, workers as pool:
        warnings.simplefilter("always", RankDeficiencyWarning)
        for t in range(hp.max_iters):
            lag_row = []
            if track_lagrangian:
                lag_row.append(lagrangian())

            t0 = time.perf_counter()
            U_prev = state.U
            state.U = update_U(state.V,
                               (hp.rho2 * state.Z + prox * U_prev) / rho2_prox,
                               state.Psi, masks, hp.gamma, rho2_prox,
                               hp.threads, pool=pool)
            report.subproblem_times["U"] += time.perf_counter() - t0
            if track_lagrangian:
                du_sq = float(np.sum((state.U - U_prev) ** 2))
                lag_row.append(lagrangian())

            t0 = time.perf_counter()
            state.M = update_P(Y, state.Z, state.Phi, hp.lam, hp.rho1, k,
                               seed=hp.seed, basis=basis,
                               compressed=compressed)
            report.subproblem_times["P"] += time.perf_counter() - t0
            if track_lagrangian:
                lag_row.append(lagrangian())

            t0 = time.perf_counter()
            state.V = update_V(state.U, masks, hp.gamma, hp.threads,
                               pool=pool)
            report.subproblem_times["V"] += time.perf_counter() - t0
            if track_lagrangian:
                lag_row.append(lagrangian())

            t0 = time.perf_counter()
            state.Z = update_Z(state.U, state.M, state.Phi, state.Psi,
                               hp.rho1, hp.rho2)
            report.subproblem_times["Z"] += time.perf_counter() - t0
            if track_lagrangian:
                lag_row.append(lagrangian())
                # (L before, after U, after P, after V, after Z, ||dU||^2)
                report.lagrangian_trace.append(tuple(lag_row) + (du_sq,))

            state.Phi, state.Psi = update_duals(state, hp.rho1, hp.rho2)

            for name, arr in (("U", state.U), ("V", state.V), ("M", state.M),
                              ("Z", state.Z), ("Phi", state.Phi),
                              ("Psi", state.Psi)):
                if not np.all(np.isfinite(arr)):
                    raise NumericalError(f"non-finite {name} iterate",
                                         iteration=t)

            phi_res, psi_res = primal_residuals(state)
            report.phi_residual_trace.append(phi_res)
            report.psi_residual_trace.append(psi_res)
            if track_dual_residual:
                t0 = time.perf_counter()
                compressed = pgram_compress(basis, state.Z, state.Phi)
                report.subproblem_times["P"] += time.perf_counter() - t0
                report.dual_residual_trace.append(tracked(
                    dual_residual, state, Y, hp.lam, basis=basis,
                    compressed=compressed))
            if track_objective:
                report.objective_trace.append(tracked(tracked_objective))
            report.iterations = t + 1
            if max(phi_res ** 2, psi_res ** 2) <= hp.eps:
                report.termination = "tolerance_met"
                break

    report.warnings = [str(w.message) for w in caught]
    return state, report
