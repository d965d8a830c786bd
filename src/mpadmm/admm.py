"""Mixed-projection ADMM solver.

Minimizes, over U (n x k), V (m x k) and a rank-k orthogonal projector
P = M M^T, the partially observed fit plus side-information and
factored nuclear-norm surrogate terms, by alternating closed-form
block updates on the augmented Lagrangian with copy variable Z and
dual variables Phi (projection constraint) and Psi (copy constraint).
"""

from __future__ import annotations

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
from .linalg import (LinearMap, apply_projection, build_pgram_operator,
                     pgram_compress, pgram_eig_topk, pgram_ritz, side_basis,
                     single_blas_thread, symmetric_eig_topk_factored,
                     truncated_svd)


class RankDeficiencyWarning(UserWarning):
    """Z had numerical rank below k when computing the dual residual."""


@dataclass
class ObservationMasks:
    """The observed values as one canonical (row-major sorted) CSR index,
    n x m, and its 0/1 pattern, which shares the index arrays.

    `by_col` and `col_pattern` are their transposes: m x n CSC views of
    the same arrays, so column-wise products run on the one index and
    sum each column's entries in increasing row order, as a sorted CSR
    copy of the transpose would.  Index arrays are int32 when n, m and
    nnz fit, else int64.
    """

    by_row: sp.csr_array
    by_col: sp.csc_array
    row_pattern: sp.csr_array
    col_pattern: sp.csc_array

    @classmethod
    def from_partial(cls, data: PartialMatrix) -> "ObservationMasks":
        """Build the index.  Row-major sorted input (as `generate_synthetic`
        gives) is used in place and its `values` array is shared; other
        input is put in that order by one argsort of the row-major keys
        rows * m + cols, whose sorted copy gives the columns (key % m, in
        place): about 24 bytes per entry at the peak."""
        n, m = data.n, data.m
        rows, cols, values = data.rows, data.cols, data.values
        fits = max(n, m, data.nnz) <= np.iinfo(np.int32).max
        idx = np.int32 if fits else np.int64
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        if not _row_major_sorted(rows, cols):
            key = rows * m + cols
            order = np.argsort(key, kind="stable")
            key = key[order]
            values = values[order]
            del order
            cols = np.remainder(key, m, out=key)
            del key
        by_row = sp.csr_array((values, cols.astype(idx), indptr),
                              shape=(n, m))
        del cols  # the int64 columns, when recovered here
        row_pattern = _with_data(by_row, np.ones(data.nnz))
        return cls(by_row=by_row, by_col=by_row.T,
                   row_pattern=row_pattern, col_pattern=row_pattern.T)

    def linear_map(self) -> LinearMap:
        """The zero-filled n x m data as an operator: sparse products only."""
        return LinearMap(*self.by_row.shape, self.by_row.__matmul__,
                         self.by_col.__matmul__)

    @functools.cached_property
    def col_rows(self) -> list:
        """Row indices observed in each column, increasing; built on first
        use and kept."""
        csc = self.by_row.tocsc()
        return np.split(csc.indices, csc.indptr[1:-1])


def _row_major_sorted(rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether (rows, cols) pairs strictly increase in row-major order;
    only boolean temporaries, no nnz-sized integer key."""
    if not np.all(rows[1:] >= rows[:-1]):
        return False
    step = cols[1:] > cols[:-1]
    step |= rows[1:] != rows[:-1]
    return bool(np.all(step))


def _with_data(csr: sp.csr_array, data: np.ndarray) -> sp.csr_array:
    """`csr`'s sparsity structure (shared, not copied) holding `data`."""
    return sp.csr_array((data, csr.indices, csr.indptr), shape=csr.shape)


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
    # column groups (threads) the U and V steps' sparse products ran in;
    # 1 when they were not split (`ridge_groups`)
    ridge_groups: int = 1


# The ridge step's sparse products split into column groups, one per worker
# thread, only from _SPLIT_WORK multiply-adds (nnz * (q + k), about 1 ms of
# kernel time per worker): below it thread start-up outweighs the gain.  A
# group holds at least _GROUP_COLUMNS columns, since each group re-reads
# the whole index; one such pass costs about as much as _PASS_COLUMNS more
# columns.  On 2 vCPUs, nnz * (q + k) = 4e6 ran 4% slower split in two,
# and 55 columns in groups of 8 took 17.2 ms against 8.2 ms in one product
# (1.5 ms a pass, 0.12 ms a column).
_SPLIT_WORK = 1 << 24
_GROUP_COLUMNS = 8
_PASS_COLUMNS = 12


def _ridge_spans(nnz: int, k: int, threads: int) -> list:
    """Column spans [start, stop) of [Gram triangle | right-hand sides], q
    = k(k + 1)/2 and k columns, that a ridge step with `nnz` observations
    runs its sparse products in, one span per thread: [(0, q + k)] below
    _SPLIT_WORK, else at most `threads` and (q + k) // _GROUP_COLUMNS spans
    of about equal cost.  The span that crosses from the Gram columns into
    the right-hand sides runs two products, so the cuts are laid out as if
    _PASS_COLUMNS more columns sat between the two."""
    q = k * (k + 1) // 2
    width = q + k
    if nnz * width < _SPLIT_WORK:
        return [(0, width)]
    groups = max(1, min(threads, width // _GROUP_COLUMNS))
    length = width + _PASS_COLUMNS
    cuts = {0, width}
    for g in range(1, groups):
        at = round(length * g / groups)
        cuts.add(at if at <= q else max(q, at - _PASS_COLUMNS))
    cuts = sorted(cuts)
    return list(zip(cuts[:-1], cuts[1:]))


def ridge_groups(nnz: int, k: int, threads: int) -> int:
    """Column groups, each on its own thread, that a ridge step with `nnz`
    observations and rank k splits its sparse products into (1 when it
    does not split them); see `_ridge_spans`."""
    return len(_ridge_spans(nnz, k, threads))


def _ridge_rows(values: sp.sparray, pattern: sp.sparray, F, diag,
                extra=None, threads: int = 1) -> np.ndarray:
    """Row-wise ridge solves (2 F_i^T F_i + diag I) x_i = 2 F_i^T a_i + extra_i,
    where F_i holds the rows of F at row i's observed indices and a_i the
    observed values (extra_i = 0 when `extra` is None).

    All k x k Grams come from the sparse product of the pattern with the
    row-wise outer products of F (upper triangle only, q columns), the
    right-hand sides from `values @ F` (k columns), and all rows are
    solved in one batched call; no nnz x k^2 gather is ever formed.  The
    q + k product columns run in the contiguous spans of `_ridge_spans`,
    one per thread, the calling thread taking the first.  The sparse
    kernel sums each output element over the same entries in the same
    order whatever the span, so the result does not depend on `threads`,
    bit for bit.
    Workers run only sparse kernels and elementwise NumPy, no BLAS.
    """
    k = F.shape[1]
    iu, ju = np.triu_indices(k)
    q = iu.size
    G = np.empty((pattern.shape[0], k, k))

    def gram(cols):
        """Gram triangle columns `cols` (a slice of 0..q), both halves."""
        block = pattern @ (F[:, iu[cols]] * F[:, ju[cols]])
        G[:, iu[cols], ju[cols]] = block
        G[:, ju[cols], iu[cols]] = block

    first, *rest = _ridge_spans(pattern.nnz, k, threads)
    if rest:
        rhs = np.empty((pattern.shape[0], k))

        def products(start, stop):
            """Columns [start, stop) of [Gram triangle | right-hand sides]."""
            if start < q:
                gram(slice(start, min(stop, q)))
            if stop > q:
                lin = slice(max(start, q) - q, stop - q)
                rhs[:, lin] = values @ F[:, lin]

        with ThreadPoolExecutor(len(rest)) as pool:
            futures = [pool.submit(products, *span) for span in rest]
            products(*first)
            for future in futures:
                future.result()
    else:
        gram(slice(0, q))
        rhs = values @ F
    G *= 2.0
    diag_idx = np.arange(k)
    G[:, diag_idx, diag_idx] += diag
    rhs *= 2.0
    if extra is not None:
        rhs += extra
    return np.linalg.solve(G, rhs[..., None])[..., 0]


def update_U(V, Z, Psi, masks: ObservationMasks, gamma: float, rho2: float,
             threads: int = 1) -> np.ndarray:
    """Exact U block minimizer: one ridge solve per row of U.

    The sparse Gram and right-hand-side products run on up to `threads`
    threads, split by column group, when the data are large enough
    (`ridge_groups`); the result is bitwise the same for every `threads`.
    """
    if gamma + rho2 <= 0:
        raise ParameterError("gamma + rho2 must be > 0")
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    out = _ridge_rows(masks.by_row, masks.row_pattern, V, gamma + rho2,
                      Psi + rho2 * Z, threads)
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite values after U update")
    return out


def update_V(U, masks: ObservationMasks, gamma: float,
             threads: int = 1) -> np.ndarray:
    """Exact V block minimizer: one ridge solve per column of the data,
    on the transposed (CSC) views of the observation index.

    `threads` acts as in `update_U`: the same split, the same bitwise
    result for every thread count.
    """
    if gamma <= 0:
        raise ParameterError("gamma must be > 0")
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    out = _ridge_rows(masks.by_col, masks.col_pattern, U, gamma,
                      threads=threads)
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


def dual_residual(state: IterateState, Y, lam: float, seed: int = 0, *,
                  basis=None, compressed=None) -> float:
    """||P2 - P1 P2||_F where P1 projects onto col(Z) and P2 onto the top-k
    eigenspace of lam*YY^T + (Phi Z^T + Z Phi^T)/2.

    Computed in the (d + 2k) coordinates of the basis [Qy, Q2] of
    `compressed`, the `pgram_compress` of Z and Phi, which holds col(Z):
    P1 comes from the SVD of Z's coordinates at numerical rank, and P2
    from the kept Ritz vectors (`pgram_ritz`) plus `pad` complement
    directions, each orthogonal to col(Z) and so adding exactly 1 to the
    squared residual.  `basis` is Y's `side_basis`; it and `compressed`
    are computed here when None.  `seed` is accepted and unused: no
    random directions are drawn.
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

    # fit residual E = U V^T - A on the observed entries, in CSR form
    obs = masks.by_row
    obs_rows = np.repeat(np.arange(data.n), np.diff(obs.indptr))
    E = _with_data(obs, np.einsum("ij,ij->i", U[obs_rows], V[obs.indices])
                   - obs.data)
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
    taken by Lanczos through the CSR index of the observations, so no
    n x m buffer is formed; and all-ones duals.

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

    `hp.threads` threads share the sparse products of the U and V steps
    when the data are large enough (`ridge_groups`; the count used is
    `report.ridge_groups`); the iterates do not depend on it, bit for bit.

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
    tsvd = truncated_svd(masks.linear_map(), k, seed=hp.seed)
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
    report = SolveReport(
        ridge_groups=ridge_groups(masks.row_pattern.nnz, k, hp.threads))
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

    with warnings.catch_warnings(record=True) as caught:
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
                               hp.threads)
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
            state.V = update_V(state.U, masks, hp.gamma, hp.threads)
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
                    dual_residual, state, Y, hp.lam, seed=hp.seed,
                    basis=basis, compressed=compressed))
            if track_objective:
                report.objective_trace.append(tracked(tracked_objective))
            report.iterations = t + 1
            if max(phi_res ** 2, psi_res ** 2) <= hp.eps:
                report.termination = "tolerance_met"
                break

    report.warnings = [str(w.message) for w in caught]
    return state, report
