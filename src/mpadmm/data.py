"""Problem data containers, synthetic instance generation and file IO.

File formats (both LF-terminated ASCII):
  * partial matrix: header line "n m nnz", then nnz lines "i j value"
    with 1-based indices and 17-significant-digit decimal reals;
  * side info: headerless CSV, n rows by d columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .exceptions import ParameterError, ParseError
from .linalg import single_blas_thread
from .rng import Xoshiro256pp


def _fmt(x: float) -> str:
    return "%.17g" % x


@dataclass
class PartialMatrix:
    """Observed entries of an n x m matrix over an index set; 0-based internally.

    Entries are kept in row-major order (rows * m + cols increasing), so
    every sum over them runs in one order.  Sorted input (as from
    `generate_synthetic` or `save_partial` files) is stored as given;
    other input is stored sorted, not in the order given, by one argsort
    of the row-major keys (about 24 bytes per entry at the peak, the
    stored arrays included)."""

    n: int
    m: int
    rows: np.ndarray  # int, len nnz
    cols: np.ndarray  # int, len nnz
    values: np.ndarray  # float, len nnz

    def __post_init__(self):
        # contiguous: a strided view (np.nonzero's) would be copied by
        # every index build
        self.rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        self.cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if not (len(self.rows) == len(self.cols) == len(self.values)):
            raise ParameterError("index/value lengths disagree")
        if self.nnz:
            if self.rows.min() < 0 or self.rows.max() >= self.n:
                raise ParameterError("row index out of bounds")
            if self.cols.min() < 0 or self.cols.max() >= self.m:
                raise ParameterError("column index out of bounds")
            flat = self.rows * self.m + self.cols
            if not np.all(flat[1:] > flat[:-1]):
                order = np.argsort(flat)
                flat = flat[order]
                if np.any(flat[1:] == flat[:-1]):
                    raise ParameterError("duplicate observed index")
                self.values = self.values[order]
                del order
                self.rows = flat // self.m
                self.cols = np.remainder(flat, self.m, out=flat)
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("non-finite observed value")

    @property
    def nnz(self) -> int:
        return len(self.values)

    def to_dense_zero_filled(self) -> np.ndarray:
        A = np.zeros((self.n, self.m))
        A[self.rows, self.cols] = self.values
        return A

    def mask(self) -> np.ndarray:
        W = np.zeros((self.n, self.m), dtype=bool)
        W[self.rows, self.cols] = True
        return W


@dataclass
class SideInfo:
    """Fully observed n x d side information matrix."""

    Y: np.ndarray

    def __post_init__(self):
        self.Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if not np.all(np.isfinite(self.Y)):
            raise ParameterError("non-finite side info entry")

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def d(self) -> int:
        return self.Y.shape[1]


@dataclass
class Hyperparams:
    """ADMM settings.  `threads` (>= 1) caps the threads that share the
    Gram and right-hand-side products of the U and V steps, split by
    column group, once the data are large enough to gain from it
    (`admm.ridge_groups`): on sparse data the sparse products are split
    into up to `threads` groups; on densely observed data (the "mask"
    route of `admm.ridge_route`) the sparse right-hand sides run on one
    worker beside the Gram's BLAS products.  The workers come from one
    executor per `solve`.  The iterates are bitwise the same for every
    value.  The batched ridge solves and all BLAS work run on the calling
    thread.
    `seed` (>= 0) seeds the init's Lanczos start and restart vectors and
    the P update's complement directions (`linalg.pgram_eig_topk`); the
    init's Gram route (`linalg.svd_route`) draws no random numbers, so
    on the data that take it only the P update's padding uses `seed`.
    `k`, `max_iters`, `threads` and `seed` must be integers (not bool)."""

    k: int
    lam: float = 1.0
    gamma: float = 1.0
    rho1: float = 10.0
    rho2: float = 10.0
    eps: float = 1e-6
    max_iters: int = 20
    threads: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "max_iters", "threads", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ParameterError(f"{name} must be an integer")
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        if self.lam < 0:
            raise ParameterError("lam must be >= 0")
        if self.gamma <= 0:
            raise ParameterError("gamma must be > 0")
        if self.rho1 <= 0 or self.rho2 <= 0:
            raise ParameterError("rho1, rho2 must be > 0")
        if self.eps <= 0:
            raise ParameterError("eps must be > 0")
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")
        if self.threads < 1:
            raise ParameterError("threads must be >= 1")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")


@dataclass
class GroundTruth:
    A_true: np.ndarray
    beta: np.ndarray
    noise_sigma: float = 0.0


@single_blas_thread()
def generate_synthetic(n: int, m: int, k: int, d: int, miss_frac: float,
                       sigma: float, seed: int):
    """Synthetic low-rank instance with linearly dependent side information.

    U, V, beta entries are i.i.d. uniform on [0, 1], noise is N(0, sigma^2);
    A = U V^T and Y = A beta + N.  Exactly floor(miss_frac * n * m) entries
    are hidden, drawn uniformly without replacement.  Fully deterministic
    given the seed (draw order: U, V, beta, N, then the hidden index set).

    Like `admm.solve`, it runs NumPy's BLAS on one thread, so Y does not
    depend on the BLAS thread count (at n=2000, m=1000, d=20, one and two
    OpenBLAS threads gave Y entries up to 5 ulps apart), and no idle
    OpenBLAS worker keeps spinning into the caller's next computation
    (for about 0.1 s, which slowed a protocol-size solve started right
    after generation by about 20% on 2 vCPUs).
    """
    if k >= min(n, m):
        raise ParameterError("k must be < min(n, m)")
    if not 0 <= miss_frac < 1:
        raise ParameterError("miss_frac must lie in [0, 1)")
    if sigma < 0:
        raise ParameterError("sigma must be >= 0")

    gen = Xoshiro256pp(seed)
    U = gen.uniform_matrix(n, k)
    V = gen.uniform_matrix(m, k)
    beta = gen.uniform_matrix(m, d)
    N = gen.normal_matrix(n, d, sigma) if sigma > 0 else np.zeros((n, d))

    A = U @ V.T
    Y = A @ beta + N

    hidden_count = int(miss_frac * n * m)
    hidden = gen.sample_without_replacement(n * m, hidden_count)
    observed = np.ones(n * m, dtype=bool)
    observed[hidden] = False
    flat = np.flatnonzero(observed)
    rows, cols = np.divmod(flat, m)

    pm = PartialMatrix(n=n, m=m, rows=rows, cols=cols, values=A.ravel()[flat])
    return pm, SideInfo(Y=Y), GroundTruth(A_true=A, beta=beta, noise_sigma=sigma)


def save_partial(pm: PartialMatrix, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{pm.n} {pm.m} {pm.nnz}\n")
        for i, j, v in zip(pm.rows, pm.cols, pm.values):
            fh.write(f"{i + 1} {j + 1} {_fmt(v)}\n")


def load_partial(path) -> PartialMatrix:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty partial matrix file", line=1)
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError("header must be 'n m nnz'", line=1)
    try:
        n, m, nnz = (int(x) for x in head)
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}", line=1) from exc
    rows, cols, values = [], [], []
    for lineno, line in enumerate(lines[1:nnz + 1], start=2):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("entry must be 'i j value'", line=lineno)
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad entry: {exc}", line=lineno) from exc
        if not (1 <= i <= n and 1 <= j <= m):
            raise ParseError(f"index ({i}, {j}) out of range", line=lineno)
        rows.append(i - 1)
        cols.append(j - 1)
        values.append(v)
    if len(values) != nnz:
        raise ParseError(f"expected {nnz} entries, found {len(values)}",
                         line=len(lines) + 1)
    for lineno, line in enumerate(lines[nnz + 1:], start=nnz + 2):
        if line.strip():
            raise ParseError(f"entry past the header's count of {nnz}",
                             line=lineno)
    try:
        return PartialMatrix(n=n, m=m, rows=np.array(rows, dtype=np.int64),
                             cols=np.array(cols, dtype=np.int64),
                             values=np.array(values))
    except ParameterError as exc:
        raise ParseError(str(exc)) from exc


def save_side_info(si: SideInfo, path) -> None:
    save_dense_csv(si.Y, path)


def load_side_info(path, n: int, d: int) -> SideInfo:
    Y = load_dense_csv(path)
    if Y.shape != (n, d):
        raise ParseError(f"expected {n}x{d} side info, got {Y.shape[0]}x{Y.shape[1]}")
    return SideInfo(Y=Y)


def save_dense_csv(M: np.ndarray, path) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", newline="\n") as fh:
        for row in M:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def load_dense_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(x) for x in line.split(",")]
            except ValueError as exc:
                raise ParseError(f"bad CSV value: {exc}", line=lineno) from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError("ragged CSV row", line=lineno)
            rows.append(row)
    if not rows:
        raise ParseError("empty CSV file", line=1)
    return np.array(rows)
