"""Problem data containers, synthetic instance generation and file IO.

File formats (all LF-terminated ASCII):
  * partial matrix: header line "n m nnz", then nnz lines "i j value"
    with 1-based indices and 17-significant-digit decimal reals;
  * side info and other dense matrices: headerless CSV, one line a row;
  * result files (metrics, reports, sweeps): CSV with a header row.
"""

from __future__ import annotations

import csv
import functools
import os
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .exceptions import ParameterError, ParseError
from .linalg import single_blas_thread
from .rng import Xoshiro256pp


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
        if self.n < 0 or self.m < 0:
            raise ParameterError("n and m must be >= 0")
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
    """ADMM settings.  `threads` (>= 1; default, as in the CLI and the
    sweep, the CPUs in the process's affinity set, at most 2): at 2 or
    more, on large enough data (`admm.ridge_groups`), the U and V steps
    run their sparse right-hand-side products on one worker of an
    executor opened per `solve`, beside the Gram products on the calling
    thread; values above 2 act as 2.  The iterates are bitwise the same
    for every value, on any host.  The batched ridge solves and all BLAS
    and LAPACK work run on the calling thread, with every OpenBLAS in the
    process on one thread (`linalg.single_blas_thread`).
    `seed` (>= 0) seeds the init's Lanczos start and restart vectors and
    the complement directions that `admm.update_P` pads M with when
    fewer than k Ritz values are nonnegative; the init's Gram route
    (`linalg.svd_route`) draws no random numbers, so on the data that
    take it only `admm.update_P`'s padding uses `seed`.
    `k`, `max_iters`, `threads` and `seed` must be integers (not bool)."""

    k: int
    lam: float = 1.0
    gamma: float = 1.0
    rho1: float = 10.0
    rho2: float = 10.0
    eps: float = 1e-6
    max_iters: int = 20
    threads: int = min(len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else os.cpu_count() or 1, 2)
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "max_iters", "threads", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ParameterError(f"{name} must be an integer")
        for name in ("lam", "gamma", "rho1", "rho2", "eps"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
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


@single_blas_thread()
def generate_synthetic(n: int, m: int, k: int, d: int, miss_frac: float,
                       sigma: float, seed: int):
    """Synthetic low-rank instance with linearly dependent side information.

    U, V, beta entries are i.i.d. uniform on [0, 1], noise is N(0, sigma^2);
    A = U V^T and Y = A beta + N.  Exactly floor(miss_frac * n * m) entries
    are hidden, drawn uniformly without replacement.  Fully deterministic
    given the seed (draw order: U, V, beta, N, then the hidden index set).
    U, V and beta are sliced from one uniform stream in that order, and
    the observed set is read off the tail of the shuffle that draws the
    hidden set; both give, bit for bit, what three separate draws and the
    complement of the hidden picks give.

    Like `admm.solve`, it runs every OpenBLAS on one thread
    (`linalg.single_blas_thread`), so Y does not depend on the host's core
    count (at n=2000, m=1000, d=20, one and two OpenBLAS threads gave Y
    entries up to 5 ulps apart), and no idle
    OpenBLAS worker keeps spinning into the caller's next computation
    (for about 0.1 s, which slowed a protocol-size solve started right
    after generation by about 20% on 2 vCPUs).
    """
    if not 1 <= k < min(n, m):
        raise ParameterError("k must lie in [1, min(n, m))")
    if d < 1:
        raise ParameterError("d must be >= 1")
    if not 0 <= miss_frac < 1:
        raise ParameterError("miss_frac must lie in [0, 1)")
    if not 0 <= sigma < np.inf:
        raise ParameterError("sigma must be finite and nonnegative")

    hidden = int(miss_frac * n * m)
    normals = 2 * -(-n * d // 2) if sigma > 0 else 0  # Box-Muller pairs
    gen = Xoshiro256pp(seed)
    # the draws of all three helpers in one lane pass (rejections aside)
    gen._reserve((n + m) * k + m * d + normals + hidden)
    draws = gen.uniform_matrix(1, (n + m) * k + m * d)[0]
    U = draws[:n * k].reshape(n, k)
    V = draws[n * k:(n + m) * k].reshape(m, k)
    beta = draws[(n + m) * k:].reshape(m, d)
    N = gen.normal_matrix(n, d, sigma) if sigma > 0 else np.zeros((n, d))

    A = U @ V.T
    Y = A @ beta + N

    flat = gen.sample_without_replacement(n * m, hidden, complement=True)
    rows = flat // m
    cols = flat - rows * m

    pm = PartialMatrix(n=n, m=m, rows=rows, cols=cols, values=A.ravel()[flat])
    return pm, SideInfo(Y=Y), GroundTruth(A_true=A, beta=beta)


def _undecodable_line(path, encoding: str):
    """Number of the first line of the file at `path`, split as text mode
    splits it, that does not decode in `encoding`; None if every line
    does."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh.read().splitlines(), start=1):
            try:
                line.decode(encoding)
            except UnicodeDecodeError:
                return lineno
    return None


def reader(read):
    """`read(path, ...)`, a reader of the text file at `path`, whose errors
    name the file: a ParseError it raises gets `path`, and a
    ParameterError (what was read breaks a precondition) or a file that
    is not text in the locale's encoding becomes a ParseError, the
    latter naming the first line that does not decode."""
    @functools.wraps(read)
    def wrapper(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except ParseError as exc:
            if exc.path is None:
                exc.path = path
            raise
        except ParameterError as exc:
            raise ParseError(str(exc), path=path) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"not {exc.encoding} text ({exc.reason})",
                             line=_undecodable_line(path, exc.encoding),
                             path=path) from exc
    return wrapper


def save_partial(pm: PartialMatrix, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{pm.n} {pm.m} {pm.nnz}\n")
        for i, j, v in zip(pm.rows, pm.cols, pm.values):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


@reader
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
    if min(n, m, nnz) < 0:
        raise ParseError("n, m and nnz must be >= 0", line=1)
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
    return PartialMatrix(n=n, m=m, rows=np.array(rows, dtype=np.int64),
                         cols=np.array(cols, dtype=np.int64),
                         values=np.array(values))


def save_side_info(si: SideInfo, path) -> None:
    save_dense_csv(si.Y, path)


@reader
def load_side_info(path, n: int) -> SideInfo:
    """The side info CSV at `path`, of any width d; a row count other than
    the data's `n` is a ParseError, raised before the finiteness check,
    and, like every error of a `reader`, names the file."""
    Y = load_dense_csv(path)
    if Y.shape[0] != n:
        raise ParseError("side info row count does not match data")
    return SideInfo(Y=Y)


def save_dense_csv(M: np.ndarray, path) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, M, fmt="%.17g", delimiter=",")


def write_csv(path, header, rows) -> None:
    """Write the `header` row and then `rows` (each a sequence of strings)
    to `path` as LF-terminated CSV: the format of every result file."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@reader
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
