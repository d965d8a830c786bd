"""mpadmm benchmark: one workload per run, timed through the public API.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 10 --trace 0
    for w in protocol dense scale; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 10 --trace 0
    done

Builds nothing: it imports `mpadmm` from the checkout's `src/` and fails
(exit 2, no result line) when that package is missing.  A run

  1. generates the workload's instance from `--seed` with
     `generate_synthetic`, `setups` times, and checks the copies agree;
  2. makes one untimed warm-up solve; with `--trace 0` it runs under
     tracemalloc and gives `admm_peak_mb`, and is never timed;
  3. runs whole trials (generate, ADMM `solve`, the workload's baselines,
     `evaluate` of each) until `--seconds` have passed, at least one, then
     further ADMM solves until it has `solves` of them, each checked
     bitwise against the warm-up; with `--trace 1` it runs one untraced
     and one traced trial instead and checks that both give bitwise the
     same estimates;
  4. prints a table of every metric with its unit and sample count, an
     environment record, and as its last line one JSON object
     {"correct", "attempted", "failed", "metrics"}: the end-to-end
     metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

One operation is one method call on one instance.  It fails when it
raises, returns a non-finite estimate, exceeds rank k (methods that
promise a rank-k estimate), or has err_l2 >= 1, which is worse than the
all-zero estimate.  Failures are counted, never dropped.  `correct` is
false when a determinism check fails (repeated generation, repeated
solve, traced against untraced) or when the ADMM solver itself fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer, targets

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SIGMA = 2.0
LAM = GAMMA = 1.0
SOFT_IMPUTE_TAU = 1.0
ITERATIVE_SVD_MAX_ITERS = 500  # the iterative_svd default, for `capped`


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    k: int
    d: int
    miss_frac: float
    max_iters: int
    track: bool  # track_objective and track_dual_residual of `solve`
    baselines: bool
    setups: int  # timed generate_synthetic calls before the warm-up
    solves: int  # timed ADMM solves per run, at least


WORKLOADS = {w.name: w for w in (
    # the paper's four-method comparison instance
    Workload("protocol", 1000, 100, 5, 150, 0.9, 20, True, True, 4, 3),
    # 500 observations per row, 1000 per column, tracking off
    Workload("dense", 2000, 1000, 10, 20, 0.5, 20, False, False, 1, 1),
    # the n = 20000 scale point, run by hand and not listed in
    # BENCHMARK.json: one run takes about 150 s on 2 vCPUs, 85 s of it the
    # tracemalloc pass, too long to repeat for every comparison
    Workload("scale", 20000, 100, 5, 150, 0.9, 10, True, False, 1, 1),
)}

METHODS = ("admm", "iterative_svd", "soft_impute", "scaled_gd")
# iterative_svd keeps the observed entries and imputes the rest, so unlike
# the other methods it does not promise a rank-k estimate.
NOT_RANK_CAPPED = {"iterative_svd"}

# End-to-end metrics in the result line.  The report also prints trial_s,
# each baseline's time and err_l2, and failed_frac; they are left out here
# because they are missing on ADMM-only workloads, can be 0, or depend on
# where the baselines stop, which varies with the seed.
GATED = ("setup_s", "admm_solve_s", "admm_peak_mb", "admm_err_l2", "admm_r2")


def import_mpadmm():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import mpadmm
    import mpadmm.cli
    if Path(mpadmm.__file__).resolve().parent != SRC / "mpadmm":
        raise ImportError(f"mpadmm resolved outside {SRC}")
    return mpadmm


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cap = re.search(r"MAX_THREADS=(\d+)", blas.get("openblas configuration", ""))
    return {
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_max_threads": int(cap.group(1)) if cap else None,
        "blas_threads_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "solve_threads": threads,
        "commit": git_commit(ROOT),
    }


def check_output(X_hat, k: int, rank_capped: bool, metrics) -> str | None:
    """Reason an estimate fails the output check, or None when it passes.

    `metrics` is the `evaluate` result; it is not consulted for a
    non-finite estimate, which `evaluate` cannot process.
    """
    if not np.all(np.isfinite(X_hat)):
        return "non-finite estimate"
    if rank_capped and metrics.fitted_rank > k:
        return f"fitted_rank {metrics.fitted_rank} > k={k}"
    if not metrics.err_l2 < 1.0:
        return f"err_l2 {metrics.err_l2:.4g} >= 1"
    return None


@dataclass
class Outcome:
    seconds: float = math.nan
    X_hat: object = None
    metrics: object = None
    result: object = None  # SolveReport for admm, BaselineResult otherwise
    failure: str | None = None


class Bench:
    """State of one run: the package, the workload and what was counted."""

    def __init__(self, mp, wl: Workload, seed: int):
        self.mp, self.wl, self.seed = mp, wl, seed
        self.threads = mp.cli.DEFAULT_THREADS
        self.hp = mp.data.Hyperparams(k=wl.k, lam=LAM, gamma=GAMMA,
                                      max_iters=wl.max_iters,
                                      threads=self.threads, seed=seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.integrity: list[str] = []  # failed determinism checks
        self.setup_times: list[float] = []
        self.reference = None  # first generated instance

    def generate(self):
        wl = self.wl
        t0 = time.perf_counter()
        inst = self.mp.data.generate_synthetic(wl.n, wl.m, wl.k, wl.d,
                                               wl.miss_frac, SIGMA, self.seed)
        self.setup_times.append(time.perf_counter() - t0)
        if self.reference is None:
            self.reference = inst
        elif not same_instance(inst, self.reference):
            self.integrity.append("generate_synthetic is not deterministic")
        return inst

    def call(self, method: str, inst):
        """Run one method on one instance; returns (seconds, X_hat, result)."""
        data, side, _ = inst
        mp, wl, hp = self.mp, self.wl, self.hp
        t0 = time.perf_counter()
        if method == "admm":
            state, result = mp.admm.solve(data, side, hp,
                                          track_objective=wl.track,
                                          track_dual_residual=wl.track)
            X_hat = state.x_hat()
        elif method == "iterative_svd":
            result = mp.baselines.iterative_svd(data, wl.k)
            X_hat = result.X_hat
        elif method == "soft_impute":
            result = mp.baselines.soft_impute(data, SOFT_IMPUTE_TAU, k_cap=wl.k)
            X_hat = result.X_hat
        else:
            result = mp.baselines.scaled_gd(data, side.Y, LAM, GAMMA, wl.k)
            X_hat = result.X_hat
        return time.perf_counter() - t0, X_hat, result

    def run(self, method: str, inst) -> Outcome:
        """One counted operation: call, evaluate, check the output."""
        data, side, truth = inst
        self.attempted += 1
        out = Outcome()
        try:
            out.seconds, out.X_hat, out.result = self.call(method, inst)
            if np.all(np.isfinite(out.X_hat)):
                out.metrics = self.mp.objective.evaluate(
                    out.X_hat, data, side.Y, truth.A_true, LAM, GAMMA)
            out.failure = check_output(out.X_hat, self.wl.k,
                                       method not in NOT_RANK_CAPPED,
                                       out.metrics)
        except Exception as exc:  # a raising method is a counted failure
            out.failure = f"raised {type(exc).__name__}: {exc}"
        if out.failure:
            self.failures.append(f"{method}: {out.failure}")
            if method == "admm":
                self.integrity.append(f"admm failed: {out.failure}")
        return out

    def methods(self):
        return METHODS if self.wl.baselines else METHODS[:1]

    def trial(self) -> tuple[float, dict]:
        """Generate, run every method, evaluate each; returns the wall
        time and the outcome of each method."""
        t0 = time.perf_counter()
        inst = self.generate()
        outcomes = {m: self.run(m, inst) for m in self.methods()}
        return time.perf_counter() - t0, outcomes


def same_instance(a, b) -> bool:
    (da, sa, ta), (db, sb, tb) = a, b
    return all(bitwise_equal(x, y) for x, y in (
        (da.rows, db.rows), (da.cols, db.cols), (da.values, db.values),
        (sa.Y, sb.Y), (ta.A_true, tb.A_true)))


def bitwise_equal(x, y) -> bool:
    return (x is not None and y is not None and x.shape == y.shape
            and x.dtype == y.dtype and x.tobytes() == y.tobytes())


def median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def measure(bench: Bench, seconds: float) -> tuple[list, dict]:
    """Untraced run: memory pass as warm-up, trials for `seconds`, then
    extra ADMM solves up to the workload's `solves`.  Returns report rows
    (name, value, unit, samples) and every method's outcomes."""
    wl = bench.wl
    for _ in range(wl.setups):
        inst = bench.generate()
    tracemalloc.start()
    try:
        warm = bench.run("admm", inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    trials, outcomes = [], {m: [] for m in bench.methods()}
    t_start = time.perf_counter()
    while not trials or time.perf_counter() - t_start < seconds:
        wall, out = bench.trial()
        trials.append(wall)
        for m, o in out.items():
            outcomes[m].append(o)
    while len(outcomes["admm"]) < wl.solves:
        outcomes["admm"].append(bench.run("admm", inst))
    for o in outcomes["admm"]:
        if not bitwise_equal(o.X_hat, warm.X_hat):
            bench.integrity.append("repeated admm solve differs bitwise")

    admm = outcomes["admm"]
    rows = [("setup_s", median(bench.setup_times), "s",
             len(bench.setup_times)),
            ("trial_s", median(trials), "s", len(trials)),
            ("admm_solve_s", median(o.seconds for o in admm), "s", len(admm)),
            ("admm_peak_mb", peak / 1e6, "MB", 1),
            ("admm_err_l2", metric_of(admm, "err_l2"), "ratio", len(admm)),
            ("admm_r2", metric_of(admm, "r2"), "ratio", len(admm))]
    for m, outs in outcomes.items():
        if m != "admm":
            rows += [(m + "_s", median(o.seconds for o in outs), "s", len(outs)),
                     (m + "_err_l2", metric_of(outs, "err_l2"), "ratio",
                      len(outs))]
    rows.append(("failed_frac", len(bench.failures) / bench.attempted,
                 "ratio", bench.attempted))
    return rows, outcomes


def metric_of(outcomes, field: str) -> float:
    return median(getattr(o.metrics, field) if o.metrics else math.nan
                  for o in outcomes)


def traced(bench: Bench) -> tuple[dict, dict]:
    """Warm-up, one untraced trial, one traced trial; per-layer metrics."""
    wl = bench.wl
    for _ in range(wl.setups):
        inst = bench.generate()
    bench.run("admm", inst)  # warm-up
    _, plain = bench.trial()
    tracer = Tracer()
    tracer.install(targets(bench.mp))
    try:
        _, out = bench.trial()
    finally:
        tracer.uninstall()
    for m, o in out.items():
        if not bitwise_equal(o.X_hat, plain[m].X_hat):
            bench.integrity.append(f"traced {m} estimate differs bitwise")
    return layer_metrics(bench, tracer, out, plain), out


def rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(bench: Bench, tr, out: dict, plain: dict) -> dict:
    wl = bench.wl
    solve_s = tr.busy("admm.solve")
    hidden = int(wl.miss_frac * wl.n * wl.m)
    draws = wl.n * wl.k + wl.m * wl.k + wl.m * wl.d + wl.n * wl.d + hidden
    rng_s = sum(tr.busy("rng." + name) for name in (
        "uniform_matrix", "normal_matrix", "sample_without_replacement"))
    u_rows = sum(s.note for s in tr.select("admm.update_U"))
    v_cols = sum(s.note for s in tr.select("admm.update_V"))
    eig = tr.select("linalg.eig_factored")
    # computed, not counted: QR of the n x q factor F1 with explicit Q
    # (4nq^2), Q^T F1 and F2^T Q (4nq^2) and M = QW (2nqk); q^3 terms omitted
    gflop = sum(8 * n * q * q + 2 * n * q * k for n, q, k in
                (s.note for s in eig)) / 1e9
    report = out["admm"].result
    isvd = getattr(out.get("iterative_svd"), "result", None)
    si = getattr(out.get("soft_impute"), "result", None)
    sgd = getattr(out.get("scaled_gd"), "result", None)

    def err(method):
        o = out.get(method)
        return o.metrics.err_l2 if o and o.metrics else 0.0

    m = {
        "data.generate_s": (tr.busy("data.generate_synthetic"), "s"),
        "rng.draws": (draws * tr.calls("data.generate_synthetic"), "count"),
        "rng.draws_per_s": (rate(draws * tr.calls("data.generate_synthetic"),
                                 rng_s), "1/s"),
        "data.to_dense_s": (tr.busy("data.to_dense_zero_filled"), "s"),
        "admm.init_tsvd_s": (tr.busy("linalg.truncated_svd", "admm.solve"), "s"),
        "admm.masks_s": (tr.busy("admm.masks", "admm.solve"), "s"),
        "admm.update_U_s": (tr.busy("admm.update_U"), "s"),
        "admm.update_U.rows_per_s": (rate(u_rows, tr.busy("admm.update_U")),
                                     "1/s"),
        "admm.update_V_s": (tr.busy("admm.update_V"), "s"),
        "admm.update_V.cols_per_s": (rate(v_cols, tr.busy("admm.update_V")),
                                     "1/s"),
        "admm.update_P_s": (tr.busy("admm.update_P"), "s"),
        "admm.update_Z_s": (tr.busy("admm.update_Z"), "s"),
        "admm.update_duals_s": (tr.busy("admm.update_duals"), "s"),
        "admm.primal_residuals_s": (tr.busy("admm.primal_residuals"), "s"),
        "admm.dual_residual_s": (tr.busy("admm.dual_residual"), "s"),
        "admm.objective_track_s": (tr.busy("objective.objective_svd",
                                           "admm.solve"), "s"),
        "admm.self_s": (tr.self_time("admm.solve"), "s"),
        "admm.iterations": (report.iterations, "count"),
        "admm.tolerance_met": (int(report.termination == "tolerance_met"),
                               "count"),
        "linalg.eig_factored_s": (tr.busy("linalg.eig_factored"), "s"),
        "linalg.eig_factored.calls": (len(eig), "count"),
        "linalg.eig_factored.gflop_computed": (gflop, "GFLOP"),
        "linalg.pgram_build_s": (tr.busy("linalg.pgram_build"), "s"),
        "linalg.apply_projection_s": (tr.busy("linalg.apply_projection"), "s"),
        "linalg.apply_projection.calls": (tr.calls("linalg.apply_projection"),
                                          "count"),
        "objective.evaluate_s": (tr.busy("objective.evaluate"), "s"),
        "objective.ols_alpha_s": (tr.busy("objective.ols_alpha",
                                          "baselines.scaled_gd"), "s"),
        "objective.ols_alpha.calls": (tr.calls("objective.ols_alpha",
                                               "baselines.scaled_gd"), "count"),
        "baselines.iterative_svd_s": (tr.busy("baselines.iterative_svd"), "s"),
        "baselines.iterative_svd.iterations": (
            isvd.iterations if isvd else 0, "count"),
        "baselines.iterative_svd.capped": (
            int(bool(isvd) and isvd.termination == "max_iters"
                and isvd.iterations == ITERATIVE_SVD_MAX_ITERS), "count"),
        "baselines.iterative_svd.err_l2": (err("iterative_svd"), "ratio"),
        "baselines.soft_impute_s": (tr.busy("baselines.soft_impute"), "s"),
        "baselines.soft_impute.iterations": (si.iterations if si else 0,
                                             "count"),
        "baselines.soft_impute.err_l2": (err("soft_impute"), "ratio"),
        "linalg.soft_threshold_svd_s": (tr.busy("linalg.soft_threshold_svd"),
                                        "s"),
        "baselines.scaled_gd_s": (tr.busy("baselines.scaled_gd"), "s"),
        "baselines.scaled_gd.iterations": (sgd.iterations if sgd else 0,
                                           "count"),
        "baselines.scaled_gd_gradients_s": (
            tr.busy("baselines.scaled_gd_gradients"), "s"),
        "baselines.scaled_gd_loss_s": (tr.busy("baselines.scaled_gd_loss"), "s"),
        "baselines.scaled_gd.accepted_step_ratio": (
            1.0 - sgd.monotone_violations / sgd.iterations
            if sgd and sgd.iterations else 0.0, "ratio"),
        "baselines.scaled_gd.jitter_used": (int(bool(sgd) and sgd.jitter_used),
                                            "count"),
        "baselines.scaled_gd.err_l2": (err("scaled_gd"), "ratio"),
        "trace.overhead_s": (out["admm"].seconds - plain["admm"].seconds, "s"),
        "trace.solve_child_coverage": (
            1.0 - tr.self_time("admm.solve") / solve_s if solve_s else 0.0,
            "ratio"),
    }
    return m


def print_report(bench: Bench, args, env: dict, rows: list,
                 outcomes: dict) -> None:
    print(f"# mpadmm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"{'metric':44s} {'value':>14s}  {'unit':6s} samples")
    for name, value, unit, samples in rows:
        print(f"{name:44s} {value:14.6g}  {unit:6s} {samples}")
    for method, outs in outcomes.items():
        for o in outs if isinstance(outs, list) else [outs]:
            q = o.metrics
            print(f"# {method}: {o.seconds:.4f} s"
                  + (f", err_l2 {q.err_l2:.6g}, r2 {q.r2:.6g}, fitted_rank "
                     f"{q.fitted_rank}" if q else "")
                  + (f", FAILED ({o.failure})" if o.failure else ", ok"))
    failed = len(bench.failures)
    print(f"# operations attempted {bench.attempted}, failed {failed}, "
          f"failed_frac {failed / bench.attempted:.4g}")
    for problem in bench.integrity:
        print(f"# INTEGRITY: {problem}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def run(args, workload: Workload | None = None) -> dict:
    """Run one workload (by default the named one) and return the result."""
    mp = import_mpadmm()
    bench = Bench(mp, workload or WORKLOADS[args.workload], args.seed)
    env = environment(bench.threads)
    if args.trace:
        values, outcomes = traced(bench)
        rows = [(k, v, u, 1) for k, (v, u) in values.items()]
        result = rows
    else:
        rows, outcomes = measure(bench, args.seconds)
        result = [r for r in rows if r[0] in GATED]
    print_report(bench, args, env, rows, outcomes)
    return {
        "correct": not bench.integrity,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in result},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except ImportError as exc:
        print(f"perfbench: cannot import mpadmm from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
