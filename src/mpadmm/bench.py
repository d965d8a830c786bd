"""Benchmark harness: parameter sweeps over synthetic instances with
per-trial metrics and per-subproblem timings written as CSV."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import admm, baselines
from .data import Hyperparams, generate_synthetic, write_csv
from .exceptions import ParameterError
from .objective import evaluate

METHOD_NAMES = ("admm", "iterative_svd", "soft_impute", "scaled_gd")


@dataclass(kw_only=True)
class SweepConfig:
    """A sweep over `values` of one of n, m, d, k, the others `fixed`;
    each trial runs `hyper` at its own k and seed.  Every field is
    keyword-only, and the defaults are what a sweep config file that
    leaves out their keys takes (`cli.parse_sweep_config`)."""

    varying_parameter: str  # one of n, m, d, k
    values: list
    fixed: dict  # keys n, m, k, d
    trials: int = 1
    methods: list = field(default_factory=lambda: ["admm"])
    hyper: Hyperparams
    miss_frac: float = 0.9
    sigma: float = 0.0
    base_seed: int = 0
    soft_impute_tau: float = 1.0
    record_timings: bool = True

    def __post_init__(self):
        if self.varying_parameter not in ("n", "m", "d", "k"):
            raise ParameterError("varying_parameter must be one of n, m, d, k")
        if not self.values or any(v <= 0 for v in self.values):
            raise ParameterError("values must be non-empty and positive")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if len(self.values) > 1000 or self.trials > 1000 or self.base_seed < 0:
            # past these limits `trial_seed` repeats seeds
            raise ParameterError("need base_seed >= 0 and at most 1000 "
                                 "values and 1000 trials")
        unknown = set(self.methods) - set(METHOD_NAMES)
        if unknown or not self.methods:
            raise ParameterError(f"unknown methods: {sorted(unknown)}")
        for key in ("n", "m", "k", "d"):
            if key not in self.fixed:
                raise ParameterError(f"fixed parameter {key!r} missing")


@dataclass
class TrialRow:
    method: str
    n: int
    m: int
    k: int
    d: int
    seed: int
    objective: Optional[float] = None
    err_l2: Optional[float] = None
    r2: Optional[float] = None
    fitted_rank: Optional[int] = None
    time_ms: Optional[float] = None
    t_U_ms: Optional[float] = None
    t_V_ms: Optional[float] = None
    t_P_ms: Optional[float] = None
    t_Z_ms: Optional[float] = None
    iters: Optional[int] = None
    phi_res: Optional[float] = None
    psi_res: Optional[float] = None
    dual_res: Optional[float] = None
    error: bool = False

    def as_csv(self) -> list:
        return ["error" if name == "objective" and self.error
                else _cell(getattr(self, name)) for name in CSV_COLUMNS]


# the per-trial CSV's header: every TrialRow field but `error`, which
# shows as "error" in the objective column
CSV_COLUMNS = [f.name for f in fields(TrialRow) if f.name != "error"]
_MEANS = CSV_COLUMNS[6:]  # the columns the summary averages


def _cell(v) -> str:
    """A CSV cell: empty for None, text and integers as they are, other
    numbers to 10 significant digits."""
    if v is None:
        return ""
    if isinstance(v, (str, int, np.integer)):
        return str(v)
    return "%.10g" % v


def trial_seed(base_seed: int, value_index: int, trial_index: int) -> int:
    return base_seed * 10 ** 6 + value_index * 10 ** 3 + trial_index


def run_baseline(method: str, data, Y, k: int, lam: float, gamma: float,
                 soft_impute_tau: float) -> baselines.BaselineResult:
    """Run the reference method `method` ("iterative_svd", "soft_impute"
    or "scaled_gd") at rank k; lam and gamma reach only scaled_gd, and
    soft_impute_tau only soft_impute."""
    if method == "iterative_svd":
        return baselines.iterative_svd(data, k)
    if method == "soft_impute":
        return baselines.soft_impute(data, soft_impute_tau, k_cap=k)
    if method == "scaled_gd":
        return baselines.scaled_gd(data, Y, lam, gamma, k)
    raise ParameterError(f"unknown method {method!r}")


def run_trial(method: str, data, side, truth, hp: Hyperparams,
              soft_impute_tau: float, record_timings: bool) -> TrialRow:
    row = TrialRow(method=method, n=data.n, m=data.m, k=hp.k, d=side.d,
                   seed=hp.seed)
    if method == "admm":
        t0 = time.perf_counter()
        state, report = admm.solve(data, side, hp)
        elapsed = time.perf_counter() - t0
        X_hat = state.x_hat()
        last = report.trace[-1]  # Hyperparams holds max_iters >= 1
        row.iters, row.phi_res, row.psi_res, row.dual_res = (
            report.iterations, last.phi_res, last.psi_res, last.dual_res)
        if record_timings:
            st = report.subproblem_times
            row.t_U_ms = 1e3 * st["U"]
            row.t_V_ms = 1e3 * st["V"]
            row.t_P_ms = 1e3 * st["P"]
            row.t_Z_ms = 1e3 * st["Z"]
            row.time_ms = 1e3 * elapsed
    else:
        res = run_baseline(method, data, side.Y, hp.k, hp.lam, hp.gamma,
                           soft_impute_tau)
        X_hat = res.X_hat
        row.iters = res.iterations
        if record_timings:
            row.time_ms = 1e3 * res.wall_time

    metrics = evaluate(X_hat, data, side.Y, truth.A_true, hp.lam, hp.gamma)
    row.objective = metrics.objective.total
    row.err_l2 = metrics.err_l2
    row.r2 = metrics.r2
    row.fitted_rank = metrics.fitted_rank
    return row


def run_sweep(config: SweepConfig, out_path) -> list:
    """Run the sweep, write the per-trial CSV and a per-(method, value)
    mean summary CSV; returns the summary as a list of dicts.

    A method failure is recorded as a row with 'error' in the objective
    column and the sweep continues.
    """
    rows = []
    cells = []  # (method, value) aligned with rows, for the summary
    for vi, value in enumerate(config.values):
        params = dict(config.fixed)
        params[config.varying_parameter] = int(value)
        n, m, k, d = params["n"], params["m"], params["k"], params["d"]
        for ti in range(config.trials):
            seed = trial_seed(config.base_seed, vi, ti)
            data, side, truth = generate_synthetic(
                n, m, k, d, config.miss_frac, config.sigma, seed)
            hp = replace(config.hyper, k=k, seed=seed)
            for method in config.methods:
                try:
                    row = run_trial(method, data, side, truth, hp,
                                    config.soft_impute_tau,
                                    config.record_timings)
                except Exception:
                    row = TrialRow(method=method, n=n, m=m, k=k, d=d,
                                   seed=seed, error=True)
                rows.append(row)
                cells.append((method, value))

    write_csv(out_path, CSV_COLUMNS, (row.as_csv() for row in rows))
    summary = _summarize(rows, cells)
    write_csv(str(out_path) + ".summary.csv",
              ["method", "value", "trials"] + _MEANS,
              ([s["method"], str(s["value"]), str(s["trials"])]
               + [_cell(s[col]) for col in _MEANS] for s in summary))
    return summary


def _summarize(rows, cells) -> list:
    groups = {}  # insertion-ordered: cells in the order they first ran
    for row, cell in zip(rows, cells):
        groups.setdefault(cell, []).append(row)
    summary = []
    for (method, value), group in groups.items():
        good = [r for r in group if not r.error]
        entry = {"method": method, "value": value, "trials": len(good)}
        for col in _MEANS:
            vals = [getattr(r, col) for r in good
                    if getattr(r, col) is not None]
            entry[col] = float(np.mean(vals)) if vals else None
        summary.append(entry)
    return summary
