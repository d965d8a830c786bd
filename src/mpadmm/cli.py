"""Command-line interface: generate synthetic data, solve single
instances, run benchmark sweeps, and evaluate saved solutions.

Exit codes: 0 success, 1 parameter, parse or unreadable-path error,
2 numerical or convergence error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import admm
from .bench import SweepConfig, run_baseline, run_sweep
from .data import (Hyperparams, SideInfo, generate_synthetic, load_dense_csv,
                   load_partial, load_side_info, reader, save_dense_csv,
                   save_partial, save_side_info, write_csv)
from .exceptions import ConvergenceError, NumericalError, ParameterError, ParseError
from .objective import _check_weights, evaluate

# the library's `threads` default, which `--threads` and the sweep's
# `threads=` key take as well; kept under this name for its readers
DEFAULT_THREADS = Hyperparams.threads


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _CliError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="mpadmm", description=__doc__)
    hp = Hyperparams  # the flags' defaults are the library's
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--rank", "--k", dest="rank", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--miss-frac", type=float, default=0.9)
    g.add_argument("--sigma", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("solve", help="solve one instance from files")
    s.add_argument("--method", default="admm",
                   choices=["admm", "iterative-svd", "soft-impute",
                            "scaled-gd"])
    s.add_argument("--data", required=True, help="partial matrix file")
    s.add_argument("--side-info", help="side info CSV (required for admm)")
    s.add_argument("--truth", help="ground truth CSV, enables err_l2")
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--lambda", dest="lam", type=float, default=hp.lam)
    s.add_argument("--gamma", type=float, default=hp.gamma)
    s.add_argument("--rho1", type=float, default=hp.rho1, help="(admm only)")
    s.add_argument("--rho2", type=float, default=hp.rho2, help="(admm only)")
    s.add_argument("--max-iter", type=int, default=hp.max_iters,
                   help="(admm only)")
    s.add_argument("--tol", type=float, default=hp.eps, help="(admm only)")
    s.add_argument("--tau", type=float, default=SweepConfig.soft_impute_tau,
                   help="soft-impute shrinkage threshold")
    s.add_argument("--threads", type=int, default=hp.threads,
                   help="(admm only) see Hyperparams.threads; results are "
                        "bitwise the same for every value")
    s.add_argument("--seed", type=int, default=0, help="(admm only)")
    s.add_argument("--out", required=True, help="output directory")

    w = sub.add_parser("sweep", help="run a benchmark sweep")
    w.add_argument("--config", required=True, help="key=value config file")
    w.add_argument("--out", help="overrides 'out' from the config file")

    e = sub.add_parser("eval", help="re-evaluate a saved solution")
    e.add_argument("--data", required=True)
    e.add_argument("--side-info", required=True)
    e.add_argument("--truth", help="ground truth CSV, enables err_l2")
    e.add_argument("--lambda", dest="lam", type=float, default=hp.lam)
    e.add_argument("--gamma", type=float, default=hp.gamma)
    e.add_argument("--out", required=True,
                   help="directory holding U.csv / V.csv; metrics.csv is "
                        "(re)written there")
    return p


def _cmd_gen(args) -> int:
    data, side, truth = generate_synthetic(args.n, args.m, args.rank, args.d,
                                           args.miss_frac, args.sigma,
                                           args.seed)
    os.makedirs(args.out, exist_ok=True)
    save_partial(data, os.path.join(args.out, "partial.txt"))
    save_side_info(side, os.path.join(args.out, "side_info.csv"))
    save_dense_csv(truth.A_true, os.path.join(args.out, "truth.csv"))
    print(f"wrote partial.txt, side_info.csv, truth.csv to {args.out}")
    return 0


@reader
def _load_truth(path, n: int, m: int) -> np.ndarray:
    """The ground truth CSV at `path`, checked to be n x m, finite and not
    all zero, so that err_l2 is defined; raises ParseError otherwise."""
    A_true = load_dense_csv(path)
    if A_true.shape != (n, m):
        raise ParameterError(f"expected {n}x{m} truth, got "
                             f"{A_true.shape[0]}x{A_true.shape[1]}")
    if not np.all(np.isfinite(A_true)):
        raise ParameterError("truth has non-finite entries")
    if not np.any(A_true):
        raise ParameterError("truth is all zero")
    return A_true


def _write_metrics(path, X_hat, data, Y, lam, gamma, A_true=None):
    """Evaluate X_hat, write the metrics to the CSV at `path`, print them
    as one key=value line and return them as a dict.  Without side info
    (`Y` None) the side term is 0 and r2, which needs a side matrix, is
    left out."""
    met = evaluate(X_hat, data, np.zeros((data.n, 1)) if Y is None else Y,
                   A_true, lam, gamma)
    obj = met.objective
    fields = [
        ("objective", obj.total), ("fit_term", obj.fit_term),
        ("side_term", obj.side_term), ("reg_term", obj.reg_term),
        *([] if Y is None else [("r2", met.r2)]),
        ("fitted_rank", met.fitted_rank),
    ]
    if A_true is not None:
        fields.append(("err_l2", met.err_l2))
    write_csv(path, [name for name, _ in fields],
              [["%.17g" % v if isinstance(v, float) else str(v)
                for _, v in fields]])
    print(", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in fields))
    return dict(fields)


def _cmd_solve(args) -> int:
    _check_weights(args.lam, args.gamma)  # before any method runs or writes
    data = load_partial(args.data)
    if args.side_info:
        side = load_side_info(args.side_info, data.n)
    elif args.method == "admm":
        raise ParameterError("--side-info is required for method admm")
    else:
        side = SideInfo(Y=np.zeros((data.n, 1)))
    A_true = _load_truth(args.truth, data.n, data.m) if args.truth else None
    os.makedirs(args.out, exist_ok=True)

    if args.method == "admm":
        hp = Hyperparams(k=args.rank, lam=args.lam, gamma=args.gamma,
                         rho1=args.rho1, rho2=args.rho2, eps=args.tol,
                         max_iters=args.max_iter, threads=args.threads,
                         seed=args.seed)
        state, report = admm.solve(data, side, hp)
        U_out, V_out = state.U, state.V
        X_hat = state.x_hat()
        report_rows = [[str(i), *("%.17g" % v for v in (
            r.phi_res, r.psi_res, r.dual_res, r.objective)),
            report.termination] for i, r in enumerate(report.trace, 1)]
    else:
        res = run_baseline(args.method.replace("-", "_"), data, side.Y,
                           args.rank, args.lam, args.gamma, args.tau)
        X_hat = res.X_hat
        if res.U_f is not None:
            U_out, V_out = res.U_f, res.V_f
        elif data.n >= data.m:  # X_hat I^T and I X_hat are exactly X_hat
            U_out, V_out = X_hat, np.eye(data.m)
        else:
            U_out, V_out = np.eye(data.n), X_hat.T
        report_rows = [[str(res.iterations), "", "", "", "",
                        res.termination]]

    save_dense_csv(U_out, os.path.join(args.out, "U.csv"))
    save_dense_csv(V_out, os.path.join(args.out, "V.csv"))
    write_csv(os.path.join(args.out, "report.csv"),
              ["iter", "phi_res", "psi_res", "dual_res", "objective",
               "termination"], report_rows)
    _write_metrics(os.path.join(args.out, "metrics.csv"), X_hat, data,
                   side.Y if args.side_info else None, args.lam, args.gamma,
                   A_true)
    return 0


def _cmd_eval(args) -> int:
    data = load_partial(args.data)
    side = load_side_info(args.side_info, data.n)
    U = load_dense_csv(os.path.join(args.out, "U.csv"))
    V = load_dense_csv(os.path.join(args.out, "V.csv"))
    if U.shape[0] != data.n or V.shape[0] != data.m or U.shape[1] != V.shape[1]:
        raise ParameterError("factor shapes do not match the data")
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise ParameterError("factors have non-finite entries")
    A_true = _load_truth(args.truth, data.n, data.m) if args.truth else None
    _write_metrics(os.path.join(args.out, "metrics.csv"), U @ V.T, data,
                   side.Y, args.lam, args.gamma, A_true)
    return 0


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no"):
        return False
    raise ParameterError(f"not a boolean: {text!r}")


def _split(text: str, convert=str) -> list:
    return [convert(x.strip()) for x in text.split(",") if x.strip()]


# each sweep config key: the object it sets ("fixed" is SweepConfig.fixed,
# "out" the output path), the field there and the value's converter
SWEEP_KEYS = {
    "vary": ("sweep", "varying_parameter", str),
    "values": ("sweep", "values", lambda text: _split(text, int)),
    "n": ("fixed", "n", int), "m": ("fixed", "m", int),
    "k": ("fixed", "k", int), "d": ("fixed", "d", int),
    "trials": ("sweep", "trials", int),
    "methods": ("sweep", "methods", _split),
    "miss_frac": ("sweep", "miss_frac", float),
    "sigma": ("sweep", "sigma", float),
    "base_seed": ("sweep", "base_seed", int),
    "tau": ("sweep", "soft_impute_tau", float),
    "record_timings": ("sweep", "record_timings", _parse_bool),
    "lambda": ("hyper", "lam", float), "gamma": ("hyper", "gamma", float),
    "rho1": ("hyper", "rho1", float), "rho2": ("hyper", "rho2", float),
    "tol": ("hyper", "eps", float), "max_iter": ("hyper", "max_iters", int),
    "threads": ("hyper", "threads", int), "out": ("out", "out", str),
}


@reader
def parse_sweep_config(path) -> tuple:
    """Parse a flat key=value sweep config into (SweepConfig, `out` or
    None).  `#` starts a comment anywhere on a line.  Each key sets the
    field `SWEEP_KEYS` names, and a key left out takes its field's
    `SweepConfig` or `Hyperparams` default.  vary, values, n, m, k and d
    are required.  A key not in `SWEEP_KEYS`, a missing key or a bad value
    is a ParseError naming the file (`reader`) and any line."""
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.partition("#")[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise ParseError("expected key=value", line=lineno)
            if key not in SWEEP_KEYS:
                raise ParseError(f"unknown sweep config key {key!r}",
                                 line=lineno)
            raw[key] = value
    for key in ("vary", "values", "n", "m", "k", "d"):
        if key not in raw:
            raise ParameterError(f"sweep config missing key {key!r}")
    parts = {"sweep": {}, "fixed": {}, "hyper": {}, "out": {}}
    try:
        for key, value in raw.items():
            target, name, convert = SWEEP_KEYS[key]
            parts[target][name] = convert(value)
        config = SweepConfig(
            fixed=parts["fixed"], **parts["sweep"],
            hyper=Hyperparams(k=parts["fixed"]["k"], **parts["hyper"]))
    except ValueError as exc:
        raise ParameterError(f"bad sweep config value: {exc}") from exc
    return config, parts["out"].get("out")


def _cmd_sweep(args) -> int:
    config, out = parse_sweep_config(args.config)
    out = args.out or out
    if not out:
        raise ParameterError("no output path: pass --out or set out= in "
                             "the config")
    summary = run_sweep(config, out)
    print(f"wrote {out} and {out}.summary.csv ({len(summary)} summary rows)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return {"gen": _cmd_gen, "solve": _cmd_solve, "sweep": _cmd_sweep,
                "eval": _cmd_eval}[args.command](args)
    except (_CliError, ParameterError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, ConvergenceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
