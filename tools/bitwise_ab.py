"""Bitwise A/B of `admm.solve` on two checkouts.

    python3 tools/bitwise_ab.py PARENT CHANGE [--seeds 7 8]

A change meant to leave the solver's numbers alone is checked here.
Each case generates one synthetic instance and solves it once from each
checkout, in a fresh interpreter with PYTHONPATH set to that checkout's
src/.  Per case it compares a SHA-256 of the estimate X_hat's bytes,
`repr(report.trace)`, `termination`, `init_route`, `ridge_route`,
`ridge_groups`, `ritz_structured` and the sorted keys of
`subproblem_times`.  It prints one line per case, `equal` or the first
field that differs, and exits 1 on any difference.

The cases (see `cases`): perfbench's `protocol` workload at seeds 0-2,
tracked and with the Lagrangian row, and its `dense` workload at seed 0,
untracked (both read from `WORKLOADS` in this checkout's
perfbench/run.py); the acceptance criterion-10 shape at n = 2000 and
4000; one wide instance on the init's Lanczos route and one on its
dense route (min(n, m) <= 32).  Each `--seeds` value runs every one of
these shapes again at that seed.  It changes no file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("x_hat_sha256", "trace", "termination", "init_route",
          "ridge_route", "ridge_groups", "ritz_structured",
          "subproblem_times")

# one case, run in a fresh interpreter: the case's JSON on stdin, the
# digests' JSON on stdout
CHILD = """
import hashlib, json, sys
from mpadmm.admm import solve
from mpadmm.data import Hyperparams, generate_synthetic

case = json.load(sys.stdin)
data, side, _ = generate_synthetic(*case["shape"], seed=case["seed"])
hp = Hyperparams(seed=case["seed"], **case["hp"])
state, report = solve(data, side, hp, track_objective=case["track"],
                      track_dual_residual=case["track"],
                      track_lagrangian=case["track"])
print(json.dumps({
    "x_hat_sha256": hashlib.sha256(state.x_hat().tobytes()).hexdigest(),
    "trace": repr(report.trace),
    "termination": report.termination,
    "init_route": report.init_route,
    "ridge_route": report.ridge_route,
    "ridge_groups": report.ridge_groups,
    "ritz_structured": report.ritz_structured,
    "subproblem_times": sorted(report.subproblem_times),
}))
"""


def _perfbench():
    """This checkout's perfbench/run.py, imported as `perfbench_run`."""
    if "perfbench_run" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", ROOT / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.path.insert(0, str(ROOT / "perfbench"))  # run.py imports tracing
        try:
            sys.modules[spec.name] = module  # for its dataclasses
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[spec.name]
            raise
        finally:
            sys.path.remove(str(ROOT / "perfbench"))
    return sys.modules["perfbench_run"]


def cases(seeds=()) -> list[dict]:
    """The fixed cases, then each shape again at every seed in `seeds`.
    A tracked case tracks the objective, the dual residual and the
    Lagrangian row."""
    bench = _perfbench()
    shapes = []  # (label, shape, default seeds, Hyperparams, tracked)
    for name, seeds0 in (("protocol", (0, 1, 2)), ("dense", (0,))):
        wl = bench.WORKLOADS[name]
        shapes.append((name, (wl.n, wl.m, wl.k, wl.d, wl.miss_frac,
                              bench.SIGMA), seeds0,
                       {"k": wl.k, "lam": bench.LAM, "gamma": bench.GAMMA,
                        "max_iters": wl.max_iters}, wl.track))
    # tests/test_acceptance.py::test_criterion_10_complexity_scaling
    for n in (2000, 4000):
        shapes.append((f"criterion-10 n={n}", (n, 100, 5, 150, 0.9, 2.0),
                       (1,), {"k": 5, "max_iters": 10, "eps": 1e-16,
                              "threads": 1}, False))
    shapes.append(("wide lanczos", (300, 600, 4, 20, 0.7, 1.0), (0,),
                   {"k": 4, "max_iters": 15}, True))
    shapes.append(("dense route", (40, 30, 3, 4, 0.5, 0.5), (0,),
                   {"k": 3, "max_iters": 15}, True))
    return [{"label": f"{label} seed {seed}", "shape": list(shape),
             "seed": seed, "hp": hp, "track": tracked}
            for extra in ((), *((seed,) for seed in seeds))
            for label, shape, seeds0, hp, tracked in shapes
            for seed in extra or seeds0]


def run_case(checkout: Path, case: dict) -> dict:
    """The digests of one case solved from `checkout`."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, "-c", CHILD], cwd=checkout,
                         env=env, input=json.dumps(case),
                         capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{case['label']} failed in {checkout}:\n"
                           f"{out.stdout}{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def first_difference(parent: dict, change: dict) -> str | None:
    """The first of FIELDS whose digests differ, or None."""
    return next((name for name in FIELDS
                 if parent.get(name) != change.get(name)), None)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--seeds", type=int, nargs="*", default=[],
                   help="run every shape again at each of these seeds")
    args = p.parse_args(argv)
    sides = (args.parent.resolve(), args.change.resolve())
    for name, root in zip(("parent", "change"), sides):
        if not (root / "src" / "mpadmm" / "admm.py").is_file():
            p.error(f"{name}: {root} has no src/mpadmm/admm.py")
    todo, differ = cases(args.seeds), 0
    for case in todo:
        field = first_difference(*(run_case(root, case) for root in sides))
        differ += field is not None
        print(f"{case['label']}: "
              + ("equal" if field is None else f"differs in {field}"),
              flush=True)
    print(f"{differ} of {len(todo)} cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
