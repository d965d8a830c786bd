"""Alternating A/B runs of one perfbench workload on two checkouts.

    python3 tools/perfbench_ab.py PARENT CHANGE --workload dense \\
        --pairs 10 --seconds 10 --seed0 100 [--trace 1] \\
        [--out BENCH_dense.json]

Host speed drifts within a session, so one run of each side shows
little.  Pair p runs `perfbench/run.py --workload W --seed K+p
--seconds S --trace T` once from each checkout, in a fresh process whose
working directory is that checkout (run.py imports the package from its
own checkout's src/); the side that runs first alternates from pair to
pair.  It prints every run's metrics, then per metric and side the min,
quartiles, median and max, and in how many pairs the change read lower.
For each metric that the parent's BENCHMARK.json declares, it then
prints a verdict line, read with the metric's `better` direction and,
for an end-to-end metric, its `bound` (see `verdict`).  At `--trace 0`
(the default) the runs report the end-to-end metrics; at `--trace 1`
each run is one traced trial, whose per-layer metrics have no bound.
It exits 1 if any run is not `correct` or has failed operations.  It
changes no benchmark file.

Before each pair it times a few fixed one-thread kernels in a fresh
process (`calibrate`, `kernel_times`) and prints their medians: how fast
the host was then, which drifts between sessions.  They gate nothing.

It also prints a SHA-256 of each side's `src/**/*.py` (see
`source_digest`), which names the code a side ran even where the `# env`
record's commit reads `unknown`, as in a `git archive` checkout.  With
`--out PATH` it writes the whole comparison as JSON: one `host` record
(core counts and the BLAS of NumPy and of SciPy, see `host`), those
digests, the calibration of each pair, every run's result object and
`# env` record with its side, pair and seed, and the summary in numbers
(see `bench_file`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
KERNELS = ("gemm_s", "eigh_s", "spmv_s")


def kernel_times(repeats: int = 3) -> dict[str, float]:
    """Median seconds over `repeats` of each fixed kernel, on inputs drawn
    from one seeded generator: `gemm_s` a 1000 x 1000 by 1000 x 1000
    product, `eigh_s` a symmetric eigensolve of order 160, `spmv_s` the
    product of a 10^5 x 10^5 CSR matrix of 10^6 entries (10 a row, as
    index arrays, summed by `np.add.reduceat`) with a vector.  NumPy
    only, so that a fresh process starts in well under 0.5 s; run it on
    one BLAS thread (see `calibrate`)."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((1000, 1000))
    S = rng.standard_normal((160, 160))
    S += S.T
    rows, per_row = 100_000, 10
    data = rng.standard_normal(rows * per_row)
    indices = rng.integers(0, rows, rows * per_row)
    starts = np.arange(0, rows * per_row, per_row)
    x = rng.standard_normal(rows)
    kernels = {"gemm_s": lambda: A @ A,
               "eigh_s": lambda: np.linalg.eigh(S),
               "spmv_s": lambda: np.add.reduceat(data * x[indices], starts)}
    times = {}
    for name in KERNELS:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            kernels[name]()
            samples.append(time.perf_counter() - start)
        times[name] = float(np.median(samples))
    return times


def calibrate() -> dict[str, float]:
    """`kernel_times` in a fresh Python process whose OpenBLAS copies run
    one thread each (OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1), read
    from the JSON line it prints."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import perfbench_ab; "
            "print(json.dumps(perfbench_ab.kernel_times()))")
    out = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent)],
        env=env, capture_output=True, text=True, timeout=600)
    try:
        return parse_result(out.stdout)
    except ValueError as exc:
        raise RuntimeError(f"no calibration (exit {out.returncode}):\n"
                           f"{out.stderr}") from exc


def host() -> dict:
    """The machine the pairs ran on: `os.cpu_count()`, the number of CPUs
    this process may run on (None where the OS does not say), and the
    name and version of the BLAS that NumPy and that SciPy were built
    with, each of which bundles its own OpenBLAS.  The runs use the same
    interpreter, so the same libraries."""
    import scipy
    affinity = getattr(os, "sched_getaffinity", None)
    record = {"cpu_count": os.cpu_count(),
              "affinity": len(affinity(0)) if affinity else None}
    for pkg in (np, scipy):
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record[f"{pkg.__name__}_blas"] = {"name": blas.get("name"),
                                          "version": blas.get("version")}
    return record


def parse_result(stdout: str) -> dict:
    """The JSON result object, the last line perfbench/run.py prints."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no result line")
    return json.loads(lines[-1])


def parse_env(stdout: str) -> dict | None:
    """The record perfbench/run.py prints as its `# env` line, if any."""
    for line in stdout.splitlines():
        if line.startswith("# env "):
            return json.loads(line[len("# env "):])
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the sorted (path relative to `root`, bytes) pairs of
    the files `root`/src/**/*.py; each path and each file's bytes enter
    with their length, so no two trees share a digest by concatenation."""
    digest = hashlib.sha256()
    files = sorted((path.relative_to(root).as_posix(), path)
                   for path in (root / "src").rglob("*.py"))
    for name, path in files:
        for part in (name.encode(), path.read_bytes()):
            digest.update(b"%d:" % len(part))
            digest.update(part)
    return digest.hexdigest()


def declared(root: Path, trace: int = 0) -> dict[str, dict]:
    """name -> {"better", "bound"} of each end-to-end metric that
    `root`/BENCHMARK.json declares, or with `trace` name -> {"better"}
    of each per-layer metric; empty without that file."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return {}
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: {key: m[key] for key in ("better", "bound")
                        if key in m}
            for m in json.loads(path.read_text()).get(section, [])}


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict | None]:
    """One run's result object and `# env` record."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=3600)
    try:
        return parse_result(out.stdout), parse_env(out.stdout)
    except ValueError as exc:
        raise RuntimeError(f"no result from {checkout} (exit "
                           f"{out.returncode}):\n{out.stderr}") from exc


def problems(result: dict) -> list[str]:
    """Why a run does not count: not `correct`, or failed operations."""
    found = []
    if not result.get("correct"):
        found.append("correct: false")
    if result.get("failed"):
        found.append(f"{result['failed']} of {result.get('attempted')} "
                     "operations failed")
    return found


def run_line(pair: int, side: str, result: dict) -> str:
    metrics = " ".join(f"{name} {m['value']:.6g}"
                       for name, m in result["metrics"].items())
    flags = "; ".join(problems(result))
    return f"pair {pair:3d} {side:6s} {metrics}" + (f"  [{flags}]"
                                                     if flags else "")


STATS = ("min", "q1", "median", "q3", "max")


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None = None) -> dict:
    """How a metric moved, read in its `better` direction ("lower" or
    "higher") over pairs (parent[p], change[p]):

    * `change_better`: the pairs in which the change read better; a tie
      counts for neither side.
    * `gain_shown`: better in at least 9 of 10 pairs, and the median
      better by more than the parent's q3 - q1.
    * `within_bound`, given a `bound`: "yes" if the change's median is
      worse than the parent's by at most `bound`, a fraction of the
      parent's median (absolute where that median is 0), else "no";
      "unresolved" if the parent's q3 - q1, as the same fraction,
      exceeds `bound` and not every change run is better than every
      parent run.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower wins
    p, c = sign * np.asarray(parent), sign * np.asarray(change)
    q1, med, q3 = np.percentile(p, [25, 50, 75])
    spread = q3 - q1
    gap = med - np.median(c)  # > 0: the change is better
    wins = int(np.sum(c < p))
    entry = {"better": better, "bound": bound, "change_better": wins,
             "gain_shown": bool(10 * wins >= 9 * len(p) and gap > spread)}
    if bound is None:
        del entry["bound"]
        return entry
    scale = abs(med) or 1.0
    if spread / scale > bound and not c.max() < p.min():
        entry["within_bound"] = "unresolved"
    else:
        entry["within_bound"] = "yes" if -gap / scale <= bound else "no"
    return entry


def statistics(runs: dict[str, list[dict]],
               metrics: dict[str, dict] | None = None) -> dict:
    """Per metric: its unit, each side's min, quartiles, median and max
    over its runs, and in how many pairs the change read lower than the
    parent; for each metric in `metrics` (see `declared`) also its
    `verdict`."""
    stats = {}
    for name, first in runs["parent"][0]["metrics"].items():
        entry = {"unit": first["unit"]}
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        for side in SIDES:
            entry[side] = dict(zip(STATS, np.percentile(
                values[side], [0, 25, 50, 75, 100]).tolist()))
        entry["change_lower"] = sum(
            c < p for p, c in zip(values["parent"], values["change"]))
        entry["pairs"] = len(values["change"])
        if name in (metrics or {}):
            entry.update(verdict(values["parent"], values["change"],
                                 **metrics[name]))
        stats[name] = entry
    return stats


def verdict_line(name: str, entry: dict) -> str:
    """One metric's `verdict` as text."""
    line = (f"{name} verdict: change {entry['better']} in "
            f"{entry['change_better']} of {entry['pairs']} pairs, gain "
            f"{'shown' if entry['gain_shown'] else 'not shown'}")
    if "within_bound" in entry:
        line += f", within bound {entry['bound']:g}: {entry['within_bound']}"
    return line


def summary(runs: dict[str, list[dict]],
            metrics: dict[str, dict] | None = None) -> list[str]:
    """`statistics` as text, three lines per metric, then one verdict
    line per metric in `metrics`."""
    lines = []
    stats = statistics(runs, metrics)
    for name, entry in stats.items():
        for side in SIDES:
            lines.append(f"{name} [{entry['unit']}] {side}: " + " ".join(
                f"{stat} {entry[side][stat]:.6g}" for stat in STATS))
        lines.append(f"{name}: change lower in {entry['change_lower']} of "
                     f"{entry['pairs']} pairs")
    lines += [verdict_line(name, entry) for name, entry in stats.items()
              if "gain_shown" in entry]
    return lines


def bench_file(args, sources: dict[str, str], calibration: list[dict],
               records: list[dict], runs: dict[str, list[dict]],
               metrics: dict[str, dict] | None = None) -> dict:
    """What `--out` writes: the settings, the `host` record, each side's
    `source_digest`, each pair's `calibrate` medians (`pair` from 1, then
    `KERNELS`), every run in the order it ran (`pair` from 1, `side`,
    `seed`, `env`, `result`) and `statistics`, with the verdicts of
    `metrics`."""
    return {"workload": args.workload, "pairs": args.pairs,
            "seconds": args.seconds, "seed0": args.seed0,
            "trace": args.trace, "host": host(), "sources": sources,
            "calibration": calibration, "runs": records,
            "statistics": statistics(runs, metrics)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--seed0", type=int, default=0,
                   help="seed of the first pair; pair p uses seed0 + p")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: compare the per-layer metrics of traced runs")
    p.add_argument("--out", type=Path,
                   help="also write every run and the summary as JSON")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    if args.seed0 < 0:
        p.error("--seed0 must be >= 0")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            p.error(f"{side}: {root} has no perfbench/run.py")
    sources = {side: source_digest(root) for side, root in roots.items()}
    metrics = declared(roots["parent"], args.trace)
    for side in SIDES:
        print(f"sources {side} {sources[side]}", flush=True)

    runs = {side: [] for side in SIDES}
    records, calibration = [], []
    bad = 0
    for pair in range(args.pairs):
        calibration.append({"pair": pair + 1, **calibrate()})
        print(f"pair {pair + 1:3d} host   " + " ".join(
            f"{name} {calibration[-1][name]:.6g}" for name in KERNELS),
            flush=True)
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            seed = args.seed0 + pair
            result, env = run_once(roots[side], args.workload, seed,
                                   args.seconds, args.trace)
            runs[side].append(result)
            records.append({"pair": pair + 1, "side": side, "seed": seed,
                            "env": env, "result": result})
            bad += bool(problems(result))
            print(run_line(pair + 1, side, result), flush=True)
    print("\n".join(summary(runs, metrics)))
    if args.out:
        bench = bench_file(args, sources, calibration, records, runs,
                           metrics)
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
    if bad:
        print(f"{bad} run(s) not correct or with failed operations")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
