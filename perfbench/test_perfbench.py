"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that the output check flags corrupted estimates, and that the
harness fails without a result when the package is absent.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = dict(n=80, m=40, k=3, d=12)


def _run(workload: str, trace: int) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "5",
                           "--seconds", "0", "--trace", str(trace)])
    return run.run(args, replace(run.WORKLOADS[workload], **TINY))


def _expected(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, section):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        _expected(section)
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_end_to_end_metrics_are_never_zero():
    result = _run("protocol", 0)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def _tiny_bench(workload: str):
    bench = run.Bench(run.import_mpadmm(),
                      replace(run.WORKLOADS[workload], **TINY), seed=5)
    return bench, bench.generate()


def _nan_corner(X):
    X = X.copy()
    X[0, 0] = np.nan
    return X


def _full_rank(X):
    return X + 1e-3 * np.random.default_rng(0).standard_normal(X.shape)


@pytest.mark.parametrize("corrupt,reason", [
    (None, None), (_nan_corner, "non-finite"), (_full_rank, "fitted_rank"),
    (np.negative, "err_l2")])
def test_output_check_flags_corrupted_estimates(monkeypatch, corrupt, reason):
    bench, inst = _tiny_bench("protocol")
    if corrupt:
        solve = bench.mp.admm.solve

        def corrupted(*args, **kwargs):
            state, report = solve(*args, **kwargs)
            X = corrupt(state.x_hat())
            return SimpleNamespace(x_hat=lambda: X), report

        monkeypatch.setattr(bench.mp.admm, "solve", corrupted)
    out = bench.run("admm", inst)
    if reason is None:
        assert out.failure is None and not bench.integrity
    else:
        assert reason in out.failure
        assert len(bench.failures) == 1 and bench.integrity


def test_raising_method_is_a_counted_failure(monkeypatch):
    bench, inst = _tiny_bench("dense")

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(bench.mp.admm, "solve", broken)
    out = bench.run("admm", inst)
    assert "injected" in out.failure
    assert bench.attempted == 1 and len(bench.failures) == 1
    assert bench.integrity  # the solver under test failing is not correct


def test_fails_without_result_when_package_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                             "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable] + cmd[1:], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
