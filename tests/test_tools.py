import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load("perfbench_ab")
HOST = {"gemm_s": 0.04, "eigh_s": 0.003, "spmv_s": 0.005}


@pytest.fixture(autouse=True)
def canned_calibration(monkeypatch):
    """`calibrate` returns HOST instead of starting a process; the real
    one stays at `ab.real_calibrate`."""
    monkeypatch.setattr(ab, "real_calibrate", ab.calibrate, raising=False)
    monkeypatch.setattr(ab, "calibrate", lambda: dict(HOST))


def _line(setup, solve, correct=True, failed=0):
    """A canned last line of perfbench/run.py --trace 0."""
    metrics = {"setup_s": {"value": setup, "unit": "s"},
               "admm_solve_s": {"value": solve, "unit": "s"}}
    return json.dumps({"correct": correct, "attempted": 4, "failed": failed,
                       "metrics": metrics})


def test_parse_result_reads_the_last_line():
    stdout = "# report\nsetup_s 0.1 s 4\n" + _line(0.1, 0.5) + "\n"
    assert ab.parse_result(stdout)["metrics"]["setup_s"]["value"] == 0.1
    with pytest.raises(ValueError):
        ab.parse_result("\n")


def test_summary_of_canned_runs():
    runs = {"parent": [ab.parse_result(_line(s, v)) for s, v in
                       ((0.20, 0.50), (0.18, 0.40), (0.19, 0.60))],
            "change": [ab.parse_result(_line(s, v)) for s, v in
                       ((0.12, 0.55), (0.13, 0.40), (0.20, 0.50))]}
    assert ab.summary(runs) == [
        "setup_s [s] parent: min 0.18 q1 0.185 median 0.19 q3 0.195 max 0.2",
        "setup_s [s] change: min 0.12 q1 0.125 median 0.13 q3 0.165 max 0.2",
        "setup_s: change lower in 2 of 3 pairs",
        "admm_solve_s [s] parent: min 0.4 q1 0.45 median 0.5 q3 0.55 max 0.6",
        "admm_solve_s [s] change: min 0.4 q1 0.45 median 0.5 q3 0.525 "
        "max 0.55",
        "admm_solve_s: change lower in 1 of 3 pairs",
    ]


@pytest.mark.parametrize("correct,failed,flags", [
    (True, 0, []),
    (False, 0, ["correct: false"]),
    (True, 2, ["2 of 4 operations failed"]),
    (False, 1, ["correct: false", "1 of 4 operations failed"])])
def test_problems_flag_incorrect_and_failed_runs(correct, failed, flags):
    result = ab.parse_result(_line(0.1, 0.5, correct, failed))
    assert ab.problems(result) == flags
    line = ab.run_line(3, "change", result)
    assert line.startswith("pair   3 change setup_s 0.1 admm_solve_s 0.5")
    assert line.endswith(f"  [{'; '.join(flags)}]" if flags else "0.5")


@pytest.mark.parametrize("bad,code", [(False, 0), (True, 1)])
def test_main_alternates_sides_and_exits_1_on_a_bad_run(
        tmp_path, monkeypatch, capsys, bad, code):
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        (roots[side] / "perfbench").mkdir(parents=True)
        (roots[side] / "perfbench" / "run.py").write_text("")
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, workload, seed, seconds, trace))
        broken = bad and len(calls) == 4
        return ab.parse_result(_line(0.1, 0.5, correct=not broken)), None

    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main([str(roots["parent"]), str(roots["change"]),
                    "--workload", "dense", "--pairs", "2", "--seconds", "3",
                    "--seed0", "40"]) == code
    assert calls == [("parent", "dense", 40, 3.0, 0),
                     ("change", "dense", 40, 3.0, 0),
                     ("change", "dense", 41, 3.0, 0),
                     ("parent", "dense", 41, 3.0, 0)]
    out = capsys.readouterr().out
    assert "setup_s: change lower in 0 of 2 pairs" in out
    assert ("not correct" in out) == bad


def test_out_writes_every_run_and_the_statistics(tmp_path, monkeypatch,
                                                 capsys):
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        (roots[side] / "perfbench").mkdir(parents=True)
        (roots[side] / "perfbench" / "run.py").write_text("")
    setups = iter([0.20, 0.12, 0.13, 0.18])  # parent, change, change, parent

    def run(cmd, cwd, **kwargs):
        """Canned stdout of perfbench/run.py --trace 0."""
        env = {"cpu_count": 2, "blas": "scipy-openblas", "commit": cwd.name}
        stdout = ("# mpadmm benchmark: workload=protocol\n"
                  f"# env {json.dumps(env)}\n"
                  "setup_s 0.1 s 4\n" + _line(next(setups), 0.5) + "\n")
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(ab.subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert ab.main([str(roots["parent"]), str(roots["change"]),
                    "--workload", "protocol", "--pairs", "2",
                    "--seconds", "3", "--seed0", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    bench = json.loads(out.read_text())
    assert list(bench) == ["workload", "pairs", "seconds", "seed0",
                           "trace", "host", "sources", "calibration",
                           "runs", "statistics"]
    assert bench["host"] == ab.host()
    assert bench["calibration"] == [{"pair": 1, **HOST}, {"pair": 2, **HOST}]
    assert (bench["workload"], bench["pairs"], bench["seconds"],
            bench["seed0"], bench["trace"]) == ("protocol", 2, 3.0, 7, 0)
    assert bench["sources"] == {side: ab.source_digest(root)
                                for side, root in roots.items()}
    assert [(r["pair"], r["side"], r["seed"], r["env"]["commit"])
            for r in bench["runs"]] == [(1, "parent", 7, "parent"),
                                        (1, "change", 7, "change"),
                                        (2, "change", 8, "change"),
                                        (2, "parent", 8, "parent")]
    for record in bench["runs"]:
        assert list(record) == ["pair", "side", "seed", "env", "result"]
        assert list(record["env"]) == ["cpu_count", "blas", "commit"]
        assert list(record["result"]) == ["correct", "attempted", "failed",
                                          "metrics"]
    assert [r["result"]["metrics"]["setup_s"]["value"]
            for r in bench["runs"]] == [0.20, 0.12, 0.13, 0.18]
    setup = bench["statistics"]["setup_s"]
    assert list(bench["statistics"]) == ["setup_s", "admm_solve_s"]
    assert list(setup) == ["unit", "parent", "change", "change_lower",
                           "pairs"]
    assert setup["unit"] == "s"
    assert setup["parent"] == pytest.approx(
        {"min": 0.18, "q1": 0.185, "median": 0.19, "q3": 0.195, "max": 0.2})
    assert setup["change"] == pytest.approx(
        {"min": 0.12, "q1": 0.1225, "median": 0.125, "q3": 0.1275,
         "max": 0.13})
    assert (setup["change_lower"], setup["pairs"]) == (2, 2)


def test_host_names_the_cores_and_the_blas_of_numpy_and_scipy():
    import numpy as np
    import scipy
    record = ab.host()
    assert list(record) == ["cpu_count", "affinity", "numpy_blas",
                            "scipy_blas"]
    assert record["cpu_count"] == os.cpu_count()
    if hasattr(os, "sched_getaffinity"):
        assert 1 <= record["affinity"] == len(os.sched_getaffinity(0))
    for pkg in (np, scipy):
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert record[f"{pkg.__name__}_blas"] == {
            "name": blas.get("name"), "version": blas.get("version")}
    json.dumps(record)


def test_calibration_precedes_each_pair(tmp_path, monkeypatch, capsys):
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        (roots[side] / "perfbench").mkdir(parents=True)
        (roots[side] / "perfbench" / "run.py").write_text("")
    events = []

    def calibrate():
        events.append("host")
        return {"gemm_s": 0.05 + 0.01 * len(events), "eigh_s": 0.003,
                "spmv_s": 0.005}

    def run_once(checkout, workload, seed, seconds, trace):
        events.append(checkout.name)
        return ab.parse_result(_line(0.1, 0.5)), None

    monkeypatch.setattr(ab, "calibrate", calibrate)
    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main([str(roots["parent"]), str(roots["change"]),
                    "--workload", "protocol", "--pairs", "2"]) == 0
    assert events == ["host", "parent", "change", "host", "change",
                      "parent"]
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if " host " in line] == [
        "pair   1 host   gemm_s 0.06 eigh_s 0.003 spmv_s 0.005",
        "pair   2 host   gemm_s 0.09 eigh_s 0.003 spmv_s 0.005"]


def test_calibrate_runs_one_thread_in_a_fresh_process(monkeypatch):
    seen = {}

    def run(cmd, env, **kwargs):
        seen.update(cmd=cmd, env=env)
        return subprocess.CompletedProcess(
            cmd, 0, "# note\n" + json.dumps(HOST) + "\n", "")

    monkeypatch.setattr(ab.subprocess, "run", run)
    assert ab.real_calibrate() == HOST
    assert seen["cmd"][:2] == [ab.sys.executable, "-c"]
    assert Path(seen["cmd"][3]) == TOOLS
    assert (seen["env"]["OPENBLAS_NUM_THREADS"],
            seen["env"]["OMP_NUM_THREADS"]) == ("1", "1")
    monkeypatch.setattr(ab.subprocess, "run", lambda cmd, **kwargs: (
        subprocess.CompletedProcess(cmd, 1, "", "boom")))
    with pytest.raises(RuntimeError, match="boom"):
        ab.real_calibrate()


def test_kernel_times_are_medians_of_the_fixed_kernels():
    times = ab.kernel_times(repeats=1)
    assert list(times) == list(ab.KERNELS)
    assert all(0.0 < value < 10.0 for value in times.values())


def test_parse_env_reads_the_env_line():
    assert ab.parse_env("# mpadmm\n# env {\"cpu_count\": 2}\nx\n") == {
        "cpu_count": 2}
    assert ab.parse_env(_line(0.1, 0.5)) is None


def test_source_digest_tells_trees_apart(tmp_path):
    # the digest covers src/**/*.py by relative path and bytes only
    roots = [tmp_path / "a", tmp_path / "b"]
    for root in roots:
        (root / "src" / "pkg" / "sub").mkdir(parents=True)
        (root / "src" / "pkg" / "__init__.py").write_text("x = 1\n")
        (root / "src" / "pkg" / "sub" / "mod.py").write_text("y = 2\n")
    (roots[1] / "src" / "notes.txt").write_text("not source")
    (roots[1] / "perfbench").mkdir()
    (roots[1] / "perfbench" / "run.py").write_text("z = 3\n")
    a, b = (ab.source_digest(root) for root in roots)
    assert a == b and len(a) == 64
    (roots[1] / "src" / "pkg" / "sub" / "mod.py").write_text("y = 3\n")
    assert ab.source_digest(roots[1]) != a
    # the same bytes under another name are another tree
    (roots[1] / "src" / "pkg" / "sub" / "mod.py").rename(
        roots[1] / "src" / "pkg" / "sub" / "mod2.py")
    (roots[1] / "src" / "pkg" / "sub" / "mod2.py").write_text("y = 2\n")
    assert ab.source_digest(roots[1]) != a


def _runs(columns):
    """Canned runs per side from {metric: (parent values, change
    values)}, one run per pair."""
    return {side: [{"metrics": {name: {"value": values[i][pair],
                                       "unit": "s"}
                                for name, values in columns.items()}}
                   for pair in range(len(next(iter(columns.values()))[0]))]
            for i, side in enumerate(ab.SIDES)}


def test_verdict_reads_each_metric_in_its_direction():
    parent = [0.100 + 0.001 * p for p in range(10)]
    # lower is better: the change wins every pair by far more than the
    # parent's q3 - q1 (0.0045)
    assert ab.verdict(parent, [v - 0.02 for v in parent], "lower",
                      0.25) == {"better": "lower", "bound": 0.25,
                                "change_better": 10, "gain_shown": True,
                                "within_bound": "yes"}
    # the same numbers read as higher-is-better: every pair worse, the
    # median 19% below the parent's
    v = ab.verdict(parent, [x - 0.02 for x in parent], "higher", 0.25)
    assert (v["change_better"], v["gain_shown"], v["within_bound"]) == (
        0, False, "yes")
    v = ab.verdict(parent, [x - 0.02 for x in parent], "higher", 0.1)
    assert v["within_bound"] == "no"
    # admm_r2: equal to every digit, so every pair ties; then one pair
    # higher and one tie short of 9 in 10
    r2 = [0.99993 + 1e-6 * p for p in range(10)]
    assert ab.verdict(r2, r2, "higher", 0.01) == {
        "better": "higher", "bound": 0.01, "change_better": 0,
        "gain_shown": False, "within_bound": "yes"}
    up = [x + 1e-5 for x in r2]
    assert ab.verdict(r2, up[:9] + r2[9:], "higher", 0.01)[
        "gain_shown"] is True
    v = ab.verdict(r2, up[:8] + r2[8:], "higher", 0.01)
    assert (v["change_better"], v["gain_shown"]) == (8, False)
    # a gain in 10 of 10 pairs inside the parent's spread is not shown
    wide = [0.10, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17, 0.18, 0.19]
    v = ab.verdict(wide, [x - 0.001 for x in wide], "lower", 0.25)
    assert (v["change_better"], v["gain_shown"]) == (10, False)


def test_verdict_unresolved_where_the_parent_spreads_past_the_bound():
    # parent q3 - q1 = 0.55 s at a 0.8 s median, past a 0.24 bound
    parent = [0.4, 0.5, 0.5, 0.6, 0.7, 0.9, 1.0, 1.1, 1.2, 3.4]
    assert ab.verdict(parent, [0.5] * 10, "lower", 0.24)[
        "within_bound"] == "unresolved"
    # unless every change run beats every parent run
    assert ab.verdict(parent, [0.3] * 10, "lower", 0.24)[
        "within_bound"] == "yes"
    # a parent median of 0 makes the bound absolute
    assert ab.verdict([0.0] * 4, [0.1] * 4, "lower", 0.2)[
        "within_bound"] == "yes"
    assert ab.verdict([0.0] * 4, [0.3] * 4, "lower", 0.2)[
        "within_bound"] == "no"


def test_main_prints_and_writes_the_declared_verdicts(tmp_path, monkeypatch,
                                                      capsys):
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        (roots[side] / "perfbench").mkdir(parents=True)
        (roots[side] / "perfbench" / "run.py").write_text("")
    # only the parent's declarations count; metrics it does not declare
    # get no verdict
    (roots["parent"] / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower",
             "bound": 0.25},
            {"name": "admm_r2", "unit": "ratio", "better": "higher",
             "bound": 0.01}]}))
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "admm_solve_s", "unit": "s",
                         "better": "lower", "bound": 0.01}]}))
    columns = {"setup_s": ([0.20, 0.18, 0.19], [0.12, 0.13, 0.11]),
               "admm_solve_s": ([0.5, 0.4, 0.6], [0.5, 0.4, 0.6]),
               "admm_r2": ([0.9] * 3, [0.9] * 3)}
    runs = _runs(columns)
    results = iter([runs["parent"][0], runs["change"][0],
                    runs["change"][1], runs["parent"][1],
                    runs["parent"][2], runs["change"][2]])

    def run_once(checkout, workload, seed, seconds, trace):
        return dict(next(results), correct=True, failed=0), None

    monkeypatch.setattr(ab, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert ab.main([str(roots["parent"]), str(roots["change"]),
                    "--workload", "dense", "--pairs", "3",
                    "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "verdict" in line] == [
        "setup_s verdict: change lower in 3 of 3 pairs, gain shown, "
        "within bound 0.25: yes",
        "admm_r2 verdict: change higher in 0 of 3 pairs, gain not shown, "
        "within bound 0.01: yes"]
    stats = json.loads(out.read_text())["statistics"]
    assert list(stats["setup_s"]) == [
        "unit", "parent", "change", "change_lower", "pairs", "better",
        "bound", "change_better", "gain_shown", "within_bound"]
    assert (stats["setup_s"]["change_better"], stats["setup_s"]["gain_shown"],
            stats["setup_s"]["within_bound"]) == (3, True, "yes")
    assert (stats["admm_r2"]["change_lower"],
            stats["admm_r2"]["change_better"]) == (0, 0)
    assert "change_better" not in stats["admm_solve_s"]


def test_declared_reads_the_end_to_end_metrics(tmp_path):
    assert ab.declared(tmp_path) == {}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "admm_r2", "unit": "ratio",
                         "better": "higher", "bound": 0.01}],
         "per_layer": [{"name": "rng.draws", "unit": "count",
                        "better": "lower"}]}))
    assert ab.declared(tmp_path) == {
        "admm_r2": {"better": "higher", "bound": 0.01}}
    assert ab.declared(tmp_path, trace=1) == {
        "rng.draws": {"better": "lower"}}
    root = Path(__file__).resolve().parents[1]
    assert set(ab.declared(root)) == {"setup_s", "admm_solve_s",
                                      "admm_peak_mb", "admm_err_l2",
                                      "admm_r2"}


def test_trace_reads_the_per_layer_directions(tmp_path, monkeypatch,
                                              capsys):
    # traced runs are judged per layer in the parent's `better`
    # direction, with no bound: one lower-is-better metric the change
    # wins, one higher-is-better metric it loses, and a tie
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        (roots[side] / "perfbench").mkdir(parents=True)
        (roots[side] / "perfbench" / "run.py").write_text("")
    (roots["parent"] / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower",
                         "bound": 0.25}],
         "per_layer": [
             {"name": "admm.update_P_s", "unit": "s", "better": "lower"},
             {"name": "rng.draws_per_s", "unit": "1/s", "better": "higher"},
             {"name": "rng.draws", "unit": "count", "better": "lower"}]}))
    columns = {"admm.update_P_s": ([0.020, 0.021, 0.019],
                                   [0.018, 0.019, 0.017]),
               "rng.draws_per_s": ([2.0e7, 2.1e7, 1.9e7],
                                   [1.8e7, 2.2e7, 1.7e7]),
               "rng.draws": ([1.09e6] * 3, [1.09e6] * 3)}
    runs = _runs(columns)
    results = iter([runs["parent"][0], runs["change"][0],
                    runs["change"][1], runs["parent"][1],
                    runs["parent"][2], runs["change"][2]])
    traces = []

    def run_once(checkout, workload, seed, seconds, trace):
        traces.append(trace)
        return dict(next(results), correct=True, failed=0), None

    monkeypatch.setattr(ab, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert ab.main([str(roots["parent"]), str(roots["change"]),
                    "--workload", "dense", "--pairs", "3", "--trace", "1",
                    "--out", str(out)]) == 0
    assert traces == [1] * 6
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "verdict" in line] == [
        "admm.update_P_s verdict: change lower in 3 of 3 pairs, gain shown",
        "rng.draws_per_s verdict: change higher in 1 of 3 pairs, gain not "
        "shown",
        "rng.draws verdict: change lower in 0 of 3 pairs, gain not shown"]
    bench = json.loads(out.read_text())
    assert bench["trace"] == 1
    stats = bench["statistics"]
    assert list(stats["admm.update_P_s"]) == [
        "unit", "parent", "change", "change_lower", "pairs", "better",
        "change_better", "gain_shown"]
    assert stats["admm.update_P_s"]["parent"]["q1"] == pytest.approx(0.0195)
    assert [(stats[name]["change_lower"], stats[name]["change_better"])
            for name in columns] == [(3, 3), (2, 1), (0, 0)]


c10 = _load("criterion10_ab")


def _scoreboard(ok, ratio):
    """The line tests/test_acceptance.py's `_report` prints for criterion
    10, from `_report` itself so that the two cannot drift apart."""
    spec = importlib.util.spec_from_file_location(
        "acceptance_scoreboard", TOOLS.parent / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        module._report(10, ok, f"per-iteration time ratio {ratio:.2f}; "
                               "n=2000 1.00 ms (U 0.30 V 0.20 P 0.40 Z 0.10)")
    except AssertionError:
        assert not ok


@pytest.mark.parametrize("ok,ratio", [(True, 1.61), (False, 2.93)])
def test_criterion10_run_once_reads_the_scoreboard(tmp_path, monkeypatch,
                                                   capsys, ok, ratio):
    _scoreboard(ok, ratio)
    line = capsys.readouterr().out
    seen = []

    def run(cmd, cwd, env, **kwargs):
        seen.append((cmd[-1], cwd, env["PYTHONPATH"]))
        return subprocess.CompletedProcess(cmd, 0, f"..\n{line}\n1 passed",
                                           "")

    monkeypatch.setattr(c10.subprocess, "run", run)
    assert c10.run_once(tmp_path) == (ok, ratio)
    assert seen == [(c10.TEST, tmp_path, str(tmp_path / "src"))]
    monkeypatch.setattr(c10.subprocess, "run", lambda cmd, **kwargs: (
        subprocess.CompletedProcess(cmd, 4, "", "ERROR: not found")))
    with pytest.raises(RuntimeError, match="no criterion 10 line"):
        c10.run_once(tmp_path)


def _c10_roots(tmp_path, sides=("parent", "change")):
    roots = {}
    for side in sides:
        roots[side] = tmp_path / side
        (roots[side] / "tests").mkdir(parents=True)
        (roots[side] / "tests" / "test_acceptance.py").write_text("")
    return roots


def test_criterion10_alternates_sides_and_summarizes_each(
        tmp_path, monkeypatch, capsys):
    roots = _c10_roots(tmp_path)
    runs = iter([(True, 1.60), (True, 1.70), (False, 2.90), (True, 1.65),
                 (True, 1.50), (True, 1.62)])
    calls = []

    def run_once(checkout):
        calls.append(checkout.name)
        return next(runs)

    monkeypatch.setattr(c10, "run_once", run_once)
    assert c10.main([str(roots["parent"]), str(roots["change"]),
                     "--pairs", "3"]) == 0
    assert calls == ["parent", "change", "change", "parent", "parent",
                     "change"]
    assert capsys.readouterr().out.splitlines() == [
        "pair   1 parent PASS 1.60",
        "pair   1 change PASS 1.70",
        "pair   2 change FAIL 2.90",
        "pair   2 parent PASS 1.65",
        "pair   3 parent PASS 1.50",
        "pair   3 change PASS 1.62",
        "parent: 3 runs, 0 failed, ratio min 1.50 median 1.60 max 1.65",
        "change: 3 runs, 1 failed, ratio min 1.62 median 1.70 max 2.90"]


@pytest.mark.parametrize("case", ["no pairs", "no test file"])
def test_criterion10_argument_errors(tmp_path, monkeypatch, capsys, case):
    roots = _c10_roots(tmp_path, ("parent",) if case == "no test file"
                       else ("parent", "change"))
    (tmp_path / "change").mkdir(exist_ok=True)
    monkeypatch.setattr(c10, "run_once", lambda checkout: pytest.fail(
        "a run was started"))
    with pytest.raises(SystemExit) as exc:
        c10.main([str(roots["parent"]), str(tmp_path / "change"),
                  "--pairs", "0" if case == "no pairs" else "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 2  # argparse's usage line and the error
    if case == "no pairs":
        assert err.endswith("error: --pairs must be >= 1\n")
    else:
        assert err.endswith(f"error: change: {tmp_path / 'change'} has no "
                            "tests/test_acceptance.py\n")
