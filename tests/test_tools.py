import importlib.util
import json
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

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        broken = bad and len(calls) == 4
        return ab.parse_result(_line(0.1, 0.5, correct=not broken)), None

    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main([str(roots["parent"]), str(roots["change"]),
                    "--workload", "dense", "--pairs", "2", "--seconds", "3",
                    "--seed0", "40"]) == code
    assert calls == [("parent", "dense", 40, 3.0),
                     ("change", "dense", 40, 3.0),
                     ("change", "dense", 41, 3.0),
                     ("parent", "dense", 41, 3.0)]
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
                           "sources", "runs", "statistics"]
    assert (bench["workload"], bench["pairs"], bench["seconds"],
            bench["seed0"]) == ("protocol", 2, 3.0, 7)
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
