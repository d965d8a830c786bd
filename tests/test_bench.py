import csv
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import mpadmm
from mpadmm import baselines, bench
from mpadmm.bench import (CSV_COLUMNS, SweepConfig, TrialRow, run_sweep,
                          run_trial, trial_seed)
from mpadmm.data import Hyperparams, generate_synthetic
from mpadmm.exceptions import ParameterError
from mpadmm.objective import evaluate


def _tiny_config(**overrides):
    kwargs = dict(
        varying_parameter="n",
        values=[12, 16],
        fixed={"n": 12, "m": 8, "k": 2, "d": 2},
        trials=2,
        methods=["admm", "soft_impute"],
        hyper=Hyperparams(k=2, max_iters=5),
        miss_frac=0.3,
        sigma=0.5,
        base_seed=7,
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestConfigAndSeeds:
    def test_seed_formula(self):
        assert trial_seed(3, 2, 5) == 3_002_005
        assert trial_seed(0, 0, 0) == 0

    @pytest.mark.parametrize("overrides", [
        dict(varying_parameter="sigma"),
        dict(values=[]),
        dict(values=[0]),
        dict(trials=0),
        dict(methods=["nope"]),
        dict(methods=[]),
        dict(fixed={"n": 12, "m": 8, "k": 2}),
        dict(base_seed=-1),
        dict(trials=1001),  # trial_seed(0, 0, 1000) == trial_seed(0, 1, 0)
        dict(values=list(range(1, 1002))),
    ])
    def test_validation(self, overrides):
        with pytest.raises(ParameterError):
            _tiny_config(**overrides)


class TestTrialRow:
    def test_single_row_has_all_columns(self, tmp_path):
        data, side, truth = generate_synthetic(12, 8, 2, 2, 0.3, 0.5, seed=1)
        hp = Hyperparams(k=2, max_iters=5, seed=1)
        row = run_trial("admm", data, side, truth, hp, 1.0, True)
        rendered = row.as_csv()
        assert len(rendered) == len(CSV_COLUMNS) == 19
        assert rendered[0] == "admm"
        assert all(cell != "" for cell in rendered)

    def test_baseline_rows_leave_subproblem_timers_empty(self):
        data, side, truth = generate_synthetic(12, 8, 2, 2, 0.3, 0.5, seed=2)
        hp = Hyperparams(k=2, seed=2)
        row = run_trial("soft_impute", data, side, truth, hp, 1.0, True)
        rendered = dict(zip(CSV_COLUMNS, row.as_csv()))
        assert rendered["time_ms"] != ""
        for col in ("t_U_ms", "t_V_ms", "t_P_ms", "t_Z_ms",
                    "phi_res", "psi_res", "dual_res"):
            assert rendered[col] == ""

    def test_error_marker_rendering(self):
        row = TrialRow(method="admm", n=5, m=4, k=2, d=1, seed=0, error=True)
        rendered = dict(zip(CSV_COLUMNS, row.as_csv()))
        assert rendered["objective"] == "error"
        assert rendered["err_l2"] == ""

    def test_objective_audit_against_reevaluation(self):
        data, side, truth = generate_synthetic(14, 9, 2, 2, 0.4, 0.5, seed=3)
        hp = Hyperparams(k=2, max_iters=5, seed=3)
        res = baselines.soft_impute(data, 1.0, k_cap=2)
        row = run_trial("soft_impute", data, side, truth, hp, 1.0, False)
        metrics = evaluate(res.X_hat, data, side.Y, truth.A_true,
                           hp.lam, hp.gamma)
        assert row.objective == pytest.approx(metrics.objective.total,
                                              rel=1e-12)
        assert row.err_l2 == pytest.approx(metrics.err_l2, rel=1e-12)
        assert row.fitted_rank == metrics.fitted_rank


class TestRunBaseline:
    @pytest.mark.parametrize("method,call", [
        ("iterative_svd", lambda pm, Y: baselines.iterative_svd(pm, 2)),
        ("soft_impute", lambda pm, Y: baselines.soft_impute(pm, 0.7,
                                                            k_cap=2)),
        ("scaled_gd", lambda pm, Y: baselines.scaled_gd(pm, Y, 0.4, 1.3, 2)),
    ])
    def test_is_the_direct_call(self, method, call):
        data, side, _ = generate_synthetic(14, 9, 2, 2, 0.4, 0.5, seed=4)
        got = bench.run_baseline(method, data, side.Y, 2, 0.4, 1.3, 0.7)
        want = call(data, side.Y)
        assert np.array_equal(got.X_hat, want.X_hat)
        assert got.iterations == want.iterations

    def test_unknown_method(self):
        data, side, _ = generate_synthetic(14, 9, 2, 2, 0.4, 0.5, seed=4)
        with pytest.raises(ParameterError):
            bench.run_baseline("admm", data, side.Y, 2, 1.0, 1.0, 1.0)


class TestRunSweep:
    def test_csv_shape_and_header(self, tmp_path):
        cfg = _tiny_config()
        out = tmp_path / "sweep.csv"
        run_sweep(cfg, out)
        rows = _read_csv(out)
        assert rows[0] == CSV_COLUMNS
        # values x trials x methods data rows
        assert len(rows) == 1 + 2 * 2 * 2
        methods = {r[0] for r in rows[1:]}
        assert methods == {"admm", "soft_impute"}

    def test_byte_identical_determinism_without_timings(self, tmp_path):
        cfg = _tiny_config(record_timings=False)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(cfg, a)
        run_sweep(cfg, b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.summary.csv").read_bytes() == \
            (tmp_path / "b.csv.summary.csv").read_bytes()

    def test_summary_means_recompute(self, tmp_path):
        cfg = _tiny_config(record_timings=False)
        out = tmp_path / "sweep.csv"
        summary = run_sweep(cfg, out)
        rows = _read_csv(out)[1:]
        idx_err = CSV_COLUMNS.index("err_l2")
        for entry in summary:
            picked = [float(r[idx_err]) for r in rows
                      if r[0] == entry["method"]
                      and int(r[CSV_COLUMNS.index("n")]) == entry["value"]]
            assert entry["trials"] == len(picked) == cfg.trials
            assert entry["err_l2"] == pytest.approx(np.mean(picked),
                                                    rel=1e-9)

    def test_admm_rows_read_the_last_record(self, tmp_path, monkeypatch):
        # iters, phi_res, psi_res and dual_res of each ADMM row are the
        # solve's record count and last record, also when the tolerance
        # ends a solve before the cap
        reports = []
        solve = bench.admm.solve

        def spy(*args, **kwargs):
            state, report = solve(*args, **kwargs)
            reports.append(report)
            return state, report

        monkeypatch.setattr(bench.admm, "solve", spy)
        cfg = _tiny_config(methods=["admm"], record_timings=False,
                           hyper=Hyperparams(k=2, eps=1e-4, max_iters=500))
        out = tmp_path / "sweep.csv"
        run_sweep(cfg, out)
        rows = [dict(zip(CSV_COLUMNS, r)) for r in _read_csv(out)[1:]]
        assert len(rows) == len(reports) == 4
        assert any(r.iterations < 500 for r in reports)
        for row, report in zip(rows, reports):
            last = report.trace[-1]
            assert ([row[col] for col in ("iters", "phi_res", "psi_res",
                                          "dual_res")]
                    == [bench._cell(v) for v in (
                        report.iterations, last.phi_res, last.psi_res,
                        last.dual_res)])
            assert row["dual_res"] != ""

    def test_method_failure_recorded_and_sweep_continues(self, tmp_path,
                                                         monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(bench.baselines, "soft_impute", boom)
        cfg = _tiny_config()
        out = tmp_path / "sweep.csv"
        summary = run_sweep(cfg, out)
        rows = _read_csv(out)[1:]
        idx_obj = CSV_COLUMNS.index("objective")
        si_rows = [r for r in rows if r[0] == "soft_impute"]
        assert si_rows and all(r[idx_obj] == "error" for r in si_rows)
        admm_rows = [r for r in rows if r[0] == "admm"]
        assert admm_rows and all(r[idx_obj] != "error" for r in admm_rows)
        si_summary = [s for s in summary if s["method"] == "soft_impute"]
        assert all(s["trials"] == 0 for s in si_summary)

    def test_non_finite_baseline_estimate_recorded_as_error(self, tmp_path):
        # in a child with a timeout, since evaluating an estimate with an
        # infinite entry may never return: the sweep must finish and write
        # an error row for the method whose estimate overflowed
        out = tmp_path / "sweep.csv"
        code = textwrap.dedent(f"""
            import numpy as np
            from mpadmm import bench
            from mpadmm.baselines import BaselineResult
            from mpadmm.data import Hyperparams

            def overflow(method, data, *args):
                X = np.ones((data.n, data.m))
                X[0, 0] = np.inf
                return BaselineResult(X_hat=X, iterations=1, wall_time=0.0,
                                      termination="max_iters")

            bench.run_baseline = overflow
            cfg = bench.SweepConfig(
                varying_parameter="n", values=[14], trials=1,
                fixed={{"n": 14, "m": 10, "k": 2, "d": 2}},
                methods=["admm", "soft_impute"],
                hyper=Hyperparams(k=2, max_iters=5), miss_frac=0.3,
                sigma=0.2, base_seed=1)
            bench.run_sweep(cfg, {str(out)!r})
        """)
        src = str(Path(mpadmm.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        rows = {r[0]: r for r in _read_csv(out)[1:]}
        idx_obj = CSV_COLUMNS.index("objective")
        assert rows["soft_impute"][idx_obj] == "error"
        assert rows["admm"][idx_obj] != "error"

    def test_timer_containment(self, tmp_path):
        cfg = _tiny_config(methods=["admm"], values=[16], trials=1)
        out = tmp_path / "sweep.csv"
        run_sweep(cfg, out)
        row = dict(zip(CSV_COLUMNS, _read_csv(out)[1]))
        parts = sum(float(row[c]) for c in ("t_U_ms", "t_V_ms",
                                            "t_P_ms", "t_Z_ms"))
        assert 0.0 <= parts <= float(row["time_ms"])
