import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mpadmm
from mpadmm import cli
from mpadmm.bench import SweepConfig
from mpadmm.cli import (DEFAULT_THREADS, _build_parser, main,
                        parse_sweep_config)
from mpadmm import objective
from mpadmm.data import (Hyperparams, PartialMatrix, generate_synthetic,
                         load_dense_csv, load_partial, load_side_info,
                         save_dense_csv, save_partial)
from mpadmm.exceptions import NumericalError, ParameterError
from mpadmm.linalg import _openblas_threads_api


def _gen(tmp_path, n=14, m=10, k=2, d=2, miss=0.3, sigma=0.2, seed=1):
    out = tmp_path / "inst"
    rc = main(["gen", "--n", str(n), "--m", str(m), "--rank", str(k),
               "--d", str(d), "--miss-frac", str(miss), "--sigma",
               str(sigma), "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    return out


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def _save_bad_truth(inst, path, kind):
    """Write a truth of `kind` for the instance `inst` to `path`: "2x2"
    (wrong shape), "zero" (all zero) or "nan" (one entry NaN)."""
    A = load_dense_csv(inst / "truth.csv")
    if kind == "2x2":
        A = np.ones((2, 2))
    elif kind == "zero":
        A = np.zeros_like(A)
    else:
        A[3, 4] = np.nan
    save_dense_csv(A, path)


class TestGen:
    def test_writes_three_files(self, tmp_path):
        out = _gen(tmp_path)
        data = load_partial(out / "partial.txt")
        Y = load_dense_csv(out / "side_info.csv")
        A = load_dense_csv(out / "truth.csv")
        assert (data.n, data.m) == (14, 10)
        assert Y.shape == (14, 2)
        assert A.shape == (14, 10)
        assert np.max(np.abs(A[data.rows, data.cols] - data.values)) == 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        a = _gen(tmp_path / "a")
        b = _gen(tmp_path / "b")
        for name in ("partial.txt", "side_info.csv", "truth.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_non_finite_sigma(self, tmp_path, capsys):
        out = tmp_path / "inst"
        rc = main(["gen", "--n", "14", "--m", "10", "--rank", "2", "--d",
                   "2", "--sigma", "nan", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (out / "side_info.csv").exists()

    @pytest.mark.parametrize("flag,value", [("--rank", "0"), ("--rank", "-2"),
                                            ("--d", "0"), ("--d", "-1")])
    def test_rank_and_side_width_at_least_one(self, tmp_path, capsys, flag,
                                              value):
        args = {"--n": "14", "--m": "10", "--rank": "2", "--d": "2",
                flag: value}
        out = tmp_path / "inst"
        rc = main(["gen", *(x for item in args.items() for x in item),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


class TestSolve:
    def test_admm_outputs_and_report(self, tmp_path):
        inst = _gen(tmp_path)
        out = tmp_path / "sol"
        rc = main(["solve", "--method", "admm", "--data",
                   str(inst / "partial.txt"), "--side-info",
                   str(inst / "side_info.csv"), "--truth",
                   str(inst / "truth.csv"), "--rank", "2", "--max-iter", "5",
                   "--out", str(out)])
        assert rc == 0
        U = load_dense_csv(out / "U.csv")
        V = load_dense_csv(out / "V.csv")
        assert U.shape == (14, 2) and V.shape == (10, 2)
        report = _read_csv(out / "report.csv")
        assert report[0] == ["iter", "phi_res", "psi_res", "dual_res",
                             "objective", "termination"]
        assert len(report) == 1 + 5
        assert report[1][0] == "1" and report[-1][5] in ("max_iters",
                                                         "tolerance_met")
        metrics = dict(zip(*_read_csv(out / "metrics.csv")))
        assert set(metrics) == {"objective", "fit_term", "side_term",
                                "reg_term", "r2", "fitted_rank", "err_l2"}

    def test_report_rows_are_the_library_records(self, tmp_path):
        # one row per record of the library solve at the same settings,
        # each field as "%.17g"; the tolerance ends this one early
        inst = _gen(tmp_path, miss=0.3, sigma=0.1, seed=7)
        out = tmp_path / "sol"
        assert main(["solve", "--data", str(inst / "partial.txt"),
                     "--side-info", str(inst / "side_info.csv"), "--rank",
                     "2", "--max-iter", "500", "--tol", "1e-4", "--seed",
                     "3", "--out", str(out)]) == 0
        data = load_partial(inst / "partial.txt")
        _, report = mpadmm.solve(
            data, load_side_info(inst / "side_info.csv", data.n),
            Hyperparams(k=2, eps=1e-4, max_iters=500, seed=3))
        assert report.termination == "tolerance_met"
        assert _read_csv(out / "report.csv")[1:] == [
            [str(i), "%.17g" % r.phi_res, "%.17g" % r.psi_res,
             "%.17g" % r.dual_res, "%.17g" % r.objective, "tolerance_met"]
            for i, r in enumerate(report.trace, 1)]

    @pytest.mark.parametrize("method", ["iterative-svd", "soft-impute",
                                        "scaled-gd"])
    def test_baseline_factors_reproduce_estimate(self, tmp_path, method):
        inst = _gen(tmp_path)
        out = tmp_path / "sol"
        rc = main(["solve", "--method", method, "--data",
                   str(inst / "partial.txt"), "--side-info",
                   str(inst / "side_info.csv"), "--rank", "2",
                   "--out", str(out)])
        assert rc == 0
        U = load_dense_csv(out / "U.csv")
        V = load_dense_csv(out / "V.csv")
        assert U.shape[0] == 14 and V.shape[0] == 10
        assert U.shape[1] == V.shape[1]

    @pytest.mark.parametrize("method", ["admm", "iterative-svd",
                                        "soft-impute", "scaled-gd"])
    def test_solve_then_eval_reproduces_metrics(self, tmp_path, method):
        # the factors written recompose the estimate exactly, so eval
        # reproduces solve's metrics.csv byte for byte
        inst = _gen(tmp_path)
        out = tmp_path / "sol"
        assert main(["solve", "--method", method, "--data",
                     str(inst / "partial.txt"), "--side-info",
                     str(inst / "side_info.csv"), "--truth",
                     str(inst / "truth.csv"), "--rank", "2", "--max-iter",
                     "5", "--out", str(out)]) == 0
        first = (out / "metrics.csv").read_bytes()
        assert main(["eval", "--data", str(inst / "partial.txt"),
                     "--side-info", str(inst / "side_info.csv"), "--truth",
                     str(inst / "truth.csv"), "--out", str(out)]) == 0
        assert (out / "metrics.csv").read_bytes() == first

    @pytest.mark.parametrize("method", ["iterative-svd", "soft-impute",
                                        "scaled-gd"])
    def test_baselines_run_through_the_sweep_dispatch(self, tmp_path,
                                                      monkeypatch, method):
        inst = _gen(tmp_path)
        calls = []

        def spy(name, *args):
            calls.append((name, args[2:]))
            return real(name, *args)

        real = cli.run_baseline
        monkeypatch.setattr(cli, "run_baseline", spy)
        assert main(["solve", "--method", method, "--data",
                     str(inst / "partial.txt"), "--side-info",
                     str(inst / "side_info.csv"), "--rank", "2",
                     "--lambda", "0.5", "--gamma", "2", "--tau", "0.25",
                     "--out", str(tmp_path / "sol")]) == 0
        assert calls == [(method.replace("-", "_"), (2, 0.5, 2.0, 0.25))]

    def test_admm_requires_side_info(self, tmp_path):
        inst = _gen(tmp_path)
        rc = main(["solve", "--data", str(inst / "partial.txt"), "--rank",
                   "2", "--out", str(tmp_path / "sol")])
        assert rc == 1

    @pytest.mark.parametrize("method", ["iterative-svd", "soft-impute",
                                        "scaled-gd"])
    def test_baseline_without_side_info_leaves_r2_out(self, tmp_path, capsys,
                                                      method):
        # R^2 of no side matrix is undefined (it read 1 of an all-zero
        # stand-in), so it is left out as err_l2 is without a truth
        inst = _gen(tmp_path)
        out = tmp_path / "sol"
        capsys.readouterr()
        assert main(["solve", "--method", method, "--data",
                     str(inst / "partial.txt"), "--rank", "2",
                     "--out", str(out)]) == 0
        header, row = _read_csv(out / "metrics.csv")
        assert header == ["objective", "fit_term", "side_term", "reg_term",
                          "fitted_rank"]
        assert dict(zip(header, row))["side_term"] == "0"
        printed = capsys.readouterr().out.strip()
        assert [kv.split("=")[0] for kv in printed.split(", ")] == header

    @pytest.mark.parametrize("truth", ["missing", "2x2", "zero", "nan"])
    def test_truth_checked_before_the_method_runs(self, tmp_path, capsys,
                                                  monkeypatch, truth):
        inst = _gen(tmp_path, n=30, m=20)
        path = tmp_path / "truth.csv"
        if truth != "missing":
            _save_bad_truth(inst, path, truth)

        def refuse(*args, **kwargs):
            raise AssertionError("the method ran")

        monkeypatch.setattr(cli.admm, "solve", refuse)
        out = tmp_path / "sol"
        rc = main(["solve", "--data", str(inst / "partial.txt"),
                   "--side-info", str(inst / "side_info.csv"), "--truth",
                   str(path), "--rank", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


class TestEval:
    def test_truth_factors_give_zero_error(self, tmp_path):
        inst = _gen(tmp_path)
        data = load_partial(inst / "partial.txt")
        A = load_dense_csv(inst / "truth.csv")
        out = tmp_path / "sol"
        out.mkdir()
        # U = A_true, V = I factors the truth exactly
        from mpadmm.data import save_dense_csv
        save_dense_csv(A, out / "U.csv")
        save_dense_csv(np.eye(data.m), out / "V.csv")
        assert main(["eval", "--data", str(inst / "partial.txt"),
                     "--side-info", str(inst / "side_info.csv"), "--truth",
                     str(inst / "truth.csv"), "--out", str(out)]) == 0
        metrics = dict(zip(*_read_csv(out / "metrics.csv")))
        assert float(metrics["err_l2"]) == pytest.approx(0.0, abs=1e-12)
        assert float(metrics["fit_term"]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("truth", ["2x2", "zero", "nan"])
    def test_truth_checked_before_metrics_are_written(self, tmp_path, capsys,
                                                      truth):
        inst = _gen(tmp_path, n=30, m=20)
        out = tmp_path / "sol"
        out.mkdir()
        save_dense_csv(np.ones((30, 2)), out / "U.csv")
        save_dense_csv(np.ones((20, 2)), out / "V.csv")
        _save_bad_truth(inst, tmp_path / "truth.csv", truth)
        rc = main(["eval", "--data", str(inst / "partial.txt"),
                   "--side-info", str(inst / "side_info.csv"), "--truth",
                   str(tmp_path / "truth.csv"), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "eval"])
    def test_side_info_rows_checked_first(self, tmp_path, capsys,
                                          monkeypatch, command):
        # both commands reject side info with a row count other than the
        # data's before anything else is read or evaluated
        def refuse(*args, **kwargs):
            raise AssertionError("the estimate was evaluated")

        monkeypatch.setattr(cli, "evaluate", refuse)
        monkeypatch.setattr(cli.admm, "solve", refuse)
        inst = _gen(tmp_path)
        save_dense_csv(np.ones((15, 2)), tmp_path / "side.csv")
        out = tmp_path / "sol"
        out.mkdir()
        save_dense_csv(np.ones((14, 2)), out / "U.csv")
        save_dense_csv(np.ones((10, 2)), out / "V.csv")
        rc = main([command, "--data", str(inst / "partial.txt"),
                   "--side-info", str(tmp_path / "side.csv"), "--truth",
                   str(inst / "truth.csv"), "--out", str(out)]
                  + (["--rank", "2"] if command == "solve" else []))
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'side.csv'}: side info row count does not "
            "match data\n")
        assert not (out / "metrics.csv").exists()

    def test_shape_mismatch(self, tmp_path):
        inst = _gen(tmp_path)
        out = tmp_path / "sol"
        out.mkdir()
        from mpadmm.data import save_dense_csv
        save_dense_csv(np.ones((3, 2)), out / "U.csv")
        save_dense_csv(np.ones((10, 2)), out / "V.csv")
        rc = main(["eval", "--data", str(inst / "partial.txt"),
                   "--side-info", str(inst / "side_info.csv"),
                   "--out", str(out)])
        assert rc == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("factor", ["U.csv", "V.csv"])
    def test_non_finite_factors_rejected(self, tmp_path, capsys,
                                         monkeypatch, factor, value):
        # rejected before `evaluate`, whose SVD raises on a NaN and can
        # spin without end on an inf
        def refuse(*args, **kwargs):
            raise AssertionError("the factors were evaluated")

        monkeypatch.setattr(cli, "evaluate", refuse)
        inst = _gen(tmp_path)
        out = tmp_path / "sol"
        out.mkdir()
        U, V = np.ones((14, 2)), np.ones((10, 2))
        (U if factor == "U.csv" else V)[0, 0] = float(value)
        save_dense_csv(U, out / "U.csv")
        save_dense_csv(V, out / "V.csv")
        rc = main(["eval", "--data", str(inst / "partial.txt"),
                   "--side-info", str(inst / "side_info.csv"),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (out / "metrics.csv").exists()

    def test_metrics_share_one_decomposition(self, tmp_path, monkeypatch):
        # one SVD, of the rank-2 estimate's 20 x m sketch Q^T X and none
        # of the estimate, serves every field, which are bitwise
        # `evaluate`'s
        rng = np.random.default_rng(3)
        n, m = 200, 30
        X = rng.standard_normal((n, 2)) @ rng.standard_normal((2, m))
        A = rng.standard_normal((n, m))
        Y = rng.standard_normal((n, 3))
        rows, cols = np.nonzero(rng.random((n, m)) < 0.5)
        data = PartialMatrix(n=n, m=m, rows=rows, cols=cols,
                             values=A[rows, cols])
        want = objective.evaluate(X, data, Y, A, 0.9, 1.1)
        svd = np.linalg.svd
        calls = []

        def spy(a, *args, **kwargs):
            calls.append((a.shape, kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        got = cli._write_metrics(tmp_path / "metrics.csv", X, data, Y, 0.9,
                                 1.1, A)
        assert calls == [((4 * objective._OVERSAMPLE, m), True)]
        ob = want.objective
        assert got == {"objective": ob.total, "fit_term": ob.fit_term,
                       "side_term": ob.side_term, "reg_term": ob.reg_term,
                       "r2": want.r2, "fitted_rank": want.fitted_rank,
                       "err_l2": want.err_l2}

    def test_metrics_are_evaluate_at_any_blas_thread_count(self, tmp_path,
                                                           blas_threads):
        data, side, truth = generate_synthetic(300, 200, 4, 5, 0.5, 0.5,
                                               seed=8)
        rng = np.random.default_rng(8)
        X = (truth.A_true + 0.1 * rng.standard_normal((300, 4))
             @ rng.standard_normal((4, 200)))
        before = blas_threads()
        api = _openblas_threads_api()
        for _, set_ in api.values():
            set_(2)
        try:
            got = cli._write_metrics(tmp_path / "metrics.csv", X, data,
                                     side.Y, 0.9, 1.1, truth.A_true)
        finally:
            for name, (_, set_) in api.items():
                set_(before[name])
        want = objective.evaluate(X, data, side.Y, truth.A_true, 0.9, 1.1)
        ob = want.objective
        assert got == {"objective": ob.total, "fit_term": ob.fit_term,
                       "side_term": ob.side_term, "reg_term": ob.reg_term,
                       "r2": want.r2, "fitted_rank": want.fitted_rank,
                       "err_l2": want.err_l2}


class TestExitCodes:
    def test_unknown_flag(self):
        assert main(["solve", "--bogus"]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--data", str(tmp_path / "none.txt"),
                     "--side-info", str(tmp_path / "none.csv"),
                     "--rank", "2", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    @pytest.mark.parametrize("command,path", [
        ("solve", "--data"), ("solve", "--side-info"), ("solve", "--truth"),
        ("eval", "--data"), ("eval", "--side-info"), ("eval", "--truth"),
        ("eval", "U.csv"), ("eval", "V.csv"), ("sweep", "--config")])
    def test_unreadable_path(self, tmp_path, capsys, command, path, kind):
        # each path the CLI reads, made a directory or a file that is not
        # text, gives one error line and exit 1, not a traceback
        inst = _gen(tmp_path)
        sol = tmp_path / "sol"
        files = {"--data": inst / "partial.txt",
                 "--side-info": inst / "side_info.csv",
                 "--truth": inst / "truth.csv", "U.csv": sol / "U.csv",
                 "V.csv": sol / "V.csv", "--config": tmp_path / "sweep.cfg"}
        inputs = [str(a) for flag in ("--data", "--side-info", "--truth")
                  for a in (flag, files[flag])]
        assert main(["solve", "--rank", "2", "--max-iter", "2", "--out",
                     str(sol), *inputs]) == 0
        bad = files[path]
        bad.unlink(missing_ok=True)
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe\x00\x80 not text \x00\xc3")
        args = {"solve": ["--rank", "2", "--out", str(tmp_path / "again"),
                          *inputs],
                "eval": ["--out", str(sol), *inputs],
                "sweep": ["--config", str(bad), "--out",
                          str(tmp_path / "r.csv")]}[command]
        capsys.readouterr()
        assert main([command, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err

    def test_negative_size_in_the_header(self, tmp_path, capsys):
        data = tmp_path / "partial.txt"
        data.write_text("-1 5 0\n")
        assert main(["solve", "--method", "soft-impute", "--data", str(data),
                     "--rank", "1", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {data}, line 1: n, m and nnz must be >= 0\n")

    @pytest.mark.parametrize("flag", ["--side-info", "--truth"])
    def test_bad_value_names_the_file_and_its_line(self, tmp_path, capsys,
                                                  flag):
        # the same bad entry in either file names that file and its line
        inst = _gen(tmp_path)
        files = {"--side-info": inst / "side_info.csv",
                 "--truth": inst / "truth.csv"}
        lines = files[flag].read_text().splitlines()
        lines[2] = "x" + lines[2][lines[2].index(","):]
        files[flag].write_text("\n".join(lines) + "\n")
        assert main(["solve", "--data", str(inst / "partial.txt"),
                     "--side-info", str(files["--side-info"]), "--truth",
                     str(files["--truth"]), "--rank", "2", "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {files[flag]}, line 3: bad CSV value: could not convert "
            "string to float: 'x'\n")

    def test_bad_parameter(self, tmp_path):
        inst = _gen(tmp_path)
        rc = main(["solve", "--data", str(inst / "partial.txt"),
                   "--side-info", str(inst / "side_info.csv"),
                   "--rank", "2", "--gamma", "0.0",
                   "--out", str(tmp_path / "sol")])
        assert rc == 1

    @pytest.mark.parametrize("method,flag", [
        ("admm", "--lambda"), ("admm", "--rho1"), ("admm", "--tol"),
        ("soft-impute", "--tau"), ("scaled-gd", "--lambda")])
    def test_non_finite_parameter(self, tmp_path, capsys, method, flag):
        inst = _gen(tmp_path)
        rc = main(["solve", "--method", method, "--data",
                   str(inst / "partial.txt"), "--side-info",
                   str(inst / "side_info.csv"), "--rank", "2", flag, "nan",
                   "--out", str(tmp_path / "sol")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("method,flag,value", [
        ("iterative-svd", "--lambda", "nan"),
        ("iterative-svd", "--lambda", "-3"),
        ("soft-impute", "--gamma", "inf"),
        ("soft-impute", "--gamma", "-1"),
        ("scaled-gd", "--lambda", "-1"),
        ("scaled-gd", "--gamma", "-1")])
    def test_bad_metric_weight(self, tmp_path, capsys, method, flag, value):
        # lam and gamma reach no iterative-svd or soft-impute solve, only
        # the metrics; they are checked before any method runs, so no
        # output file is written
        inst = _gen(tmp_path)
        out = tmp_path / "sol"
        rc = main(["solve", "--method", method, "--data",
                   str(inst / "partial.txt"), "--rank", "2", flag, value,
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("flag,value", [
        ("--gamma", "-1"), ("--gamma", "nan"), ("--lambda", "-3"),
        ("--lambda", "inf")])
    def test_eval_bad_weight(self, tmp_path, capsys, flag, value):
        inst = _gen(tmp_path)
        out = tmp_path / "sol"
        assert main(["solve", "--data", str(inst / "partial.txt"),
                     "--side-info", str(inst / "side_info.csv"), "--rank",
                     "2", "--out", str(out)]) == 0
        (out / "metrics.csv").unlink()
        capsys.readouterr()
        rc = main(["eval", "--data", str(inst / "partial.txt"),
                   "--side-info", str(inst / "side_info.csv"), flag, value,
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_soft_impute_rank_out_of_range(self, tmp_path, capsys, rank):
        inst = _gen(tmp_path)
        rc = main(["solve", "--method", "soft-impute", "--data",
                   str(inst / "partial.txt"), "--rank", rank,
                   "--out", str(tmp_path / "sol")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err

    def test_negative_seed(self, tmp_path):
        # 40 x 80 takes the init's Lanczos route, the one that draws
        inst = _gen(tmp_path, n=40, m=80)
        rc = main(["solve", "--data", str(inst / "partial.txt"),
                   "--side-info", str(inst / "side_info.csv"),
                   "--rank", "2", "--seed", "-1",
                   "--out", str(tmp_path / "sol")])
        assert rc == 1

    @pytest.mark.parametrize("gamma", ["1e-14", "1e-10"])
    def test_singular_ridge_system(self, tmp_path, capsys, gamma):
        # 50 x 40 at 50% observed (the mask route), values of order 1e8,
        # column 0 observed once: its V-step system 2 u u^T + gamma I is
        # singular in floating point
        rng = np.random.default_rng(50)
        n, m = 50, 40
        mask = rng.random((n, m)) < 0.5
        mask[:, 0] = False
        mask[3, 0] = True
        r, c = np.nonzero(mask)
        A = 1e8 * rng.standard_normal((n, m))
        save_partial(PartialMatrix(n=n, m=m, rows=r, cols=c,
                                   values=A[r, c]), tmp_path / "partial.txt")
        save_dense_csv(rng.standard_normal((n, 3)), tmp_path / "side.csv")
        rc = main(["solve", "--data", str(tmp_path / "partial.txt"),
                   "--side-info", str(tmp_path / "side.csv"), "--rank", "5",
                   "--gamma", gamma, "--out", str(tmp_path / "sol")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("numerical error:") and "V update" in err
        assert "Traceback" not in err

    def test_numerical_error_exit_code(self, tmp_path, monkeypatch):
        inst = _gen(tmp_path)

        def boom(*args, **kwargs):
            raise NumericalError("synthetic blow-up")

        monkeypatch.setattr(cli.admm, "solve", boom)
        rc = main(["solve", "--data", str(inst / "partial.txt"),
                   "--side-info", str(inst / "side_info.csv"),
                   "--rank", "2", "--out", str(tmp_path / "sol")])
        assert rc == 2


class TestSweepCommand:
    def _write_config(self, tmp_path, extra=""):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# tiny sweep\n"
            "vary=n\n"
            "values=12,16\n"
            "n=12\nm=8\nk=2\nd=2\n"
            "trials=1\n"
            "methods=admm,soft_impute\n"
            "max_iter=5\n"
            "miss_frac=0.3\n"
            "sigma=0.5\n"
            "record_timings=false\n"
            + extra)
        return cfg

    def test_parse_config(self, tmp_path):
        cfg = self._write_config(tmp_path, "out=custom.csv\n")
        config, out = parse_sweep_config(cfg)
        assert config.varying_parameter == "n"
        assert config.values == [12, 16]
        assert config.methods == ["admm", "soft_impute"]
        assert config.hyper.max_iters == 5
        assert config.record_timings is False
        assert out == "custom.csv"

    def test_required_keys_alone_take_the_library_defaults(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("vary=n\nvalues=12\nn=12\nm=8\nk=2\nd=2\n")
        config, out = parse_sweep_config(cfg)
        assert config.hyper == Hyperparams(k=2)
        tau = SweepConfig.__dataclass_fields__["soft_impute_tau"].default
        assert config.soft_impute_tau == tau
        assert out is None
        # every other field is SweepConfig's default, which holds the
        # values a config without those keys has always run at
        assert config == SweepConfig(
            varying_parameter="n", values=[12],
            fixed={"n": 12, "m": 8, "k": 2, "d": 2}, hyper=Hyperparams(k=2))
        assert (config.trials, config.methods, config.miss_frac,
                config.sigma, config.base_seed, config.record_timings) == (
            1, ["admm"], 0.9, 0.0, 0, True)

    def test_unknown_key_names_the_key_and_its_line(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, "lamda=50\n")
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}, line 14: unknown sweep config key 'lamda'\n")
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("trials=x", "invalid literal for int() with base 10: 'x'"),
        ("record_timings=maybe", "not a boolean: 'maybe'")],
        ids=["trials", "record_timings"])
    def test_bad_value_names_the_key_and_its_line(self, tmp_path, capsys,
                                                  line, message):
        # each value is converted on its own line, so the error names both
        cfg = self._write_config(tmp_path, line + "\n")
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        key = line.partition("=")[0]
        assert capsys.readouterr().err == (
            f"error: {cfg}, line 14: bad value for sweep config key "
            f"{key!r}: {message}\n")
        assert not out.exists()

    def test_comment_after_a_value(self, tmp_path):
        cfg = self._write_config(
            tmp_path, "lambda=2.5   # the fit weight\nout=r.csv#path\n")
        config, out = parse_sweep_config(cfg)
        assert config.hyper.lam == 2.5
        assert config.record_timings is False
        assert out == "r.csv"

    def test_readme_example_parses_and_every_key_is_documented(self,
                                                               tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index("A sweep config is a flat `key=value` file")
        section = readme[start:readme.index("\n## ", start)]
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(section.split("```")[1])
        config, out = parse_sweep_config(cfg)
        assert config.record_timings is False
        assert out == "results.csv"
        # the key table: the first cell of each row names its keys
        documented = [key for row in section.splitlines()
                      if row.startswith("| `")
                      for key in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert sorted(documented) == sorted(cli.SWEEP_KEYS)

    def test_flags_take_the_library_defaults(self):
        want = Hyperparams(k=2)
        tau = SweepConfig.__dataclass_fields__["soft_impute_tau"].default
        solve = _build_parser().parse_args(
            ["solve", "--data", "d", "--rank", "2", "--out", "o"])
        assert (solve.lam, solve.gamma, solve.rho1, solve.rho2, solve.tol,
                solve.max_iter, solve.tau, solve.threads) == (
            want.lam, want.gamma, want.rho1, want.rho2, want.eps,
            want.max_iters, tau, want.threads)
        ev = _build_parser().parse_args(
            ["eval", "--data", "d", "--side-info", "s", "--out", "o"])
        assert (ev.lam, ev.gamma) == (want.lam, want.gamma)

    def test_sweep_runs_and_writes_csv(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "results.csv"
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert len(rows) == 1 + 2 * 1 * 2
        assert (tmp_path / "results.csv.summary.csv").exists()

    def test_missing_out_rejected(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 1

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("vary n\n")
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")]) == 1


REPORT_HEADER = ["iter", "phi_res", "psi_res", "dual_res", "objective",
                 "termination"]
METRICS_HEADER = ["objective", "fit_term", "side_term", "reg_term", "r2",
                  "fitted_rank"]
SWEEP_HEADER = ["method", "n", "m", "k", "d", "seed", "objective", "err_l2",
                "r2", "fitted_rank", "time_ms", "t_U_ms", "t_V_ms", "t_P_ms",
                "t_Z_ms", "iters", "phi_res", "psi_res", "dual_res"]


def _assert_lf_csv(path, header=None):
    """`path` ends its lines in LF alone, ends in one, and starts with
    `header` when one is given."""
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    if header is not None:
        assert raw.split(b"\n", 1)[0].decode() == ",".join(header)


class TestResultFiles:
    @pytest.mark.parametrize("method,truth", [("admm", True),
                                              ("soft-impute", False)])
    def test_solve_and_eval(self, tmp_path, capsys, method, truth):
        inst = _gen(tmp_path)
        out = tmp_path / "sol"
        common = ["--data", str(inst / "partial.txt"), "--side-info",
                  str(inst / "side_info.csv"), "--out", str(out)]
        if truth:
            common += ["--truth", str(inst / "truth.csv")]
        metrics = METRICS_HEADER + (["err_l2"] if truth else [])
        capsys.readouterr()
        assert main(["solve", "--method", method, "--rank", "2",
                     "--max-iter", "5", *common]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1
        assert [kv.split("=")[0] for kv in printed[0].split(", ")] == metrics
        _assert_lf_csv(out / "U.csv")
        _assert_lf_csv(out / "V.csv")
        _assert_lf_csv(out / "report.csv", REPORT_HEADER)
        _assert_lf_csv(out / "metrics.csv", metrics)
        assert main(["eval", *common]) == 0
        assert capsys.readouterr().out.splitlines() == printed
        _assert_lf_csv(out / "metrics.csv", metrics)

    def test_sweep(self, tmp_path):
        cfg = TestSweepCommand()._write_config(tmp_path)
        out = tmp_path / "results.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(SWEEP_HEADER) == 19
        _assert_lf_csv(out, SWEEP_HEADER)
        _assert_lf_csv(tmp_path / "results.csv.summary.csv",
                       ["method", "value", "trials"] + SWEEP_HEADER[6:])


def test_one_threads_default_for_the_library_and_the_cli():
    assert Hyperparams(k=1).threads == DEFAULT_THREADS
    assert 1 <= DEFAULT_THREADS <= 2


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_default_threads_counts_the_cpus_the_process_may_use():
    # pinned to one CPU before the import, the library's default and the
    # CLI's are 1 whatever the host's CPU count
    src = str(Path(mpadmm.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import mpadmm.cli\n"
            "print(mpadmm.data.Hyperparams(k=1).threads,"
            " mpadmm.cli.DEFAULT_THREADS)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1 1"
