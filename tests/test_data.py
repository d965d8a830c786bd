import hashlib
import tracemalloc

import numpy as np
import pytest

from mpadmm import data, rng
from mpadmm.data import (GroundTruth, Hyperparams, PartialMatrix, SideInfo,
                         generate_synthetic, load_dense_csv, load_partial,
                         load_side_info, save_dense_csv, save_partial,
                         save_side_info)
from mpadmm.exceptions import ParameterError, ParseError
from mpadmm.linalg import single_blas_thread
from mpadmm.rng import Xoshiro256pp


class TestPartialMatrix:
    def test_basic_and_dense(self):
        pm = PartialMatrix(n=2, m=3, rows=[0, 1], cols=[2, 0],
                           values=[1.5, -2.0])
        A = pm.to_dense_zero_filled()
        assert A[0, 2] == 1.5 and A[1, 0] == -2.0 and A[0, 0] == 0.0
        assert pm.mask().sum() == 2
        assert pm.nnz == 2

    def test_validation(self):
        with pytest.raises(ParameterError):
            PartialMatrix(n=2, m=2, rows=[2], cols=[0], values=[1.0])
        with pytest.raises(ParameterError):
            PartialMatrix(n=2, m=2, rows=[0, 0], cols=[1, 1],
                          values=[1.0, 2.0])
        with pytest.raises(ParameterError):
            PartialMatrix(n=2, m=2, rows=[0], cols=[0], values=[np.nan])
        for n, m in ((-1, 5), (5, -1)):
            with pytest.raises(ParameterError, match="n and m must be"):
                PartialMatrix(n=n, m=m, rows=[], cols=[], values=[])

    def test_unsorted_unique_indices_accepted(self):
        pm = PartialMatrix(n=3, m=4, rows=[2, 0, 1, 0], cols=[1, 3, 0, 0],
                           values=[1.0, 2.0, 3.0, 4.0])
        assert pm.nnz == 4
        # stored in row-major order
        assert pm.rows.tolist() == [0, 0, 1, 2]
        assert pm.cols.tolist() == [0, 3, 0, 1]
        assert pm.values.tolist() == [4.0, 2.0, 3.0, 1.0]

    def test_unsorted_input_memory(self):
        # the argsort of the row-major keys and the keys in that order,
        # then the permuted values; rows and columns come from the sorted
        # keys (key // m, then key % m in place)
        rng = np.random.default_rng(25)
        n, m = 2000, 500
        r, c = np.nonzero(rng.random((n, m)) < 0.5)
        order = rng.permutation(r.size)
        rows, cols = r[order], c[order]
        values = rng.standard_normal(r.size)
        tracemalloc.start()
        tracemalloc.reset_peak()
        pm = PartialMatrix(n=n, m=m, rows=rows, cols=cols, values=values)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert np.array_equal(pm.rows * m + pm.cols, r * m + c)
        assert np.array_equal(pm.values[order], values)
        assert peak <= 28 * pm.nnz

    @pytest.mark.parametrize("rows,cols", [
        ([0, 1, 1, 2], [1, 0, 0, 3]),  # sorted, adjacent duplicate
        ([2, 0, 1, 0], [1, 3, 0, 3]),  # unsorted, duplicate far apart
        ([1, 0, 1], [2, 0, 2]),  # unsorted, duplicate of an earlier entry
    ])
    def test_duplicate_index_rejected(self, rows, cols):
        with pytest.raises(ParameterError):
            PartialMatrix(n=3, m=4, rows=rows, cols=cols,
                          values=np.ones(len(rows)))


class TestHyperparams:
    def test_defaults(self):
        hp = Hyperparams(k=3)
        assert hp.rho1 == 10.0 and hp.rho2 == 10.0
        assert hp.max_iters == 20 and hp.eps == 1e-6
        assert hp.lam == 1.0 and hp.gamma == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(k=0), dict(k=2, lam=-1.0), dict(k=2, gamma=0.0),
        dict(k=2, rho1=0.0), dict(k=2, rho2=-1.0), dict(k=2, eps=0.0),
        dict(k=2, max_iters=0), dict(k=2, threads=0), dict(k=2, seed=-1),
        # integers only: floats and bools are refused, not truncated
        dict(k=3.0), dict(k=True), dict(k=2, max_iters=2.5),
        dict(k=2, threads=2.0), dict(k=2, seed=1.5), dict(k=2, seed=False),
        dict(k=2, max_iters=np.float64(3.0)),
        # non-finite values pass every sign check
        dict(k=2, lam=np.nan), dict(k=2, lam=np.inf), dict(k=2, gamma=np.nan),
        dict(k=2, gamma=np.inf), dict(k=2, rho1=np.nan),
        dict(k=2, rho2=np.inf), dict(k=2, eps=np.nan), dict(k=2, eps=np.inf),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            Hyperparams(**kwargs)

    def test_numpy_integers_accepted(self):
        hp = Hyperparams(k=np.int64(3), max_iters=np.int32(5),
                         threads=np.uint8(2), seed=np.int64(7))
        assert (hp.k, hp.max_iters, hp.threads, hp.seed) == (3, 5, 2, 7)


class TestGenerateSynthetic:
    def test_nothing_hidden(self):
        pm, si, gt = generate_synthetic(6, 5, 2, 3, 0.0, 0.5, seed=0)
        assert pm.nnz == 30

    def test_noiseless_side_info(self):
        pm, si, gt = generate_synthetic(8, 6, 2, 3, 0.3, 0.0, seed=1)
        assert np.max(np.abs(si.Y - gt.A_true @ gt.beta)) < 1e-12

    def test_hidden_count(self):
        pm, _, _ = generate_synthetic(10, 8, 2, 2, 0.9, 1.0, seed=2)
        assert pm.nnz == 80 - int(0.9 * 80) == 8

    def test_partition_identity(self):
        n, m, frac = 9, 7, 0.37
        pm, _, _ = generate_synthetic(n, m, 2, 2, frac, 1.0, seed=3)
        assert pm.nnz + int(frac * n * m) == n * m

    def test_deterministic(self):
        a = generate_synthetic(7, 5, 2, 3, 0.4, 1.5, seed=11)
        b = generate_synthetic(7, 5, 2, 3, 0.4, 1.5, seed=11)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[0].rows, b[0].rows)
        assert np.array_equal(a[1].Y, b[1].Y)
        assert np.array_equal(a[2].A_true, b[2].A_true)

    @pytest.mark.parametrize("args,digest", [
        ((1000, 100, 5, 150, 0.9, 2.0, 0),
         "39dbce4b5991c4b511ad3a4f76e9229e298f095aed7242ed1a7ba77a63e494ce"),
        ((2000, 1000, 10, 20, 0.5, 2.0, 0),
         "004d0191f80957a02634f0a19ab3e0a727e66c3cbcfbcf0ce50ad7cc6b57e4b9"),
        ((20000, 100, 5, 150, 0.9, 2.0, 0),
         "522b7b507dd1cef27d2b2a2752ce36734d79f006dcf0cffdb03a716a9920c52d"),
    ], ids=["protocol", "dense", "scale"])
    def test_bit_reproducible_from_seed(self, args, digest):
        # SHA-256 of the little-endian C-order bytes of rows, cols and beta,
        # pinned from the one-draw-at-a-time generator; these arrays come
        # from the random streams alone (no libm, no BLAS)
        pm, _, gt = generate_synthetic(*args)
        data = b"".join(a.astype(a.dtype.newbyteorder("<")).tobytes()
                        for a in (pm.rows, pm.cols, gt.beta))
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("args", [
        (7, 5, 2, 3, 0.0, 1.5, 11), (7, 5, 2, 3, 0.97, 1.5, 11),
        (30, 20, 2, 3, 0.3, 1.0, 4), (300, 77, 4, 9, 0.9, 2.0, 123),
        (500, 400, 6, 11, 0.5, 2.0, 9), (31, 17, 1, 1, 0.5, 0.0, 2),
        (1001, 100, 5, 151, 0.9, 2.0, 14), (300, 77, 4, 9, 0.0, 2.0, 15),
        (400, 90, 3, 7, 0.6, 0.0, 16)],
        ids=["nothing-hidden", "one-observed", "few-hidden", "mostly-hidden",
             "half-hidden", "rank-one", "odd-nd", "nothing-hidden-lanes",
             "noiseless-lanes"])
    def test_byte_equal_to_separate_draws_and_hidden_picks(self, args):
        # the reference draws U, V and beta in three calls and scatters the
        # hidden picks into a bool mask, as generate_synthetic once did,
        # from a generator with no reserve (one lane pass per call)
        n, m, k, d, miss_frac, sigma, seed = args
        gen = Xoshiro256pp(seed)
        U = gen.uniform_matrix(n, k)
        V = gen.uniform_matrix(m, k)
        beta = gen.uniform_matrix(m, d)
        N = gen.normal_matrix(n, d, sigma) if sigma > 0 else np.zeros((n, d))
        with single_blas_thread():
            A = U @ V.T
            Y = A @ beta + N
        observed = np.ones(n * m, dtype=bool)
        observed[gen.sample_without_replacement(
            n * m, int(miss_frac * n * m))] = False
        flat = np.flatnonzero(observed)
        pm, si, gt = generate_synthetic(*args)
        for got, want in ((pm.rows, flat // m), (pm.cols, flat % m),
                          (pm.values, A.ravel()[flat]), (si.Y, Y),
                          (gt.A_true, A), (gt.beta, beta)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert gt.beta.flags.c_contiguous

    @pytest.mark.parametrize("args", [
        (1000, 100, 5, 150, 0.9, 2.0, 0), (1001, 100, 5, 151, 0.9, 2.0, 14),
        (400, 90, 3, 7, 0.6, 0.0, 16)], ids=["protocol", "odd-nd",
                                             "noiseless"])
    def test_draws_in_one_lane_pass(self, args, monkeypatch):
        # the reserve gives the three helpers one lane pass over all their
        # draws (no rejection falls on these seeds), not one per helper;
        # on `protocol` 260,500 draws in 2036 lanes
        n, m, k, d, miss_frac, sigma, seed = args
        draws = ((n + m) * k + m * d + int(miss_frac * n * m)
                 + (n * d + n * d % 2 if sigma else 0))
        lanes = []
        starts = rng._lane_starts

        def spy(state, count):
            lanes.append(count)
            return starts(state, count)

        monkeypatch.setattr(rng, "_lane_starts", spy)
        generate_synthetic(*args)
        assert lanes == [-(-draws // rng._LANE)]
        if seed == 0:  # `protocol`
            assert lanes == [2036]

    def test_blas_single_threaded_inside_and_restored(self, monkeypatch,
                                                      blas_threads):
        before = blas_threads()
        seen = []
        side_info = data.SideInfo

        def spy(*args, **kwargs):
            seen.append(blas_threads())
            return side_info(*args, **kwargs)

        monkeypatch.setattr(data, "SideInfo", spy)
        generate_synthetic(15, 10, 2, 2, 0.4, 0.5, seed=6)
        assert seen == [dict.fromkeys(before, 1)]
        assert blas_threads() == before

    def test_ground_truth_rank(self):
        _, _, gt = generate_synthetic(12, 9, 3, 2, 0.5, 1.0, seed=4)
        s = np.linalg.svd(gt.A_true, compute_uv=False)
        assert np.sum(s > 1e-8) == 3

    def test_exact_solution_when_fully_observed(self):
        pm, si, gt = generate_synthetic(6, 5, 2, 3, 0.0, 0.0, seed=5)
        X = gt.A_true
        fit = np.sum((X[pm.rows, pm.cols] - pm.values) ** 2)
        alpha = np.linalg.pinv(X) @ si.Y
        assert fit == 0.0
        assert np.linalg.norm(si.Y - X @ alpha) < 1e-8

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            generate_synthetic(5, 5, 5, 2, 0.5, 1.0, seed=0)
        with pytest.raises(ParameterError):
            generate_synthetic(5, 5, 2, 2, 1.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            generate_synthetic(5, 5, 2, 2, 0.5, -1.0, seed=0)

    @pytest.mark.parametrize("k,d,name", [(0, 2, "k"), (-2, 2, "k"),
                                          (2, 0, "d"), (2, -1, "d")])
    def test_rank_and_side_width_at_least_one(self, k, d, name):
        # k = 0 once gave an all-zero truth, d = 0 an empty side-info
        # matrix, and negative values a NumPy ValueError
        with pytest.raises(ParameterError, match=f"^{name} must"):
            generate_synthetic(6, 5, k, d, 0.5, 1.0, seed=0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma(self, sigma):
        # NaN once passed the sigma < 0 check and gave noise-free side info
        with pytest.raises(ParameterError):
            generate_synthetic(5, 5, 2, 2, 0.5, sigma, seed=0)


class TestPartialIO:
    def test_minimal_file(self, tmp_path):
        p = tmp_path / "pm.txt"
        p.write_text("2 2 1\n1 2 3.5\n")
        pm = load_partial(p)
        assert (pm.n, pm.m, pm.nnz) == (2, 2, 1)
        assert pm.rows[0] == 0 and pm.cols[0] == 1 and pm.values[0] == 3.5

    def test_empty_omega(self, tmp_path):
        p = tmp_path / "pm.txt"
        p.write_text("3 4 0\n")
        pm = load_partial(p)
        assert (pm.n, pm.m, pm.nnz) == (3, 4, 0)

    def test_round_trip_random(self, tmp_path):
        pm, _, _ = generate_synthetic(50, 40, 3, 2, 0.6, 1.0, seed=9)
        p = tmp_path / "pm.txt"
        save_partial(pm, p)
        back = load_partial(p)
        assert back.n == pm.n and back.m == pm.m
        assert np.array_equal(back.rows, pm.rows)
        assert np.array_equal(back.cols, pm.cols)
        assert np.array_equal(back.values, pm.values)  # bit-identical

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("2 2\n", 1),
        ("2 2 1\n1 2\n", 2),
        ("2 2 1\n1 2 abc\n", 2),
        ("2 2 1\n3 1 1.0\n", 2),
        ("2 2 2\n1 1 1.0\n", 3),
        ("2 2 1\n1 1 3.0\n2 2 4.0\n", 3),  # entry past the count
        ("2 2 1\n1 1 3.0\n\n\n2 2 4.0\n", 5),
        ("-1 5 0\n", 1),
        ("5 -1 0\n", 1),
        ("2 2 -1\n", 1),
    ])
    def test_parse_errors_carry_line(self, tmp_path, text, line):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_partial(p)
        assert exc.value.line == line
        assert exc.value.path == p
        assert str(exc.value).startswith(f"{p}, line {line}: ")

    def test_duplicate_index_rejected(self, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("2 2 2\n1 1 1.0\n1 1 2.0\n")
        with pytest.raises(ParseError):
            load_partial(p)

    def test_parse_error_message_names_what_it_carries(self):
        assert str(ParseError("bad")) == "bad"
        assert str(ParseError("bad", line=3)) == "line 3: bad"
        assert str(ParseError("bad", path="f.txt")) == "f.txt: bad"
        assert (str(ParseError("bad", line=3, path="f.txt"))
                == "f.txt, line 3: bad")

    @pytest.mark.parametrize("load", [load_partial, load_dense_csv,
                                      lambda p: load_side_info(p, 1)])
    def test_undecodable_file_names_its_path(self, tmp_path, load):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\xff\xfe\x00\x80")
        with pytest.raises(ParseError) as exc:
            load(p)
        assert exc.value.path == p and exc.value.line == 1
        assert str(exc.value).startswith(f"{p}, line 1: not ")

    @pytest.mark.parametrize("load", [load_partial, load_dense_csv,
                                      lambda p: load_side_info(p, 3)])
    def test_undecodable_byte_names_its_line(self, tmp_path, load):
        # the text decoder reads 8 KB chunks, so the line comes from
        # decoding the file's lines one at a time; CR, LF and CRLF all end
        # a line, as in text mode
        p = tmp_path / "bad.txt"
        p.write_bytes(b"3 1 2\r\n1 1 0.5\r2 1 \xe9\n3 1 1.5\n")
        with pytest.raises(ParseError) as exc:
            load(p)
        assert exc.value.path == p and exc.value.line == 3
        assert str(exc.value).startswith(f"{p}, line 3: not ")


class TestSideInfoIO:
    def test_one_by_one(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("2.0\n")
        si = load_side_info(p, 1)
        assert si.Y[0, 0] == 2.0

    def test_identity(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1,0\n0,1\n")
        si = load_side_info(p, 2)
        assert np.array_equal(si.Y, np.eye(2))

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        si = SideInfo(Y=rng.standard_normal((30, 5)))
        p = tmp_path / "y.csv"
        save_side_info(si, p)
        back = load_side_info(p, 30)
        assert np.array_equal(back.Y, si.Y)

    def test_shape_mismatch(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1,2\n3,4\n")
        with pytest.raises(ParseError):
            load_side_info(p, 3)

    def test_non_finite_entry_names_the_file(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1,2\nnan,4\n")
        with pytest.raises(ParseError) as exc:
            load_side_info(p, 2)
        assert str(exc.value) == f"{p}: non-finite side info entry"

    def test_ragged_csv(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ParseError):
            load_dense_csv(p)

    def test_dense_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((4, 6))
        p = tmp_path / "m.csv"
        save_dense_csv(M, p)
        assert np.array_equal(load_dense_csv(p), M)

    @pytest.mark.parametrize("M", [
        np.array([[-0.0, 5e-324, 1.7976931348623157e308, 0.1],
                  [3.0, -7.0, 0.0, 1e22]]),
        np.arange(6.0).reshape(2, 3),
        np.zeros((3, 0)),
        np.zeros((0, 3)),
    ], ids=["edge-values", "integers", "3x0", "0x3"])
    def test_dense_bytes(self, tmp_path, M):
        # one line per row, "%.17g" joined by commas, each line ending in LF
        want = "".join(",".join("%.17g" % v for v in row) + "\n" for row in M)
        p = tmp_path / "m.csv"
        save_dense_csv(M, p)
        assert p.read_bytes() == want.encode("ascii")
