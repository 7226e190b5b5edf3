import csv
import json
import math

import numpy as np
import pytest

from amgpoly import cli
from amgpoly.cli import (
    EXIT_BREAKDOWN,
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    ConfigError,
    build_problem,
    main,
    parse_config,
    run_solve,
)
from amgpoly.problems import spectral_synthetic
from amgpoly.sparse import CsrMatrix, write_matrix_market

from conftest import tridiag


class TestConfigParsing:
    def test_defaults_without_file(self):
        cfg = parse_config(None, [])
        assert cfg["problem"] == "poisson3d"
        assert cfg["smoother"] == "opt_cheb1"

    def test_file_and_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nproblem = aniso2d\nm = 16\nepsilon = 100\n")
        cfg = parse_config(str(p), ["m=32"])
        assert cfg["problem"] == "aniso2d"
        assert cfg["m"] == "32"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(None, ["nonsense=1"])

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("this is not a key value pair\n")
        with pytest.raises(ConfigError):
            parse_config(str(p), [])

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"\xff\xfe")
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(str(p), [])
        assert main(["solve", "--config", str(p)]) == EXIT_CONFIG

    def test_build_problem_dispatch(self):
        A, b = build_problem(parse_config(None, ["problem=poisson3d", "m=3"]))
        assert A.nrows == 27
        A, b = build_problem(parse_config(None, ["problem=spectral", "n=8"]))
        assert A.nrows == 8


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert main(["solve", "--override", "bogus=1"]) == EXIT_CONFIG

    def test_opt_cheb4_without_table_is_2(self, capsys):
        args = ["solve", "--override", "smoother=opt_cheb4", "--override", "degree=14"]
        assert main(args) == EXIT_CONFIG
        assert "no opt_cheb4 beta table for degree 14" in capsys.readouterr().err

    def test_nan_preconditioner_is_3(self, monkeypatch, capsys):
        nan_precond = lambda h: (lambda r: np.full_like(r, np.nan))
        monkeypatch.setattr(cli, "as_vcycle_preconditioner", nan_precond)
        assert main(["solve", "--override", "m=6"]) == EXIT_BREAKDOWN
        assert json.loads(capsys.readouterr().out)["solve"]["breakdown"] is True

    def test_nonsymmetric_matrix_is_2(self, monkeypatch, capsys):
        A = tridiag(10, lo=-1.0, up=-0.5)
        monkeypatch.setattr(cli, "build_problem", lambda cfg: (A, np.ones(10)))
        with pytest.raises(ConfigError, match="symmetric"):
            run_solve(parse_config(None, []))
        assert main(["solve"]) == EXIT_CONFIG
        assert "must be symmetric" in capsys.readouterr().err

    def test_oversize_spectral_is_2(self, monkeypatch, capsys):
        def no_build(n, distribution):
            raise AssertionError("the dense operator must not be built")

        monkeypatch.setattr(cli, "spectral_synthetic", no_build)
        args = ["solve", "--override", "problem=spectral", "--override", "n=1026"]
        assert main(args) == EXIT_CONFIG
        assert "n must be <= 1024" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -2])
    def test_spectral_n_below_two_is_2(self, n, capsys):
        args = ["solve", "--override", "problem=spectral", "--override", f"n={n}"]
        assert main(args) == EXIT_CONFIG
        assert ">= 2" in capsys.readouterr().err

    def test_oversize_dense_coarse_is_2(self, monkeypatch, capsys):
        def no_densify(A):
            raise AssertionError("the coarsest level must not be densified")

        monkeypatch.setattr(CsrMatrix, "to_dense", no_densify)
        args = ["solve", "--override", "m=12", "--override", "max_levels=1",
                "--override", "coarse_solver=dense_direct"]
        assert main(args) == EXIT_CONFIG
        assert "1728 rows, more than 1024" in capsys.readouterr().err

    def test_zero_coarse_sweeps_is_2(self, capsys):
        args = ["solve", "--override", "m=6", "--override", "coarse_sweeps=0"]
        assert main(args) == EXIT_CONFIG
        assert "coarse_sweeps must be >= 1" in capsys.readouterr().err

    def test_unknown_coarse_solver_is_2(self, capsys):
        args = ["solve", "--override", "m=6", "--override", "coarse_solver=bogus"]
        assert main(args) == EXIT_CONFIG
        assert "unknown coarse solver 'bogus'" in capsys.readouterr().err

    def test_nan_tol_is_2(self, capsys):
        assert main(["solve", "--override", "m=6", "--override", "tol=nan"]) == EXIT_CONFIG
        assert "tol must be finite and positive" in capsys.readouterr().err

    def test_bad_kmax_is_2(self, capsys):
        assert main(["optimize", "--kmax", "99"]) == EXIT_CONFIG

    @pytest.mark.parametrize("args", [
        ["optimize", "--kmax", "2"],
        ["bounds", "--kmax", "2"],
        ["solve", "--override", "m=4"],
        ["spectrum-grid", "--sizes", "4", "--degrees", "1"],
    ], ids=lambda a: a[0])
    def test_unwritable_output_is_2(self, args, tmp_path, capsys):
        out = tmp_path / "missing" / "x"
        assert main(args + ["-o", str(out)]) == EXIT_CONFIG
        assert "cannot write" in capsys.readouterr().err

    def test_success_is_0(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["optimize", "--kmax", "2", "-o", str(out)]) == EXIT_OK


class TestOptimizeCommand:
    def test_kmax_zero_header_only(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["optimize", "--kmax", "0", "-o", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("k,a_star,lambda_k")

    def test_reference_digits(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["optimize", "--kmax", "8", "-o", str(out)])
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 8
        assert float(rows[0]["a_star"]) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert float(rows[3]["a_star"]) == pytest.approx(0.0820780659590383, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["optimize", "--kmax", "6", "-o", str(a)])
        main(["optimize", "--kmax", "6", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestBoundsCommand:
    def test_k4_row_and_crossover(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["bounds", "--kmax", "6", "-o", str(out)])
        rows = {int(r["k"]): r for r in csv.DictReader(out.open())}
        assert float(rows[4]["gamma_cheb4"]) == pytest.approx(0.0375)
        assert float(rows[4]["lambda_1st"]) == pytest.approx(
            0.0364585625794908, rel=1e-9
        )
        assert float(rows[4]["gamma_opt4"]) == pytest.approx(
            0.0310912041257632, rel=2e-2
        )
        assert rows[1]["crossover"] == "1"
        # strict crossover holds through k=4; at k=5 the two series are within
        # one part in a hundred of each other and the first kind is above
        assert [rows[k]["crossover"] for k in range(1, 5)] == ["1"] * 4

    def test_columns_match_optimize(self, tmp_path):
        b, o = tmp_path / "b.csv", tmp_path / "o.csv"
        main(["bounds", "--kmax", "12", "-o", str(b)])
        main(["optimize", "--kmax", "12", "-o", str(o)])
        bounds = list(csv.DictReader(b.open()))
        params = list(csv.DictReader(o.open()))
        assert [r["k"] for r in bounds] == [str(k) for k in range(1, 13)]
        for rb, ro in zip(bounds, params, strict=True):
            assert rb["k"] == ro["k"]
            assert rb["gamma_cheb4"] == ro["gamma_cheb4"]
            assert rb["lambda_1st"] == ro["lambda_k"]
            assert rb["gamma_opt4"] == ro["gamma_opt4"]
            crossover = float(ro["lambda_k"]) < float(ro["gamma_cheb4"])
            assert rb["crossover"] == str(int(crossover))

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["bounds", "--kmax", "5", "-o", str(a)])
        main(["bounds", "--kmax", "5", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSolveCommand:
    def test_deterministic_report(self, tmp_path, capsys):
        args = [
            "solve",
            "--override", "m=6",
            "--override", "coarsening=pairwise_matching",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["-o", str(a)]) == EXIT_OK
        assert main(args + ["-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text())
        assert list(report["solve"]) == [
            "iterations", "converged", "final_relres", "residual_history",
            "spmv_count", "precond_count", "breakdown",
        ]
        assert report["solve"]["converged"] is True
        assert report["hierarchy"]["levels"][0]["size"] == 216

    @pytest.mark.parametrize("coarsening", ["smoothed_aggregation", "pairwise_matching"])
    def test_unsmoothed_prolongator_converges(self, coarsening, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main([
            "solve",
            "--override", "m=12",
            "--override", f"coarsening={coarsening}",
            "--override", "prolongator_smoothing=false",
            "-o", str(out),
        ]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["config"]["prolongator_smoothing"] == "false"
        assert report["solve"]["converged"] is True

    def test_itmax_one_not_converged(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        args = ["solve", "--override", "m=8", "--override", "itmax=1", "-o", str(out)]
        assert main(args) == EXIT_NOT_CONVERGED
        report = json.loads(out.read_text())
        assert report["solve"]["converged"] is False
        assert report["solve"]["iterations"] == 1

    def test_smoother_ordering_same_hierarchy(self, tmp_path, capsys):
        iters = {}
        for fam in ("opt_cheb1", "l1_jacobi"):
            out = tmp_path / f"{fam}.json"
            main([
                "solve",
                "--override", "m=8",
                "--override", f"smoother={fam}",
                "--override", "degree=4",
                "-o", str(out),
            ])
            iters[fam] = json.loads(out.read_text())["solve"]["iterations"]
        assert iters["opt_cheb1"] <= iters["l1_jacobi"]

    def test_spectral_problem_smoother_only(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main([
            "solve",
            "--override", "problem=spectral",
            "--override", "n=32",
            "--override", "tol=1e-5",
            "-o", str(out),
        ]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["solve"]["converged"] is True
        assert "hierarchy" not in report


# The AMG-PCG solves of scripts/run_experiments.py with their exact iteration
# counts; a kernel change that costs an iteration anywhere fails here.
EXPERIMENT_PROBLEMS = {
    "poisson3d-m16-match": ["problem=poisson3d", "m=16", "coarsening=pairwise_matching"],
    "poisson3d-m16-sa": ["problem=poisson3d", "m=16", "coarsening=smoothed_aggregation"],
    "aniso2d-m64-sa": [
        "problem=aniso2d", "m=64", "epsilon=100", f"angle={math.pi / 6}",
        "coarsening=smoothed_aggregation",
    ],
}
EXPERIMENT_SMOOTHERS = [
    ("l1_jacobi", 4), ("cheb4", 4), ("opt_cheb4", 4), ("opt_cheb1", 4),
    ("cheb4", 6), ("opt_cheb4", 6), ("opt_cheb1", 6),
]
EXPERIMENT_ITERATIONS = {
    "poisson3d-m16-match": [7, 5, 6, 5, 4, 5, 4],
    "poisson3d-m16-sa": [7, 6, 6, 5, 5, 5, 5],
    "aniso2d-m64-sa": [27, 26, 27, 26, 26, 26, 26],
}


@pytest.mark.parametrize(
    "case,family,degree,iterations",
    [
        (case, family, degree, iters[i])
        for case, iters in EXPERIMENT_ITERATIONS.items()
        for i, (family, degree) in enumerate(EXPERIMENT_SMOOTHERS)
    ],
)
def test_experiment_iteration_counts(case, family, degree, iterations):
    cfg = parse_config(
        None, EXPERIMENT_PROBLEMS[case] + [f"smoother={family}", f"degree={degree}"]
    )
    report, _ = run_solve(cfg)
    assert report["solve"]["converged"] is True
    assert report["solve"]["iterations"] == iterations


class TestSpectrumGridCommand:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main([
            "spectrum-grid", "--sizes", "16,32", "--degrees", "1,2", "-o", str(out)
        ]) == EXIT_OK
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3 * 2 * 2
        for r in rows:
            assert int(r["diff"]) == int(r["iters_cheb1"]) - int(r["iters_cheb4"])

    def test_unconverged_cells_exit_0(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main([
            "spectrum-grid", "--sizes", "16", "--degrees", "1", "--itmax", "1", "-o", str(out)
        ]) == EXIT_OK
        rows = list(csv.DictReader(out.open()))
        assert {r["converged_cheb1"] for r in rows} == {r["converged_cheb4"] for r in rows} == {"0"}

    def test_rejects_odd_sizes(self, capsys):
        assert main(["spectrum-grid", "--sizes", "15", "--degrees", "1"]) == EXIT_CONFIG

    @pytest.mark.parametrize("sizes", ["0", "-2", "16,0"])
    def test_rejects_sizes_below_two(self, sizes, capsys):
        assert main(["spectrum-grid", f"--sizes={sizes}", "--degrees", "1"]) == EXIT_CONFIG
        assert ">= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--sizes", "16,x", "--degrees", "1"],
        ["--sizes", "16", "--degrees", "1", "--itmax", "0"],
        ["--sizes", "16", "--degrees", "1", "--tol", "0"],
        ["--sizes", "16", "--degrees", "1", "--tol", "nan"],
        ["--sizes", "16", "--degrees", "1", "--tol", "inf"],
    ])
    def test_bad_values_are_config_errors(self, extra, capsys):
        assert main(["spectrum-grid"] + extra) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_byte_identical_reruns(self, tmp_path):
        args = ["spectrum-grid", "--sizes", "16", "--degrees", "1,2,3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(a)]) == EXIT_OK
        assert main(args + ["-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_one_operator_per_distribution_and_size(self, tmp_path, monkeypatch):
        built = []

        def counting(n, distribution):
            built.append((distribution, n))
            return spectral_synthetic(n, distribution)

        monkeypatch.setattr(cli, "spectral_synthetic", counting)
        out = tmp_path / "g.csv"
        assert main([
            "spectrum-grid", "--sizes", "16,32", "--degrees", "1,2,3", "-o", str(out)
        ]) == EXIT_OK
        assert len(built) == 6
        assert sorted(built) == sorted(
            (dist, n) for dist in cli.GRID_DISTRIBUTIONS for n in (16, 32)
        )
        assert len(list(csv.DictReader(out.open()))) == 3 * 2 * 3


class TestImportCommand:
    def test_summary(self, tmp_path, capsys):
        p = tmp_path / "m.mtx"
        write_matrix_market(p, tridiag(6), symmetric=True)
        assert main(["import", "--matrix", str(p)]) == EXIT_OK
        info = json.loads(capsys.readouterr().out)
        assert info["nrows"] == 6
        assert info["nnz"] == 16
        assert info["symmetric"] is True
        assert info["positive_diagonal"] is True

    def test_missing_file_is_config_error(self, capsys):
        assert main(["import", "--matrix", "/nonexistent.mtx"]) == EXIT_CONFIG

    def test_complex_values_are_config_error(self, tmp_path, capsys):
        p = tmp_path / "herm.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate complex hermitian\n"
            "2 2 3\n1 1 2.0 0.0\n2 1 1.0 1.0\n2 2 2.0 0.0\n"
        )
        assert main(["import", "--matrix", str(p)]) == EXIT_CONFIG
        assert "complex" in capsys.readouterr().err
