import csv
import json
import math

import numpy as np
import pytest

from amgpoly import cli
from amgpoly.cli import (
    EXIT_BREAKDOWN,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    build_problem,
    main,
    parse_config,
    run_solve,
)
from amgpoly.sparse import write_matrix_market

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

    def test_bad_kmax_is_2(self, capsys):
        assert main(["optimize", "--kmax", "99"]) == EXIT_CONFIG

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
        assert report["solve"]["converged"] is True
        assert report["hierarchy"]["levels"][0]["size"] == 216

    def test_itmax_one_not_converged(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(["solve", "--override", "m=8", "--override", "itmax=1", "-o", str(out)])
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

    def test_rejects_odd_sizes(self, capsys):
        assert main(["spectrum-grid", "--sizes", "15", "--degrees", "1"]) == EXIT_CONFIG

    def test_workers_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMGPOLY_THREADS", "2")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["spectrum-grid", "--sizes", "16", "--degrees", "1,2,3", "-o", str(a)])
        monkeypatch.setenv("AMGPOLY_THREADS", "1")
        main(["spectrum-grid", "--sizes", "16", "--degrees", "1,2,3", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


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
