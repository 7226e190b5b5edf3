import csv
import dataclasses
import inspect
import json
import pathlib
import runpy
import subprocess
import sys
import weakref

import numpy as np
import pytest

from amgpoly import cli
from amgpoly.amg import build_hierarchy
from amgpoly.cli import (
    EXIT_BREAKDOWN,
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    ConfigError,
    build_problem,
    main,
    parse_config,
    parse_values,
    run_solve,
)
from amgpoly.krylov import KrylovConfig
from amgpoly.problems import spectral_synthetic
from amgpoly.smoothers import PolySmootherConfig

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

    def test_later_override_wins(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("m = 16\n")
        assert parse_config(str(p), ["m=32", "m=4"])["m"] == "4"

    def test_key_set_twice_in_file_rejected(self, tmp_path, capsys):
        p = tmp_path / "twice.cfg"
        p.write_text("m = 6\n# comment\nm = 7\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(str(p), [])
        assert str(exc.value) == f"{p}:3: 'm' is set twice"
        assert main(["solve", "--config", str(p)]) == EXIT_CONFIG
        assert "'m' is set twice" in capsys.readouterr().err

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

    def test_utf8_bom_is_skipped(self, tmp_path):
        p = tmp_path / "bom.cfg"
        p.write_bytes(b"\xef\xbb\xbfm = 4\n")
        assert parse_config(str(p), [])["m"] == "4"

    def test_defaults_agree_with_the_library(self):
        values = parse_values(parse_config(None, []))
        hierarchy = inspect.signature(build_hierarchy).parameters
        field = lambda cls: {f.name: f.default for f in dataclasses.fields(cls)}
        krylov = field(KrylovConfig)
        smoother = field(PolySmootherConfig)
        # the problem keys have no library default: the CLI's are its own
        cli_only = {"problem": "poisson3d", "m": 8, "epsilon": 1.0, "angle": 0.0}
        library = {
            "coarsening": hierarchy["coarsening"].default,
            "tol": krylov["tol"],
            "itmax": krylov["itmax"],
            "smoother": smoother["family"],
            "degree": smoother["degree"],
        }
        assert values == library | cli_only

    def test_build_problem_dispatch(self):
        A, b = build_problem(parse_values(parse_config(None, ["problem=poisson3d", "m=3"])))
        assert A.nrows == 27


class TestExitCodes:
    @pytest.mark.parametrize("override", [
        "bogus=1", "coarse_solver=l1_jacobi", "prolongator_smoothing=true",
        "strength_theta=0.01", "matching_sweeps=3", "n=64", "distribution=equispaced",
        "coarse_sweeps=30", "min_coarse_size=200", "max_levels=10", "variant=pcg",
        "variant=fcg", "foo",
    ])
    def test_config_error_is_2(self, override, capsys):
        assert main(["solve", "--override", override]) == EXIT_CONFIG
        message = "unknown config key" if "=" in override else "expected key=value"
        assert message in capsys.readouterr().err

    def test_spectral_problem_is_2(self, capsys):
        assert main(["solve", "--override", "problem=spectral"]) == EXIT_CONFIG
        assert "unknown problem kind 'spectral'" in capsys.readouterr().err

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

    def test_unknown_coarsening_is_2_before_assembly(self, monkeypatch, capsys):
        def no_assembly(m):
            raise AssertionError("the problem must not be assembled")

        monkeypatch.setattr(cli, "poisson3d", no_assembly)
        assert main(["solve", "--override", "coarsening=bogus"]) == EXIT_CONFIG
        assert "unknown coarsening kind 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        ["problem=poisson3d", "m=4", "epsilon=abc"],
        ["problem=poisson3d", "m=4", "epsilon=0"],
        ["problem=poisson3d", "m=4", "angle=abc"],
        ["problem=poisson3d", "m=4", "angle=nan"],
        ["problem=aniso2d", "m=4", "degree=abc"],
    ], ids=" ".join)
    def test_malformed_key_the_problem_does_not_read_is_2(self, overrides, capsys):
        args = ["solve"] + [arg for o in overrides for arg in ("--override", o)]
        assert main(args) == EXIT_CONFIG
        assert repr(overrides[-1].partition("=")[2]) in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("epsilon=0", "epsilon: must be finite and positive"),
        ("epsilon=-1", "epsilon: must be finite and positive"),
        ("epsilon=nan", "epsilon: must be finite and positive"),
        ("epsilon=inf", "epsilon: must be finite and positive"),
        ("angle=nan", "angle: must be finite"),
        ("angle=inf", "angle: must be finite"),
        ("epsilon=1e308", "row sums overflow"),  # entries up to 1.3e308 are finite
        ("epsilon=1.7e308", "stencils overflow float64"),
    ])
    def test_degenerate_aniso2d_coefficient_is_2(self, override, message, capsys):
        args = ["solve", "--override", "problem=aniso2d", "--override", "m=8",
                "--override", override]
        assert main(args) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("problem, m", [("poisson3d", 100000), ("aniso2d", 1000000)])
    def test_oversize_problem_is_2(self, problem, m, capsys):
        # the first array of either problem is petabytes or terabytes long,
        # so its allocation fails at once, before anything large exists
        args = ["solve", "--override", f"problem={problem}", "--override", f"m={m}"]
        assert main(args) == EXIT_CONFIG
        assert "out of memory" in capsys.readouterr().err

    def test_nan_tol_is_2(self, capsys):
        assert main(["solve", "--override", "m=6", "--override", "tol=nan"]) == EXIT_CONFIG
        assert "tol must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["optimize", "--kmax", "99"], "kmax must lie in 0..30"),
    ], ids=["optimize"])
    def test_bad_kmax_is_2(self, args, message, capsys):
        assert main(args) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["optimize", "--kmax", "2"],
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
        assert lines[0].endswith(",crossover")

    def test_reference_digits(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["optimize", "--kmax", "8", "-o", str(out)])
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 8
        assert float(rows[0]["a_star"]) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert float(rows[3]["a_star"]) == pytest.approx(0.0820780659590383, abs=1e-12)

    def test_k4_row_and_crossover(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["optimize", "--kmax", "30", "-o", str(out)])
        rows = {int(r["k"]): r for r in csv.DictReader(out.open())}
        assert float(rows[4]["gamma_cheb4"]) == pytest.approx(0.0375)
        assert float(rows[4]["lambda_k"]) == pytest.approx(0.0364585625794908, rel=1e-9)
        assert float(rows[4]["gamma_opt4"]) == pytest.approx(0.0310912041257632, rel=2e-2)
        # strict crossover holds through k=4; at k=5 the two series are within
        # one part in a hundred of each other and the first kind is above, and
        # it stays above through the CLI's last degree, so a change to
        # Lambda_k's last digits must flip no cell of the column
        assert [rows[k]["crossover"] for k in range(1, 31)] == ["1"] * 4 + ["0"] * 26
        for r in rows.values():
            crossover = float(r["lambda_k"]) < float(r["gamma_cheb4"])
            assert r["crossover"] == str(int(crossover))

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["optimize", "--kmax", "6", "-o", str(a)])
        main(["optimize", "--kmax", "6", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bounds_command_is_gone(self, capsys):
        # optimize prints every column it printed, crossover included
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--kmax", "12"])
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice: 'bounds'" in capsys.readouterr().err


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
    def test_report_omits_removed_fork_keys(self, coarsening, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main([
            "solve",
            "--override", "m=12",
            "--override", f"coarsening={coarsening}",
            "-o", str(out),
        ]) == EXIT_OK
        report = json.loads(out.read_text())
        assert "prolongator_smoothing" not in report["config"]
        assert "coarse_solver" not in report["config"]
        assert "coarse_solver" not in report["hierarchy"]
        levels = report["hierarchy"]["levels"]
        assert len(levels) >= 2
        ran = [(lv["smoother"], lv["degree"]) for lv in levels]
        assert ran == [("opt_cheb1", 4)] * (len(levels) - 1) + [("l1_jacobi", 30)]
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

    def test_float64_levels_are_freed_before_the_solve(self, monkeypatch):
        # the preconditioner holds float32 copies of the levels; the float64
        # hierarchy must not stay alive next to them through PCG
        real_build, real_solve = cli.build_hierarchy, cli.solve
        refs, alive = [], []

        def build(*args, **kwargs):
            h = real_build(*args, **kwargs)
            coarse, fine = h.levels[1], h.levels[0]
            refs.extend(weakref.ref(o) for o in (h, coarse.A, coarse.M, fine.P, fine.R, fine.M))
            return h

        def solve(*args, **kwargs):
            alive.extend(ref() is not None for ref in refs)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(cli, "build_hierarchy", build)
        monkeypatch.setattr(cli, "solve", solve)
        report, rep = run_solve(parse_config(None, ["m=8"]))
        assert rep.converged
        assert len(report["hierarchy"]["levels"]) >= 2
        assert alive == [False] * 6

    @pytest.mark.parametrize("epsilon", ["1e40", "1e60", "1e300"])
    def test_coefficients_beyond_float32_range_converge(self, epsilon):
        # the float32 V-cycle scales A into float32's range; a plain cast of
        # these operators overflows, and PCG breaks down at iteration 0.  At
        # 1e300 the strength graph's a_ii a_jj would overflow unscaled
        cfg = parse_config(None, ["problem=aniso2d", "m=16", f"epsilon={epsilon}"])
        _, rep = run_solve(cfg)
        assert rep.converged and not rep.breakdown
        assert rep.iterations == 40


# The AMG-PCG solves of scripts/run_experiments.py, read from the script's own
# tables, with their exact iteration counts; a kernel change that costs an
# iteration anywhere fails here.
EXPERIMENTS_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
_EXPERIMENTS = runpy.run_path(str(EXPERIMENTS_SCRIPT))
EXPERIMENT_PROBLEMS = dict(_EXPERIMENTS["SOLVE_MATRIX"])
EXPERIMENT_SMOOTHERS = _EXPERIMENTS["SMOOTHERS"]
EXPERIMENT_ITERATIONS = {
    "poisson3d-m16-match": [7, 5, 6, 5, 4, 5, 4],
    "poisson3d-m16-sa": [7, 6, 6, 5, 5, 5, 5],
    "aniso2d-m64-sa": [27, 26, 27, 26, 26, 26, 26],
}


def test_experiment_script_stops_at_a_failed_command(tmp_path):
    (tmp_path / "params.csv").mkdir()  # optimize cannot write over a directory
    run = subprocess.run(
        [sys.executable, str(EXPERIMENTS_SCRIPT), "--outdir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert run.returncode == EXIT_CONFIG
    assert "cannot write" in run.stderr
    assert "wrote" not in run.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["params.csv"]


def test_experiment_iterations_cover_the_script_tables():
    assert list(EXPERIMENT_ITERATIONS) == list(EXPERIMENT_PROBLEMS)
    n = len(EXPERIMENT_SMOOTHERS)
    assert all(len(iters) == n for iters in EXPERIMENT_ITERATIONS.values())


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
        ["--sizes", "16,16", "--degrees", "1"],
        ["--sizes", "4,4", "--degrees", "1"],
        ["--sizes", "16", "--degrees", "2,1,2"],
        ["--sizes", "16", "--degrees", "0"],
        ["--sizes", "16", "--degrees", "1,x"],
    ])
    def test_bad_values_are_config_errors(self, extra, capsys):
        assert main(["spectrum-grid"] + extra) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for option, value in zip(extra[::2], extra[1::2]):
            if "x" in value:  # a malformed entry names its option
                assert err.startswith(f"error: {option[2:]}: invalid literal")

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
