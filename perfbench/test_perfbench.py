"""Tests of the benchmark itself: python3 -m pytest perfbench -q (about a minute)."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from amgpoly import sparse  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_is_correct_and_reports_every_metric(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_wrapped_children_and_close_restores():
    ns = types.SimpleNamespace()
    ns.inner = lambda: time.sleep(0.03)

    def outer():
        time.sleep(0.02)
        ns.inner()

    ns.outer = outer
    originals = (ns.inner, ns.outer)
    tr = Tracer()
    tr.wrap(ns, "inner", "inner")
    tr.wrap(ns, "outer", "outer")
    ns.outer()
    tr.close()
    assert (ns.inner, ns.outer) == originals
    assert tr.calls == {"inner": 1, "outer": 1}
    assert tr.self_s["outer"] == pytest.approx(tr.total_s["outer"] - tr.total_s["inner"], abs=1e-3)
    assert 0.015 < tr.self_s["outer"] < tr.total_s["outer"]
    assert tr.root_s == tr.total_s["outer"]


def test_an_spmv_call_the_wrappers_miss_fails_the_check():
    raw = sparse.spmv  # bound before wrapping, like a call site nobody wrapped
    A = sparse.CsrMatrix.identity(4)
    tr = Tracer()
    accounting = workloads.SpmvAccounting(tr)
    accounting.install()
    before = sparse.spmv_count()
    A.matvec([1.0, 2.0, 3.0, 4.0])
    assert accounting.check(before) == []
    raw(A, [1.0, 2.0, 3.0, 4.0])
    tr.close()
    assert accounting.check(before)
    assert sparse.spmv is raw


def test_seed_changes_the_right_hand_side_not_the_operator():
    sets = {seed: workloads.make("aniso2d-m256-sa", seed, smoke=True).run_set(traced=True)
            for seed in (0, 5)}
    again = workloads.make("aniso2d-m256-sa", 5, smoke=True).run_set(traced=False)
    assert sets[0].failed == sets[5].failed == again.failed == 0
    assert sets[0].digest != sets[5].digest
    assert again.digest == sets[5].digest
    assert sets[0].layers["amg.levels"] == sets[5].layers["amg.levels"] == 3


def test_hierarchy_other_than_expected_fails():
    wl = workloads.make("poisson3d-m48-match", 0, smoke=True)
    wl.expected = dict(wl.expected, size=[1728, 216, 30])
    res = wl.run_set(traced=False)
    assert res.failed == 1 and "hierarchy" in res.problems[0]


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(20))) == (50, 9)
    assert run.tail(list(range(100))) == (90, 89)


def test_timing_is_the_lower_quartile_within_the_samples():
    assert run.timing([3.0, 1.0, 2.0]) == 1.5
    assert run.timing([4.0, 1.0, 3.0, 2.0, 5.0]) == 2.0
    assert run.timing([2.0, 2.0, 9.0]) == 2.0
