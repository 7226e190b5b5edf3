"""amgpoly benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Runs from the root of a source checkout and imports ``amgpoly`` from its
``src/``.  The first set in the process is a warm-up: it runs traced, its
exact counts (iterations, work units, SpMVs) are kept and its times are
dropped.  Then sets run back to back until ``--seconds`` have passed.  With
``--trace 0`` every set is untraced (at least ``MIN_SETS``) and the
end-to-end metrics are printed: ``setup_s`` as the median over the sets,
``solve_s`` and ``wall_s`` as their lower quartile (see ``timing``).  With
``--trace 1`` untraced and traced sets alternate (at least ``MIN_PAIRS`` of
each) and the per-layer metrics are printed (medians over the traced sets),
including the tracing overhead (traced minus untraced wall time).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 when every check passed, 1 when one
failed, 2 when the program cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_SETS = 3  # untraced sets in a --trace 0 run
MIN_PAIRS = 2  # untraced and traced sets, each, in a --trace 1 run (besides the warm-up)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="seconds-long sizes, for testing the harness")
    return p.parse_args(argv)


def import_program():
    """Import amgpoly from this checkout's src/, or say why not."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import amgpoly
    except ImportError as exc:
        return f"cannot import amgpoly from {src}: {exc}"
    where = Path(amgpoly.__file__).resolve().parent
    if where != (src / "amgpoly").resolve():
        return f"amgpoly imported from {where}, not from {src}"
    return None


def git_commit(root):
    """HEAD of the checkout read from .git, or None where there is no .git directory."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, args):
    import numpy
    import scipy
    from workloads import nproc

    return {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "commit": git_commit(ROOT) or "unknown (not a git checkout)",
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("AMGPOLY_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "warmup": "the first set in the process runs traced; its times are in no metric",
        **workload.describe(),
    }


def tail(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def timing(values):
    """The value a run reports for solve_s and wall_s: the lower quartile over its sets.

    On a shared host the CPU's speed moves between regimes that last tens of
    seconds, so the median over a run reads whichever regime the run mostly
    saw, and medians of runs of the same code spread by up to 40 %.  The
    lower quartile reads the speed the program reaches whenever the host
    lets it, and needs only a quarter of a run's sets to see it.
    """
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def summary_line(name, unit, values):
    t = tail(values)
    tail_text = f"p{t[0]} {t[1]:.6g}" if t else "no tail percentile (fewer than 11 samples)"
    return (f"{name}: median {statistics.median(values):.6g} {unit}, "
            f"lower quartile {timing(values):.6g}, {tail_text}, "
            f"max {max(values):.6g}, N={len(values)}")


def run_sets(workload, seconds, trace):
    """Warm-up, then timed sets; returns (warm-up, untraced sets, traced sets, other sets)."""
    warm = workload.run_set(traced=True)
    # peak memory of one call as a user makes it; later sets only add allocator churn
    warm.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = workload.extra_sets()
    plain, traced = [], []
    start = perf_counter()
    while (perf_counter() - start < seconds
           or len(traced if trace else plain) < (MIN_PAIRS if trace else MIN_SETS)):
        if trace and len(traced) < len(plain):
            traced.append(workload.run_set(traced=True))
        else:
            plain.append(workload.run_set(traced=False))
    return warm, plain, traced, extra


def consistency_failures(warm, sets):
    """Outputs and exact counts must repeat exactly across every set of the run."""
    out = []
    for i, s in enumerate(sets):
        if s.digest != warm.digest:
            out.append(f"set {i}: output digest differs from the warm-up's")
        if s.iterations != warm.iterations:
            out.append(f"set {i}: {s.iterations} iterations, warm-up had {warm.iterations}")
        if s.work_units is not None and s.work_units != warm.work_units:
            out.append(f"set {i}: work units {s.work_units} differ from the warm-up's {warm.work_units}")
    return out


def main(argv=None):
    args = parse_args(argv)
    error = import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.make(args.workload, args.seed, args.smoke)
    print("env " + json.dumps(environment(workload, args), sort_keys=True), flush=True)

    warm, plain, traced, extra = run_sets(workload, args.seconds, args.trace)
    sets = [warm, *plain, *traced, *extra]
    attempted = sum(s.attempted for s in sets)
    failed = sum(s.failed for s in sets)
    problems = [p for s in sets for p in s.problems]
    # one determinism comparison per set after the warm-up
    repeat = consistency_failures(warm, sets[1:])
    attempted += len(sets) - 1
    failed += len(repeat)
    problems += repeat
    for p in problems:
        print(f"FAILED {p}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in ("setup_s", "solve_s", "wall_s"):
        print(summary_line(name, "s", [getattr(s, name) for s in plain]))
    print(f"exact: iterations {warm.iterations}, work_units {warm.work_units}")

    if args.trace:
        layer = {
            name: statistics.median(s.layers[name] for s in traced) for name in traced[0].layers
        }
        layer["trace.overhead_s"] = (timing([s.wall_s for s in traced])
                                     - timing([s.wall_s for s in plain]))
        values = layer
    else:
        values = {
            "setup_s": statistics.median(s.setup_s for s in plain),
            "solve_s": timing([s.solve_s for s in plain]),
            "wall_s": timing([s.wall_s for s in plain]),
            "iterations": warm.iterations,
            "work_units": warm.work_units,
            "peak_rss_mb": warm.peak_rss_mb,
            "pass_rate": (attempted - failed) / attempted,
        }
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(values) != sorted(wanted):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(wanted)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in wanted}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
