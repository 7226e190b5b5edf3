"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads spectrum-grid,optimize-beta --seeds 1-10 [--trace 0] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one process at a time,
with the ``command`` and ``run_seconds`` of BENCHMARK.json.  For every metric
it prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the distance between the quartiles as a share of the median.
A spread above a third of the metric's bound is flagged.  ``--out`` writes
the per-run values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, git_commit


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", help="comma-separated; default all")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "meta": {
            "commit": git_commit(ROOT),
            "run_seconds": spec["run_seconds"],
            "seeds": args.seeds,
            "trace": args.trace,
        },
        "runs": {},
        "summary": {},
    }
    ok = True
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: {elapsed:.1f} s  "
                  + "  ".join(f"{k}={v:.6g}" for k, v in values.items() if args.trace == 0),
                  flush=True)
            runs.append({"seed": seed, "elapsed_s": elapsed, **values})
        record["runs"][name] = runs
        if len(runs) < 2:
            continue
        summary = {}
        for metric in runs[0]:
            if metric in ("seed", "elapsed_s"):
                continue
            s = summarize([r[metric] for r in runs])
            summary[metric] = s
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and s["spread"] > bound / 3:
                flag = f"  SPREAD ABOVE A THIRD OF BOUND {bound}"
            if args.trace == 0 or flag:
                print(f"  {metric}: median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                      f"  spread {s['spread']:.4f}{flag}")
        record["summary"][name] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
