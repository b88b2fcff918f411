#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 bench/spread.py --workloads seed_ensemble,storage_sweep \
        --seeds 1,2,3,4,5,6,7,8,9,10 [--out bench/baseline.json]

Every run is a fresh ``bench/run.py`` process with ``run_seconds`` from
BENCHMARK.json.  For each workload and end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import ROOT, run_child


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--out", help="write the runs and their spreads here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, summary = run_child(workload, seed, spec["run_seconds"])
            ok &= result["correct"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "op_ms_p90": summary["op_ms_p90"],
                         **{k: m["value"] for k, m in result["metrics"].items()}})
            report.setdefault("environment", summary["environment"])
            print(json.dumps(runs[-1]), flush=True)
        stats = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            stats[metric] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "bound": bound}
            print(f"{workload:<18} {metric:<12} median {median:<12.6g} "
                  f"spread {(q3 - q1) / median:.4f} (bound {bound})")
        report["workloads"][workload] = {"runs": runs, "stats": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
