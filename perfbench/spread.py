#!/usr/bin/env python3
"""Run the benchmark over several seeds and report the spread of every metric.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
        [--workloads interactive,rows,exhaustive] [--trace] [--json OUT]

For each workload, runs ``perfbench/run.py`` once per seed (seeds first-seed,
first-seed + 1, ...) with the ``run_seconds`` of BENCHMARK.json, and prints
each end-to-end metric's median, first and third quartiles and quartile
spread, (q3 - q1) / median, next to the metric's bound.  A spread above a
third of its bound is flagged: the benchmark is meant to stay below that.

--trace also makes one traced run per seed and reports the per-layer medians
and the tracing overhead: median traced wall_s minus median untraced wall_s.
--json writes everything, with the raw values, to OUT.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
    return result


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0,
            "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: (m["bound"], m["unit"]) for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    report = {"run_seconds": bench["run_seconds"], "seeds": list(seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, bench["run_seconds"], 0) for s in seeds]
        entry = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": {m: summarize([r["metrics"][m]["value"] for r in runs]) for m in bounds},
        }
        print(f"{workload}: {len(runs)} runs, {entry['failed']} of {entry['attempted']} "
              "operations failed")
        for m, s in entry["end_to_end"].items():
            bound, unit = bounds[m]
            flag = "" if s["spread"] < bound / 3 else "   <-- above a third of the bound"
            print(f"  {m:<12} median {s['median']:.6g} {unit}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {bound}{flag}")
        if args.trace:
            traced = [run_once(workload, s, bench["run_seconds"], 1) for s in seeds]
            layers = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in traced])
                      for m in bench["per_layer"]}
            overhead = layers["trace.wall_s"]["median"] - entry["end_to_end"]["wall_s"]["median"]
            entry["per_layer"] = layers
            entry["trace_overhead_s"] = overhead
            print(f"  tracing overhead {overhead:.4g} s "
                  f"({overhead / entry['end_to_end']['wall_s']['median']:.1%} of wall_s)")
            for m, s in layers.items():
                print(f"    {m:<36} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}")
        report["workloads"][workload] = entry
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
