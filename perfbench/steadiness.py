#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads corpus,toric]
                                    [--trace-seed 1] [--out FILE]

Runs `run.py --trace 0` once per seed and workload (by default those in
BENCHMARK.json), one run at a time, with BENCHMARK.json's run_seconds.  For every end-to-end metric it
reports the median over the runs and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound.  With --trace-seed it also makes one
traced run per workload and keeps its per-layer table.  With --out it
writes all of it, every run's values and the layer-to-metric map as JSON;
perfbench/baseline.json is that file for the commit it names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run
from record_digests import seed_range

sys.path.insert(0, run.SRC)
import tracer  # noqa: E402  (imports okbodies)


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"git_sha": run.git_sha(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "run_seconds": bench["run_seconds"],
              "layer_map": {tracer.layer_name(m, q): moves
                            for m, q, _, moves in tracer.LAYERS},
              "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            last = run_bench(name, seed, bench["run_seconds"], 0)
            runs.append({"seed": seed, "correct": last["correct"],
                         "attempted": last["attempted"], "failed": last["failed"],
                         **{m: v["value"] for m, v in last["metrics"].items()}})
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={runs[-1][m]:.4g}" for m in bounds), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[metric] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "bound": bound}
            print(f"  {metric:12s} median {med:.4g}  spread {(q3 - q1) / med:.3f}"
                  f"  (bound {bound})", flush=True)
        report["workloads"][name] = {"runs": runs, "summary": summary}
        if args.trace_seed is not None:
            last = run_bench(name, args.trace_seed, bench["run_seconds"], 1)
            report["workloads"][name]["per_layer"] = {
                "seed": args.trace_seed, "correct": last["correct"],
                "metrics": {m: v["value"] for m, v in last["metrics"].items()}}
            print(f"  traced: overhead {last['metrics']['trace.overhead_s']['value']:.3g} s",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
