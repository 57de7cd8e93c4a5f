#!/usr/bin/env python3
"""The okbodies benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process runs one workload as a closed loop: one caller, no threads,
the next op starts when the previous one returns.  Passes over the
workload's fixed op list repeat until the next pass would end after
`--seconds`, with at least two passes.  Every op's result is checked after
its pass, outside the timers: exit code and status, the program's own
dual-route verdicts, and a SHA-256 of the canonical result compared with
the other passes and with `digests.json` for the seeds recorded there.

`--trace 0` reports the end-to-end metrics.  `--trace 1` spends half the
time on untraced passes and half on traced ones and reports the
per-layer metrics (see tracer.py) and the tracing overhead.  The last
line of standard output is one JSON object; a fuller record of the run
goes to `.perfbench/results/`.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("corpus", "curve-ladder", "toric", "rank-sweep")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_s.p50", "s"),
              ("op_s.max", "s"), ("peak_rss_mb", "MB"))
MIN_PASSES = 2
SETUP_SAMPLES = 7

# Time from a fresh interpreter to okbodies.cli imported and a first job
# parsed (which loads the schema).
SETUP_CODE = """\
import sys
import okbodies.cli
from okbodies import jobs
with open(sys.argv[1]) as fh:
    jobs.parse_job(fh.read())
"""


def missing_sources():
    for rel in ("src/okbodies/cli.py", "src/okbodies/schema/job.schema.json", "jobs"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            return rel
    return None


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summary(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values), "values": values}


def measure_setup(job_path: str, samples: int):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for i in range(samples + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, job_path],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        if i:  # the first start writes the bytecode cache
            times.append(t1 - t0)
    return times


def run_pass(workload, tracer=None) -> dict:
    """One timed pass over the op list, then the checks of its results."""
    values, times = [], []
    t_pass = time.perf_counter()
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            value, error = op.run(), None
        except Exception as exc:  # a failed op is counted, the run goes on
            value, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        values.append((value, error))
    wall = time.perf_counter() - t_pass

    digests, problems, verdicts = {}, {}, 0
    for op, (value, error) in zip(workload.ops, values):
        if error is None:
            try:
                checked = op.check(value)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            else:
                digests[op.name] = hashlib.sha256(checked.canonical).hexdigest()[:16]
                verdicts += checked.verdicts
                if checked.problems:
                    error = "; ".join(checked.problems)
        if error is not None:
            problems[op.name] = error
    return {"wall_s": wall, "op_s": dict(zip((op.name for op in workload.ops), times)),
            "digests": digests, "problems": problems, "verdicts": verdicts}


def run_passes(workload, budget: float, min_passes: int, tracer=None):
    passes = []
    start = time.perf_counter()
    while True:
        first = tracer.mark() if tracer is not None else 0
        passes.append(run_pass(workload, tracer))
        if tracer is not None:
            passes[-1]["layers"] = tracer.summarize(first, passes[-1]["wall_s"])
            passes[-1]["self_sum_s"] = tracer.self_time_sum(first)
            passes[-1]["first_span"] = first
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + passes[-1]["wall_s"] > budget:
            return passes


def load_reference(workload: str, seed: int):
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def grade(passes, reference, extra):
    """Fold the passes' checks into (attempted, failed, correctness record)."""
    attempted = failed = mismatched = 0
    first = passes[0]["digests"]
    problems = []
    for k, p in enumerate(passes):
        for name in p["op_s"]:
            attempted += 1
            why = p["problems"].get(name)
            if why is None and p["digests"][name] != first.get(name):
                why = "result differs from the first pass"
            if why is None and reference is not None and reference.get(name) != p["digests"][name]:
                why = "result differs from the reference digest"
                mismatched += 1
            if why is not None:
                failed += 1
                problems.append(f"pass {k}: {name}: {why}")
    record = {"digests": first,
              "reference": "unrecorded" if reference is None else
                           ("match" if not mismatched else "mismatch"),
              "dual_route_verdicts_passed": sum(p["verdicts"] for p in passes)}
    if extra is not None:
        attempted += extra.verdicts + len(extra.problems)
        failed += len(extra.problems)
        problems += [f"extra check: {p}" for p in extra.problems]
        record["extra_verdicts_passed"] = extra.verdicts
    record["problems"] = problems
    return attempted, failed, record


def end_to_end(passes, setup_times, peak_rss_mb) -> dict:
    series = {
        "setup_s": setup_times,
        "wall_s": [p["wall_s"] for p in passes],
        "op_s.p50": [statistics.median(p["op_s"].values()) for p in passes],
        "op_s.max": [max(p["op_s"].values()) for p in passes],
        "peak_rss_mb": [peak_rss_mb],
    }
    return {name: dict(summary(series[name]), unit=unit) for name, unit in END_TO_END}


def per_layer(traced, untraced) -> dict:
    """Counts from the first traced pass, times as medians over traced passes."""
    import tracer as tr
    layers = {}
    for name in tr.metric_names():
        if name.startswith("trace."):
            continue
        values = [p["layers"][name] for p in traced]
        is_time = name.endswith("_s")
        layers[name] = {"value": statistics.median(values) if is_time else values[0],
                        "unit": "s" if is_time else ("ratio" if name.startswith("ratio.") else "count")}
    wall_t = statistics.median(p["wall_s"] for p in traced)
    wall_u = statistics.median(p["wall_s"] for p in untraced)
    layers["trace.wall_s"] = {"value": wall_t, "unit": "s"}
    layers["trace.untraced_wall_s"] = {"value": wall_u, "unit": "s"}
    layers["trace.overhead_s"] = {"value": wall_t - wall_u, "unit": "s"}
    layers["trace.unwrapped_s"] = {
        "value": statistics.median(p["layers"]["trace.unwrapped_s"] for p in traced), "unit": "s"}
    layers["trace.spans"] = {"value": traced[0]["layers"]["trace.spans"], "unit": "count"}
    return layers


def run_one(args) -> int:
    import workloads
    import tracer as tr

    tmp = os.path.join(OUT, "tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        job_path = os.path.join(tmp, "setup-job.json")
        with open(job_path, "w") as fh:
            fh.write(workload.setup_job)
        setup_times = [] if args.trace else measure_setup(job_path, SETUP_SAMPLES)
        workloads.jobs.parse_job(workload.setup_job)  # lazy schema load, untimed

        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "run_seconds": args.seconds, "git_sha": git_sha(),
                  "python": platform.python_version(), "nproc": os.cpu_count(),
                  "platform": platform.platform(), "closed_loop_callers": 1}
        if args.trace:
            untraced = run_passes(workload, args.seconds / 2, 1)
            with tr.Tracer() as tracer:
                traced = run_passes(workload, args.seconds / 2, 1, tracer)
            passes = untraced + traced
        else:
            passes = run_passes(workload, args.seconds, MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra = workload.extra_checks() if workload.extra_checks else None
        attempted, failed, correctness = grade(
            passes, load_reference(args.workload, args.seed), extra)
        record["correctness"] = correctness
        record["fail_ratio"] = {"value": failed / attempted, "failed": failed,
                                "attempted": attempted}
        record["passes"] = [{"wall_s": p["wall_s"], "op_s": p["op_s"]} for p in passes]

        if args.trace:
            layers = per_layer(traced, untraced)
            bypassed = {name: layers[f"{name}.calls"]["value"]
                        for name in workloads.BYPASSED[args.workload]}
            record["layers"] = layers
            record["counts_per_pass"] = [
                {k: v for k, v in p["layers"].items() if not k.endswith("_s")}
                for p in traced]
            record["counts_repeat"] = all(
                c == record["counts_per_pass"][0] for c in record["counts_per_pass"])
            record["ratio_bases"] = {
                ratio: {"count": traced[0]["layers"][count], "base": traced[0]["layers"][base]}
                for ratio, (count, base) in tr.RATIOS.items()}
            record["self_time_check"] = [
                {"self_sum_s": p["self_sum_s"],
                 "unwrapped_s": p["layers"]["trace.unwrapped_s"], "wall_s": p["wall_s"]}
                for p in traced]
            record["bypassed_calls"] = bypassed
            metrics = {name: {"value": layers[name]["value"], "unit": layers[name]["unit"]}
                       for name in tr.metric_names()}
            first = traced[-1]["first_span"]
            spans = tracer.dump(first)
        else:
            e2e = end_to_end(passes, setup_times, peak_rss_mb)
            record["metrics"] = e2e
            metrics = {name: {"value": m["median"], "unit": m["unit"]} for name, m in e2e.items()}
            spans = None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"columns": ["name", "op", "parent", "start_s", "end_s"],
                       "spans": spans}, fh)

    for problem in record["correctness"]["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"fail_ratio={failed}/{attempted} reference={correctness['reference']}")
    if not args.trace:
        for name, m in record["metrics"].items():
            print(f"# {name:12s} {m['median']:.6g} {m['unit']}  "
                  f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['samples']})")
    else:
        print(f"# tracing overhead {layers['trace.overhead_s']['value']:.6g} s; "
              f"bypassed-layer calls {bypassed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = missing_sources()
    if missing is not None:
        print(f"error: {missing} not found under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
