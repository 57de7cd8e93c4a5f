#!/usr/bin/env python3
"""Record the reference digests that run.py checks results against.

    python3 perfbench/record_digests.py --seeds 1-20 [--workloads toric,rank-sweep]

Runs one untraced pass of each workload for each seed and writes the
digest of every op's canonical result to perfbench/digests.json, keeping
the entries of workloads not named.  Record
them only from a commit whose results are known to be right: a later
change that alters any canonical byte then shows up as a failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-20"))
    parser.add_argument("--workloads", default=",".join(run.WORKLOAD_NAMES))
    args = parser.parse_args(argv)
    missing = run.missing_sources()
    if missing is not None:
        print(f"error: {missing} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    import workloads

    path = os.path.join(run.HERE, "digests.json")
    digests = {}
    if os.path.exists(path):
        with open(path) as fh:
            digests = json.load(fh)
    tmp = os.path.join(run.OUT, "tmp", f"record-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        for name in args.workloads.split(","):
            digests[name] = {}
            for seed in args.seeds:
                result = run.run_pass(workloads.WORKLOADS[name](seed, tmp))
                if result["problems"]:
                    print(f"{name} seed {seed}: {result['problems']}", file=sys.stderr)
                    return 1
                digests[name][str(seed)] = result["digests"]
                print(f"{name} seed {seed}: {len(result['digests'])} ops, "
                      f"{result['wall_s']:.2f} s", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
