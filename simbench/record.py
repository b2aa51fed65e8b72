#!/usr/bin/env python3
"""Runs the simulator benchmark repeatedly and records the spread.

Usage, from the root of the repository:

    python3 simbench/record.py [--workloads mix2,wide32,shared8] [--runs 10]
        [--seconds 30] [--first-seed 1] [--traced] [--out FILE]

For each workload it makes ``--runs`` timed runs, seeds ``--first-seed``
upwards, and prints each end-to-end metric's median, first and third
quartiles (``statistics.quantiles(values, n=4)``) and their spread
(IQR / median). ``--traced`` adds one traced run per workload at the
default seed 42. ``--out`` writes everything, with the host (CPU count and
model), the git revision and the raw results, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
DEFAULT_SEED = 42


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["wall_s"] = wall
    return result


def summarize(results):
    names = list(results[0]["metrics"])
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=HERE).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    return {"nproc": os.cpu_count(), "cpu": model, "machine": platform.machine(),
            "git_rev": rev}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="mix2,wide32,shared8")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    record = {"host": host(), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        results = [run_once(workload, s, args.seconds, False) for s in seeds]
        summary = summarize(results) if len(results) >= 2 else {}
        entry = {
            "seeds": seeds,
            "runs_attempted": sum(r["attempted"] for r in results),
            "runs_failed": sum(r["failed"] for r in results),
            "summary": summary,
            "results": results,
        }
        print(f"{workload}: {entry['runs_failed']} of {entry['runs_attempted']} runs failed")
        for name, s in summary.items():
            print(f"  {name:<20} median {s['median']:12.4f} {s['unit']:<4} "
                  f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} spread {s['spread']:.4f}")
        if args.traced:
            traced = run_once(workload, DEFAULT_SEED, args.seconds, True)
            entry["traced"] = traced
            print(f"  traced seed {DEFAULT_SEED}: {traced['failed']} of "
                  f"{traced['attempted']} runs failed, {traced['wall_s']:.1f} s")
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
