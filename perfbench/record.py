"""Record a point of the bench trajectory: repeated benchmark runs per workload.

    python3 perfbench/record.py --out perfbench/results/NAME.json [--runs 10]
        [--first-seed 1001] [--workload W ...]

For each workload this runs `perfbench/run.py` once per seed (seeds
first-seed, first-seed+1, ...) with `--trace 0` and the `run_seconds` of
BENCHMARK.json, then once with `--trace 1` at the default seed.  It writes the
median, quartiles and spread ((q3 - q1) / median) of every end-to-end metric,
the per-layer table of the traced run, and the machine it ran on, and prints
each spread against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import git_commit  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def spread_stats(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1001)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {
        "commit": git_commit(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            res = bench(workload, seed, seconds, 0)
            if not res["correct"]:
                steady = False
            runs.append(res)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {m['value']:.4f}" for k, m in res["metrics"].items()), flush=True)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = spread_stats([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = metric["unit"]
            entry["end_to_end"][name] = stats
            within = name == "setup_s" or stats["spread"] <= metric["bound"]
            steady = steady and within
            print(f"  {workload} {name}: median {stats['median']:.4f} {metric['unit']} "
                  f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} spread {stats['spread']:.4f} "
                  f"bound {metric['bound']} {'ok' if within else 'TOO WIDE'}", flush=True)
        traced = bench(workload, DEFAULT_SEED, seconds, 1)
        entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        record["workloads"][workload] = entry
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}; {'every spread within its bound' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
