"""Steadiness mode: how much each end-to-end metric moves between runs.

Run from the root of a checkout::

    python3 perfbench/steadiness.py [--workload NAME ...] [--out FILE]

Runs every workload five times in each of two sets, each run with its
own seed (seeds 300 onwards; sets interleave workloads, so slow spells
on the host spread over all of them), and reports for every end-to-end
metric: each set's median and quartiles, the spread over all runs
(inter-quartile distance as a share of the median) and the gap between
the two sets' medians as a share of the first.  Spread and gap are
compared with the metric's bound from ``BENCHMARK.json``; ``--out``
writes the report as JSON (``perfbench/steadiness.json`` records the
latest one).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import describe, spread
from workloads import DEFAULT_SEED, HELD_OUT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETS = 2
RUNS = 5  # per set
FIRST_SEED = 300


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d):\n%s%s" % (
            workload, seed, proc.returncode, proc.stdout, proc.stderr))
    return json.loads(lines[-1])


def report(bench: dict, results: dict) -> dict:
    """Per workload and metric: set statistics, spread, gap, bound."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out: dict = {}
    for workload, sets in results.items():
        out[workload] = {}
        for metric, bound in bounds.items():
            per_set = [[r["metrics"][metric]["value"] for r in runs]
                       for runs in sets]
            every = [v for values in per_set for v in values]
            medians = [describe(values)["median"] for values in per_set]
            out[workload][metric] = {
                "sets": [describe(values) for values in per_set],
                "spread": spread(every),
                "gap": (medians[1] - medians[0]) / medians[0],
                "bound": bound,
            }
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Benchmark steadiness.")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workload or names
    seconds = bench["run_seconds"]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = FIRST_SEED
    for index in range(SETS):
        for _ in range(RUNS):
            for workload in workloads:
                result = run_once(workload, seed, seconds)
                results[workload][index].append(result)
                print("set %d seed %d %-17s %s" % (index, seed, workload, " ".join(
                    "%s=%.4g" % (m, v["value"])
                    for m, v in sorted(result["metrics"].items()))), flush=True)
            seed += 1

    summary = report(bench, results)
    for workload, metrics in summary.items():
        print(workload)
        for metric, s in metrics.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  spread above bound/3"
            print("  %-16s spread %6.3f  gap %+6.3f  bound %.2f%s" % (
                metric, s["spread"], s["gap"], s["bound"], flag))
    if args.out is not None:
        args.out.write_text(json.dumps({
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "runs_per_set": RUNS,
            "sets": SETS,
            "first_seed": FIRST_SEED,
            "run_seconds": seconds,
            "workloads": summary,
        }, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
