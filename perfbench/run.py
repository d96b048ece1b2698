"""End-to-end benchmark of the memory-hierarchy simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-paper --seed 1 --seconds 25 --trace 0

Runs one workload (``cold-paper``, ``warm-matrix``, ``resident-service``,
or ``all`` for each in turn) for the measured window, checks that every
output is correct, prints a table of every metric with its unit and
sample count, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones.  Timings are in reference seconds: host seconds scaled by
a host-speed kernel timed around every repetition (``hostspeed.py``).  The
exit code is 0 only when every correctness check passed.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit, better) of every end-to-end metric (``--trace 0``).
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("sim_instr_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric (``--trace 1``).
PER_LAYER = (
    ("graph.build_s", "s", "lower"),
    ("graph.builds", "count", "lower"),
    ("workloads.trace_s", "s", "lower"),
    ("workloads.trace_refs_per_s", "1/s", "higher"),
    ("trace_cache.store_s", "s", "lower"),
    ("trace_cache.load_s", "s", "lower"),
    ("trace_cache.hit_ratio", "ratio", "higher"),
    ("trace.plan_s", "s", "lower"),
    ("trace.plan_builds", "count", "lower"),
    ("trace.replays_per_plan", "ratio", "higher"),
    ("system.replay_s", "s", "lower"),
    ("system.replay_vector_s", "s", "lower"),
    ("system.replay_degraded_s", "s", "lower"),
    ("system.host_ns_per_ref", "ns", "lower"),
    ("system.windows_degraded", "count", "lower"),
    ("prefetch.extra_replay_s", "s", "lower"),
    ("droplet.extra_replay_s", "s", "lower"),
    ("prefetch.issued", "count", "lower"),
    ("prefetch.useful", "count", "higher"),
    ("prefetch.accuracy", "ratio", "higher"),
    ("cache.llc_mpki", "1/kinstr", "lower"),
    ("cache.l2_hit_rate", "ratio", "higher"),
    ("dram.bpki", "1/kinstr", "lower"),
    ("reporting.summarize_s", "s", "lower"),
    ("runtime.ledger.append_s", "s", "lower"),
    ("runtime.orchestration_s", "s", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.first_settled_s", "s", "lower"),
    ("service.settle_s", "s", "lower"),
    ("service.results_s", "s", "lower"),
    ("service.resubmit_s", "s", "lower"),
    ("service.http_requests", "count", "lower"),
    ("service.idempotent_hits", "count", "higher"),
    ("service.rejected_429", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
)

WORKLOAD_NAMES = ("cold-paper", "warm-matrix", "resident-service")
MIN_REPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the memory-hierarchy simulator."
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (TraceSpec.seed); default 1")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured window per run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of traced repetitions")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb(child_kb: int = 0) -> float:
    """Peak RSS of this process plus ``child_kb`` (a daemon's own peak), in MB.

    Finished children are not read from ``RUSAGE_CHILDREN``: that would
    also count the set-up's import probes.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + child_kb) / 1024.0


def measure(workload, ctx):
    """Set up, run repetitions for the window, then check the outputs.

    Returns the repetitions, the peak RSS, read before the untimed
    checks so that they do not count, and the run's host-speed samples,
    one before set-up and one after every repetition.
    Between repetitions the workload takes one more set-up sample and
    the host-speed kernel runs once; that time is left out of the window.
    """
    from hostspeed import HostSpeed
    from tracing import Tracer

    speed = HostSpeed()
    speed.sample()
    workload.setup()
    reps = []
    start = time.perf_counter()
    paused = 0.0
    # At least three repetitions, so the median passes over a one-off
    # slow repetition; a traced run alternates untraced and traced ones.
    while (len(reps) < MIN_REPS
           or time.perf_counter() - start - paused < ctx.seconds):
        traced = ctx.trace and len(reps) % 2 == 1
        reps.append(workload.rep(len(reps), Tracer() if traced else None))
        pause = time.perf_counter()
        # The kernel runs first: right after the import probe's child
        # process it reads slower than the host is.
        speed.sample()
        workload.between_reps()
        paused += time.perf_counter() - pause
    rss = peak_rss_mb(workload.child_peak_kb)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    ctx.check(failed == 0, "%s: %d of %d points failed, were refused or "
              "missed their deadline" % (workload.name, failed, attempted))
    workload.check(reps)
    return reps, rss, speed


def end_to_end(workload, reps, rss: float, speed) -> dict:
    """End-to-end metrics, timings in reference seconds (``hostspeed``)."""
    from stats import describe, describe_sum

    walls = [r.wall * speed.rep_scale(i) for i, r in enumerate(reps)]
    rates = [r.instructions / wall for r, wall in zip(reps, walls)]
    scale = speed.scale()
    setup = [[t * scale for t in part] for part in workload.setup_parts()]
    return {
        "wall_s": describe(walls),
        "sim_instr_per_s": describe(rates),
        "setup_s": describe_sum(setup),
        "peak_rss_mb": describe([rss]),
    }


def per_layer(reps, speed) -> dict:
    """Per-layer metrics; times and rates in reference seconds."""
    from stats import describe

    traced = [(r, speed.rep_scale(i)) for i, r in enumerate(reps) if r.traced]
    untraced = [r for r in reps if not r.traced]
    # Scaling all of a repetition's times by one factor keeps its layer
    # times adding up to its scaled wall time.
    power = {"s": 1, "ns": 1, "1/s": -1}
    out = {
        name: describe([r.layers[name] * scale ** power.get(unit, 0)
                        for r, scale in traced])
        for name, unit, _better in PER_LAYER
        if name != "bench.trace_overhead_frac"
    }
    base = describe([r.wall for r in untraced])["median"]
    with_spans = describe([r.wall for r, _scale in traced])["median"]
    out["bench.trace_overhead_frac"] = describe([(with_spans - base) / base])
    return out


def render(title: str, stats: dict, units: dict) -> str:
    lines = [title, "  %-28s %14s %14s %14s %4s  %s"
             % ("metric", "median", "q1", "q3", "n", "unit")]
    for name, s in stats.items():
        lines.append("  %-28s %14.6g %14.6g %14.6g %4d  %s"
                     % (name, s["median"], s["q1"], s["q3"], s["n"], units[name]))
    return "\n".join(lines)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    from hostspeed import REFERENCE_S
    from stats import failed_fraction
    from workloads import WORKLOADS, Context

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    ctx = Context(root=ROOT, work=work, seed=seed, seconds=seconds, trace=trace)
    workload = WORKLOADS[name](ctx)
    try:
        reps, rss, speed = measure(workload, ctx)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if trace:
        stats = per_layer(reps, speed)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        stats = end_to_end(workload, reps, rss, speed)
        units = {n: u for n, u, _ in END_TO_END}
    print(render("%s (seed %d, %d repetitions, %s)"
                 % (name, seed, len(reps), "traced" if trace else "untraced"),
                 stats, units))
    print("  %-28s %14.6g %14s %14s %4d  %s" % (
        "failed_frac", failed_fraction(attempted, failed), "", "", attempted,
        "ratio"))
    print("  host speed: kernel median %.4f s over %d samples, reference "
          "%.4f s; run scale %.4f; median host wall_s %.6g s" % (
              statistics.median(speed.samples), len(speed.samples),
              REFERENCE_S, speed.scale(),
              statistics.median([r.wall for r in reps])))
    for message in ctx.failures:
        print("CHECK FAILED: %s" % message)
    payload = {
        "correct": not ctx.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": s["median"], "unit": units[metric]}
            for metric, s in stats.items()
        },
    }
    return payload, 0 if not ctx.failures else 1


def run_all(args, seed: int) -> tuple[dict, int]:
    """Each workload in its own process; metrics keyed ``workload/metric``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return merged, 2
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"]["%s/%s" % (name, metric)] = value
        code = max(code, proc.returncode)
    return merged, code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no simulator sources at %s/src/repro; run from the "
              "root of a checkout" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds through the finally blocks that stop the daemon and
    # remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from workloads import DEFAULT_SEED, BenchError

    seed = DEFAULT_SEED if args.seed is None else args.seed
    try:
        if args.workload == "all":
            payload, code = run_all(args, seed)
        else:
            payload, code = run_workload(args.workload, seed, args.seconds,
                                         bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        # OSError covers the daemon's HTTP errors (urllib.error.URLError).
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    if code == 2:
        return 2
    print(json.dumps(payload, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
