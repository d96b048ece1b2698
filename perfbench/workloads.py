"""The benchmark's three workloads and the correctness checks on them.

Every workload drives the simulator only through its public entry
points (``TraceSpec``, ``TraceCache``, ``SweepRunner``, ``simulate``,
``summarize`` and the ``repro serve`` HTTP API) and takes the workload
seed as ``TraceSpec.seed``.  Each one runs *repetitions* of a fixed set
of points for the measured window; ``wall_s`` is the host time one
repetition takes to settle every point.

* ``cold-paper`` -- paper-regime graphs (``scale_shift`` 0), a fresh empty
  trace cache per repetition, an in-process serial ``SweepRunner``:
  graph build, trace generation and ``TraceCache.store`` dominate.
* ``warm-matrix`` -- the same traces loaded from a cache filled during
  set-up, run under the Fig. 11 prefetcher matrix, one L1-filling setup
  and Fig. 4 cache-geometry variants: replay and prefetcher models
  dominate.
* ``resident-service`` -- small graphs that fit the scaled LLC, short
  ``none`` runs with ROB/MRB/LLC variants submitted to a ``repro serve``
  daemon: per-point orchestration is a large share.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import selectors
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field, replace
from pathlib import Path

from tracing import Span, Tracer, covered, install_layer_patches, self_times

#: Seed used when none is given, and the seed held out while tuning the
#: benchmark: a claimed gain must also hold on the held-out seed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: Paper-regime traces shared by cold-paper and warm-matrix: PageRank's
#: indirect property gathers on the skewed Kronecker graph, and BFS's
#: frontier-driven accesses on the uniform graph.
PAPER_SPECS = (("PR", "kron"), ("BFS", "urand"))
PAPER_REFS = 40_000

#: Resident graphs: at ``scale_shift`` -7 the kron footprint fits the
#: scaled LLC (LLC MPKI about 8 against 70 at scale 0).
RESIDENT_SPECS = (("PR", "kron"), ("BFS", "kron"))
RESIDENT_SHIFT = -7
RESIDENT_REFS = 50_000

#: The Fig. 11 prefetcher matrix (warm-matrix runs it on PR/kron).
FIG11_SETUPS = ("none", "ghb", "vldp", "stream", "streamMPP1", "droplet")
#: The L1-filling setup, replayed on the fast path's degraded tier.
L1_FILLING_SETUP = "monoDROPLETL1"
#: Fig. 4 LLC/L2 geometry variants, on the no-prefetch baseline.
GEOMETRY_VARIANTS = (
    {"llc_multiplier": 2},
    {"llc_multiplier": 4},
    {"l2_config": (2, 8)},
    {"l2_config": (None, 8)},
)

#: Machine variants of the resident-service submissions.  Spec B shares
#: its first four variants (half its points) with spec A.
RESIDENT_VARIANTS_A = (
    {},
    {"rob_entries": 64},
    {"rob_entries": 256},
    {"mrb_entries": 32},
    {"mrb_entries": 128},
    {"llc_multiplier": 2},
    {"llc_multiplier": 4},
    {"rob_entries": 256, "llc_multiplier": 2},
)
RESIDENT_VARIANTS_B = RESIDENT_VARIANTS_A[:4] + (
    {"rob_entries": 32},
    {"rob_entries": 512},
    {"mrb_entries": 64},
    {"llc_multiplier": 8},
)
#: Daemon worker threads (at most ``nproc``).  One worker keeps the
#: daemon's per-layer busy times additive against the client's wall time.
SERVICE_WORKERS = 1
#: Per-sweep deadline; a point still unsettled after it counts as failed.
SERVICE_DEADLINE_S = 120.0
#: Status polling interval of the client while a run settles.
POLL_S = 0.05
#: Trace-cache fills per run; ``setup_s`` counts their median.  Import
#: probes are taken once before and once after every repetition.
SETUP_SAMPLES = 2

#: Layer self-time metrics: metric name -> span name.
LAYER_SPANS = {
    "graph.build_s": "graph.build",
    "workloads.trace_s": "workloads.trace",
    "trace_cache.store_s": "trace_cache.store",
    "trace_cache.load_s": "trace_cache.load",
    "trace.plan_s": "trace.plan",
    "system.replay_s": "system.simulate",
    "reporting.summarize_s": "reporting.summarize",
    "runtime.ledger.append_s": "runtime.ledger.append",
}
SERVICE_PHASES = ("submit", "settle", "results", "resubmit")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong result)."""


# ----------------------------------------------------------------------
@dataclass
class Context:
    """Per-run state: where to work, what to measure, what went wrong."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    failures: list = field(default_factory=list)
    _dirs: int = 0

    @property
    def alt_seed(self) -> int:
        return HELD_OUT_SEED if self.seed != HELD_OUT_SEED else DEFAULT_SEED

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.work / ("%s-%d" % (prefix, self._dirs))
        path.mkdir(parents=True)
        return path

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def env(self, **extra) -> dict:
        """Environment for child processes: this checkout's sources only."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_TRACE_CACHE"] = str(self.work / "default-traces")
        env["REPRO_RUN_LEDGER"] = str(self.work / "default-runs")
        env.update(extra)
        return env


@dataclass
class Rep:
    """One repetition: its wall time and what it settled."""

    wall: float
    summaries: dict  # point label -> JSON-normalized summary
    instructions: int
    attempted: int
    failed: int
    traced: bool = False
    layers: dict | None = None


def normalized(summary: dict) -> dict:
    """A summary as it reads after a JSON round trip (ledger, HTTP)."""
    return json.loads(json.dumps(summary))


def trace_digest(trace) -> str:
    """SHA-256 over the five parallel arrays of a trace."""
    digest = hashlib.sha256()
    for name in ("addr", "kind", "is_load", "dep", "gap"):
        digest.update(getattr(trace, name).tobytes())
    return digest.hexdigest()


def import_seconds(ctx: Context) -> float:
    """Import time of the simulator's public modules, in a fresh interpreter."""
    code = (
        "import time\n"
        "t = time.perf_counter()\n"
        "import repro.runtime, repro.system.runner, repro.reporting\n"
        "import repro.service.client\n"
        "print(time.perf_counter() - t)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=ctx.env(), capture_output=True,
        text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
def simulated_metrics(summaries) -> dict:
    """Simulated counts over a repetition's points (invariance checks)."""
    summaries = list(summaries)
    instructions = sum(s["instructions"] for s in summaries)
    issued = sum(s["pf_issued"] for s in summaries)
    useful = sum(s["pf_useful"] for s in summaries)

    def weighted(key):
        return sum(s[key] * s["instructions"] for s in summaries) / instructions

    return {
        "prefetch.issued": issued,
        "prefetch.useful": useful,
        "prefetch.accuracy": useful / issued if issued else 0.0,
        "cache.llc_mpki": weighted("llc_mpki"),
        "cache.l2_hit_rate": weighted("l2_hit_rate"),
        "dram.bpki": weighted("bpki"),
    }


def _uses_mpp(setup: str) -> bool:
    from repro.droplet.composite import make_prefetch_setup

    return make_prefetch_setup(setup).use_mpp


def extra_replay(spans, selfs) -> tuple[float, float]:
    """Prefetcher and MPP replay cost over the same trace and geometry.

    ``prefetch``: each prefetching setup's replay minus ``none``'s;
    ``droplet``: each MPP setup's replay minus ``stream``'s.  Points
    without the matching baseline in the repetition add nothing.
    """
    points = {s.id: s.attrs["point"] for s in spans if s.name == "runtime.point"}
    groups: dict = {}
    for span in spans:
        if span.name != "system.simulate" or span.parent not in points:
            continue
        point = dict(points[span.parent])
        setup = point.pop("setup")
        key = json.dumps(point, sort_keys=True)
        groups.setdefault(key, {})
        groups[key][setup] = groups[key].get(setup, 0.0) + selfs[span.id]
    prefetch = droplet = 0.0
    for times in groups.values():
        for setup, seconds in times.items():
            if setup != "none" and "none" in times:
                prefetch += seconds - times["none"]
            if "stream" in times and _uses_mpp(setup):
                droplet += seconds - times["stream"]
    return prefetch, droplet


def layer_metrics(spans, wall: float, top, summaries, service=None) -> dict:
    """Per-layer metrics of one traced repetition.

    ``top`` are the spans whose union is the repetition's attributed
    time; ``unattributed_s`` is the rest of ``wall``, and
    ``runtime.orchestration_s`` is the attributed time no layer span
    covers as its self time.
    """
    selfs = self_times(spans)
    out: dict = {}
    for metric, name in LAYER_SPANS.items():
        out[metric] = sum(selfs[s.id] for s in spans if s.name == name)

    def named(name):
        return [s for s in spans if s.name == name]

    out["graph.builds"] = len(named("graph.build"))
    traced_refs = sum(s.attrs["refs"] for s in named("workloads.trace"))
    out["workloads.trace_refs_per_s"] = (
        traced_refs / out["workloads.trace_s"] if out["workloads.trace_s"] else 0.0
    )
    loads = named("trace_cache.load")
    out["trace_cache.hit_ratio"] = (
        sum(1 for s in loads if s.attrs["hit"]) / len(loads) if loads else 0.0
    )
    sims = named("system.simulate")
    out["trace.plan_builds"] = len(named("trace.plan"))
    fast = sum(1 for s in sims if s.attrs["tier"] != "scalar")
    out["trace.replays_per_plan"] = (
        fast / out["trace.plan_builds"] if out["trace.plan_builds"] else 0.0
    )
    for tier in ("vector", "degraded"):
        out["system.replay_%s_s" % tier] = sum(
            selfs[s.id] for s in sims if s.attrs["tier"] == tier
        )
    replayed = sum(s.attrs["refs"] for s in sims)
    out["system.host_ns_per_ref"] = (
        out["system.replay_s"] / replayed * 1e9 if replayed else 0.0
    )
    out["system.windows_degraded"] = sum(s.attrs["windows_degraded"] for s in sims)
    out["prefetch.extra_replay_s"], out["droplet.extra_replay_s"] = extra_replay(
        spans, selfs
    )
    out.update(simulated_metrics(summaries))
    attributed = covered([(s.start, s.end) for s in top], -float("inf"), float("inf"))
    out["unattributed_s"] = wall - attributed
    out["runtime.orchestration_s"] = attributed - sum(
        out[m] for m in LAYER_SPANS
    )
    service = service or {}
    for phase in SERVICE_PHASES:
        out["service.%s_s" % phase] = sum(
            s.duration for s in top if s.name == "service." + phase
        )
    for key in ("first_settled_s", "http_requests", "idempotent_hits",
                "rejected_429"):
        out["service." + key] = service.get(key, 0)
    return out


# ----------------------------------------------------------------------
class Workload:
    """A fixed list of points, repeated for the measured window."""

    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.import_samples: list[float] = []
        self.fill_samples: list[float] = []
        self.daemon_samples: list[float] = []
        #: Peak RSS in KiB of the largest child process that stays
        #: resident beside this one (the daemon), 0 when there is none.
        self.child_peak_kb = 0

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        self.import_samples.append(import_seconds(self.ctx))

    def between_reps(self) -> None:
        """One more import probe, so the samples span the whole run."""
        self.import_samples.append(import_seconds(self.ctx))

    def setup_parts(self) -> list[list[float]]:
        """Samples of each set-up part: import, cache fill, daemon start.

        ``setup_s`` adds the parts' medians; the daemon restarts every
        repetition, so each part has several samples.
        """
        return [p for p in (self.import_samples, self.fill_samples,
                            self.daemon_samples) if p]

    def fill(self, specs) -> tuple[Path, dict, dict]:
        """Fill a fresh trace cache with ``specs`` (one set-up sample).

        Returns the cache root, the generated runs and their digests.
        """
        from repro.runtime import TraceCache

        root = self.ctx.fresh_dir("traces")
        cache = TraceCache(root)
        start = time.perf_counter()
        runs = {spec: cache.get_or_trace(spec)[0] for spec in specs}
        self.fill_samples.append(time.perf_counter() - start)
        return root, runs, {s: trace_digest(r.trace) for s, r in runs.items()}

    # -- measurement ---------------------------------------------------
    def rep(self, index: int, tracer: Tracer | None) -> Rep:
        raise NotImplementedError

    def check(self, reps: list[Rep]) -> None:
        raise NotImplementedError

    def labels(self) -> set:
        """Labels of every point a repetition must settle."""
        raise NotImplementedError

    def close(self) -> None:
        """Release anything a failed run left behind."""

    # -- shared checks -------------------------------------------------
    def check_repeats(self, reps: list[Rep]) -> None:
        """Every repetition settles every point, with the same summaries."""
        expected = self.labels()
        for index, rep in enumerate(reps):
            missing = sorted(expected - set(rep.summaries))
            self.ctx.check(
                not missing,
                "%s: repetition %d settled no summary for %s"
                % (self.name, index, ", ".join(missing)),
            )
        first = reps[0].summaries
        for index, rep in enumerate(reps[1:], 1):
            for label in first:
                self.ctx.check(
                    rep.summaries.get(label) == first[label],
                    "%s: repetition %d changed the summary of %s"
                    % (self.name, index, label),
                )

    def check_seed(self, digests: list[dict], alt_spec) -> None:
        """Same seed reproduces the trace digests; another seed changes them."""
        for other in digests[1:]:
            self.ctx.check(
                other == digests[0],
                "%s: the same seed produced different traces" % self.name,
            )
        alt = replace(alt_spec, seed=self.ctx.alt_seed)
        alt_digest = trace_digest(alt.trace().trace)
        self.ctx.check(
            alt_digest != digests[0][alt_spec],
            "%s: seed %d and seed %d gave the same %s/%s trace"
            % (self.name, self.ctx.seed, self.ctx.alt_seed,
               alt_spec.workload, alt_spec.dataset),
        )

    def check_scalar(self, points, expected: dict, run_of) -> None:
        """Re-run the seed's rotating point on the scalar reference path.

        ``run_of(spec)`` returns the point's trace run.
        """
        from repro.reporting import summarize
        from repro.runtime.executor import resolve_point_config
        from repro.system import SystemConfig
        from repro.system.runner import simulate

        point = points[self.ctx.seed % len(points)]
        result = simulate(
            run_of(point.trace_spec),
            config=resolve_point_config(point, SystemConfig.scaled_baseline()),
            setup=point.setup,
            fast_path="off",
        )
        self.ctx.check(
            result.fast_path is False
            and normalized(summarize(result)) == expected.get(point.label),
            "%s: scalar re-run of %s differs from the fast path"
            % (self.name, point.label),
        )


def cached_run(cache_root: Path):
    """``spec -> trace run`` loaded from the trace cache at ``cache_root``."""
    from repro.runtime import TraceCache

    cache = TraceCache(cache_root)
    return lambda spec: cache.get_or_trace(spec)[0]


def paper_specs(seed: int):
    from repro.runtime import TraceSpec

    return [
        TraceSpec(workload, dataset, max_refs=PAPER_REFS, scale_shift=0,
                  seed=seed)
        for workload, dataset in PAPER_SPECS
    ]


def cold_points(seed: int):
    """The cold-paper points, which warm-matrix also runs."""
    from repro.runtime import SweepPoint

    return [
        SweepPoint(spec.workload, spec.dataset, setup=setup,
                   max_refs=spec.max_refs, scale_shift=spec.scale_shift,
                   seed=seed)
        for spec in paper_specs(seed)
        for setup in ("none", "droplet")
    ]


class InProcessWorkload(Workload):
    """Repetitions as one serial, ledgered ``SweepRunner.run`` each.

    Mirrors ``repro sweep``'s default path: a run ledger plus a span
    sidecar, on a fresh ledger root per repetition.
    """

    points: list

    def labels(self) -> set:
        return {point.label for point in self.points}

    def cache_root(self) -> Path:
        raise NotImplementedError

    def rep(self, index: int, tracer: Tracer | None) -> Rep:
        from repro.runtime import RunLedger, SweepRunner, TraceCache
        from repro.telemetry import spans

        rep_dir = self.ctx.fresh_dir("rep")
        ledger = RunLedger("rep-%d" % index, root=rep_dir / "ledger")
        runner = SweepRunner(
            trace_cache=TraceCache(self.cache_root()),
            return_full=False,
            ledger=ledger,
            tracer=spans.SpanRecorder(sidecar=spans.sidecar_path(ledger.path)),
        )
        if tracer is not None:
            install_layer_patches(tracer)
        gc.collect()
        try:
            start = time.perf_counter()
            report = runner.run(self.points)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
        summaries = {
            p.point.label: normalized(p.summary) for p in report.points if p.ok
        }
        rep = Rep(
            wall=wall,
            summaries=summaries,
            instructions=sum(s["instructions"] for s in summaries.values()),
            attempted=len(report.points),
            failed=len(report.errors()),
            traced=tracer is not None,
        )
        for failed in report.errors():
            print("%s: point %s failed: %s" % (
                self.name, failed.point.label, failed.error.message),
                file=sys.stderr)
        if tracer is not None:
            spans_ = tracer.between(start, start + wall)
            rep.layers = layer_metrics(
                spans_, wall, [s for s in spans_ if s.parent is None],
                summaries.values(),
            )
        self.after_rep(rep)
        return rep

    def after_rep(self, rep: Rep) -> None:
        pass


class ColdPaper(InProcessWorkload):
    name = "cold-paper"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.specs = paper_specs(ctx.seed)
        self.points = cold_points(ctx.seed)
        self.digests: list[dict] = []
        self._cache = None

    def cache_root(self) -> Path:
        self._cache = self.ctx.fresh_dir("cold-traces")
        return self._cache

    def after_rep(self, rep: Rep) -> None:
        from repro.runtime.trace_cache import trace_key
        from repro.trace.io import load_trace

        self.digests.append({
            spec: trace_digest(load_trace(self._cache / (trace_key(spec) + ".npz")))
            for spec in self.specs
        })

    def check(self, reps: list[Rep]) -> None:
        self.check_repeats(reps)
        self.check_seed(self.digests, self.specs[-1])
        self.check_scalar(self.points, reps[0].summaries,
                          cached_run(self._cache))


class WarmMatrix(InProcessWorkload):
    name = "warm-matrix"

    def __init__(self, ctx: Context):
        from repro.runtime import SweepPoint

        super().__init__(ctx)
        self.specs = paper_specs(ctx.seed)
        pr, bfs = self.specs

        def point(spec, setup="none", **variant):
            return SweepPoint(spec.workload, spec.dataset, setup=setup,
                              max_refs=spec.max_refs,
                              scale_shift=spec.scale_shift, seed=ctx.seed,
                              **variant)

        self.points = (
            [point(pr, setup) for setup in FIG11_SETUPS + (L1_FILLING_SETUP,)]
            + [point(pr, **variant) for variant in GEOMETRY_VARIANTS]
            + [point(bfs, setup) for setup in ("none", "stream", "droplet")]
        )
        self.digests: list[dict] = []
        self.runs: dict = {}
        self._cache = None

    def setup(self) -> None:
        super().setup()
        for _ in range(SETUP_SAMPLES):
            self.runs = {}  # one fill's traces in memory at a time
            self._cache, self.runs, digests = self.fill(self.specs)
            self.digests.append(digests)

    def cache_root(self) -> Path:
        return self._cache

    def check(self, reps: list[Rep]) -> None:
        from repro.reporting import summarize
        from repro.system.runner import simulate

        self.check_repeats(reps)
        self.check_seed(self.digests, self.specs[-1])
        self.check_scalar(self.points, reps[0].summaries, self.runs.__getitem__)
        # cold-paper's path: simulate on freshly generated traces.
        for point in cold_points(self.ctx.seed):
            run = self.runs[point.trace_spec]
            cold = normalized(summarize(simulate(run, setup=point.setup)))
            self.ctx.check(
                cold == reps[0].summaries.get(point.label),
                "warm-matrix: %s differs between a cache-loaded and a "
                "freshly generated trace" % point.label,
            )


# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` process on a fresh ledger root."""

    def __init__(self, ctx: Context, rep_dir: Path, cache_root: Path,
                 spans_out: Path | None):
        cmd = [
            sys.executable, "-u", str(Path(__file__).with_name("daemon.py")),
            "--src", str(ctx.root / "src"),
        ]
        self.rss_out = rep_dir / "daemon-rss.json"
        cmd += ["--rss-out", str(self.rss_out)]
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
        cmd += [
            "--", "--port", "0", "--workers", str(SERVICE_WORKERS),
            "--ledger-root", str(rep_dir / "ledger"),
        ]
        with open(rep_dir / "daemon.log", "w") as log:
            self.proc = subprocess.Popen(
                cmd, env=ctx.env(REPRO_TRACE_CACHE=str(cache_root)),
                stdout=subprocess.PIPE, stderr=log, text=True,
            )
        self.url = self._await_url(timeout=60.0)

    def _await_url(self, timeout: float) -> str:
        marker = "listening on "
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if marker in line:
                    return line.split(marker, 1)[1].strip()
        self.stop()
        raise BenchError("repro serve did not start")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def peak_kb(self) -> int:
        """The stopped daemon's own peak RSS plus its largest child's, in KiB."""
        try:
            return int(json.loads(self.rss_out.read_text())["peak_kb"])
        except (OSError, ValueError, KeyError) as exc:
            raise BenchError("repro serve exited without reporting its peak "
                             "RSS: %s" % exc) from exc


class ResidentService(Workload):
    name = "resident-service"

    def __init__(self, ctx: Context):
        from repro.runtime import SweepPoint, TraceSpec

        super().__init__(ctx)
        self.specs = [
            TraceSpec(workload, dataset, max_refs=RESIDENT_REFS,
                      scale_shift=RESIDENT_SHIFT, seed=ctx.seed)
            for workload, dataset in RESIDENT_SPECS
        ]

        def entries(variants):
            return [
                dict(workload=s.workload, dataset=s.dataset, setup="none",
                     seed=ctx.seed, **variant)
                for s in self.specs for variant in variants
            ]

        def spec(points):
            return {"points": points, "max_refs": RESIDENT_REFS,
                    "scale_shift": RESIDENT_SHIFT,
                    "deadline": SERVICE_DEADLINE_S}

        self.spec_a = spec(entries(RESIDENT_VARIANTS_A))
        self.spec_b = spec(entries(RESIDENT_VARIANTS_B))
        self.points = {}
        for entry in self.spec_a["points"] + self.spec_b["points"]:
            point = SweepPoint(max_refs=RESIDENT_REFS,
                               scale_shift=RESIDENT_SHIFT, **entry)
            self.points[point.label] = point
        self.digests: list[dict] = []
        self._cache = None
        self.daemon: Daemon | None = None

    def setup(self) -> None:
        super().setup()
        for _ in range(SETUP_SAMPLES):
            self._cache, _runs, digests = self.fill(self.specs)
            self.digests.append(digests)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def labels(self) -> set:
        return set(self.points)

    def _labelled(self, results: dict) -> dict:
        from repro.runtime.ledger import point_key

        by_key = {point_key(p): label for label, p in self.points.items()}
        return {
            by_key[key]: entry["summary"]
            for key, entry in results["points"].items()
            if key in by_key and entry.get("summary") is not None
        }

    def rep(self, index: int, tracer: Tracer | None) -> Rep:
        from repro.service import client
        from repro.telemetry.export import parse_prom_text

        rep_dir = self.ctx.fresh_dir("service")
        spans_out = rep_dir / "daemon-spans.json" if tracer else None
        started = time.perf_counter()
        self.daemon = Daemon(self.ctx, rep_dir, self._cache, spans_out)
        url = self.daemon.url
        if tracer is None:
            tracer = Tracer()  # client phases only: cheap, no patches
            keep_spans = False
        else:
            keep_spans = True
        counters = {"http_requests": 0}

        def request(fn, *args):
            counters["http_requests"] += 1
            return fn(*args)

        request(http_get, url + "/healthz")
        self.daemon_samples.append(time.perf_counter() - started)

        def submit(spec, run_id=None):
            """The accepted run id, or ``None`` when the service refused."""
            spec = dict(spec, run_id=run_id) if run_id else spec
            try:
                payload = client.submit_sweep(url, spec, max_attempts=4)
            except client.SubmitError as exc:
                counters["http_requests"] += 1
                print("resident-service: %s" % exc, file=sys.stderr)
                return None
            counters["http_requests"] += payload["attempts"]
            return payload["run_id"]

        def settle(run_id, first=None):
            while run_id is not None:
                status = request(client.fetch_status, url, run_id)
                states = status["states"]
                if first is not None and "at" not in first and (
                    states["done"] + states["restored"] + states["failed"]
                ):
                    first["at"] = time.perf_counter()
                if status["finished"]:
                    return
                time.sleep(POLL_S)

        def results(run_id):
            if run_id is None:
                return {}
            return self._labelled(request(client.fetch_results, url, run_id))

        first: dict = {}
        gc.collect()
        start = time.perf_counter()
        with tracer.span("service.submit"):
            run_a = submit(self.spec_a)
        with tracer.span("service.settle"):
            settle(run_a, first)
        with tracer.span("service.results"):
            got_a = results(run_a)
        with tracer.span("service.resubmit"):
            run_again = submit(self.spec_a, run_id="again-%s" % run_a)
            settle(run_again)
            got_again = results(run_again)
            self.ctx.check(submit(self.spec_a) == run_a,
                           "resident-service: idempotent resubmission got a "
                           "new run id")
        with tracer.span("service.submit"):
            run_b = submit(self.spec_b)
        with tracer.span("service.settle"):
            settle(run_b)
        with tracer.span("service.results"):
            got_b = results(run_b)
        wall = time.perf_counter() - start

        metrics = parse_prom_text(request(http_get, url + "/metrics"))
        self.daemon.stop()
        self.child_peak_kb = max(self.child_peak_kb, self.daemon.peak_kb())
        self.daemon = None

        for label, summary in list(got_again.items()) + list(got_b.items()):
            if label in got_a:
                self.ctx.check(summary == got_a[label],
                               "resident-service: %s differs between "
                               "submissions" % label)
        settled = [got_a, got_again, got_b]
        attempted, failed = settled_counts(
            [self.spec_a, self.spec_a, self.spec_b], settled
        )
        unique = dict(got_a)
        unique.update(got_b)
        rep = Rep(
            wall=wall,
            summaries=unique,
            instructions=sum(s["instructions"] for r in settled
                             for s in r.values()),
            attempted=attempted,
            failed=failed,
            traced=keep_spans,
        )
        if keep_spans:
            client_spans = tracer.between(start, start + wall)
            daemon_spans = load_spans(spans_out, prefix="d")
            service = {
                "first_settled_s": first.get("at", start + wall) - start,
                "http_requests": counters["http_requests"],
                "idempotent_hits": metrics["repro_service_idempotent_hits_total"],
                "rejected_429": metrics["repro_service_rejected_429_total"],
            }
            rep.layers = layer_metrics(
                client_spans + daemon_spans, wall,
                [s for s in client_spans if s.parent is None],
                unique.values(), service=service,
            )
        return rep

    def check(self, reps: list[Rep]) -> None:
        from repro.runtime import SweepRunner, TraceCache

        self.check_repeats(reps)
        self.check_seed(self.digests, self.specs[-1])
        points = list(self.points.values())
        report = SweepRunner(trace_cache=TraceCache(self._cache),
                             return_full=False).run(points)
        local = {p.point.label: normalized(p.summary) for p in report.points
                 if p.ok}
        self.ctx.check(
            local == reps[0].summaries,
            "resident-service: /results differ from in-process summaries",
        )
        self.check_scalar(points, local, cached_run(self._cache))


def settled_counts(specs, settled) -> tuple[int, int]:
    """(attempted, failed) points over a repetition's submissions.

    ``settled[i]`` holds the summaries ``/results`` returned for
    ``specs[i]``: empty when the submission was refused (429/503), and
    without the points that failed or missed the sweep deadline, since
    the run ledger journals successful points only.
    """
    attempted = sum(len(spec["points"]) for spec in specs)
    return attempted, attempted - sum(len(got) for got in settled)


def http_get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode()


def load_spans(path: Path, prefix: str) -> list[Span]:
    """Spans a daemon wrote at exit, with ids made distinct from ours."""
    spans = []
    for record in json.loads(path.read_text()):
        span = Span.from_dict(record)
        span.id = "%s%s" % (prefix, span.id)
        if span.parent is not None:
            span.parent = "%s%s" % (prefix, span.parent)
        spans.append(span)
    return spans


WORKLOADS = {w.name: w for w in (ColdPaper, WarmMatrix, ResidentService)}
