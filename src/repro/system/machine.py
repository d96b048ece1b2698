"""The full-system simulator: core model + hierarchy + MC + prefetchers.

``Machine.run`` replays an annotated trace through the inclusive cache
hierarchy and the banked DRAM, window by window (interval-style core
model), with the configured prefetcher setup injecting fills along the
way.  It produces a :class:`SimResult` carrying every statistic the
paper's figures need: cycle stacks, per-type MPKI at each level, L2 hit
rates, prefetch accuracy, and bus traffic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from ..cache.hierarchy import CacheHierarchy
from ..core.cycles import CycleStack
from ..core.mlp import WindowTelemetry, WindowTiming, compute_window_timing
from ..dram.model import DRAMModel
from ..dram.multichannel import MultiChannelDRAM
from ..dram.mrb import MemoryRequestBuffer
from ..droplet.composite import PrefetchSetup, make_prefetch_setup
from ..droplet.mpp import MPP
from ..memory.allocator import GraphLayout
from ..prefetch.base import NullPrefetcher
from ..prefetch.stats import PrefetchLedger
from ..prefetch.stream import DataAwareStreamer
from ..trace.buffer import Trace
from ..trace.record import NO_DEP, DataType
from .config import SystemConfig

__all__ = ["Machine", "SimResult", "RegionClassifier"]

_STRUCTURE = int(DataType.STRUCTURE)
_PROPERTY = int(DataType.PROPERTY)
_INTERMEDIATE = int(DataType.INTERMEDIATE)


class RegionClassifier:
    """Fast byte-address → :class:`DataType` classification via bisect."""

    def __init__(self, layout: GraphLayout | None):
        self._bases: list[int] = []
        self._ends: list[int] = []
        self._kinds: list[int] = []
        if layout is not None:
            for region in layout.space.sorted_regions():
                self._bases.append(region.base)
                self._ends.append(region.end)
                self._kinds.append(int(region.kind))

    def classify(self, addr: int) -> int:
        """Data type of ``addr`` (INTERMEDIATE for unknown addresses)."""
        i = bisect.bisect_right(self._bases, addr) - 1
        if i >= 0 and addr < self._ends[i]:
            return self._kinds[i]
        return _INTERMEDIATE


@dataclass
class SimResult:
    """Everything measured by one simulation run."""

    trace_name: str
    setup_name: str
    instructions: int
    cycles: float
    cycle_stack: CycleStack
    hierarchy: CacheHierarchy
    dram: DRAMModel
    ledger: PrefetchLedger
    mrb: MemoryRequestBuffer
    mpp: MPP | None
    total_miss_latency: float = 0.0
    total_exposed_latency: float = 0.0
    refs_by_type: dict[DataType, int] = field(default_factory=dict)
    #: Which replay path produced this result: ``False`` for the scalar
    #: reference loop, ``"vector"`` or ``"degraded"`` for the batch
    #: fast path's tiers (results are bit-identical either way; see
    #: ``tests/parity``).
    fast_path: str | bool = False
    #: Windows the degraded batch-replay tier fell back to the scalar
    #: oracle for (0 on the vector tier and the scalar path).
    windows_degraded: int = 0

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mlp(self) -> float:
        """Average overlap of outstanding miss latency."""
        if self.total_exposed_latency <= 0:
            return 0.0
        return self.total_miss_latency / self.total_exposed_latency

    def speedup_vs(self, baseline: "SimResult") -> float:
        """Speedup over a baseline run of the *same trace*."""
        if baseline.trace_name != self.trace_name:
            raise ValueError(
                "speedup requires identical traces (%r vs %r)"
                % (self.trace_name, baseline.trace_name)
            )
        return baseline.cycles / self.cycles if self.cycles else 0.0

    # ------------------------------------------------------------------
    def llc_mpki(self, kind: DataType | None = None) -> float:
        """LLC demand misses per kilo-instruction (per type if given)."""
        stats = self.hierarchy.l3.stats
        if kind is None:
            return stats.mpki(self.instructions)
        return stats.mpki_of(kind, self.instructions)

    def l2_hit_rate(self) -> float:
        """Aggregate private-L2 demand hit rate."""
        if self.hierarchy.l2s is None:
            return 0.0
        hits = sum(c.stats.total_hits for c in self.hierarchy.l2s)
        total = sum(c.stats.total_accesses for c in self.hierarchy.l2s)
        return hits / total if total else 0.0

    def offchip_fraction(self, kind: DataType) -> float:
        """Fraction of ``kind`` references serviced by DRAM (Fig. 4c)."""
        refs = self.refs_by_type.get(kind, 0)
        if refs == 0:
            return 0.0
        return self.hierarchy.l3.stats.misses[kind] / refs

    def bpki(self) -> float:
        """DRAM bus accesses per kilo-instruction (Fig. 15)."""
        return self.dram.stats.bpki(self.instructions)

    def dram_bandwidth_utilization(self) -> float:
        """Fraction of peak DRAM bandwidth consumed (Fig. 3a)."""
        return self.dram.utilization(int(self.cycles))

    def prefetch_accuracy(self, kind: DataType | None = None) -> float:
        """Useful/issued over all issuers (Fig. 14)."""
        issued = useful = 0
        for counters in self.ledger.counters.values():
            if kind is None:
                issued += counters.total_issued
                useful += counters.total_useful
            else:
                issued += counters.issued[kind]
                useful += counters.useful[kind]
        return useful / issued if issued else 0.0


class Machine:
    """A configured machine ready to replay traces."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        layout: GraphLayout | None = None,
        setup: PrefetchSetup | str | None = None,
        chased_property: str | tuple[str, ...] | None = None,
        telemetry=None,
        fast_path: str = "auto",
    ):
        self.config = config or SystemConfig.scaled_baseline()
        if isinstance(setup, str):
            setup = make_prefetch_setup(setup)
        self.setup = setup or make_prefetch_setup("none")
        self.layout = layout
        self.hierarchy = CacheHierarchy(
            self.config.l1, self.config.l2, self.config.l3, self.config.num_cores
        )
        if self.config.num_mcs > 1:
            self.dram = MultiChannelDRAM(self.config.dram, self.config.num_mcs)
        else:
            self.dram = DRAMModel(self.config.dram)
        #: §VI: property prefetches forwarded to a different MC than the
        #: one whose structure fill generated them.
        self.mpp_forwarded = 0
        self.mrb = MemoryRequestBuffer(self.config.mrb_entries)
        self.ledger = PrefetchLedger()
        self.classifier = RegionClassifier(layout)
        self.mpp: MPP | None = None
        if self.setup.use_mpp:
            if layout is None:
                raise ValueError("an MPP-based setup requires a GraphLayout")
            self.mpp = MPP(layout.space.page_table, self.setup.mpp_config)
            prop = chased_property or next(iter(layout.properties))
            self.mpp.configure_from_layout(layout, prop)
        self._streamer_is_data_aware = isinstance(
            self.setup.l2_prefetcher, DataAwareStreamer
        )
        if self.setup.imp_engine is not None and layout is None:
            raise ValueError("the IMP setup requires a GraphLayout (index values)")
        self._line_size = self.config.l3.line_size
        self._l2_latency = float(self.config.l2_service_latency)
        self._l3_latency = float(self.config.l3_service_latency)
        self._dram_path = self.config.dram_base_latency
        self._demand_chase = (
            self.mpp is not None and self.setup.mpp_trigger == "demand"
        )
        self._has_feedback = hasattr(self.setup.l2_prefetcher, "feedback")
        # The null prefetcher's snoop is a guaranteed no-op; skipping the
        # call leaves results untouched and the miss path leaner.
        self._snoops_misses = self.setup.imp_engine is not None or not isinstance(
            self.setup.l2_prefetcher, NullPrefetcher
        )
        self.fast_path = self._resolve_fast_path(fast_path)
        #: ROB windows the degraded fast-path tier had to route through
        #: the replay step (0 unless ``fast_path == "degraded"`` ran).
        self.fastpath_windows_degraded = 0
        # Disabled/absent telemetry both normalize to None, so the run
        # loop guards on a plain ``is not None`` and a disabled session
        # costs exactly nothing.
        if telemetry is not None and not getattr(telemetry, "enabled", False):
            telemetry = None
        self._telemetry = telemetry
        self._window_telemetry: WindowTelemetry | None = None
        self._attribution = None
        if telemetry is not None:
            self._bind_telemetry(telemetry)

    def _bind_telemetry(self, telemetry) -> None:
        """Register every component's stats into the telemetry registry.

        Telemetry only *reads* simulator state (pull-gauges) and is fed
        at window boundaries, so binding a session never changes
        simulated results.
        """
        telemetry.attach("machine/%s" % self.setup.name)
        registry = telemetry.registry
        self.hierarchy.register_telemetry(registry, "cache")
        self.dram.register_telemetry(registry, "dram")
        self.mrb.register_telemetry(registry, "mrb")
        self.ledger.register_telemetry(registry, "prefetch")
        # Pre-create the configured issuers so per-issuer columns exist
        # from the first sample (zero counters don't alter summaries).
        self.ledger.counters_for(self.setup.l2_prefetcher.name)
        if self.setup.imp_engine is not None:
            self.ledger.counters_for("imp")
        self.setup.l2_prefetcher.register_telemetry(registry, "prefetch.engine")
        if self.mpp is not None:
            self.ledger.counters_for("mpp")
            self.mpp.register_telemetry(registry, "droplet.mpp")
            registry.gauge("droplet.forwarded", lambda: self.mpp_forwarded)
            self.mpp.telemetry = telemetry
        self._window_telemetry = WindowTelemetry()
        self._window_telemetry.register_telemetry(registry, "core")
        registry.gauge(
            "fastpath.windows_degraded",
            lambda: self.fastpath_windows_degraded,
        )
        if getattr(telemetry, "attribution", False):
            self._bind_attribution(telemetry, registry)

    def _bind_attribution(self, telemetry, registry) -> None:
        """Attach the attribution profiler + prefetch pollution tracker.

        Both are observers: the profiler is fed from the run loop behind
        the same ``is not None`` guard style as the event trace, and the
        pollution tracker hangs off the hierarchy's fill/miss paths.
        Neither changes residency or timing, so simulated results stay
        bit-identical (asserted by ``tests/telemetry/test_overhead.py``).
        """
        from ..telemetry.attribution import AttributionProfiler

        l2_lines = (
            self.hierarchy.l2s[0].config.num_lines
            if self.hierarchy.l2s is not None
            else None
        )
        l3_lines = self.hierarchy.l3.config.num_lines
        profiler = AttributionProfiler(
            layout=self.layout,
            line_size=self._line_size,
            l2_lines=l2_lines,
            l3_lines=l3_lines,
            classify=getattr(telemetry, "classify_misses", True),
        )
        profiler.register_telemetry(registry, "attribution")
        capacities = {"L3": l3_lines}
        if l2_lines is not None:
            capacities["L2"] = l2_lines
        if self.setup.fill_into_l1:
            capacities["L1"] = self.hierarchy.l1s[0].config.num_lines
        tracker = self.ledger.enable_pollution_tracking(capacities)
        self.hierarchy.pollution = tracker
        profiler.pollution = tracker
        self._attribution = profiler
        telemetry.attribution_profiler = profiler

    # ------------------------------------------------------------------
    # Prefetch issue paths
    # ------------------------------------------------------------------
    def _issue_stream_prefetch(
        self, line: int, core: int, now: float, issuer: str | None = None
    ) -> bool:
        """Issue one L2-prefetcher candidate; returns whether issued."""
        if self.hierarchy.on_chip(line) or self.ledger.is_tracked(line):
            return False
        kind = self.classifier.classify(line * self._line_size)
        latency = self.dram.access(line, int(now), is_prefetch=True)
        ready = now + latency + self.config.dram_base_latency
        issuer = issuer or self.setup.l2_prefetcher.name
        self.hierarchy.prefetch_fill(
            core, line, kind, into_l1=self.setup.fill_into_l1, issuer=issuer
        )
        self.ledger.issue(line, DataType(kind), ready, issuer)
        if self._telemetry is not None:
            self._telemetry.emit(
                now, "prefetch_issue", line=line, core=core, dtype=kind, detail=issuer
            )
        imp = self.setup.imp_engine
        if imp is not None and kind == _STRUCTURE and issuer != "imp":
            # IMP also scans *prefetched* index lines on their fill path —
            # that is where its indirect lookahead comes from.
            values = self.layout.scan_structure_line(
                line * self._line_size, self._line_size
            )
            for cand in imp.observe_index_values(values):
                self._issue_stream_prefetch(cand, core, ready, issuer="imp")
        self.mrb.enqueue(line, c_bit=True, core=core)
        entry = self.mrb.retire(line)
        if (
            self.mpp is not None
            and self.setup.mpp_trigger == "prefetch"
            and entry is not None
            and entry.c_bit
        ):
            if self.setup.mpp_config.identifies_structure:
                is_structure = self.mpp.classifies_as_structure(line)
            else:
                # DROPLET proper: the C-bit from the data-aware streamer
                # *is* the structure guarantee (paper §V-C1).
                is_structure = self._streamer_is_data_aware
            if is_structure:
                self._chase_properties(line, core, ready)
        return True

    def _chase_properties(self, structure_line: int, core: int, fill_ready: float) -> None:
        """MPP reaction to one structure prefetch fill."""
        tel = self._telemetry
        if tel is not None:
            tel.emit(
                fill_ready,
                "mpp_chase",
                line=structure_line,
                core=core,
                dtype="structure",
            )
        dram = self.dram
        hierarchy = self.hierarchy
        ledger = self.ledger
        mrb = self.mrb
        is_tracked = ledger.is_tracked
        on_chip = hierarchy.on_chip
        penalty = self.setup.mpp_issue_penalty
        into_l1 = self.setup.fill_into_l1
        l3_lat = self.config.l3_service_latency
        pf_dt = DataType.PROPERTY
        multi_mc = isinstance(dram, MultiChannelDRAM)
        home_mc = dram.mc_of(structure_line) if multi_mc else 0
        targets = self.mpp.scan_targets(structure_line, core)
        if isinstance(targets, tuple):
            # Steady-state batch: one shared issue delay for every deduped
            # property line, and the requesting core is the chase's core.
            plines, delay = targets
            issue_time = fill_ready + delay + penalty
            itime = int(issue_time)
            l3_time = issue_time + l3_lat
            for pline in plines:
                if multi_mc and dram.mc_of(pline) != home_mc:
                    self.mpp_forwarded += 1
                    if tel is not None:
                        tel.emit(
                            fill_ready,
                            "mpp_forward",
                            line=pline,
                            core=core,
                            dtype="property",
                        )
                if is_tracked(pline):
                    continue
                if on_chip(pline):
                    hierarchy.copy_to_l2(core, pline, _PROPERTY, issuer="mpp")
                    ledger.issue(pline, pf_dt, l3_time, "mpp")
                else:
                    latency = dram.access(pline, itime, is_prefetch=True)
                    hierarchy.prefetch_fill(
                        core, pline, _PROPERTY, into_l1=into_l1, issuer="mpp"
                    )
                    ledger.issue(pline, pf_dt, issue_time + latency, "mpp")
                    mrb.enqueue(pline, c_bit=True, core=core)
                    mrb.retire(pline)
            return
        for pline, rcore, issue_delay in targets:
            if multi_mc and dram.mc_of(pline) != home_mc:
                # Forward the request (with core ID) to the destination
                # MC's MRB, as in [52] / paper §VI.
                self.mpp_forwarded += 1
                if tel is not None:
                    tel.emit(
                        fill_ready,
                        "mpp_forward",
                        line=pline,
                        core=rcore,
                        dtype="property",
                    )
            if is_tracked(pline):
                continue
            issue_time = fill_ready + issue_delay + penalty
            if on_chip(pline):
                # Already on chip: copy from the inclusive LLC into the
                # requesting core's private L2 (paper §V-A).
                hierarchy.copy_to_l2(rcore, pline, _PROPERTY, issuer="mpp")
                ledger.issue(pline, pf_dt, issue_time + l3_lat, "mpp")
            else:
                latency = dram.access(pline, int(issue_time), is_prefetch=True)
                hierarchy.prefetch_fill(
                    rcore, pline, _PROPERTY, into_l1=into_l1, issuer="mpp"
                )
                ledger.issue(pline, pf_dt, issue_time + latency, "mpp")
                mrb.enqueue(pline, c_bit=True, core=rcore)
                mrb.retire(pline)

    def _resolve_fast_path(self, mode: str) -> str | bool:
        """Normalize a fast-path selector to a replay tier for this setup.

        ``"off"`` forces the scalar reference path (``False``).
        ``"auto"`` picks the batch replay's sound tier: ``"vector"``
        (fully vectorized guaranteed-hit runs) or, for setups that
        prefetch-fill the L1, where the stack-distance filter alone is
        unsound, ``"degraded"`` (per-window scalar degradation).
        """
        if mode == "off":
            return False
        if mode == "auto":
            return "degraded" if self.setup.fill_into_l1 else "vector"
        raise ValueError("fast_path must be auto|off (got %r)" % (mode,))

    def _plan_key(self) -> tuple[int, int, int]:
        """Replay-plan cache key: exactly the geometry the planner reads.

        A plan (and its derived tables) cached on a trace is reusable
        across machines and prefetch setups as long as this key matches;
        any other L1 geometry must replan.
        """
        l1cfg = self.config.l1
        return (self._line_size, l1cfg.num_sets, l1cfg.associativity)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> SimResult:
        """Replay ``trace`` and return the measured statistics.

        Dispatches to the batch-replay fast path when enabled (results
        are bit-identical either way); :meth:`_run_scalar` is the
        reference implementation.  With a span recorder active the
        replay is wrapped in a ``machine.run`` span annotated with the
        replay tier actually taken.
        """
        from ..telemetry.spans import current as _spans_current

        trc = _spans_current()
        if trc is None:
            return self._dispatch_run(trace)
        with trc.span(
            "machine.run",
            trace=trace.name,
            setup=self.setup.name,
            tier=self.fast_path or "scalar",
        ) as span:
            result = self._dispatch_run(trace)
            span.set(windows_degraded=result.windows_degraded)
        return result

    def _dispatch_run(self, trace: Trace) -> SimResult:
        if self.fast_path:
            from .fastreplay import run_fast

            return run_fast(self, trace)
        return self._run_scalar(trace)

    def _run_scalar(self, trace: Trace) -> SimResult:
        """Reference per-reference replay loop (the parity oracle)."""
        cursor = _TraceCursor(self, trace)
        while not cursor.done:
            self._replay_window(cursor)
        return self._finish_run(cursor, trace)

    # ------------------------------------------------------------------
    # The replay step.  Every replay loop (scalar, batch, multicore) is
    # built from these methods; the batch replay's lean cascade is the
    # only other implementation of the demand step.
    # ------------------------------------------------------------------
    def _replay_window(self, cursor: "_TraceCursor") -> None:
        """Replay one ROB window of ``cursor``'s trace, reference by reference."""
        cfg = self.config
        dispatch = cfg.dispatch_width
        rob = cfg.rob_entries
        events = self.hierarchy.events
        snoop = self._snoops_misses
        lines = cursor.lines
        kinds = cursor.kinds
        is_load = cursor.is_load
        deps = cursor.deps
        gaps = cursor.gaps
        core = cursor.core
        clock = cursor.clock
        n = len(lines)
        window_loads: list[tuple[int, int, str, float]] = []
        window_start = i = cursor.pos
        instr = 0
        while i < n and instr < rob:
            now = clock + instr / dispatch
            instr += 1 + gaps[i]
            line = lines[i]
            kind = kinds[i]
            load = is_load[i]
            level, latency = self._demand_step(core, line, kind, load, now)
            if load:
                window_loads.append((i, deps[i], level, latency))
            if events:
                self._drain_events(now)
            if snoop and level != "L1":
                self._snoop_miss(cursor, line, kind, core, now)
            i += 1
        cursor.pos = i
        timing = compute_window_timing(
            window_loads, window_start, cfg.mshr_entries, cfg.load_queue
        )
        # The window closes after the reference that fills the ROB; a
        # shorter window is the trace's final, partial one.
        self._close_window(cursor, timing, instr, i if instr >= rob else None)

    def _demand_step(
        self, core: int, line: int, kind: int, load: bool, now: float
    ) -> tuple[str, float]:
        """One demand reference through the hierarchy, DRAM and the ledger.

        Returns the servicing level and the reference's beyond-L1
        latency, including any residual wait on a late prefetch.
        """
        outcome = self.hierarchy.demand_access(core, line, kind, is_store=not load)
        level = outcome.level
        if self._attribution is not None and level != "L1":
            # The L2's reference stream is exactly the L1 misses;
            # attribution reads but never writes simulator state.
            self._attribution.on_demand_access(level, line)
        if level == "L1":
            latency = 0.0
        elif level == "L2":
            latency = self._l2_latency
        elif level == "L3":
            latency = self._l3_latency
        else:  # DRAM
            self.mrb.enqueue(line, c_bit=False, core=core)
            latency = float(self.dram.access(line, int(now)) + self._dram_path)
            self.mrb.retire(line)
            if self._telemetry is not None:
                self._telemetry.emit(
                    now, "dram_demand", line=line, core=core, dtype=kind
                )
            if self._demand_chase and kind == _STRUCTURE:
                # Table IV counterfactual: chase structure *demand*
                # fills.  The structure line reaches the MC at
                # ``now + latency``; property prefetches start there —
                # typically too late for the imminent consumer loads.
                self._chase_properties(line, core, now + latency)
        if outcome.prefetched:
            residual = self.ledger.claim_demand(line, now)
            if residual > 0:
                latency += residual
        return level, latency

    def _drain_events(self, now: float) -> None:
        """Apply the hierarchy's queued side effects at time ``now``."""
        events = self.hierarchy.events
        tel = self._telemetry
        if tel is not None:
            for ev in events:
                tel.emit(now, ev.kind, line=ev.line, detail=ev.level)
        for ev in events:
            if ev.kind == "writeback":
                self.dram.writeback(ev.line, int(now))
            elif ev.kind == "evict_unused_pf" and ev.level == "L3":
                self.ledger.claim_eviction(ev.line)
        events.clear()

    def _snoop_miss(
        self, run: "_RunState", line: int, kind: int, core: int, now: float
    ) -> None:
        """Let the L2-attached prefetchers react to one L1 miss.

        They snoop every L1 miss address (paper Fig. 9); structure
        tagging comes from the page table bit, which our allocator
        guarantees equals the data type.  Issues draw on the window's
        prefetch budget in ``run``.
        """
        for cand in self.setup.l2_prefetcher.observe_miss(
            line, kind, kind == _STRUCTURE, core
        ):
            if run.budget <= 0:
                break
            if self._issue_stream_prefetch(cand, core, now):
                run.budget -= 1
        imp = self.setup.imp_engine
        if imp is None:
            return
        if kind != _STRUCTURE:
            imp.observe_miss(line, kind, False, core)
            return
        # The index line arrives at the L1; IMP sees the values inside
        # it and chases active patterns.
        values = self.layout.scan_structure_line(
            line * self._line_size, self._line_size
        )
        for cand in imp.observe_index_values(values):
            if run.budget <= 0:
                break
            if self._issue_stream_prefetch(cand, core, now, issuer="imp"):
                run.budget -= 1

    def _close_window(
        self,
        run: "_RunState",
        timing: WindowTiming,
        instructions: int,
        end: int | None = None,
    ) -> None:
        """Fold one window's timing into ``run``.

        ``end`` is the trace index after a window the ROB closed; it is
        ``None`` for the trace's final, partial window, which neither
        samples telemetry nor resets the prefetch budget.
        """
        base = instructions / self.config.dispatch_width
        run.clock += base + timing.exposed
        run.stack.add_window(base, timing.exposed_by_level(), instructions)
        run.miss_latency += timing.total_miss_latency
        run.exposed += timing.exposed
        tel = self._telemetry
        if tel is not None:
            self._window_telemetry.on_window(
                timing, instructions, base + timing.exposed
            )
        if end is None:
            return
        if tel is not None:
            marks = run.phase_marks
            while run.phase_ptr < len(marks) and marks[run.phase_ptr][0] <= end:
                tel.record_phase(marks[run.phase_ptr][1], run.clock, end)
                run.phase_ptr += 1
            tel.on_window(run.clock, end)
        run.budget = self.config.prefetch_budget_per_window
        if self._has_feedback:
            # Feedback-directed prefetching [53]: hand the issuer its
            # own cumulative accuracy/lateness counters.
            prefetcher = self.setup.l2_prefetcher
            counters = self.ledger.counters.get(prefetcher.name)
            if counters is not None:
                prefetcher.feedback(
                    counters.total_issued,
                    counters.total_useful,
                    sum(counters.late.values()),
                )

    def _finish_run(self, run: "_RunState", trace: Trace, **tier) -> SimResult:
        """Close telemetry for ``run`` and package its :class:`SimResult`.

        ``tier`` carries the batch replay's ``fast_path`` and
        ``windows_degraded`` fields.
        """
        tel = self._telemetry
        if tel is not None:
            # Flush phase marks past the last window close (including a
            # boundary hit exactly when the reference budget ran out).
            n = len(trace)
            for _, phase in run.phase_marks[run.phase_ptr :]:
                tel.record_phase(phase, run.clock, n)
            tel.finish(run.clock, n)
            # Detach the session from the MPP: the run is over, and the
            # returned SimResult must stay picklable (the registry's
            # closure-backed gauges are not).
            if self.mpp is not None:
                self.mpp.telemetry = None
        refs_by_type = {
            dt: int((trace.kind == int(dt)).sum()) for dt in DataType
        }
        return SimResult(
            trace_name=trace.name,
            setup_name=self.setup.name,
            instructions=trace.num_instructions,
            cycles=run.clock,
            cycle_stack=run.stack,
            hierarchy=self.hierarchy,
            dram=self.dram,
            ledger=self.ledger,
            mrb=self.mrb,
            mpp=self.mpp,
            total_miss_latency=run.miss_latency,
            total_exposed_latency=run.exposed,
            refs_by_type=refs_by_type,
            **tier,
        )


class _RunState:
    """One trace's replay accumulators, advanced window by window."""

    __slots__ = (
        "clock",
        "stack",
        "miss_latency",
        "exposed",
        "budget",
        "phase_marks",
        "phase_ptr",
    )

    def __init__(self, machine: Machine, trace: Trace):
        self.clock = 0.0
        self.stack = CycleStack()
        self.miss_latency = 0.0
        self.exposed = 0.0
        self.budget = machine.config.prefetch_budget_per_window
        # Phase marks are only read with telemetry on.
        self.phase_marks = getattr(trace, "phases", [])
        self.phase_ptr = 0


class _TraceCursor(_RunState):
    """A :class:`_RunState` plus the position of the per-reference loop."""

    __slots__ = ("lines", "kinds", "is_load", "deps", "gaps", "core", "pos")

    def __init__(self, machine: Machine, trace: Trace):
        super().__init__(machine, trace)
        # Plain Python lists iterate ~2x faster than numpy scalars here.
        self.lines = (trace.addr // machine._line_size).tolist()
        self.kinds = trace.kind.tolist()
        self.is_load = trace.is_load.tolist()
        self.deps = trace.dep.tolist()
        self.gaps = trace.gap.tolist()
        self.core = trace.core
        self.pos = 0

    @property
    def done(self) -> bool:
        """Whether every reference has been replayed."""
        return self.pos >= len(self.lines)
