"""Vectorized batch-replay fast path.

:meth:`repro.system.machine.Machine.run` walks a trace one reference at
a time through the full Python call stack — hierarchy lookup, stats,
event drain, prefetcher snoop — even though most references are L1 hits
with no side effect beyond an LRU touch.  This module replays the same
trace with the same machine *bit-identically* but much faster:

1. :func:`repro.trace.plan.plan_replay` precomputes, in NumPy over the
   whole trace, per-reference line numbers, the conservative *guaranteed
   L1 hit* mask (set-local stack-distance filter), run boundaries, and
   every prefix sum the window accounting needs.
2. Guaranteed-hit runs are applied as bare LRU touches (inline, or via
   :meth:`repro.cache.cache.Cache.touch_run` for long runs); their hit
   counters are folded in per window from prefix sums.
3. Everything else — misses, unknown-outcome references — takes the
   machine's shared replay step, the same methods the scalar reference
   loop and multicore replay call: ``Machine._demand_step``,
   ``_drain_events`` and ``_snoop_miss``.  When no observer is attached
   (telemetry, attribution, pollution tracking) and the setup never
   prefetch-fills the L1, a *lean* cascade inlined over the raw set
   dictionaries replaces ``_demand_step``.
4. Window timing runs on the sparse load set
   (:func:`repro.core.mlp.compute_window_timing_sparse`): step loads
   plus the guaranteed-hit loads some later load depends on; windows
   close through the shared ``Machine._close_window``.

Soundness of the guaranteed-hit filter relies on every L1 insertion
being a demand access.  Back-invalidations (inclusion victims) *remove*
L1 lines mid-run: the hierarchy logs them into a poison set and the
engine routes poisoned lines through the replay step until their next
demand access re-fills them.  Setups that prefetch-fill the L1
(monoDROPLETL1, imp) violate the filter's premise directly, so they run
in a **degraded tier**: the hierarchy additionally logs every L1
eviction victim and prefetch insertion into the same poison set
(``l1_evict_log``), prefetched L1 lines stay poisoned while resident
(each hit must claim timeliness in the step), and guaranteed runs
replay every touch instead of the deduped suffix (a prefetch fill
between a skipped touch and its successor would read the LRU order the
dedup argument assumes unobserved).  Windows that needed the step under
this tier are counted in ``machine.fastpath_windows_degraded``.

The scalar path stays the reference oracle: ``tests/parity`` asserts
bit-identical results across both paths for every workload × prefetch
setup combination.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..core.mlp import WindowTiming, compute_window_timing_sparse
from ..trace.buffer import Trace
from ..trace.plan import plan_replay
from ..trace.record import DataType

__all__ = ["run_fast"]

_STRUCTURE = int(DataType.STRUCTURE)


class _ReplayTables:
    """Hot-loop conversions of one :class:`~repro.trace.plan.ReplayPlan`.

    Plain Python lists beat ndarray scalar indexing inside the replay
    loop, but the conversions are not free; since a plan (and these
    tables) is pure derived data, it is cached on the trace object keyed
    by L1 geometry — sweeps replaying one trace across prefetch setups,
    and repeated benchmark iterations, pay the planning cost once.
    """

    __slots__ = (
        "plan",
        "lines",
        "kinds",
        "is_load",
        "is_store",
        "deps",
        "dep_target",
        "run_end",
        "icum",
        "lcum",
        "scum",
        "forward",
        "forward_all",
        "load_index",
        "touch_pos",
        "touch_cum",
        "touch_pairs",
        "store_pos",
        "store_pairs",
        "srcum",
        "hit_cum_items",
        "set_idx",
    )

    def __init__(self, plan, trace: Trace):
        self.plan = plan
        self.lines = plan.lines.tolist()
        self.kinds = trace.kind.tolist()
        self.is_load = trace.is_load.tolist()
        # Only the (rare) poisoned-run fallback needs per-reference
        # store flags; NumPy slices of this avoid a full tolist.
        self.is_store = np.logical_not(trace.is_load)
        self.deps = trace.dep.tolist()
        self.dep_target = plan.dep_target.tolist()
        self.run_end = plan.run_end.tolist()
        self.icum = plan.instr_cum.tolist()
        self.lcum = plan.load_cum.tolist()
        self.scum = plan.store_cum.tolist()
        self.forward = plan.forward_live.tolist()
        self.forward_all = plan.forward_loads
        self.load_index = plan.load_index
        self.touch_pos = plan.touch_index.tolist()
        self.touch_cum = plan.touch_cum.tolist()
        self.store_pos = plan.store_rep_index.tolist()
        self.srcum = plan.store_rep_cum.tolist()
        # (set index, line) per deduped touch / store representative:
        # the clean-run replay loop then avoids two positional list
        # indexings per touch.
        set_arr = plan.lines % plan.num_sets
        self.touch_pairs = list(
            zip(
                set_arr[plan.touch_index].tolist(),
                plan.lines[plan.touch_index].tolist(),
            )
        )
        self.store_pairs = list(
            zip(
                set_arr[plan.store_rep_index].tolist(),
                plan.lines[plan.store_rep_index].tolist(),
            )
        )
        self.hit_cum_items = [
            (k, v.tolist()) for k, v in plan.hit_cum_by_kind.items()
        ]
        self.set_idx = (plan.lines % plan.num_sets).tolist()


def _tables_for(machine, trace: Trace, l1) -> _ReplayTables:
    """Plan (or fetch the cached plan for) ``trace`` on ``l1`` geometry."""
    from ..telemetry.spans import current as _spans_current

    geometry = machine._plan_key()
    cached = getattr(trace, "_replay_tables", None)
    trc = _spans_current()
    if cached is not None and cached[0] == geometry:
        if trc is not None:
            trc.event("replay.plan", cache="hit", trace=trace.name)
        return cached[1]
    if trc is not None:
        trc.event("replay.plan", cache="miss", trace=trace.name)
    tables = _ReplayTables(plan_replay(trace, *geometry), trace)
    try:
        trace._replay_tables = (geometry, tables)
    except AttributeError:
        pass
    return tables


def run_fast(machine, trace: Trace):
    """Replay ``trace`` on ``machine`` via the batch fast path.

    Returns a :class:`repro.system.machine.SimResult` bit-identical to
    ``machine.run(trace)`` on a fresh machine, with ``fast_path`` set to
    the tier used (``"vector"`` or ``"degraded"``).
    """
    from .machine import _RunState

    setup = machine.setup
    degraded = setup.fill_into_l1

    cfg = machine.config
    hierarchy = machine.hierarchy
    dram = machine.dram
    ledger = machine.ledger
    mrb = machine.mrb
    events = hierarchy.events
    core = trace.core
    l1 = hierarchy.l1s[core]

    tables = _tables_for(machine, trace, l1)

    # Plain Python lists for the hot loop, exactly like the scalar path.
    lines = tables.lines
    kinds = tables.kinds
    is_load = tables.is_load
    is_store = tables.is_store
    deps = tables.deps
    dep_target = tables.dep_target
    run_end = tables.run_end
    icum = tables.icum
    lcum = tables.lcum
    scum = tables.scum
    forward = tables.forward
    forward_all = tables.forward_all
    load_index = tables.load_index
    touch_cum = tables.touch_cum
    touch_pairs = tables.touch_pairs
    store_pairs = tables.store_pairs
    srcum = tables.srcum
    hit_cum_items = tables.hit_cum_items
    set_idx = tables.set_idx
    l1_hits = l1.stats.hits
    n = len(trace)

    l1_sets = l1._sets
    l1_num_sets = l1._num_sets

    dispatch = cfg.dispatch_width
    rob = cfg.rob_entries
    mshr = cfg.mshr_entries
    lq = cfg.load_queue
    snoop = machine._snoops_misses
    run = _RunState(machine, trace)

    # L1 lines removed by back-invalidation: their guaranteed-hit
    # predictions are void until the next demand access re-fills them.
    # The degraded tier additionally poisons every L1 eviction victim
    # and prefetch insertion (``l1_evict_log``).
    poison: set[int] = set()
    hierarchy.l1_inval_log = poison
    if degraded:
        hierarchy.l1_evict_log = poison
    windows_degraded = 0

    # ------------------------------------------------------------------
    # Lean demand path.  With telemetry, attribution and pollution
    # tracking off, and no prefetch fills into the L1, the demand
    # cascade has no out-of-hierarchy observer beyond DRAM writebacks
    # and the ledger's L3 claim events — and L1 lines are never
    # prefetched (demand refills carry pf=False), so the L1 hit path
    # needs no ledger claim and its ``used`` bit stays unobservable.
    # The cascade can then run inlined over the raw set dictionaries,
    # with counters folded into the CacheStats once at the end —
    # mirroring ``CacheHierarchy.demand_access`` state change for state
    # change, and reusing the real side-effect event list so the drain
    # order (previous snoop events, then this cascade's, then any MPP
    # chase's) matches the scalar loop exactly.
    # ------------------------------------------------------------------
    lean = (
        machine._telemetry is None
        and machine._attribution is None
        and hierarchy.pollution is None
        and not degraded
    )
    if lean:
        from ..cache.cache import CacheLine
        from ..cache.hierarchy import HierarchyEvent

        l2_lat_f = machine._l2_latency
        l3_lat_f = machine._l3_latency
        dram_path = machine._dram_path
        l1_assoc = l1._assoc
        l2 = hierarchy.l2s[core] if hierarchy.l2s is not None else None
        l2_sets = l2._sets if l2 is not None else None
        l2_assoc = l2._assoc if l2 is not None else 0
        l2_num_sets = l2._num_sets if l2 is not None else 1
        l3 = hierarchy.l3
        l3_sets = l3._sets
        l3_assoc = l3._assoc
        l3_num_sets = l3._num_sets
        all_l1_sets = [c._sets for c in hierarchy.l1s]
        all_l2_sets = (
            [c._sets for c in hierarchy.l2s]
            if hierarchy.l2s is not None
            else None
        )
        demand_chase = machine._demand_chase
        c_l1_hit = {0: 0, 1: 0, 2: 0}
        c_l1_miss = {0: 0, 1: 0, 2: 0}
        c_l2_hit = {0: 0, 1: 0, 2: 0}
        c_l2_miss = {0: 0, 1: 0, 2: 0}
        c_l3_hit = {0: 0, 1: 0, 2: 0}
        c_l3_miss = {0: 0, 1: 0, 2: 0}
        c_l2_pfhit = 0
        c_l3_pfhit = 0
        c_evict = {"L1": 0, "L2": 0, "L3": 0}
        c_backinv = {"L1": 0, "L2": 0}

        def _merge_dirty_l3_lean(vline: int) -> None:
            m3 = l3_sets[vline % l3_num_sets].get(vline)
            if m3 is not None:
                m3.dirty = True
            else:
                events.append(HierarchyEvent("writeback", vline, "L3"))

        def _fill_l2_lean(line: int, kind: int, si: int) -> None:
            s2 = l2_sets[si]
            if len(s2) >= l2_assoc:
                vline, vmeta = s2.popitem(last=False)
                c_evict["L2"] += 1
                m1 = l1_sets[vline % l1_num_sets].pop(vline, None)
                if m1 is not None:
                    c_backinv["L1"] += 1
                    poison.add(vline)
                if vmeta.dirty or (m1 is not None and m1.dirty):
                    _merge_dirty_l3_lean(vline)
            s2[line] = CacheLine(False, False, kind)

        def _fill_l3_lean(line: int, kind: int, si: int) -> None:
            s3 = l3_sets[si]
            if len(s3) >= l3_assoc:
                vline, vmeta = s3.popitem(last=False)
                c_evict["L3"] += 1
                if vmeta.prefetched and not vmeta.used:
                    # The only eviction event the drain acts on with
                    # telemetry off: the ledger's accuracy claim.
                    events.append(
                        HierarchyEvent("evict_unused_pf", vline, "L3")
                    )
                dirty = vmeta.dirty
                for csets in all_l1_sets:
                    m1 = csets[vline % l1_num_sets].pop(vline, None)
                    if m1 is not None:
                        c_backinv["L1"] += 1
                        poison.add(vline)
                        if m1.dirty:
                            dirty = True
                if all_l2_sets is not None:
                    for csets in all_l2_sets:
                        m2 = csets[vline % l2_num_sets].pop(vline, None)
                        if m2 is not None:
                            c_backinv["L2"] += 1
                            if m2.dirty:
                                dirty = True
                if dirty:
                    events.append(HierarchyEvent("writeback", vline, "L3"))
            s3[line] = CacheLine(False, False, kind)

    fwd_ptr = 0
    num_fwd = len(forward)

    try:
        ws = 0
        while ws < n:
            # The window closes after the first reference that pushes the
            # instruction count to >= rob (mirrors the scalar loop's
            # post-increment check); past the end of the trace it is the
            # final partial window.
            j = bisect_left(icum, icum[ws] + rob)
            closes = j <= n
            limit = j if closes else n
            clock = run.clock
            window_icum = icum[ws]
            window_lcum = lcum[ws]

            scalar_loads: list[tuple[int, int, int, str, float]] = []
            diverted: set[int] | None = None
            div_counts: dict[int, int] | None = None
            # Tracks whether any load in this window carries latency; a
            # window of pure zero-latency loads times out to all zeros.
            window_has_latency = False
            # Degraded-tier accounting: did any reference in this window
            # drop to the shared replay step?
            window_took_scalar = False

            i = ws
            while i < limit:
                jrun = run_end[i]
                if jrun > i:  # guaranteed run starts here
                    if jrun > limit:
                        jrun = limit
                    if poison and not poison.isdisjoint(lines[i:jrun]):
                        # Truncate at the first poisoned line.  The
                        # truncated prefix cannot use the plan-time
                        # deduped touch list (it dedups over the *full*
                        # run, so a line's last touch may lie past the
                        # cut), hence clean=False.
                        clean = False
                        k = i
                        while lines[k] not in poison:
                            k += 1
                        jrun = k
                    else:
                        # Degraded tier: a prefetch fill between a
                        # deduped touch and its successor would observe
                        # the LRU order the dedup argument assumes
                        # unread, so replay every touch in order.
                        clean = not degraded
                    if jrun > i:
                        # Pending side effects from the previous scalar
                        # reference's prefetch issues drain at the *next*
                        # reference's timestamp in the scalar loop.
                        if events:
                            machine._drain_events(
                                clock + (icum[i] - window_icum) / dispatch
                            )
                        if clean:
                            # No mutation can interrupt the run, so only
                            # the *last* touch of each line matters for
                            # LRU order — replay the deduped touch list,
                            # and one representative dirty-bit write per
                            # (line, run).
                            for si, ln in touch_pairs[touch_cum[i] : touch_cum[jrun]]:
                                l1_sets[si].move_to_end(ln)
                            slo = srcum[i]
                            shi = srcum[jrun]
                            if shi != slo:
                                for si, ln in store_pairs[slo:shi]:
                                    l1_sets[si][ln].dirty = True
                        elif scum[jrun] - scum[i]:
                            l1.touch_run(lines[i:jrun], is_store[i:jrun])
                        else:
                            l1.touch_run(lines[i:jrun])
                        i = jrun
                        continue
                    # Guaranteed but poisoned: the prediction is void —
                    # take the replay step and undo the prefix-sum hit.
                    if diverted is None:
                        diverted = set()
                        div_counts = {}
                    diverted.add(i)
                    div_counts[kinds[i]] = div_counts.get(kinds[i], 0) + 1

                line = lines[i]
                kind = kinds[i]
                load = is_load[i]
                if lean:
                    # ------------------------------------------------------
                    # Lean demand cascade: demand_access inlined over the
                    # raw set dicts (see the `lean` guard above).  The
                    # `used` bit is *not* set on L1 hits — L1 lines are
                    # never prefetched here, so it is unobservable — but
                    # is set on L2/L3 service hits, which stay
                    # state-visible (evict_unused_pf decisions).
                    # ------------------------------------------------------
                    s1 = l1_sets[set_idx[i]]
                    meta = s1.get(line)
                    if meta is not None:
                        s1.move_to_end(line)
                        c_l1_hit[kind] += 1
                        if not load:
                            meta.dirty = True
                        elif dep_target[i]:
                            # Zero-latency loads nobody depends on are
                            # invisible to the sparse window timing.
                            scalar_loads.append(
                                (lcum[i] - window_lcum, i, deps[i], "L1", 0.0)
                            )
                        if events:
                            # The previous reference's prefetch-issue
                            # side effects drain at this reference's
                            # timestamp, as in the scalar loop.
                            machine._drain_events(
                                clock + (icum[i] - window_icum) / dispatch
                            )
                        i += 1
                        continue
                    now = clock + (icum[i] - window_icum) / dispatch
                    c_l1_miss[kind] += 1
                    level = None
                    prefetched = False
                    if l2_sets is not None:
                        s2 = l2_sets[line % l2_num_sets]
                        meta2 = s2.get(line)
                        if meta2 is not None:
                            s2.move_to_end(line)
                            meta2.used = True
                            c_l2_hit[kind] += 1
                            if meta2.prefetched:
                                c_l2_pfhit += 1
                                prefetched = True
                            level = "L2"
                            latency = l2_lat_f
                        else:
                            c_l2_miss[kind] += 1
                    if level is None:
                        s3 = l3_sets[line % l3_num_sets]
                        meta3 = s3.get(line)
                        if meta3 is not None:
                            s3.move_to_end(line)
                            meta3.used = True
                            c_l3_hit[kind] += 1
                            if meta3.prefetched:
                                c_l3_pfhit += 1
                                prefetched = True
                            level = "L3"
                            latency = l3_lat_f
                        else:
                            c_l3_miss[kind] += 1
                    if level is None:
                        _fill_l3_lean(line, kind, line % l3_num_sets)
                        if l2_sets is not None:
                            _fill_l2_lean(line, kind, line % l2_num_sets)
                        mrb.enqueue(line, c_bit=False, core=core)
                        latency = float(dram.access(line, int(now)) + dram_path)
                        mrb.retire(line)
                        level = "DRAM"
                    elif level == "L3":
                        if l2_sets is not None:
                            _fill_l2_lean(line, kind, line % l2_num_sets)
                    # Every miss ends by installing into the L1 (inlined
                    # from _fill_l1; ordered after the DRAM access, which
                    # is safe — neither reads the other's state, and the
                    # queued events still drain afterwards in fill order).
                    if len(s1) >= l1_assoc:
                        vline, vmeta = s1.popitem(last=False)
                        c_evict["L1"] += 1
                        if vmeta.dirty:
                            m = (
                                l2_sets[vline % l2_num_sets].get(vline)
                                if l2_sets is not None
                                else None
                            )
                            if m is not None:
                                m.dirty = True
                            else:
                                _merge_dirty_l3_lean(vline)
                    s1[line] = CacheLine(not load, False, kind)
                    poison.discard(line)
                    if level == "DRAM" and demand_chase and kind == _STRUCTURE:
                        machine._chase_properties(line, core, now + latency)
                    if prefetched:
                        residual = ledger.claim_demand(line, now)
                        if residual > 0:
                            latency += residual
                else:
                    now = clock + (icum[i] - window_icum) / dispatch
                    level, latency = machine._demand_step(core, line, kind, load, now)
                    # The demand access left ``line`` in the L1, where its
                    # guaranteed-hit predictions hold again once it sits
                    # as a demand fill.  A prefetched L1 line stays
                    # poisoned while resident (each hit must claim
                    # timeliness in the step), and so does a line the
                    # step's demand-triggered chase already pushed out.
                    meta = l1_sets[set_idx[i]].get(line)
                    if meta is not None and not meta.prefetched:
                        poison.discard(line)
                    window_took_scalar = True
                if load:
                    if latency > 0.0:
                        window_has_latency = True
                    scalar_loads.append(
                        (lcum[i] - window_lcum, i, deps[i], level, latency)
                    )
                if events:
                    # List order is exactly the scalar loop's: any
                    # events pending from the previous reference, then
                    # this cascade's fills, then the chase's.
                    machine._drain_events(now)
                if snoop and level != "L1":
                    machine._snoop_miss(run, line, kind, core, now)
                i += 1

            # ----------------------------------------------------------
            # Window close (full) or end of trace (partial window).
            # ----------------------------------------------------------
            if div_counts:
                for k, cum in hit_cum_items:
                    c = cum[limit] - cum[ws] - div_counts.get(k, 0)
                    if c:
                        l1_hits[k] += c
            else:
                for k, cum in hit_cum_items:
                    c = cum[limit] - cum[ws]
                    if c:
                        l1_hits[k] += c

            # Forward loads: normally only the chain-live ones matter; a
            # window with diverted references falls back to the full
            # unpruned set, since a diverted load can acquire latency
            # (and forward it) that plan-time pruning never saw.
            fwd_entries: list[tuple[int, int, int, str, float]] = []
            if diverted is None:
                while fwd_ptr < num_fwd and forward[fwd_ptr] < limit:
                    f = forward[fwd_ptr]
                    fwd_ptr += 1
                    fwd_entries.append(
                        (lcum[f] - window_lcum, f, deps[f], "L1", 0.0)
                    )
            else:
                while fwd_ptr < num_fwd and forward[fwd_ptr] < limit:
                    fwd_ptr += 1
                lo, hi = np.searchsorted(forward_all, (ws, limit))
                for f in forward_all[lo:hi].tolist():
                    if f in diverted:
                        continue
                    fwd_entries.append(
                        (lcum[f] - window_lcum, f, deps[f], "L1", 0.0)
                    )
            if fwd_entries:
                fwd_entries.extend(scalar_loads)
                fwd_entries.sort()
                merged = fwd_entries
            else:
                merged = scalar_loads

            if merged and window_has_latency:
                num_loads = lcum[limit] - window_lcum
                timing = compute_window_timing_sparse(
                    merged,
                    num_loads,
                    load_index[window_lcum : window_lcum + num_loads],
                    ws,
                    mshr,
                    lq,
                )
            else:
                # Every load in the window carried zero latency (pure
                # L1 hits): completions are all zero and the dense
                # computation degenerates to all zeros.
                timing = WindowTiming(0.0, 0.0, 0.0, 0.0)
            machine._close_window(
                run, timing, icum[limit] - window_icum, limit if closes else None
            )
            if degraded and window_took_scalar:
                windows_degraded += 1
            ws = limit
    finally:
        hierarchy.l1_inval_log = None
        hierarchy.l1_evict_log = None
    machine.fastpath_windows_degraded += windows_degraded

    if lean:
        # Fold the lean path's local counters into the real CacheStats.
        # Deferring this is safe precisely because the lean guard rules
        # out every mid-run reader (telemetry gauges, attribution).
        for cache, hit_c, miss_c in (
            (l1, c_l1_hit, c_l1_miss),
            (l2, c_l2_hit, c_l2_miss),
            (l3, c_l3_hit, c_l3_miss),
        ):
            if cache is None:
                continue
            st = cache.stats
            for k, v in hit_c.items():
                if v:
                    st.hits[k] += v
            for k, v in miss_c.items():
                if v:
                    st.misses[k] += v
        l1.stats.evictions += c_evict["L1"]
        l1.stats.back_invalidations += c_backinv["L1"]
        if l2 is not None:
            l2.stats.evictions += c_evict["L2"]
            l2.stats.back_invalidations += c_backinv["L2"]
            l2.stats.prefetch_hits += c_l2_pfhit
        l3.stats.evictions += c_evict["L3"]
        l3.stats.prefetch_hits += c_l3_pfhit

    return machine._finish_run(
        run,
        trace,
        fast_path="degraded" if degraded else "vector",
        windows_degraded=windows_degraded,
    )
