"""Benchmark-side spans around calls into the simulator's layers.

The traced run attributes wall time to layers without touching the
program: :class:`Tracer` swaps selected public functions and methods for
timing wrappers (restored afterwards), records one span per call with
its parent (the innermost open span on the same thread), and keeps every
span in memory until the run ends.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover, so the
self times of one repetition add up to the time its top-level spans
cover, with no layer counted twice.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager


class Span:
    """One timed call: name, interval, parent span id and attributes."""

    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, id, name, start, end=None, parent=None, attrs=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        return cls(
            record["id"], record["name"], record["start"], record["end"],
            record["parent"], record["attrs"],
        )


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """``{span id: duration minus the interval its children cover}``."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


class Tracer:
    """In-memory span recorder plus the function patches that feed it.

    Spans opened on one thread nest through a thread-local stack, so the
    sweep service's worker and HTTP threads each keep their own parent
    chain.  ``clock`` is injectable for tests.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the ``with`` body as one span named ``name``."""
        stack = self._stack()
        with self._lock:
            span = Span(next(self._ids), name, 0.0,
                        parent=stack[-1].id if stack else None, attrs=attrs)
        stack.append(span)
        span.start = self.clock()
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, func, name: str, annotate=None):
        """A wrapper recording each call of ``func`` as a ``name`` span.

        ``annotate(span, args, kwargs, result)`` may add attributes once
        the call returns.
        """
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = func(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args, kwargs, result)
                return result

        return traced

    def patch(self, targets, name: str, annotate=None) -> None:
        """Replace one function at every ``"module:attr"`` location.

        ``targets`` name the same function object wherever it is bound
        (its defining module and each module that imported it by name),
        so every call site goes through one wrapper.  ``attr`` may be
        ``Class.method``.
        """
        original = None
        wrapper = None
        # Import every module before patching any, so a module that
        # imports the function by name binds the original.
        for owner, attr in [_resolve(target) for target in targets]:
            current = owner.__dict__[attr]
            if original is None:
                original = current
                wrapper = self.wrap(original, name, annotate)
            elif current is not original:
                raise RuntimeError("%s.%s is not the function patched as %s"
                                   % (owner.__name__, attr, name))
            self._patches.append((owner, attr, current))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def between(self, lo: float, hi: float) -> list[Span]:
        """Finished spans that started inside ``[lo, hi]``."""
        with self._lock:
            return [s for s in self.spans if lo <= s.start <= hi]


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _annotate_trace(span, args, kwargs, run):
    span.attrs["refs"] = len(run.trace)


def _annotate_lookup(span, args, kwargs, run):
    span.attrs["hit"] = run is not None


def _annotate_simulate(span, args, kwargs, result):
    span.attrs["refs"] = len(args[0].trace)
    span.attrs["tier"] = result.fast_path or "scalar"
    span.attrs["windows_degraded"] = result.windows_degraded


def _annotate_point(span, args, kwargs, result):
    point = args[0]
    span.attrs["point"] = {
        "workload": point.workload,
        "dataset": point.dataset,
        "setup": point.setup,
        "max_refs": point.max_refs,
        "scale_shift": point.scale_shift,
        "seed": point.seed,
        "llc_multiplier": point.llc_multiplier,
        "l2_config": point.l2_config,
        "rob_entries": point.rob_entries,
        "mrb_entries": point.mrb_entries,
    }
    span.attrs["ok"] = result.ok


#: Layer boundaries: span name -> the locations of one public function.
#: A function imported by name into another module is patched there too.
LAYER_PATCHES = (
    ("graph.build", ["repro.runtime.points:TraceSpec.build_graph"], None),
    ("workloads.trace", ["repro.runtime.points:TraceSpec.trace"],
     _annotate_trace),
    ("trace_cache.load", ["repro.runtime.trace_cache:TraceCache.lookup"],
     _annotate_lookup),
    ("trace_cache.store", ["repro.runtime.trace_cache:TraceCache.store"], None),
    ("trace.plan", ["repro.trace.plan:plan_replay",
                    "repro.system.fastreplay:plan_replay"], None),
    ("system.simulate", ["repro.system.runner:simulate"], _annotate_simulate),
    ("reporting.summarize", ["repro.reporting:summarize"], None),
    ("runtime.point", ["repro.runtime.executor:execute_point",
                       "repro.runtime.sweep:execute_point",
                       "repro.service.engine:execute_point"], _annotate_point),
    ("runtime.ledger.append", ["repro.runtime.ledger:RunLedger.record"], None),
    ("runtime.sweep", ["repro.runtime.sweep:SweepRunner.run"], None),
)


def install_layer_patches(tracer: Tracer) -> None:
    """Patch every layer boundary in :data:`LAYER_PATCHES`."""
    for name, targets, annotate in LAYER_PATCHES:
        tracer.patch(targets, name, annotate)
