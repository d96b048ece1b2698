"""Shared experiment infrastructure: configs, caching, table rendering.

Every figure module consumes an :class:`ExperimentConfig` naming the
(workload × dataset) matrix and trace budget, and produces an
:class:`ExperimentResult` — a titled list of report rows that renders as
an aligned text table (the same rows/series the paper's figure plots).

Every figure driver settles its simulation points through a
:class:`~repro.runtime.sweep.SweepRunner`: the one passed as ``runner=``
or, by default, one process-wide serial runner whose in-memory trace memo
sits in front of the shared on-disk trace cache, so a process loads each
trace once across every figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..graph.csr import CSRGraph
from ..graph.generators import PAPER_DATASET_NAMES, make_dataset
from ..workloads.base import TraceRun
from ..workloads.registry import PAPER_WORKLOAD_ORDER, get_workload

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "get_graph",
    "get_trace_run",
    "default_runner",
    "make_runner",
    "run_points",
    "geomean",
    "render_table",
    "clear_caches",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Scope and budget of one experiment run."""

    workloads: tuple[str, ...] = PAPER_WORKLOAD_ORDER
    datasets: tuple[str, ...] = PAPER_DATASET_NAMES
    max_refs: int = 200_000
    scale_shift: int = 0

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A reduced matrix for fast test runs."""
        return cls(
            workloads=("PR", "BFS"),
            datasets=("kron", "road"),
            max_refs=40_000,
            scale_shift=-3,
        )


@dataclass
class ExperimentResult:
    """Titled tabular result of one experiment."""

    experiment: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        """Render as an aligned text table with title and notes."""
        lines = ["== %s: %s ==" % (self.experiment, self.title)]
        lines.append(render_table(self.rows))
        for note in self.notes:
            lines.append("note: %s" % note)
        return "\n".join(lines)

    def column(self, name: str) -> list:
        """Extract one column across rows."""
        return [row.get(name) for row in self.rows]


# ----------------------------------------------------------------------
# Caches and the figure runner
# ----------------------------------------------------------------------
_GRAPH_CACHE: dict[tuple, CSRGraph] = {}
_RUNNER = None


def get_graph(name: str, weighted: bool = False, scale_shift: int = 0) -> CSRGraph:
    """Cached dataset construction."""
    key = (name, weighted, scale_shift)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = make_dataset(name, scale_shift=scale_shift, weighted=weighted)
    return _GRAPH_CACHE[key]


def make_runner(
    workers: int,
    timeout: float | None = None,
    retries: int | None = None,
):
    """A :class:`~repro.runtime.sweep.SweepRunner` for figure drivers.

    Figures re-simulate the same points across driver invocations, so
    the runner keeps the default shared on-disk trace cache and full
    results.  ``timeout``/``retries`` tune the resilience policy; the
    defaults retry transient failures (worker deaths, injected faults,
    timeouts) and fail deterministic errors fast.
    """
    from ..runtime import RetryPolicy, SweepRunner

    retry = RetryPolicy.from_knobs(
        retries=2 if retries is None else retries, timeout=timeout
    )
    return SweepRunner(workers=workers, retry=retry)


def default_runner():
    """The process-wide serial runner of drivers called without one."""
    global _RUNNER
    if _RUNNER is None:
        _RUNNER = make_runner(0)
    return _RUNNER


def run_points(points, runner=None, config=None) -> list:
    """Full ``SimResult`` objects of ``points``, in order.

    Settles them through ``runner`` (:func:`default_runner` when
    ``None``); raises :class:`~repro.runtime.sweep.SweepError` if any
    point failed.
    """
    report = (runner or default_runner()).run(points, config=config)
    report.raise_errors()
    return [p.result for p in report.points]


def get_trace_run(
    workload: str, dataset: str, max_refs: int, scale_shift: int = 0,
    runner=None,
) -> TraceRun:
    """A workload trace (with its recommended warm-up skip) via ``runner``.

    Memoized in the runner (:func:`default_runner` when ``None``) and
    backed by the on-disk trace cache, so traces persist across processes
    and runs; disable with ``REPRO_TRACE_CACHE=off`` (see
    :mod:`repro.runtime.trace_cache` for the key/invalidation rules).
    """
    from ..runtime.points import TraceSpec

    spec = TraceSpec(
        workload=get_workload(workload).name,
        dataset=dataset,
        max_refs=max_refs,
        scale_shift=scale_shift,
    )
    return (runner or default_runner()).trace(spec)


def clear_caches() -> None:
    """Drop in-process cached graphs and traces and the process-wide
    runner (tests use this for isolation); on-disk trace-cache entries
    are kept."""
    global _RUNNER
    _GRAPH_CACHE.clear()
    _RUNNER = None


# ----------------------------------------------------------------------
# Reporting helpers
# ----------------------------------------------------------------------
def geomean(values) -> float:
    """Geometric mean (the paper's Fig. 11b aggregation)."""
    values = [v for v in values if v is not None]
    if not values:
        return float("nan")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def render_table(rows: list[dict]) -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def fmt(value) -> str:
        """Cell renderer: floats at 3 decimals, None blank."""
        if isinstance(value, float):
            return "%.3f" % value
        return "" if value is None else str(value)

    widths = {
        c: max(len(c), *(len(fmt(row.get(c))) for row in rows)) for c in columns
    }
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    sep = "  ".join("-" * widths[c] for c in columns)
    body = [
        "  ".join(fmt(row.get(c)).ljust(widths[c]) for c in columns) for row in rows
    ]
    return "\n".join([header, sep] + body)
