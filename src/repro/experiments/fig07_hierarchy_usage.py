"""Fig. 7: memory-hierarchy usage breakdown by application data type.

Per (workload, dataset, data type): which level serviced the accesses.
The paper's Observation #6 in figure form — structure is serviced by L1
and DRAM (stream-once behaviour), property by L1, LLC and DRAM (reuse
distance between the L2 and LLC stack depths), intermediate mostly
on-chip.
"""

from __future__ import annotations

from ..characterization.hierarchy_usage import hierarchy_usage
from ..runtime.points import SweepPoint
from ..trace.record import DataType
from .common import ExperimentConfig, ExperimentResult, run_points

__all__ = ["run_fig07"]


def run_fig07(cfg: ExperimentConfig | None = None, runner=None) -> ExperimentResult:
    """Regenerate the Fig. 7 usage breakdown (no-prefetch baseline)."""
    cfg = cfg or ExperimentConfig()
    out = ExperimentResult(
        experiment="fig07",
        title="Memory hierarchy usage by data type (% of accesses per level)",
    )
    cells = [(w, d) for w in cfg.workloads for d in cfg.datasets]
    points = [
        SweepPoint(
            workload, dataset, "none", max_refs=cfg.max_refs,
            scale_shift=cfg.scale_shift,
        )
        for workload, dataset in cells
    ]
    for (workload, dataset), result in zip(cells, run_points(points, runner)):
        usage = hierarchy_usage(result)
        for dt in DataType:
            row = {
                "workload": workload,
                "dataset": dataset,
                "type": dt.short_name,
            }
            for level, frac in usage[dt].fractions.items():
                row[level + "_%"] = round(100 * frac, 1)
            out.rows.append(row)
    out.notes.append(
        "paper: structure serviced by L1+DRAM, property by L1+LLC+DRAM (little "
        "L2), intermediate mostly on-chip"
    )
    return out
