"""Fig. 4: cache-hierarchy sensitivity (LLC capacity, L2 configuration).

* Fig. 4a — LLC 1x→8x: MPKI and speedup (paper: MPKI 20→10, optimal
  speedup 17.4% at 4x — a balance of miss rate vs. access latency).
* Fig. 4b — private L2 configurations including no-L2 (paper: negligible
  sensitivity; hit rate ~10.6% at baseline).
* Fig. 4c — off-chip access fraction per data type vs. LLC size (paper:
  property benefits most; structure and intermediate barely move).
"""

from __future__ import annotations

from ..characterization.cache_sensitivity import L2SweepPoint, LLCSweepPoint
from ..runtime.points import SweepPoint
from ..system.config import SystemConfig
from ..trace.record import DataType
from .common import ExperimentConfig, ExperimentResult, run_points

__all__ = ["run_fig04a", "run_fig04b", "run_fig04c"]

# Fig. 4a and 4c read the same LLC sweep; cache it per (cfg, multipliers).
_SWEEP_CACHE: dict[tuple, list] = {}


def _cell_sweeps(cfg, knob, values, runner) -> list[list]:
    """Every (workload, dataset) cell's results over the varied ``knob``,
    in matrix order, settled in one run (no-prefetch points)."""
    points = [
        SweepPoint(
            workload=workload,
            dataset=dataset,
            setup="none",
            max_refs=cfg.max_refs,
            scale_shift=cfg.scale_shift,
            **{knob: value},
        )
        for workload in cfg.workloads
        for dataset in cfg.datasets
        for value in values
    ]
    results = run_points(points, runner, config=SystemConfig.scaled_baseline())
    width = len(values)
    return [results[i : i + width] for i in range(0, len(results), width)]


def _cached_llc_sweeps(cfg, multipliers, runner) -> list[list[LLCSweepPoint]]:
    """Fig. 4a/4c: the LLC capacity sweep of every cell, in matrix order."""
    key = (cfg, multipliers)
    if key not in _SWEEP_CACHE:
        l3_bytes = SystemConfig.scaled_baseline().l3.size_bytes
        _SWEEP_CACHE[key] = [
            [
                LLCSweepPoint(
                    multiplier=mult,
                    size_bytes=l3_bytes * mult,
                    cycles=result.cycles,
                    llc_mpki=result.llc_mpki(),
                    offchip_fraction={
                        dt: result.offchip_fraction(dt) for dt in DataType
                    },
                )
                for mult, result in zip(multipliers, cell)
            ]
            for cell in _cell_sweeps(cfg, "llc_multiplier", multipliers, runner)
        ]
    return _SWEEP_CACHE[key]


def run_fig04a(
    cfg: ExperimentConfig | None = None,
    multipliers: tuple[int, ...] = (1, 2, 4, 8),
    runner=None,
) -> ExperimentResult:
    """Fig. 4a: LLC MPKI and speedup vs. capacity."""
    cfg = cfg or ExperimentConfig()
    out = ExperimentResult(
        experiment="fig04a", title="LLC capacity sweep: MPKI and speedup"
    )
    cells = [(w, d) for w in cfg.workloads for d in cfg.datasets]
    sweeps = _cached_llc_sweeps(cfg, multipliers, runner)
    for (workload, dataset), points in zip(cells, sweeps):
        base = points[0]
        row = {"workload": workload, "dataset": dataset}
        for point in points:
            row["mpki_%dx" % point.multiplier] = round(point.llc_mpki, 2)
            row["speedup_%dx" % point.multiplier] = round(
                point.speedup_vs(base), 3
            )
        out.rows.append(row)
    if sweeps:
        mean_row = {"workload": "MEAN", "dataset": ""}
        for i, m in enumerate(multipliers):
            mean_row["mpki_%dx" % m] = round(
                sum(s[i].llc_mpki for s in sweeps) / len(sweeps), 2
            )
            mean_row["speedup_%dx" % m] = round(
                sum(s[i].speedup_vs(s[0]) for s in sweeps) / len(sweeps), 3
            )
        out.rows.append(mean_row)
    out.notes.append(
        "paper: mean MPKI 20 -> 16 -> 12 -> 10; speedups +7%, +17.4%, +7.6% "
        "(optimum at 4x where reduced misses still beat the slower array)"
    )
    return out


#: Fig. 4b configurations: ``(label, size multiplier or None, assoc)``.
_L2_CONFIGURATIONS = (
    ("no-L2", None, 8),
    ("1x", 1, 8),
    ("2x", 2, 8),
    ("1x-4xassoc", 1, 32),
)


def _l2_sweeps(cfg, runner) -> list[list[L2SweepPoint]]:
    """Fig. 4b: the private-L2 sweep of every cell, in matrix order."""
    l2_bytes = SystemConfig.scaled_baseline().l2.size_bytes
    configs = [(mult, assoc) for _, mult, assoc in _L2_CONFIGURATIONS]
    return [
        [
            L2SweepPoint(
                label=label,
                size_bytes=None if mult is None else l2_bytes * mult,
                associativity=assoc,
                cycles=result.cycles,
                l2_hit_rate=result.l2_hit_rate(),
            )
            for (label, mult, assoc), result in zip(_L2_CONFIGURATIONS, cell)
        ]
        for cell in _cell_sweeps(cfg, "l2_config", configs, runner)
    ]


def run_fig04b(
    cfg: ExperimentConfig | None = None, runner=None
) -> ExperimentResult:
    """Fig. 4b: private-L2 configuration sweep (including no L2)."""
    cfg = cfg or ExperimentConfig()
    out = ExperimentResult(
        experiment="fig04b", title="Private L2 sweep: hit rate and speedup"
    )
    cells = [(w, d) for w in cfg.workloads for d in cfg.datasets]
    for (workload, dataset), points in zip(cells, _l2_sweeps(cfg, runner)):
        baseline = next(p for p in points if p.label == "1x")
        row = {"workload": workload, "dataset": dataset}
        for point in points:
            row["speedup_" + point.label] = round(point.speedup_vs(baseline), 3)
            if point.size_bytes is not None:
                row["hit_" + point.label] = round(point.l2_hit_rate, 3)
        out.rows.append(row)
    out.notes.append(
        "paper: baseline L2 hit rate ~10.6%; 2x capacity -> 15.3%, 4x assoc -> "
        "10.9%; performance flat, and no-L2 shows no slowdown"
    )
    return out


def run_fig04c(
    cfg: ExperimentConfig | None = None,
    multipliers: tuple[int, ...] = (1, 2, 4, 8),
    runner=None,
) -> ExperimentResult:
    """Fig. 4c: off-chip access fraction per data type vs. LLC size."""
    cfg = cfg or ExperimentConfig()
    out = ExperimentResult(
        experiment="fig04c",
        title="Off-chip access fraction by data type vs. LLC capacity (mean)",
    )
    sweeps = _cached_llc_sweeps(cfg, multipliers, runner)
    for i, m in enumerate(multipliers):
        row = {"llc": "%dx" % m}
        for dt in DataType:
            total = sum(s[i].offchip_fraction[dt] for s in sweeps)
            row[dt.short_name + "_offchip_%"] = round(
                100 * total / len(sweeps) if sweeps else 0.0, 2
            )
        out.rows.append(row)
    out.notes.append(
        "paper: property drops the most with larger LLC; structure (7.5% "
        "baseline) barely responds; intermediate already on-chip (1.9%)"
    )
    return out
