"""The shared (workload × dataset × prefetcher) simulation matrix.

Figures 11–15 all read from the same set of simulations: every workload
on every dataset under every prefetcher configuration.  This module runs
and caches that matrix once per process so each figure module only
formats its own view of it.
"""

from __future__ import annotations

from ..droplet.composite import PREFETCH_CONFIG_NAMES
from ..system.config import SystemConfig
from ..system.machine import SimResult
from .common import ExperimentConfig, run_points

__all__ = [
    "get_prefetch_matrix",
    "matrix_points",
    "MATRIX_SETUPS",
    "clear_matrix_cache",
]

#: All prefetcher configurations of Fig. 11, in plot order.
MATRIX_SETUPS = PREFETCH_CONFIG_NAMES

_MATRIX_CACHE: dict[tuple, dict[tuple[str, str, str], SimResult]] = {}


def matrix_points(
    cfg: ExperimentConfig, setups: tuple[str, ...] = MATRIX_SETUPS
):
    """The matrix as :class:`~repro.runtime.points.SweepPoint` objects."""
    from ..runtime.points import SweepPoint

    return [
        SweepPoint(
            workload=workload,
            dataset=dataset,
            setup=setup,
            max_refs=cfg.max_refs,
            scale_shift=cfg.scale_shift,
        )
        for workload in cfg.workloads
        for dataset in cfg.datasets
        for setup in setups
    ]


def get_prefetch_matrix(
    cfg: ExperimentConfig,
    setups: tuple[str, ...] = MATRIX_SETUPS,
    system: SystemConfig | None = None,
    runner=None,
) -> dict[tuple[str, str, str], SimResult]:
    """Simulate (and cache) the full comparison matrix.

    The matrix points settle through ``runner`` (the process-wide serial
    runner when ``None``); a pool runner fans them out across its
    workers with bit-identical results.

    Returns ``{(workload, dataset, setup): SimResult}``.
    """
    key = (cfg, tuple(setups), system)
    if key not in _MATRIX_CACHE:
        points = matrix_points(cfg, setups)
        results = run_points(points, runner, config=system)
        _MATRIX_CACHE[key] = {p.key: r for p, r in zip(points, results)}
    return _MATRIX_CACHE[key]


def clear_matrix_cache() -> None:
    """Drop all cached matrices (tests use this for isolation)."""
    _MATRIX_CACHE.clear()
