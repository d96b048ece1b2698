"""Figure drivers settle their points through one runner path.

Rows recorded with the direct-``simulate`` drivers that preceded the
runner-only ones, on a small matrix where L2 geometry and prefetchers
move the numbers.  The default process-wide serial runner and a
two-worker pool runner must both reproduce them exactly, columns in
order.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentConfig,
    clear_caches,
    clear_matrix_cache,
    fig04_cache_sensitivity,
    run_fig04a,
    run_fig04b,
    run_fig04c,
    run_fig11a,
)
from repro.experiments.common import make_runner

CFG = ExperimentConfig(
    workloads=("PR", "BFS"), datasets=("kron",), max_refs=15_000, scale_shift=-2
)

PINNED = {
    "fig04a": [
        {"workload": "PR", "dataset": "kron", "mpki_1x": 60.01,
         "speedup_1x": 1.0, "mpki_4x": 60.01, "speedup_4x": 0.894},
        {"workload": "BFS", "dataset": "kron", "mpki_1x": 57.84,
         "speedup_1x": 1.0, "mpki_4x": 57.84, "speedup_4x": 0.9},
        {"workload": "MEAN", "dataset": "", "mpki_1x": 58.92,
         "speedup_1x": 1.0, "mpki_4x": 58.92, "speedup_4x": 0.897},
    ],
    "fig04b": [
        {"workload": "PR", "dataset": "kron", "speedup_no-L2": 1.005,
         "speedup_1x": 1.0, "hit_1x": 0.219, "speedup_2x": 1.019,
         "hit_2x": 0.412, "speedup_1x-4xassoc": 0.999,
         "hit_1x-4xassoc": 0.221},
        {"workload": "BFS", "dataset": "kron", "speedup_no-L2": 0.998,
         "speedup_1x": 1.0, "hit_1x": 0.267, "speedup_2x": 1.018,
         "hit_2x": 0.493, "speedup_1x-4xassoc": 1.001,
         "hit_1x-4xassoc": 0.272},
    ],
    "fig04c": [
        {"llc": "1x", "structure_offchip_%": 6.61,
         "property_offchip_%": 23.42, "intermediate_offchip_%": 8.42},
        {"llc": "4x", "structure_offchip_%": 6.61,
         "property_offchip_%": 23.42, "intermediate_offchip_%": 8.42},
    ],
    "fig11a": [
        {"workload": "PR", "dataset": "kron", "ghb": 1.307, "vldp": 1.751,
         "stream": 1.477, "streamMPP1": 2.088, "droplet": 2.313,
         "monoDROPLETL1": 1.914},
        {"workload": "BFS", "dataset": "kron", "ghb": 1.183, "vldp": 1.625,
         "stream": 1.387, "streamMPP1": 2.313, "droplet": 2.152,
         "monoDROPLETL1": 1.495},
    ],
}


def ordered(rows):
    return [list(row.items()) for row in rows]


@pytest.mark.parametrize("workers", [None, 2], ids=["default", "pool"])
def test_figure_rows_match_the_pinned_rows(workers, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.setattr(fig04_cache_sensitivity, "_SWEEP_CACHE", {})
    clear_caches()
    clear_matrix_cache()
    runner = None if workers is None else make_runner(workers)
    try:
        got = {
            "fig04a": run_fig04a(CFG, multipliers=(1, 4), runner=runner).rows,
            "fig04b": run_fig04b(CFG, runner=runner).rows,
            "fig04c": run_fig04c(CFG, multipliers=(1, 4), runner=runner).rows,
            "fig11a": run_fig11a(CFG, runner=runner).rows,
        }
    finally:
        clear_caches()
        clear_matrix_cache()
    for name, rows in PINNED.items():
        assert ordered(got[name]) == ordered(rows), name
