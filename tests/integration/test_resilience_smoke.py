"""Assertions of the fault-injection smoke run, checked on its artifacts.

The smoke run is a shell recipe (the ``resilience-smoke`` CI job runs it;
``docs/resilience.md`` shows the same commands): a clean baseline sweep,
a fault-injected parallel sweep (cache corruption, worker crash, hang),
``repro status`` on the faulted run, and a sweep SIGKILLed mid-run then
resumed.  Its artifacts go to one directory; point ``REPRO_SMOKE_DIR`` at
it to run these checks::

    REPRO_SMOKE_DIR=. PYTHONPATH=src python -m pytest \\
        tests/integration/test_resilience_smoke.py

Without ``REPRO_SMOKE_DIR`` the module is skipped: producing the
artifacts takes a real SIGKILL and a watchdog timeout, which the unit
suites in ``tests/runtime`` cover piecewise.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.runtime.ledger import default_ledger_root

SMOKE_DIR = os.environ.get("REPRO_SMOKE_DIR")

pytestmark = pytest.mark.skipif(
    not SMOKE_DIR, reason="REPRO_SMOKE_DIR names no smoke-run artifacts"
)


def load(name: str) -> dict:
    return json.loads((Path(SMOKE_DIR) / name).read_text())


def summaries(report: dict) -> dict:
    return {p["label"]: p["summary"] for p in report["points"]}


def test_faulted_sweep_is_bit_identical_to_the_baseline():
    baseline, faulty = load("baseline.json"), load("faulty.json")
    assert faulty["metrics"]["errors"] == 0, faulty["metrics"]
    base = summaries(baseline)
    for label, summary in summaries(faulty).items():
        assert summary == base[label], "summary drift at %s" % label


def test_status_of_the_faulted_run_matches_its_report():
    status, report = load("faulty-status.json"), load("faulty.json")
    assert status["finished"], status
    assert status["states"]["failed"] == 0, status["states"]
    metrics, counters = report["metrics"], status["counters"]
    for key in ("retries", "timeouts", "recovered_workers",
                "quarantined_entries", "restored_points", "errors"):
        assert counters[key] == metrics[key], (key, counters[key], metrics[key])
    # The injected faults must be visible in the status counters.
    assert counters["retries"] >= 1 and counters["recovered_workers"] >= 1, counters


def test_fault_timeline_shows_the_crash_retries_and_pool_recovery():
    trace = json.loads((default_ledger_root() / "faulty.trace.json").read_text())
    names = [event["name"] for event in trace["traceEvents"]]
    for needed in ("point.retry", "pool.respawn"):
        assert needed in names, "missing %s in %s" % (needed, set(names))
    unfinished = [name for name in names if name.endswith("(unfinished)")]
    assert unfinished, "crashed worker left no unfinished span"


def test_resumed_sweep_matches_the_uninterrupted_baseline():
    baseline, resumed = load("baseline.json"), load("resumed.json")
    metrics = resumed["metrics"]
    assert metrics["errors"] == 0, metrics
    assert metrics["restored_points"] >= 1, "nothing restored from the ledger"
    # Restored points skip trace generation entirely; the rest hit the
    # warm cache, so resume must not re-trace anything.
    assert metrics["traces_generated"] == 0, metrics
    base = summaries(baseline)
    for label, summary in summaries(resumed).items():
        assert summary == base[label], label
