"""Self-tests of the benchmark harness (no simulator runs needed).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from stats import (  # noqa: E402
    describe, describe_sum, failed_fraction, spread, valid_name,
)
from tracing import Span, Tracer, covered, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Context, Rep, Workload, layer_metrics, settled_counts,
)


def bench_file() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- names ---------------------------------------------------------------
def test_every_name_is_well_formed():
    bench = bench_file()
    names = (
        [w["name"] for w in bench["workloads"]]
        + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        + list(WORKLOADS)
    )
    assert names
    for name in names:
        assert valid_name(name), name
    metric_names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(metric_names) == len(set(metric_names))


@pytest.mark.parametrize("name", ["", "-lead", ".lead", "a b", "a/b", "x" * 65])
def test_malformed_names_are_rejected(name):
    assert not valid_name(name)


def test_benchmark_file_matches_the_metrics_printed():
    bench = bench_file()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# -- percentiles -----------------------------------------------------------
def test_percentiles_carry_their_sample_count():
    values = [4.0, 1.0, 3.0, 2.0, 10.0]
    stats = describe(values)
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats == {"median": median, "q1": q1, "q3": q3, "n": 5}
    assert describe([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}
    assert spread(values) == pytest.approx((q3 - q1) / median)
    with pytest.raises(ValueError):
        describe([])


def test_setup_total_adds_the_parts_medians_and_quartiles():
    imports = [1.0, 2.0, 3.0, 4.0, 5.0]
    fills = [10.0, 20.0, 30.0]
    total = describe_sum([imports, fills])
    a, b = describe(imports), describe(fills)
    assert total == {"median": a["median"] + b["median"],
                     "q1": a["q1"] + b["q1"], "q3": a["q3"] + b["q3"], "n": 3}
    with pytest.raises(ValueError):
        describe_sum([])


def test_host_speed_scales_by_the_kernel_time():
    speed = HostSpeed()
    with pytest.raises(ValueError):
        speed.scale()
    speed.samples = [0.1, 0.5, 0.4]
    assert speed.scale() == pytest.approx(REFERENCE_S / 0.4)
    assert speed.rep_scale(0) == pytest.approx(REFERENCE_S / 0.3)
    assert speed.rep_scale(1) == pytest.approx(REFERENCE_S / 0.45)
    with pytest.raises(ValueError):
        speed.rep_scale(2)  # no sample after it yet
    speed.sample()
    assert len(speed.samples) == 4 and speed.samples[-1] > 0


def test_timings_are_reported_in_reference_seconds(tmp_path):
    ctx = Context(root=ROOT, work=tmp_path, seed=1, seconds=1, trace=False)
    workload = FakeWorkload(ctx)
    workload.import_samples = [1.0, 3.0, 2.0]
    workload.fill_samples = [4.0]
    speed = HostSpeed()
    # Host twice as slow as the reference around the first two
    # repetitions, four times as slow around the third.
    speed.samples = [2 * REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S,
                     6 * REFERENCE_S]
    reps = [Rep(wall=w, summaries={}, instructions=100, attempted=2,
                failed=0) for w in (2.0, 4.0, 12.0)]
    out = run.end_to_end(workload, reps, rss=50.0, speed=speed)
    assert out["wall_s"]["median"] == pytest.approx(2.0)  # of 1, 2, 3
    assert out["sim_instr_per_s"]["median"] == pytest.approx(100 / 2.0)
    assert out["setup_s"]["median"] == pytest.approx((2.0 + 4.0) * 0.5)
    assert out["peak_rss_mb"]["median"] == 50.0

    layers = {name: 1.0 for name, _unit, _better in run.PER_LAYER}
    traced = [Rep(wall=2.0, summaries={}, instructions=1, attempted=1,
                  failed=0, traced=True, layers=layers)]
    out = run.per_layer(traced + reps, speed)
    assert out["graph.build_s"]["median"] == pytest.approx(0.5)
    assert out["system.host_ns_per_ref"]["median"] == pytest.approx(0.5)
    assert out["workloads.trace_refs_per_s"]["median"] == pytest.approx(2.0)
    assert out["graph.builds"]["median"] == 1.0
    assert out["cache.llc_mpki"]["median"] == 1.0


def test_rendered_table_shows_unit_and_count():
    table = run.render("t", {"wall_s": describe([1.0, 2.0, 3.0])},
                       {"wall_s": "s"})
    row = table.splitlines()[-1].split()
    assert row[0] == "wall_s" and row[-2:] == ["3", "s"]


# -- spans ---------------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_is_duration_minus_covered_child_interval():
    parent = Span(1, "p", 0.0, 10.0)
    kids = [Span(2, "a", 1.0, 3.0, parent=1), Span(3, "b", 2.0, 5.0, parent=1),
            Span(4, "c", 8.0, 12.0, parent=1)]
    grandchild = Span(5, "g", 1.5, 2.5, parent=2)
    selfs = self_times([parent, *kids, grandchild])
    assert selfs[1] == pytest.approx(10.0 - 6.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)  # grandchild covers 1 s
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_tracer_nests_patched_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    inner_t = tracer.wrap(inner, "inner")

    def outer_t():
        with tracer.span("outer"):
            return inner_t() + 1

    assert outer_t() == 2
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    selfs = self_times(tracer.spans)
    outer_span = by_name["outer"]
    assert selfs[outer_span.id] == outer_span.duration - by_name["inner"].duration


def test_patch_and_restore_every_binding():
    import types

    tracer = Tracer()
    a = types.ModuleType("bench_test_a")
    a.f = lambda: 3
    b = types.ModuleType("bench_test_b")
    b.f = a.f
    sys.modules["bench_test_a"], sys.modules["bench_test_b"] = a, b
    try:
        original = a.f
        tracer.patch(["bench_test_a:f", "bench_test_b:f"], "f")
        assert a.f() == b.f() == 3 and a.f is b.f is not original
        assert [s.name for s in tracer.spans] == ["f", "f"]
        tracer.restore()
        assert a.f is b.f is original
    finally:
        del sys.modules["bench_test_a"], sys.modules["bench_test_b"]


def test_layer_metrics_attribute_wall_time():
    point = {"workload": "PR", "dataset": "kron", "setup": "none",
             "max_refs": 1, "scale_shift": 0, "seed": 1,
             "llc_multiplier": None, "l2_config": None,
             "rob_entries": None, "mrb_entries": None}
    spans = [
        Span(1, "runtime.sweep", 1.0, 9.0),
        Span(2, "runtime.point", 1.5, 8.5, parent=1, attrs={"point": point}),
        Span(3, "trace_cache.load", 2.0, 5.0, parent=2, attrs={"hit": True}),
        Span(4, "graph.build", 2.5, 4.5, parent=3),
        Span(5, "system.simulate", 5.0, 8.0, parent=2,
             attrs={"refs": 1000, "tier": "vector", "windows_degraded": 0}),
        Span(6, "trace.plan", 5.0, 5.5, parent=5),
    ]
    summary = {"instructions": 2000, "pf_issued": 0, "pf_useful": 0,
               "llc_mpki": 1.0, "l2_hit_rate": 0.5, "bpki": 2.0}
    out = layer_metrics(spans, 10.0, [spans[0]], [summary])
    assert out["graph.build_s"] == pytest.approx(2.0)
    assert out["trace_cache.load_s"] == pytest.approx(1.0)
    assert out["system.replay_s"] == pytest.approx(2.5)
    assert out["trace.plan_s"] == pytest.approx(0.5)
    assert out["unattributed_s"] == pytest.approx(2.0)
    assert out["runtime.orchestration_s"] == pytest.approx(2.0)
    assert out["system.host_ns_per_ref"] == pytest.approx(2.5e6)
    assert out["trace_cache.hit_ratio"] == 1.0
    assert out["service.submit_s"] == 0.0
    layered = sum(out[m] for m in ("graph.build_s", "trace_cache.load_s",
                                   "system.replay_s", "trace.plan_s"))
    assert layered + out["runtime.orchestration_s"] + out["unattributed_s"] \
        == pytest.approx(10.0)


# -- failures --------------------------------------------------------------
def test_refused_and_deadline_failed_points_count_as_failed():
    spec = {"points": [{}, {}, {}, {}]}
    accepted = {"a": 1, "b": 1, "c": 1, "d": 1}
    late = {"a": 1, "b": 1}        # two points missed the deadline
    refused = {}                   # 429 after every retry
    attempted, failed = settled_counts([spec, spec, spec],
                                       [accepted, late, refused])
    assert (attempted, failed) == (12, 6)
    assert failed_fraction(attempted, failed) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        failed_fraction(0, 0)


class FakeWorkload(Workload):
    """Settles two points per repetition; ``lose`` points fail in each."""

    name = "fake"
    lose = 0

    def setup(self):
        self.import_samples.append(1.0)

    def between_reps(self):
        pass

    def labels(self):
        return {"p0", "p1"}

    def rep(self, index, tracer):
        summaries = {label: {"instructions": 10}
                     for label in sorted(self.labels())[self.lose:]}
        return Rep(wall=0.01, summaries=summaries, instructions=10,
                   attempted=2, failed=self.lose)

    def check(self, reps):
        self.check_repeats(reps)


def run_fake(monkeypatch, lose):
    workload = type("Lossy", (FakeWorkload,), {"lose": lose})
    monkeypatch.setitem(workloads.WORKLOADS, "cold-paper", workload)
    return run.run_workload("cold-paper", 1, 0.0, False)  # MIN_REPS reps


def test_a_run_without_failed_points_is_correct(monkeypatch):
    payload, code = run_fake(monkeypatch, lose=0)
    assert (payload["correct"], code) == (True, 0)
    assert (payload["attempted"], payload["failed"]) == (6, 0)


def test_a_failed_point_makes_the_run_incorrect(monkeypatch, capsys):
    payload, code = run_fake(monkeypatch, lose=1)
    assert (payload["correct"], code) == (False, 1)
    assert (payload["attempted"], payload["failed"]) == (6, 3)
    out = capsys.readouterr().out
    assert "3 of 6 points failed" in out
    assert "repetition 0 settled no summary for p0" in out


def test_a_point_missing_from_every_repetition_is_caught(tmp_path):
    ctx = Context(root=ROOT, work=tmp_path, seed=1, seconds=1, trace=False)
    workload = FakeWorkload(ctx)
    reps = [Rep(wall=1.0, summaries={"p1": {"x": 1}}, instructions=1,
                attempted=2, failed=0) for _ in range(3)]
    workload.check(reps)
    assert len(ctx.failures) == 3
    assert all("no summary for p0" in message for message in ctx.failures)


def test_daemon_connection_errors_exit_2(monkeypatch):
    import urllib.error

    def refuse(*_args):
        raise urllib.error.URLError("connection refused")

    monkeypatch.setattr(run, "run_workload", refuse)
    monkeypatch.setattr(run.signal, "signal", lambda *_args: None)
    assert run.main(["--workload", "resident-service", "--seed", "1"]) == 2


# -- the command ---------------------------------------------------------
def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench_file()))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
