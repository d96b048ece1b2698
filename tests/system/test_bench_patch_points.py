"""The end-to-end benchmark's layer patch points exist in the package.

``perfbench/tracing.py`` times each layer by swapping named functions at
every module that binds them (``Tracer.patch`` reads
``owner.__dict__[attr]``).  A refactor that drops one of those bindings,
for example ``fastreplay``'s module-level ``plan_replay`` import, would
break traced benchmark runs and nothing else; this test installs every
patch against the real package and restores it.
"""

import importlib.util
from pathlib import Path

from repro.system import Machine, SystemConfig
from repro.trace import DataType, TraceBuffer

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(tracing):
    bound = {}
    for _, targets, _ in tracing.LAYER_PATCHES:
        for target in targets:
            owner, attr = tracing._resolve(target)
            bound[target] = owner.__dict__[attr]
    return bound


def test_every_layer_patch_installs_and_restores():
    tracing = _load_tracing()
    originals = _bound(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install_layer_patches(tracer)
        patched = _bound(tracing)
        for target, original in originals.items():
            assert patched[target] is not original, target
        # The batch replay plans through its own binding of plan_replay.
        tb = TraceBuffer(name="patch-points")
        for i in range(64):
            tb.load(i * 64, DataType.PROPERTY, gap=1)
        Machine(SystemConfig.scaled_baseline(), setup="none").run(tb.finalize())
    finally:
        tracer.restore()
    assert _bound(tracing) == originals
    assert [span.name for span in tracer.spans] == ["trace.plan"]
