"""Host-speed reference: a fixed kernel timed between repetitions.

The benchmark runs on shared hosts whose speed drifts with their
neighbours' load, by tens of percent over minutes, and the simulator
slows down with it.  A run's median then follows the host rather than
the program.  To take the drift out, each run times
this kernel before its first repetition and after every repetition,
outside the measured window, and reports its timings in *reference
seconds*: a repetition's host seconds scaled by ``REFERENCE_S`` over
the kernel's mean time just before and after it (set-up times by the
run's median kernel time).  On a host as fast as the reference one,
reference seconds are host seconds.

The kernel is the benchmark's own code and imports nothing from the
simulator, so no change to the simulator moves it.  Its mix follows the
simulator's: interpreted dictionary work (orchestration, graph
building) and NumPy gathers and sorts (trace generation, replay).  It
works in buffers allocated once per run, because a kernel that
allocates reads the state of the benchmark process's heap as much as
the host's speed: after some cold-paper seeds' repetitions it slowed
by half while the host did not.  The buffers add about 30 MB to the
benchmark process's resident memory.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: A fixed scale, about the kernel's median time in seconds on the
#: reference host, the 2-vCPU VM the benchmark was tuned on (0.2-0.25 s
#: there).  It must never change: it sets the unit of every timing.
REFERENCE_S = 0.2

_TABLE_LEN = 1 << 21  # 16 MiB of int64
_GATHERS = 1 << 19
_DICT_KEYS = 150_000
_ROUNDS = 8


class _Buffers:
    """The kernel's inputs and outputs, filled from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.table = rng.integers(0, 1 << 30, _TABLE_LEN)
        self.index = rng.integers(0, _TABLE_LEN, _GATHERS)
        self.keys = rng.integers(0, 1 << 20, _GATHERS)
        self.gathered = np.empty(_GATHERS, dtype=self.table.dtype)
        self.sorted = np.empty_like(self.keys)


def kernel_seconds(buffers: _Buffers) -> float:
    """Host seconds one pass of the fixed kernel takes, allocating no arrays."""
    start = time.perf_counter()
    mapping = {}
    for i in range(_DICT_KEYS):
        mapping[(i * 7919) % 100_003] = i
    total = 0
    for key in range(_DICT_KEYS):
        total += mapping.get(key, 0)
    for _ in range(_ROUNDS):
        np.take(buffers.table, buffers.index, out=buffers.gathered)
        buffers.sorted[:] = buffers.keys
        buffers.sorted.sort()
    return time.perf_counter() - start


class HostSpeed:
    """Kernel samples of one run and the scales they give its timings.

    The run samples once before set-up and once after every repetition,
    so repetition ``i`` lies between samples ``i`` and ``i + 1``.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._buffers = _Buffers()

    def sample(self) -> None:
        self.samples.append(kernel_seconds(self._buffers))

    def scale(self) -> float:
        """Reference seconds per host second over the whole run."""
        if not self.samples:
            raise ValueError("no host-speed samples")
        return REFERENCE_S / statistics.median(self.samples)

    def rep_scale(self, index: int) -> float:
        """Reference seconds per host second around repetition ``index``.

        The mean of the samples just before and just after it, so that
        drift within a run cancels as well as drift between runs.
        """
        around = self.samples[index:index + 2]
        if len(around) != 2:
            raise ValueError("repetition %d has no host-speed sample on "
                             "each side" % index)
        return REFERENCE_S / statistics.mean(around)
