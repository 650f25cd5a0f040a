"""Host speed, measured with a fixed reference kernel.

A shared host drifts: for a minute or more at a time, the same pass
takes a third to a half longer than minutes earlier.  The process's CPU
time slows with its wall time and steal time stays near zero, so the
slowdown cannot be seen in the process's own clocks.  The benchmark
therefore times this kernel in short samples between its passes, all
through a run, and reports the run's times at the reference host speed:
``seconds * REFERENCE_S / mean kernel seconds``.

The kernel is fixed benchmark code that imports nothing from the
program, so a change to the program never moves it.  It does the kinds
of work the program spends its time on: a sha256-seeded
``random.Random`` per item with Gaussian and uniform draws (the die
sampler), an interpreted loop over lists, dicts and small objects (the
cycle loop), pickling (the result cache) and small NumPy vector
operations (block evaluation).  Host speed also flickers every few tens
of milliseconds, so a single sample is noisy; the mean over the whole
run is not.
"""

from __future__ import annotations

import gc
import hashlib
import math
import pickle
import random
import time

import numpy

#: Mean kernel sample time on the reference host, a 2-vCPU x86-64 VM
#: (Xeon, 2.1 GHz) running Python 3.11.7 and NumPy 2.4.6.
REFERENCE_S = 0.0075
#: Samples taken between two passes.
SAMPLES = 30


class _Slot:
    __slots__ = ("ready", "value")

    def __init__(self):
        self.ready = 0
        self.value = 0


def _kernel() -> float:
    total = 0.0
    slots = [_Slot() for _ in range(32)]
    table: dict = {}
    for item in range(600):
        digest = hashlib.sha256(f"perfbench:{item}".encode("ascii"))
        rng = random.Random(int.from_bytes(digest.digest()[:16], "big"))
        total += rng.gauss(0.0, 1.0) + math.log1p(rng.random())
        for cycle in range(24):
            slot = slots[(item + cycle * 7) & 31]
            if slot.ready <= cycle:
                slot.value = (slot.value * 31 + cycle) & 0xFFFF
                slot.ready = cycle + (slot.value & 3)
            key = slot.value & 511
            table[key] = table.get(key, 0) + 1
    total += len(pickle.loads(pickle.dumps(table, pickle.HIGHEST_PROTOCOL)))
    vector = numpy.linspace(0.0, 1.0, 4096)
    for _ in range(40):
        total += float(numpy.maximum(vector * 1.5 - 0.25, 0.0).sum())
    return total


def sample(samples: list) -> None:
    """Append ``SAMPLES`` kernel times, in seconds, to ``samples``."""
    gc.disable()
    try:
        for _ in range(SAMPLES):
            start = time.perf_counter()
            _kernel()
            samples.append(time.perf_counter() - start)
    finally:
        gc.enable()
