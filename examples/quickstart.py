#!/usr/bin/env python3
"""Quickstart: reproduce the paper's headline claim in one page.

Builds the calibrated circuit model, asks it for the baseline and IRAW
operating points at 500 mV, runs one workload on the cycle-level core
under both clockings, and prints the frequency/performance gains — the
miniature of "57% higher frequency, 48% speedup at 500 mV".

Run:  python examples/quickstart.py
"""

from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.core.config import IrawConfig
from repro.engine.executors import warm_caches
from repro.memory.hierarchy import MemoryConfig
from repro.pipeline.core import CoreSetup, InOrderCore
from repro.workloads.profiles import SPECINT_LIKE
from repro.workloads.synthetic import SyntheticTraceGenerator

VCC_MV = 500.0
DRAM_NS = 80.0


def main() -> None:
    # 1. Circuit model: what does 500 mV do to the clock?
    solver = FrequencySolver()
    baseline_point = solver.operating_point(VCC_MV, ClockScheme.BASELINE)
    iraw_point = solver.operating_point(VCC_MV, ClockScheme.IRAW)
    print(f"At {VCC_MV:.0f} mV:")
    print(f"  baseline clock (full SRAM writes): "
          f"{baseline_point.frequency_mhz:7.1f} MHz")
    print(f"  IRAW clock (interrupted writes):   "
          f"{iraw_point.frequency_mhz:7.1f} MHz  "
          f"(+{100 * (iraw_point.frequency_mhz / baseline_point.frequency_mhz - 1):.1f}%, "
          f"N={iraw_point.stabilization_cycles} stabilization cycle)")

    # 2. Pipeline model: what do the avoidance stalls cost?
    trace = SyntheticTraceGenerator(SPECINT_LIKE, seed=0).generate(10_000)
    results = {}
    for name, point, iraw in (
            ("baseline", baseline_point, IrawConfig.disabled()),
            ("iraw", iraw_point,
             IrawConfig.for_operating_point(iraw_point))):
        memory = MemoryConfig(
            dram_latency_cycles=point.memory_latency_cycles(DRAM_NS))
        core = InOrderCore(CoreSetup(iraw=iraw, memory=memory, name=name))
        warm_caches(core.memory, trace)  # amortize cold misses
        results[name] = core.run(trace)

    base, iraw = results["baseline"], results["iraw"]
    print(f"\nRunning {len(trace)} instructions of {trace.name!r}:")
    print(f"  baseline IPC: {base.ipc:.3f}")
    print(f"  IRAW IPC:     {iraw.ipc:.3f}  "
          f"({100 * (1 - iraw.ipc / base.ipc):.1f}% lower — avoidance stalls "
          f"+ memory cycles at the higher clock)")
    print(f"  instructions delayed by the RF stabilization bubble: "
          f"{100 * iraw.iraw_delay_fraction:.1f}%  (paper: 13.2%)")
    print(f"  IRAW violations observed: {iraw.iraw_violations} (must be 0)")

    # 3. The bottom line: wall-clock speedup.
    time_base = base.cycles / baseline_point.frequency_mhz
    time_iraw = iraw.cycles / iraw_point.frequency_mhz
    print(f"\nWall-clock speedup of IRAW at {VCC_MV:.0f} mV: "
          f"{time_base / time_iraw:.2f}x  (paper: 1.48x)")


if __name__ == "__main__":
    main()
