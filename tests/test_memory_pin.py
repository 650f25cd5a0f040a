"""Every block's memory statistics, pinned.

No artifact golden holds ``SimulationResult.memory_stats``: the artifacts
read cycles.  The literals below are the counts of one trace through the
default hierarchy, warm and cold, under the baseline and IRAW clocks and
with Faulty Bits' disabled lines; a change to the tag stores (caches and
TLBs) or the line buffers (FB, WCB/EB) that moves one access, miss,
merge or full-buffer delay fails here under its block's name.
"""

import pytest

from repro.baselines.faulty_bits import FaultyBitsBaseline
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.engine.executors import run_core
from repro.engine.jobs import TraceSpec

TRACE = TraceSpec.synthetic("server-like", seed=0, length=4000)


def probes(accesses, misses):
    """A cache's or TLB's statistics."""
    return {"accesses": accesses, "misses": misses,
            "miss_rate": misses / accesses if accesses else 0.0}


def fb(allocations, full_delays):
    return {"allocations": allocations, "merges": 0,
            "full_delays": full_delays}


def wcb(pushes):
    return {"pushes": pushes, "combines": 0, "full_delays": 0}


#: A warmed run's fetch side: the code fits IL0 and the ITLB.
WARM_FETCH = {"IL0": probes(527, 0), "ITLB": probes(527, 0)}
COLD_FETCH = {"IL0": probes(527, 20), "ITLB": probes(527, 1)}
WARM_DATA = {"DL0": probes(1731, 344), "DTLB": probes(1731, 166),
             "UL1": probes(344, 155), "WCB_EB": wcb(89)}
COLD_DATA = {"DL0": probes(1731, 524), "DTLB": probes(1731, 171),
             "UL1": probes(544, 534), "WCB_EB": wcb(43)}

#: (warm, scheme, Vcc in mV) -> (cycles, every block's statistics).
PINNED = {
    (True, "baseline", 600): (16580, {**WARM_FETCH, **WARM_DATA,
                                      "FB": fb(344, 1)}),
    (True, "iraw", 450): (12301, {**WARM_FETCH, **WARM_DATA,
                                  "FB": fb(344, 0)}),
    (False, "baseline", 600): (33397, {**COLD_FETCH, **COLD_DATA,
                                       "FB": fb(524, 5)}),
    (False, "iraw", 450): (16729, {**COLD_FETCH, **COLD_DATA,
                                   "FB": fb(524, 1)}),
}


@pytest.fixture(scope="module")
def trace():
    return TRACE.build()


@pytest.mark.parametrize("warm, scheme, vcc_mv", list(PINNED),
                         ids=lambda value: str(value))
def test_memory_statistics_are_pinned(trace, warm, scheme, vcc_mv):
    point = FrequencySolver().operating_point(vcc_mv, ClockScheme(scheme))
    run = run_core(trace, point, warm=warm)
    cycles, stats = PINNED[warm, scheme, vcc_mv]
    assert run.result.memory_stats == stats
    assert run.result.cycles == cycles
    assert run.reached_dram


def test_faulty_bits_memory_statistics_are_pinned(trace):
    """Disabled lines cost DL0 one more miss than the healthy cache."""
    baseline = FaultyBitsBaseline(FrequencySolver())
    run = run_core(trace, baseline.operating_point(450), warm=True,
                   memory_mutator=baseline.apply_to_memory)
    assert run.result.memory_stats == {
        **WARM_FETCH, "DL0": probes(1731, 345), "DTLB": probes(1731, 166),
        "UL1": probes(345, 155), "FB": fb(345, 0), "WCB_EB": wcb(89)}
    assert run.result.cycles == 10795
    assert run.extras == (("DL0", 0.010416666666666666),
                          ("IL0", 0.01953125), ("UL1", 0.018310546875))
