"""Bypass-network depth vs IRAW (paper Section 4.1.2 synergy).

The paper notes its scoreboard modification is "pretty similar" to the
incomplete-bypass-network technique of Brown & Patt [3], and that the two
can share hardware.  This bench quantifies the interaction: the bypass
window (phase II ones in the shift register) and the IRAW bubble (phase
III zeros) compose — with no bypass network at all, every consumer must
wait out the bubble; deeper bypassing hides it.
"""

from conftest import BENCH_TRACE_LENGTH, record_table

from repro.analysis.reporting import format_table
from repro.core.config import IrawConfig
from repro.engine.executors import warm_caches
from repro.memory.hierarchy import MemoryConfig
from repro.pipeline.core import CoreSetup, InOrderCore
from repro.workloads.profiles import SPECINT_LIKE
from repro.workloads.synthetic import SyntheticTraceGenerator


def _run(trace, bypass_levels, n):
    iraw = IrawConfig(stabilization_cycles=n, bypass_levels=bypass_levels) \
        if n else IrawConfig.disabled()
    core = InOrderCore(CoreSetup(
        iraw=iraw, memory=MemoryConfig(dram_latency_cycles=40),
        name=f"bypass{bypass_levels}-n{n}"))
    warm_caches(core.memory, trace)
    return core.run(trace)


def test_bypass_depth_synergy(benchmark):
    trace = SyntheticTraceGenerator(SPECINT_LIKE, seed=0).generate(
        BENCH_TRACE_LENGTH)

    def run_matrix():
        rows = []
        for bypass in (1, 2):
            for n in (0, 1, 2):
                result = _run(trace, bypass, n)
                rows.append({
                    "bypass_levels": bypass,
                    "stabilization_N": n,
                    "ipc": result.ipc,
                    "iraw_delayed_fraction": result.iraw_delay_fraction,
                    "violations": result.iraw_violations,
                })
        return rows

    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    by_key = {(r["bypass_levels"], r["stabilization_N"]): r for r in rows}

    # Correctness holds at every depth.
    assert all(r["violations"] == 0 for r in rows)
    # The bubble costs IPC at any bypass depth...
    assert by_key[(1, 1)]["ipc"] < by_key[(1, 0)]["ipc"]
    # ...but a deeper bypass hides more of it (fewer delayed consumers).
    assert (by_key[(2, 1)]["iraw_delayed_fraction"]
            < by_key[(1, 1)]["iraw_delayed_fraction"])
    assert by_key[(2, 1)]["ipc"] >= by_key[(1, 1)]["ipc"]

    record_table("extension_bypass_synergy", format_table(
        rows, title="Section 4.1.2 synergy: bypass depth x stabilization "
                    "depth (specint-like, iso-frequency IPC)"))
