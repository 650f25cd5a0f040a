"""In-text statistics of Section 5.3: hardware overhead of IRAW.

Paper: below 0.03% extra area (latch-size bits) and below 1% extra power
(pessimistic 20x activity factor).
"""

from conftest import record_table

from repro.analysis.reporting import format_table
from repro.circuits.area import AreaModel, IrawHardwareBudget
from repro.experiments.artifacts import overhead_rows


def test_overheads(benchmark):
    (report,) = benchmark.pedantic(overhead_rows, rounds=5, iterations=1)

    assert report["area_overhead"] < 0.0003   # paper: ~0.03%
    assert report["power_overhead"] < 0.01    # paper: < 1%
    assert report["extra_bits"] < 1000

    budget = IrawHardwareBudget()
    rows = [
        {"item": "scoreboard extra bits (32 regs x (bypass+N))",
         "bits": budget.scoreboard_extra_bits},
        {"item": "STable (2 entries: valid+addr+data)",
         "bits": budget.stable_bits},
        {"item": "fill-guard counters (6 blocks)",
         "bits": budget.stall_counter_bits},
        {"item": "IQ gate datapath", "bits": budget.iq_gate_bits},
        {"item": "TOTAL", "bits": budget.total_extra_bits},
    ]
    rows.append({"item": "area overhead (fraction of 47M transistors)",
                 "bits": report["area_overhead"]})
    rows.append({"item": "power overhead (20x activity factor)",
                 "bits": report["power_overhead"]})
    record_table("intext_overheads", format_table(
        rows, title="Section 5.3: IRAW hardware budget "
                    "(paper: ~0.03% area, <1% power)"))


def test_sram_inventory(benchmark):
    model = AreaModel()
    total = benchmark.pedantic(model.sram_transistors, rounds=5,
                               iterations=1)
    assert total > 30_000_000  # caches dominate the transistor budget
