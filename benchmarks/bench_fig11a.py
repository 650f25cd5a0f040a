"""Figure 11(a) — cycle time vs Vcc: 24 FO4 vs baseline vs IRAW.

The baseline cycle (write-delay limited) explodes at low Vcc; IRAW tracks
much closer to the pure-logic 24 FO4 cycle.
"""

from conftest import record_table

from repro.analysis.reporting import format_table
from repro.circuits.frequency import FrequencySolver


def _generate():
    return FrequencySolver().figure11a_series(25.0)


def test_figure11a(benchmark):
    rows = benchmark.pedantic(_generate, rounds=3, iterations=1)
    by_vcc = {row["vcc_mv"]: row for row in rows}

    for row in rows:
        assert (row["logic_24fo4"] - 1e-9
                <= row["iraw_cycle_time"]
                <= row["baseline_write_limited"] + 1e-9)
    # Paper: cycle time "almost doubles" at 500 mV.
    assert (by_vcc[500.0]["baseline_write_limited"]
            > 1.7 * by_vcc[500.0]["logic_24fo4"])
    # IRAW stays within ~30% of logic at 500 mV.
    assert (by_vcc[500.0]["iraw_cycle_time"]
            < 1.35 * by_vcc[500.0]["logic_24fo4"])

    record_table("fig11a_cycle_time", format_table(
        rows, title="Figure 11(a): cycle time vs Vcc "
                    "(normalized to 24 FO4 at 700 mV)"))
