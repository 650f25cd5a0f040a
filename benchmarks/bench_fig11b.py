"""Figure 11(b) — IRAW frequency increase and performance gain vs Vcc.

The paper's headline: +57% frequency / +48% performance at 500 mV and
+99% / +90% at 400 mV.  Absolute IPCs differ on our synthetic workloads
(see EXPERIMENTS.md); the asserted *shape* is: gains are zero at/above
600 mV, grow monotonically as Vcc falls, and performance trails frequency
because of IRAW stalls and fixed-nanosecond memory latency.
"""

from conftest import record_table, run_point

from repro.analysis.reporting import format_table
from repro.circuits.frequency import ClockScheme
from repro.experiments.artifacts import fig11b_rows


def test_figure11b(benchmark, session_experiment):
    rows = benchmark.pedantic(
        fig11b_rows, args=(session_experiment,), rounds=1, iterations=1)
    by_vcc = {row["vcc_mv"]: row for row in rows}

    assert by_vcc[700.0]["frequency_gain"] == 0.0
    assert by_vcc[650.0]["performance_gain"] == 0.0
    assert abs(by_vcc[500.0]["frequency_gain"] - 0.57) < 0.03
    assert abs(by_vcc[400.0]["frequency_gain"] - 0.99) < 0.05
    assert 0.25 < by_vcc[500.0]["performance_gain"] < by_vcc[500.0][
        "frequency_gain"]
    assert 0.60 < by_vcc[400.0]["performance_gain"] < by_vcc[400.0][
        "frequency_gain"]
    gains = [row["performance_gain"] for row in rows]
    assert gains[-1] == max(gains)  # biggest win at the lowest Vcc

    record_table("fig11b_frequency_and_performance", format_table(
        rows,
        columns=["vcc_mv", "frequency_gain", "performance_gain",
                 "ipc_ratio", "stabilization_cycles",
                 "iraw_delay_fraction"],
        title="Figure 11(b): IRAW frequency / performance gains vs "
              "baseline (paper: +57%/+48% @500mV, +99%/+90% @400mV)",
    ))


def test_figure11b_per_profile(benchmark, session_experiment):
    """Per-workload-family speedups at 500 mV (cached points, cheap)."""
    def per_profile():
        base = run_point(session_experiment, 500.0, ClockScheme.BASELINE)
        iraw = run_point(session_experiment, 500.0, ClockScheme.IRAW)
        ratio = iraw.point.frequency_mhz / base.point.frequency_mhz
        rows = []
        for rb, ri in zip(base.results, iraw.results):
            speedup = (ri.instructions / ri.cycles * ratio) \
                / (rb.instructions / rb.cycles)
            rows.append({
                "trace": rb.trace_name,
                "baseline_ipc": rb.instructions / rb.cycles,
                "iraw_ipc": ri.instructions / ri.cycles,
                "speedup": speedup,
                "iraw_delayed": ri.iraw_delay_fraction,
            })
        return rows

    rows = benchmark.pedantic(per_profile, rounds=1, iterations=1)
    # Every family wins at 500 mV; compute-bound families win the most.
    for row in rows:
        assert row["speedup"] > 1.15
    assert max(row["speedup"] for row in rows) > 1.35

    record_table("fig11b_per_profile_500mv", format_table(
        rows, title="Figure 11(b) detail: per-workload-family speedups "
                    "at 500 mV (paper aggregate: 1.48x)"))
