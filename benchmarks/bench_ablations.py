"""Ablation benches for the design choices DESIGN.md calls out.

* Stabilization depth N in {1, 2}: deeper bubbles cost more IPC — the
  reason the Vcc controller programs the smallest N the circuit allows.
* IRAW + Faulty Bits combination (Section 4.4): clocking the flip path for
  a reduced sigma margin buys extra frequency on top of IRAW.
* Mechanism-off ablations: each IRAW mechanism's timing cost in isolation.
"""

from conftest import record_table, run_point

from repro.analysis.metrics import speedup
from repro.analysis.reporting import format_table
from repro.baselines.faulty_bits import FaultyBitsBaseline
from repro.circuits.frequency import ClockScheme


def test_stabilization_depth_ablation(benchmark, session_experiment):
    def run():
        n1 = run_point(session_experiment, 500.0, ClockScheme.IRAW)
        n2 = run_point(session_experiment, 500.0, ClockScheme.IRAW,
                       stabilization_cycles=2)
        return n1, n2

    n1, n2 = benchmark.pedantic(run, rounds=1, iterations=1)
    assert n2.ipc < n1.ipc  # deeper bubble, more delayed consumers
    assert n2.iraw_violations == 0

    record_table("ablation_stabilization_depth", format_table(
        [{"N": 1, "ipc": n1.ipc,
          "delayed_fraction": n1.mean_iraw_delay_fraction},
         {"N": 2, "ipc": n2.ipc,
          "delayed_fraction": n2.mean_iraw_delay_fraction}],
        title="Ablation: stabilization depth N at 500 mV"))


def test_mechanism_cost_ablation(benchmark, session_experiment):
    """Timing cost of each mechanism in isolation (stalls disabled)."""
    full = benchmark.pedantic(
        run_point, args=(session_experiment, 550.0, ClockScheme.IRAW),
        rounds=1, iterations=1)
    rows = []
    for label, overrides in (
            ("full IRAW", {}),
            ("without RF bubble stalls", {"rf_enabled": False}),
            ("without IQ gate", {"iq_enabled": False}),
            ("without fill guards", {"cache_guards_enabled": False}),
            ("without STable", {"stable_enabled": False})):
        point = run_point(session_experiment, 550.0, ClockScheme.IRAW,
                          **overrides)
        rows.append({"configuration": label, "ipc": point.ipc,
                     "speedup_vs_full": speedup(full, point)})
    record_table("ablation_mechanism_costs", format_table(
        rows, title="Ablation: per-mechanism stall cost at 550 mV "
                    "(timing-only what-ifs)"))
    by_label = {row["configuration"]: row for row in rows}
    assert (by_label["without RF bubble stalls"]["ipc"]
            >= by_label["full IRAW"]["ipc"])


def test_iraw_plus_faulty_bits(benchmark, session_experiment):
    """Section 4.4 extension: combine IRAW with reduced-sigma clocking."""
    faulty = FaultyBitsBaseline(session_experiment.solver, design_sigma=4.0)

    def gains():
        rows = []
        for vcc in (500.0, 450.0, 400.0):
            base = session_experiment.solver.operating_point(
                vcc, ClockScheme.BASELINE)
            iraw = session_experiment.solver.operating_point(
                vcc, ClockScheme.IRAW)
            combined = faulty.combined_with_iraw_point(vcc)
            rows.append({
                "vcc_mv": vcc,
                "iraw_freq_gain": iraw.frequency_mhz / base.frequency_mhz - 1,
                "combined_freq_gain":
                    combined.frequency_mhz / base.frequency_mhz - 1,
            })
        return rows

    rows = benchmark.pedantic(gains, rounds=3, iterations=1)
    for row in rows:
        assert row["combined_freq_gain"] >= row["iraw_freq_gain"]

    record_table("ablation_iraw_plus_faulty_bits", format_table(
        rows, title="Extension: IRAW + Faulty Bits combined frequency "
                    "gains (paper Section 4.4, last paragraph)"))
