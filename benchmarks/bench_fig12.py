"""Figure 12 — energy, delay and EDP of IRAW relative to the baseline.

Paper anchors: ~1.01 relative energy above 575 mV (idle IRAW hardware),
then EDP 0.61 at 500 mV, 0.41 at 450 mV, 0.33 at 400 mV.  Also reproduces
the Section 5.3 joule-accounting example at 450 mV (5 J unconstrained /
8.50 J baseline / 6.40 J IRAW in the paper).
"""

from conftest import record_table

from repro.analysis.reporting import format_table
from repro.experiments.artifacts import energy450_rows, fig12_rows


def test_figure12(benchmark, session_experiment):
    rows = benchmark.pedantic(
        fig12_rows, args=(session_experiment,), rounds=1, iterations=1)
    by_vcc = {row["vcc_mv"]: row for row in rows}

    # High Vcc: IRAW slightly worse (hardware overhead, no gain).
    assert 1.0 < by_vcc[700.0]["edp_ratio"] < 1.02
    assert by_vcc[650.0]["delay_ratio"] == 1.0
    # Low Vcc: all three metrics win, EDP most of all.
    assert by_vcc[500.0]["edp_ratio"] < 0.75
    assert by_vcc[450.0]["edp_ratio"] < by_vcc[500.0]["edp_ratio"]
    assert abs(by_vcc[400.0]["edp_ratio"] - 0.33) < 0.10
    for row in rows:
        if row["vcc_mv"] <= 500.0:
            assert row["edp_ratio"] < row["energy_ratio"] < 1.0

    record_table("fig12_energy_delay_edp", format_table(
        rows, title="Figure 12: IRAW energy/delay/EDP relative to baseline "
                    "(paper EDP: 0.61 @500mV, 0.41 @450mV, 0.33 @400mV)"))


def test_energy450_cases(benchmark, session_experiment):
    rows = benchmark.pedantic(
        energy450_rows, args=(session_experiment,), rounds=1, iterations=1)
    cases = {row["case"]: row for row in rows}

    assert abs(cases["unconstrained"]["total_j"] - 5.0) < 1e-6
    assert (cases["baseline"]["total_j"] > cases["iraw"]["total_j"]
            > cases["unconstrained"]["total_j"])
    assert (cases["baseline"]["leakage_j"] > cases["iraw"]["leakage_j"]
            > cases["unconstrained"]["leakage_j"])

    record_table("fig12_energy450_cases", format_table(
        rows, title="Section 5.3 example at 450 mV "
                    "(paper: 5 J / 8.50 J / 6.40 J, leakage "
                    "1.24 J / 4.74 J / 2.64 J)"))
