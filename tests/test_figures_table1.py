"""Integration tests for the figure/table regeneration (shape assertions)."""

import pytest

from repro.analysis.figures import figure1_series, prediction_hazard_report
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.experiments import Experiment, ExperimentSpec
from repro.experiments.artifacts import (
    energy450_rows,
    fig11b_rows,
    fig12_rows,
    overhead_rows,
    table1_rows,
)
from repro.workloads.profiles import KERNEL_LIKE, SPECINT_LIKE

#: Full-population sweep simulations; CI matrix legs skip via -m "not slow".
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def experiment():
    # Table 1 at 500 mV; the grid is the 700 -> 400 mV sweep in 100 mV
    # steps (700, 600, 500, 400).
    return Experiment(ExperimentSpec(
        name="figures", profiles=(SPECINT_LIKE.name, KERNEL_LIKE.name),
        trace_length=2500, step_mv=100.0, table1_vcc_mv=500.0))


class TestFigure1:
    def test_series_covers_paper_grid(self):
        rows = figure1_series(step_mv=25.0)
        assert len(rows) == 13
        assert rows[0]["vcc_mv"] == 700.0

    def test_write_delay_dominates_at_low_vcc(self):
        rows = {r["vcc_mv"]: r for r in figure1_series()}
        low = rows[400.0]
        assert low["bitcell_write"] > low["logic_12fo4"]
        assert low["bitcell_read"] < low["logic_12fo4"]

    def test_high_vcc_logic_dominates(self):
        rows = {r["vcc_mv"]: r for r in figure1_series()}
        high = rows[700.0]
        assert high["write_plus_wordline"] < high["logic_12fo4"]


class TestFigure11a:
    def test_iraw_between_logic_and_baseline(self):
        for row in FrequencySolver().figure11a_series(50.0):
            assert (row["logic_24fo4"] - 1e-9 <= row["iraw_cycle_time"]
                    <= row["baseline_write_limited"] + 1e-9)


class TestFigure11b:
    def test_gains_shape(self, experiment):
        rows = fig11b_rows(experiment)
        by_vcc = {r["vcc_mv"]: r for r in rows}
        assert by_vcc[700.0]["frequency_gain"] == pytest.approx(0.0)
        assert by_vcc[500.0]["frequency_gain"] == pytest.approx(0.57, abs=0.03)
        assert by_vcc[400.0]["frequency_gain"] == pytest.approx(0.99, abs=0.05)
        # Performance trails frequency but wins big at low Vcc.
        assert (0.0 < by_vcc[500.0]["performance_gain"]
                < by_vcc[500.0]["frequency_gain"])
        assert by_vcc[400.0]["performance_gain"] > 0.5


class TestFigure12:
    def test_edp_improves_at_low_vcc(self, experiment):
        rows = fig12_rows(experiment)
        by_vcc = {r["vcc_mv"]: r for r in rows}
        assert by_vcc[700.0]["edp_ratio"] == pytest.approx(1.01, abs=0.02)
        assert by_vcc[500.0]["edp_ratio"] < 0.8
        assert by_vcc[400.0]["edp_ratio"] < by_vcc[500.0]["edp_ratio"]

    def test_energy_example(self, experiment):
        cases = {row["case"]: row for row in energy450_rows(experiment)}
        assert cases["unconstrained"]["total_j"] == pytest.approx(5.0)
        assert (cases["baseline"]["total_j"] > cases["iraw"]["total_j"]
                > cases["unconstrained"]["total_j"])


class TestInTextReports:
    def test_overheads(self):
        (report,) = overhead_rows()
        assert report["area_overhead"] < 0.001
        assert report["power_overhead"] < 0.01

    def test_prediction_hazards(self, experiment):
        report = prediction_hazard_report(experiment.runner.run_one(
            experiment.population_job(500.0, ClockScheme.IRAW)))
        assert report["vcc_mv"] == 500.0
        assert report["bp_predictions"] > 0
        # Paper: 0.0017% potential extra mispredictions — tiny either way.
        assert report["bp_potential_extra_misprediction_rate"] < 0.01
        assert report["rsb_hazard_pops"] <= report["rsb_pops"]


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self, experiment):
        return table1_rows(experiment)

    def test_four_techniques(self, rows):
        assert len(rows) == 4
        names = [r["technique"] for r in rows]
        assert any("IRAW" in n for n in names)
        assert any("Faulty" in n for n in names)
        assert any("Bypass" in n for n in names)

    def test_only_iraw_works_everywhere_with_gain(self, rows):
        iraw = next(r for r in rows if "IRAW" in r["technique"])
        assert iraw["works_all_blocks"] is True
        assert iraw["honest_freq_gain"] == pytest.approx(0.57, abs=0.03)

    def test_faulty_bits_honest_gain_is_zero(self, rows):
        """RF cannot disable entries: the core stays baseline-clocked."""
        faulty = next(r for r in rows if "Faulty" in r["technique"])
        assert faulty["honest_freq_gain"] == pytest.approx(0.0, abs=1e-9)
        assert faulty["hypothetical_freq_gain"] > 0.0
        assert faulty["ipc_impact"] >= 0.0

    def test_extra_bypass_costs_ipc_and_area(self, rows):
        bypass = next(r for r in rows if "Bypass" in r["technique"])
        iraw = next(r for r in rows if "IRAW" in r["technique"])
        assert bypass["honest_freq_gain"] == pytest.approx(0.0, abs=1e-9)
        assert bypass["hypothetical_freq_gain"] > iraw["honest_freq_gain"]
        assert bypass["ipc_impact"] > 0.0
        # Latches are sized for the 400 mV design point and paid always.
        assert bypass["area_overhead"] > iraw["area_overhead"]

    def test_extra_bypass_write_pipeline_deepens_at_low_vcc(self):
        from repro.baselines import ExtraBypassBaseline
        bypass = ExtraBypassBaseline(FrequencySolver())
        assert (bypass.write_cycles(400.0) > bypass.write_cycles(500.0)
                > bypass.write_cycles(650.0))
