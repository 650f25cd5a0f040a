"""Tests for the cycle-time solver (Figure 11a inputs and IRAW gains)."""

import pytest

from repro.circuits.constants import IRAW_DEACTIVATION_MV
from repro.circuits.ekv import voltage_grid
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.errors import VoltageRangeError


@pytest.fixture(scope="module")
def solver():
    return FrequencySolver()


class TestOperatingPoints:
    def test_logic_fastest_baseline_slowest(self, solver):
        for vcc in voltage_grid(50.0):
            logic = solver.operating_point(vcc, ClockScheme.LOGIC)
            base = solver.operating_point(vcc, ClockScheme.BASELINE)
            iraw = solver.operating_point(vcc, ClockScheme.IRAW)
            assert logic.frequency_mhz >= iraw.frequency_mhz >= base.frequency_mhz

    def test_nominal_frequency_at_700(self, solver):
        logic = solver.operating_point(700.0, ClockScheme.LOGIC)
        assert logic.frequency_mhz == pytest.approx(1200.0)

    def test_cycle_time_normalized_is_two_phases(self, solver):
        point = solver.operating_point(700.0, ClockScheme.LOGIC)
        assert point.cycle_time_normalized == pytest.approx(2.0)

    def test_out_of_range_voltage(self, solver):
        with pytest.raises(VoltageRangeError):
            solver.operating_point(300.0, ClockScheme.IRAW)


class TestIrawGains:
    """The paper's headline frequency numbers (Section 5.2)."""

    def test_gain_at_500mv_is_57_percent(self, solver):
        assert solver.frequency_gain(500.0) == pytest.approx(0.57, abs=0.03)

    def test_gain_at_400mv_is_99_percent(self, solver):
        assert solver.frequency_gain(400.0) == pytest.approx(0.99, abs=0.05)

    def test_gain_at_450mv_near_79_percent(self, solver):
        """Implied by the paper's 450 mV energy example (DESIGN.md)."""
        assert solver.frequency_gain(450.0) == pytest.approx(0.79, abs=0.05)

    def test_deactivated_at_600mv_and_above(self, solver):
        for vcc in (600.0, 650.0, 700.0):
            point = solver.operating_point(vcc, ClockScheme.IRAW)
            assert point.stabilization_cycles == 0
            assert solver.frequency_gain(vcc) == pytest.approx(0.0, abs=1e-9)

    def test_gain_monotonically_decreasing_with_vcc(self, solver):
        gains = [solver.frequency_gain(v) for v in voltage_grid(25.0)]
        # Sweeping 700 -> 400 mV: gains only grow.
        assert gains == sorted(gains)


class TestStabilizationCycles:
    def test_single_cycle_suffices_in_active_range(self, solver):
        """Paper: 'one stabilization cycle suffices below 600mV'."""
        for vcc in (575.0, 550.0, 500.0, 450.0, 425.0, 400.0):
            point = solver.operating_point(vcc, ClockScheme.IRAW)
            assert point.stabilization_cycles == 1, vcc

    def test_deactivation_constant_matches(self, solver):
        below = solver.operating_point(IRAW_DEACTIVATION_MV - 25,
                                       ClockScheme.IRAW)
        assert below.stabilization_cycles == 1

    def test_baseline_scheme_needs_no_stabilization(self, solver):
        """The frequency-scaling baseline (Table 1's reference row) runs
        with IRAW off: N = 0 at every Vcc."""
        for vcc in voltage_grid(50.0):
            point = solver.operating_point(vcc, ClockScheme.BASELINE)
            assert point.stabilization_cycles == 0, vcc


class TestMemoryLatency:
    def test_fixed_ns_latency_grows_with_frequency(self, solver):
        base = solver.operating_point(500.0, ClockScheme.BASELINE)
        iraw = solver.operating_point(500.0, ClockScheme.IRAW)
        assert (iraw.memory_latency_cycles(80.0)
                > base.memory_latency_cycles(80.0))

    def test_latency_at_least_one_cycle(self, solver):
        point = solver.operating_point(400.0, ClockScheme.BASELINE)
        assert point.memory_latency_cycles(0.001) == 1


class TestFigureSeries:
    def test_figure11a_rows(self, solver):
        rows = solver.figure11a_series(50.0)
        assert len(rows) == 7
        for row in rows:
            assert (row["logic_24fo4"] <= row["iraw_cycle_time"] + 1e-9)
            assert (row["iraw_cycle_time"]
                    <= row["baseline_write_limited"] + 1e-9)

    def test_figure11a_baseline_explodes_at_low_vcc(self, solver):
        rows = {r["vcc_mv"]: r for r in solver.figure11a_series(25.0)}
        assert (rows[400.0]["baseline_write_limited"]
                > 5 * rows[400.0]["logic_24fo4"])
