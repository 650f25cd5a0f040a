"""Integration tests for population points (small populations)."""

import pytest

from repro.circuits.frequency import ClockScheme
from repro.engine.executors import warm_caches
from repro.experiments import Experiment, ExperimentSpec
from repro.memory.hierarchy import MemorySystem
from repro.workloads.kernels import kernel_trace
from repro.workloads.profiles import KERNEL_LIKE, SPECINT_LIKE

#: Full-population sweep simulations; CI matrix legs skip via -m "not slow".
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def experiment():
    return Experiment(ExperimentSpec(
        name="integration", profiles=(SPECINT_LIKE.name, KERNEL_LIKE.name),
        trace_length=3000, vcc_mv=(500.0, 650.0), stalls_vcc_mv=575.0,
        artifacts=("fig11b", "stalls")))


def run_point(experiment, vcc_mv, scheme, **switches):
    return experiment.runner.run_one(
        experiment.population_job(vcc_mv, scheme, switches))


class TestWarmCaches:
    def test_warmup_reduces_misses(self):
        trace, _ = kernel_trace("memcpy", 200)
        cold = MemorySystem()
        warm = MemorySystem()
        warm_caches(warm, trace)
        for op in trace.ops[:50]:
            if op.mem_addr is not None:
                cold.load(op.mem_addr, 0)
                warm.load(op.mem_addr, 0)
        assert warm.dl0.misses < cold.dl0.misses

    def test_warmup_resets_stats(self):
        trace, _ = kernel_trace("memcpy", 50)
        memory = MemorySystem()
        warm_caches(memory, trace)
        assert memory.dl0.accesses == 0


class TestSweepPoints:
    def test_point_caching(self, experiment):
        a = run_point(experiment, 500.0, ClockScheme.IRAW)
        b = run_point(experiment, 500.0, ClockScheme.IRAW)
        assert a is b

    def test_overrides_create_new_points(self, experiment):
        a = run_point(experiment, 500.0, ClockScheme.IRAW)
        b = run_point(experiment, 500.0, ClockScheme.IRAW, rf_enabled=False)
        assert a is not b

    def test_no_violations_at_any_point(self, experiment):
        for scheme in (ClockScheme.BASELINE, ClockScheme.IRAW):
            point = run_point(experiment, 500.0, scheme)
            assert point.iraw_violations == 0

    def test_iraw_runs_at_higher_frequency(self, experiment):
        base = run_point(experiment, 500.0, ClockScheme.BASELINE)
        iraw = run_point(experiment, 500.0, ClockScheme.IRAW)
        assert iraw.point.frequency_mhz > base.point.frequency_mhz
        assert iraw.ipc < base.ipc  # stalls + memory cycles


class TestCompare:
    @pytest.fixture(scope="class")
    def rows(self, experiment):
        return {row["vcc_mv"]: row for row in experiment.artifact("fig11b")}

    def test_headline_shape_at_500(self, rows):
        row = rows[500.0]
        assert row["frequency_gain"] == pytest.approx(0.57, abs=0.03)
        assert 0.0 < row["performance_gain"] < row["frequency_gain"]
        assert 0 < row["iraw_delay_fraction"] < 0.35
        assert row["stabilization_cycles"] == 1

    def test_no_gain_at_650(self, rows):
        row = rows[650.0]
        assert row["frequency_gain"] == pytest.approx(0.0, abs=1e-9)
        assert row["performance_gain"] == pytest.approx(0.0, abs=1e-6)


class TestStallDecomposition:
    def test_rf_dominates(self, experiment):
        (decomp,) = experiment.artifact("stalls")
        assert decomp["rf_drop"] > decomp["dl0_drop"]
        assert decomp["rf_drop"] > 0.01
        assert 0 <= decomp["dl0_drop"] < 0.05
        assert 0 < decomp["total_drop"] < 0.25

    def test_delay_fraction_in_paper_ballpark(self, experiment):
        """Paper: 13.2% of instructions delayed; ours within ~2x."""
        (decomp,) = experiment.artifact("stalls")
        assert 0.05 < decomp["iraw_delay_fraction"] < 0.30
