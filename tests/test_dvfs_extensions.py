"""Tests for the extensions: DVFS scenario, determinism mode, and the
IRAW + Faulty Bits combination (paper Sections 4.4/4.5 and DESIGN.md)."""

import pytest

from repro.analysis.dvfs import DvfsPhase, DvfsScenario
from repro.baselines.faulty_bits import FaultyBitsBaseline
from repro.branch.iraw_effects import DeterminismMode
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.core.config import IrawConfig
from repro.engine.executors import execute_job
from repro.engine.jobs import Job, TraceSpec
from repro.errors import ConfigError
from repro.pipeline.core import simulate
from repro.workloads.kernels import kernel_trace
from repro.workloads.profiles import SPECINT_LIKE
from repro.workloads.synthetic import SyntheticTraceGenerator


@pytest.fixture(scope="module")
def trace():
    return SyntheticTraceGenerator(SPECINT_LIKE, seed=2).generate(3000)


class TestDvfsScenario:
    def test_schedule_must_cover_trace(self, trace):
        scenario = DvfsScenario()
        with pytest.raises(ConfigError):
            scenario.run(trace, [DvfsPhase(500.0, 10)])

    def test_phases_run_at_their_frequencies(self, trace):
        scenario = DvfsScenario(scheme=ClockScheme.IRAW)
        outcome = scenario.run(trace, [DvfsPhase(650.0, 1500),
                                       DvfsPhase(500.0, 1500)])
        high, low = outcome.phases
        assert high.frequency_mhz > low.frequency_mhz
        assert high.stabilization_cycles == 0
        assert low.stabilization_cycles == 1
        assert outcome.transitions == 2
        assert outcome.instructions == 3000

    def test_iraw_beats_baseline_through_schedule(self, trace):
        schedule = [DvfsPhase(600.0, 1000), DvfsPhase(500.0, 1000),
                    DvfsPhase(450.0, 1000)]
        iraw = DvfsScenario(scheme=ClockScheme.IRAW).run(trace, schedule)
        base = DvfsScenario(scheme=ClockScheme.BASELINE).run(trace, schedule)
        assert iraw.total_time_s < base.total_time_s

    @pytest.mark.parametrize("vcc", [450.0, 650.0])
    @pytest.mark.parametrize("scheme", list(ClockScheme))
    def test_one_phase_runs_the_sweep_shards_machine(self, trace, scheme,
                                                     vcc):
        """A phase runs on the core a sweep point builds for its Vcc."""
        shard = execute_job(Job(
            kind="sweep-point", vcc_mv=vcc, scheme=scheme.value,
            trace=TraceSpec.synthetic(SPECINT_LIKE, seed=2, length=3000)))
        phase, = DvfsScenario(scheme=scheme).run(
            trace, [DvfsPhase(vcc, 3000)]).phases
        assert phase.cycles == shard.results[0].cycles
        assert phase.frequency_mhz == shard.point.frequency_mhz

    def test_transition_overhead_counted(self, trace):
        scenario = DvfsScenario(transition_ns=1e6)
        outcome = scenario.run(trace, [DvfsPhase(500.0, 3000)])
        assert outcome.transition_time_s == pytest.approx(1e-3)

    def test_energy_accounting(self, trace):
        scenario = DvfsScenario(scheme=ClockScheme.IRAW)
        outcome = scenario.run(trace, [DvfsPhase(600.0, 1500),
                                       DvfsPhase(450.0, 1500)])
        assert scenario.energy_j(outcome) > 0

    def test_phase_validation(self):
        with pytest.raises(ConfigError):
            DvfsPhase(500.0, 0)


class TestDeterminismMode:
    def test_deterministic_runs_have_zero_hazards(self):
        trace, _ = kernel_trace("calls", 30)
        config = IrawConfig(stabilization_cycles=1,
                            determinism_mode=DeterminismMode.DETERMINISTIC)
        result = simulate(trace, config)
        assert result.prediction_hazards["bp_hazard_reads"] == 0
        assert result.prediction_hazards["rsb_hazard_pops"] == 0
        assert result.value_mismatches == 0

    def test_ignore_mode_counts_hazards_without_stalling(self):
        trace, _ = kernel_trace("calls", 30)
        ignore = simulate(trace, IrawConfig(stabilization_cycles=1))
        deterministic = simulate(
            trace, IrawConfig(
                stabilization_cycles=1,
                determinism_mode=DeterminismMode.DETERMINISTIC))
        # Determinism can only slow things down (RSB stall-after-call).
        assert deterministic.cycles >= ignore.cycles

    def test_both_modes_produce_correct_results(self):
        trace, _ = kernel_trace("calls", 30)
        for mode in DeterminismMode:
            result = simulate(trace, IrawConfig(stabilization_cycles=1,
                                                determinism_mode=mode))
            assert result.value_mismatches == 0


class TestIrawPlusFaultyBits:
    def test_combination_raises_frequency_further(self):
        """Paper Section 4.4: 'both ... can be combined to further
        increase DL0 operating frequency if required'."""
        solver = FrequencySolver()
        faulty = FaultyBitsBaseline(solver, design_sigma=4.0)
        plain_iraw = solver.operating_point(450.0, ClockScheme.IRAW)
        combined = faulty.combined_with_iraw_point(450.0)
        assert combined.frequency_mhz > plain_iraw.frequency_mhz

    def test_combination_still_uses_stabilization(self):
        solver = FrequencySolver()
        faulty = FaultyBitsBaseline(solver, design_sigma=4.0)
        combined = faulty.combined_with_iraw_point(450.0)
        assert combined.stabilization_cycles >= 1
