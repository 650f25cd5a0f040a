"""End-to-end correctness: the pipeline datapath vs the golden model.

Every kernel runs under baseline and IRAW clocking; the pipeline recomputes
all values through its modeled register file / bypass / STable / memory
datapath and compares them to the interpreter's golden results.  A single
read slipping into a stabilization window would corrupt a value and be
caught twice (violation counter + mismatch).

The "broken" configurations then *disable* individual avoidance mechanisms
while keeping N=1 clocking, and assert that corruption is in fact observed
— demonstrating the mechanisms are load-bearing, not decorative.
"""

import pytest

from repro.circuits.constants import DRAM_LATENCY_NS
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.core.config import IrawConfig
from repro.engine.executors import iraw_for, run_core
from repro.memory.hierarchy import MemoryConfig
from repro.pipeline.core import simulate
from repro.workloads.kernels import KERNEL_BUILDERS, kernel_trace

KERNEL_SIZES = {
    "fib": 30,
    "memcpy": 40,
    "dot": 30,
    "matmul": 4,
    "pointer_chase": 30,
    "strfind": 30,
    "store_forward": 40,
    "sort": 24,
    "calls": 20,
    "crc": 30,
    "histogram": 30,
    "stack": 24,
    "binsearch": 16,
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_BUILDERS))
class TestGoldenValuesPerKernel:
    def test_baseline_matches_golden(self, kernel):
        trace, _ = kernel_trace(kernel, KERNEL_SIZES[kernel])
        result = simulate(trace, IrawConfig.disabled())
        assert result.value_mismatches == 0
        assert result.iraw_violations == 0
        assert result.instructions == len(trace)

    def test_iraw_n1_matches_golden(self, kernel):
        trace, _ = kernel_trace(kernel, KERNEL_SIZES[kernel])
        result = simulate(trace, IrawConfig(stabilization_cycles=1))
        assert result.value_mismatches == 0
        assert result.iraw_violations == 0

    def test_iraw_n2_matches_golden(self, kernel):
        trace, _ = kernel_trace(kernel, KERNEL_SIZES[kernel])
        result = simulate(trace, IrawConfig(stabilization_cycles=2))
        assert result.value_mismatches == 0
        assert result.iraw_violations == 0

    def test_iraw_never_faster_than_baseline(self, kernel):
        """Same clock: IRAW stalls can only add cycles."""
        trace, _ = kernel_trace(kernel, KERNEL_SIZES[kernel])
        base = simulate(trace, IrawConfig.disabled())
        iraw = simulate(trace, IrawConfig(stabilization_cycles=1))
        assert iraw.cycles >= base.cycles


class TestBrokenConfigurations:
    """Disabling a mechanism at N=1 must surface violations."""

    def test_no_rf_mechanism_corrupts_registers(self):
        trace, _ = kernel_trace("fib", 40)
        result = simulate(trace, IrawConfig(stabilization_cycles=1,
                                            rf_enabled=False))
        assert result.iraw_violations > 0
        assert result.value_mismatches > 0

    def test_no_stable_corrupts_forwarded_loads(self):
        trace, _ = kernel_trace("store_forward", 40)
        result = simulate(trace, IrawConfig(stabilization_cycles=1,
                                            stable_enabled=False))
        assert result.iraw_violations > 0
        assert result.value_mismatches > 0

    def test_no_iq_gate_reads_unstable_entries(self):
        trace, _ = kernel_trace("sort", 24)
        result = simulate(trace, IrawConfig(stabilization_cycles=1,
                                            iq_enabled=False))
        assert result.iraw_violations > 0


class TestEveryRecipeChecksGoldenValues:
    """A kernel trace carries golden values, so every run of it checks
    them: the engine's recipe (``run_core``) reports what ``simulate``
    reports on the same machine."""

    @pytest.mark.parametrize("kernel", ["binsearch", "dot", "fib"])
    def test_run_core_reports_kernel_violations(self, kernel):
        trace, _ = kernel_trace(kernel, KERNEL_SIZES[kernel])
        point = FrequencySolver().operating_point(500.0, ClockScheme.IRAW)
        switches = (("rf_enabled", False),)
        engine = run_core(trace, point, switches, warm=False).result
        memory = MemoryConfig(dram_latency_cycles=point.memory_latency_cycles(
            DRAM_LATENCY_NS))
        direct = simulate(trace, iraw_for(point, switches), memory=memory)
        assert engine.iraw_violations == direct.iraw_violations > 0
        assert engine.value_mismatches == direct.value_mismatches > 0
        assert engine == direct


class TestStableForwarding:
    def test_store_forward_kernel_uses_stable(self):
        """Immediate load-after-store must hit the STable full-match path."""
        trace, _ = kernel_trace("store_forward", 40)
        result = simulate(trace, IrawConfig(stabilization_cycles=1))
        assert result.prediction_hazards["stable_full_matches"] > 0
        assert result.value_mismatches == 0

    def test_baseline_never_uses_stable(self):
        trace, _ = kernel_trace("store_forward", 40)
        result = simulate(trace, IrawConfig.disabled())
        assert result.prediction_hazards["stable_full_matches"] == 0


class TestDeterminism:
    def test_simulation_is_reproducible(self):
        trace, _ = kernel_trace("sort", 24)
        a = simulate(trace, IrawConfig(stabilization_cycles=1))
        b = simulate(trace, IrawConfig(stabilization_cycles=1))
        assert a.cycles == b.cycles
        assert a.stalls.cycles == b.stalls.cycles

    def test_empty_trace(self):
        from repro.workloads.trace import Trace
        result = simulate(Trace("empty", []))
        assert result.cycles == 0
        assert result.instructions == 0


class TestRunawayGuard:
    def test_max_cycles_raises(self):
        from repro.errors import PipelineError
        trace, _ = kernel_trace("fib", 60)
        with pytest.raises(PipelineError, match="exceeded"):
            simulate(trace, IrawConfig.disabled(), max_cycles=10)
