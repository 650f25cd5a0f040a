"""Tests for stall accounting structures."""

from core_oracle import OracleCore

from repro.core.config import IrawConfig
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import Opcode
from repro.pipeline.core import CoreSetup, InOrderCore
from repro.pipeline.resources import PipelineParams
from repro.pipeline.stats import (
    IRAW_STALL_REASONS,
    StallReason,
    StallStats,
)
from repro.workloads.trace import Trace


def run_one_wide(n: int, with_multiply: bool = False):
    """A one-wide core at IRAW depth ``n`` (N = 0: baseline) runs two
    independent adds and a third reading the first's result two cycles
    after it issued, inside its IRAW bubble; ``with_multiply`` appends a
    multiply and an add that waits on it (an organic RAW stall).
    Returns the core's result after checking the oracle agrees."""
    shape = [(Opcode.ADD, 1, ()), (Opcode.ADD, 2, ()), (Opcode.ADD, 3, (1,))]
    if with_multiply:
        shape += [(Opcode.MUL, 4, ()), (Opcode.ADD, 5, (4,))]
    ops = [MicroOp(index, opcode, dest=dest, srcs=srcs, pc=4 * index)
           for index, (opcode, dest, srcs) in enumerate(shape)]
    setup = CoreSetup(
        iraw=IrawConfig(stabilization_cycles=n) if n
        else IrawConfig.disabled(),
        params=PipelineParams(fetch_width=1, alloc_width=1, issue_window=1))
    trace = Trace("one-wide", ops)
    fast = InOrderCore(setup).run(trace)
    assert fast == OracleCore(setup).run(trace)
    return fast


class TestStallStats:
    def test_all_reasons_start_at_zero(self):
        stats = StallStats()
        assert set(stats.cycles) == set(StallReason)
        assert stats.total_stall_cycles == 0

    def test_stall_cycles_accumulate(self):
        """Each cycle the head waits adds one to its reason: N bubble
        cycles, and three for a consumer of a four-cycle multiply."""
        for n in (1, 2):
            cycles = run_one_wide(n, with_multiply=True).stalls.cycles
            assert cycles[StallReason.RF_IRAW_BUBBLE] == n
            assert cycles[StallReason.RF_DEPENDENCY] == 3
        assert run_one_wide(0).stalls.cycles[StallReason.RF_IRAW_BUBBLE] == 0

    def test_iraw_subset(self):
        """Only mechanism-induced reasons count as IRAW stalls."""
        stats = run_one_wide(2, with_multiply=True).stalls
        cycles = stats.cycles
        assert cycles[StallReason.RF_DEPENDENCY] == 3
        assert cycles[StallReason.IQ_GATE] == 2
        assert cycles[StallReason.RF_IRAW_BUBBLE] == 2
        assert stats.iraw_stall_cycles == 4
        assert stats.total_stall_cycles == sum(cycles.values())
        assert stats.total_stall_cycles - stats.iraw_stall_cycles == (
            cycles[StallReason.RF_DEPENDENCY]
            + cycles[StallReason.FRONTEND_EMPTY])

    def test_iraw_subset_counts_stable_repair(self):
        """STable repair stalls count as IRAW stalls; dependency stalls
        do not."""
        stats = StallStats()
        stats.cycles[StallReason.RF_DEPENDENCY] = 10
        stats.cycles[StallReason.IQ_GATE] = 2
        stats.cycles[StallReason.STABLE_REPAIR] = 1
        assert stats.iraw_stall_cycles == 3
        assert stats.total_stall_cycles == 13

    def test_iraw_reason_membership(self):
        assert StallReason.RF_IRAW_BUBBLE in IRAW_STALL_REASONS
        assert StallReason.DL0_FILL_GUARD in IRAW_STALL_REASONS
        assert StallReason.IQ_GATE in IRAW_STALL_REASONS
        assert StallReason.STABLE_REPAIR in IRAW_STALL_REASONS
        assert StallReason.RF_DEPENDENCY not in IRAW_STALL_REASONS
        assert StallReason.FU_BUSY not in IRAW_STALL_REASONS
        assert StallReason.WRITE_PORT not in IRAW_STALL_REASONS

    def test_reason_values_are_stable(self):
        """Report keys are part of the public API."""
        assert StallReason.RF_IRAW_BUBBLE.value == "rf_iraw_bubble"
        assert StallReason.IQ_GATE.value == "iq_gate"
        assert StallReason.STABLE_REPAIR.value == "stable_repair"
