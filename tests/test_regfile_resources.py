"""Tests for the RF datapath model, bypass network and functional units."""

import pytest
from core_oracle import OracleCore

from repro.errors import ConfigError
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import DEFAULT_LATENCY, OpClass, Opcode
from repro.pipeline.core import CoreSetup, InOrderCore
from repro.pipeline.regfile import (
    BypassNetwork,
    CORRUPTION_MASK,
    RegisterFileModel,
)
from repro.pipeline.resources import FunctionalUnits, PipelineParams
from repro.pipeline.stats import StallReason
from repro.workloads.trace import Trace


class TestRegisterFileModel:
    def test_plain_read_write(self):
        rf = RegisterFileModel()
        rf.write(3, 42, cycle=10)
        assert rf.read(3, read_cycle=20, stabilization_cycles=1) == 42
        assert rf.violations == 0

    def test_read_inside_window_corrupts(self):
        rf = RegisterFileModel()
        rf.write(3, 42, cycle=10)
        value = rf.read(3, read_cycle=11, stabilization_cycles=1)
        assert value == 42 ^ CORRUPTION_MASK
        assert rf.violations == 1

    def test_read_during_write_cycle_corrupts(self):
        """Under IRAW the write is interrupted mid-cycle."""
        rf = RegisterFileModel()
        rf.write(3, 42, cycle=10)
        assert rf.read(3, 10, stabilization_cycles=1) != 42

    def test_boundary_read_is_clean(self):
        rf = RegisterFileModel()
        rf.write(3, 42, cycle=10)
        assert rf.read(3, 12, stabilization_cycles=1) == 42

    def test_baseline_same_cycle_read_is_legal(self):
        """N=0: write-before-read port discipline, no corruption."""
        rf = RegisterFileModel()
        rf.write(3, 42, cycle=10)
        assert rf.read(3, 10, stabilization_cycles=0) == 42
        assert rf.violations == 0

    def test_initial_values(self):
        rf = RegisterFileModel({5: 99})
        assert rf.read(5, 0, 0) == 99


class TestBypassNetwork:
    def test_forward_in_window(self):
        net = BypassNetwork(levels=1)
        net.publish(3, 42, completion_cycle=10)
        assert net.lookup(3, issue_cycle=10) == 42
        assert net.lookup(3, issue_cycle=11) is None

    def test_two_level_window(self):
        net = BypassNetwork(levels=2)
        net.publish(3, 42, completion_cycle=10)
        assert net.lookup(3, 10) == 42
        assert net.lookup(3, 11) == 42
        assert net.lookup(3, 12) is None

    def test_before_completion_no_forward(self):
        net = BypassNetwork(levels=1)
        net.publish(3, 42, completion_cycle=10)
        assert net.lookup(3, 9) is None

    def test_zero_levels(self):
        net = BypassNetwork(levels=0)
        net.publish(3, 42, 10)
        assert net.lookup(3, 10) is None


def run_units(opcodes, width=2, latencies=None):
    """Run one op per opcode, all independent, through the core and the
    oracle (whose per-cycle unit model is the reference); return the
    core's result after checking the two agree field for field."""
    ops = [MicroOp(index, opcode,
                   dest=None if opcode in (Opcode.NOP, Opcode.BNE)
                   else index + 1, pc=4 * index)
           for index, opcode in enumerate(opcodes)]
    params = PipelineParams(fetch_width=width, alloc_width=width,
                            issue_window=width,
                            latencies=latencies or dict(DEFAULT_LATENCY))
    setup = CoreSetup(params=params)
    trace = Trace("units", ops)
    fast = InOrderCore(setup).run(trace)
    assert fast == OracleCore(setup).run(trace)
    return fast


class TestFunctionalUnits:
    """The issue stage's unit rule, seen through the cycles a trace
    takes: each case compares a trace with one that differs only in
    the unit the last op needs."""

    def test_two_alu_ops_per_cycle(self):
        # Three issue slots: a third ALU op waits for the next cycle.
        three = run_units([Opcode.ADD] * 3, width=3)
        two = run_units([Opcode.ADD, Opcode.ADD, Opcode.NOP], width=3)
        assert three.cycles == two.cycles + 1
        assert three.stalls.cycles[StallReason.FU_BUSY] == 0

    def test_single_mul_per_cycle_but_pipelined(self):
        one = run_units([Opcode.MUL])
        # The second multiply issues one cycle later, not a latency later.
        assert run_units([Opcode.MUL, Opcode.MUL]).cycles == one.cycles + 1
        assert run_units([Opcode.MUL, Opcode.ADD]).cycles == one.cycles

    def test_divider_unpipelined(self):
        latency = DEFAULT_LATENCY[OpClass.INT_DIV]
        one = run_units([Opcode.DIV])
        two = run_units([Opcode.DIV, Opcode.DIV])
        # The second divide waits out the first: every cycle it is busy.
        assert two.stalls.cycles[StallReason.FU_BUSY] == latency
        assert two.cycles == one.cycles + latency + 1
        assert run_units([Opcode.DIV, Opcode.ADD]).cycles == one.cycles
        # FP divides share the unit.
        shared = run_units([Opcode.DIV, Opcode.FDIV])
        assert shared.stalls.cycles[StallReason.FU_BUSY] == latency

    def test_branches_share_alus(self):
        branch = run_units([Opcode.BNE, Opcode.ADD, Opcode.ADD], width=3)
        free = run_units([Opcode.BNE, Opcode.ADD, Opcode.NOP], width=3)
        assert branch.cycles == free.cycles + 1

    def test_nop_needs_no_unit(self):
        # Five NOPs issue together; five ALU ops take three cycles.
        five = run_units([Opcode.NOP] * 5, width=5)
        assert five.cycles == run_units([Opcode.NOP], width=5).cycles
        assert run_units([Opcode.ADD] * 5, width=5).cycles == five.cycles + 2

    def test_class_table_follows_params(self):
        latencies = dict(DEFAULT_LATENCY)
        latencies[OpClass.INT_DIV] = 3
        params = PipelineParams(latencies=latencies)
        assert FunctionalUnits(params).classes[OpClass.INT_DIV][0] == 3
        shared = run_units([Opcode.DIV, Opcode.FDIV], latencies=latencies)
        assert shared.stalls.cycles[StallReason.FU_BUSY] == 3


class TestPipelineParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineParams(fetch_width=0)
        with pytest.raises(ConfigError):
            PipelineParams(iq_size=0)

    def test_latency_override(self):
        latencies = dict(DEFAULT_LATENCY)
        latencies[OpClass.INT_MUL] = 7
        params = PipelineParams(latencies=latencies)
        assert params.latencies[OpClass.INT_MUL] == 7
