"""Tests for the RF datapath model, bypass network and functional units."""

import pytest

from repro.errors import ConfigError
from repro.isa.opcodes import OpClass
from repro.pipeline.regfile import (
    BypassNetwork,
    CORRUPTION_MASK,
    RegisterFileModel,
)
from repro.pipeline.resources import FunctionalUnits, PipelineParams


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


class TestFunctionalUnits:
    def make(self):
        return FunctionalUnits(PipelineParams()), PipelineParams()

    def test_two_alu_ops_per_cycle(self):
        units, _ = self.make()
        assert units.can_accept(OpClass.INT_ALU, 0)
        units.accept(OpClass.INT_ALU, 0)
        assert units.can_accept(OpClass.INT_ALU, 0)
        units.accept(OpClass.INT_ALU, 0)
        assert not units.can_accept(OpClass.INT_ALU, 0)
        assert units.can_accept(OpClass.INT_ALU, 1)  # new cycle, no reset

    def test_single_mul_per_cycle_but_pipelined(self):
        units, _ = self.make()
        units.accept(OpClass.INT_MUL, 0)
        assert not units.can_accept(OpClass.INT_MUL, 0)
        assert units.can_accept(OpClass.INT_MUL, 1)  # pipelined

    def test_divider_unpipelined(self):
        units, params = self.make()
        latency = params.latencies[OpClass.INT_DIV]
        units.accept(OpClass.INT_DIV, 0)
        assert not units.can_accept(OpClass.INT_DIV, 5)
        assert not units.can_accept(OpClass.FP_DIV, 5)  # shared unit
        assert not units.can_accept(OpClass.INT_DIV, latency)
        assert units.can_accept(OpClass.INT_DIV, latency + 1)

    def test_branches_share_alus(self):
        units, _ = self.make()
        units.accept(OpClass.BRANCH, 0)
        units.accept(OpClass.INT_ALU, 0)
        assert not units.can_accept(OpClass.BRANCH, 0)

    def test_nop_needs_no_unit(self):
        units, _ = self.make()
        for _ in range(5):
            assert units.can_accept(OpClass.NOP, 0)
            units.accept(OpClass.NOP, 0)

    def test_class_table_follows_params(self):
        from repro.isa.opcodes import DEFAULT_LATENCY
        latencies = dict(DEFAULT_LATENCY)
        latencies[OpClass.INT_DIV] = 3
        units = FunctionalUnits(PipelineParams(latencies=latencies))
        assert units.classes[OpClass.INT_DIV][0] == 3
        units.accept(OpClass.INT_DIV, 10)
        assert not units.can_accept(OpClass.FP_DIV, 13)
        assert units.can_accept(OpClass.FP_DIV, 14)


class TestPipelineParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineParams(fetch_width=0)
        with pytest.raises(ConfigError):
            PipelineParams(iq_size=0)

    def test_latency_override(self):
        from repro.isa.opcodes import DEFAULT_LATENCY
        latencies = dict(DEFAULT_LATENCY)
        latencies[OpClass.INT_MUL] = 7
        params = PipelineParams(latencies=latencies)
        assert params.latencies[OpClass.INT_MUL] == 7
