"""Tests for fill-stall guards, the policy bundle and the per-Vcc IRAW
configuration."""

import pytest

from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.core.config import IrawConfig
from repro.core.policy import GUARDED_BLOCKS, IrawPolicy
from repro.core.stall_guard import FillStallGuard
from repro.errors import ConfigError
from repro.memory.hierarchy import MemoryConfig
from repro.pipeline.resources import PipelineParams


def make_policy(config, params=None, memory=None):
    return IrawPolicy(config, params or PipelineParams(),
                      memory or MemoryConfig())


class TestFillStallGuard:
    def test_blocks_during_window(self):
        guard = FillStallGuard("DL0", 2)
        guard.arm(fill_cycle=10)
        assert guard.blocked_until(10) == 13
        assert guard.blocked_until(12) == 13
        assert guard.blocked_until(13) is None

    def test_release_cycle(self):
        guard = FillStallGuard("DL0", 2)
        guard.arm(10)
        assert guard.blocked_until(11) == 13

    def test_future_fills_do_not_block_now(self):
        guard = FillStallGuard("DL0", 2)
        guard.arm(fill_cycle=100)
        assert guard.blocked_until(50) is None
        assert guard.blocked_until(100) == 103

    def test_overlapping_windows_take_latest(self):
        guard = FillStallGuard("UL1", 3)
        guard.arm(10)
        guard.arm(12)
        assert guard.blocked_until(12) == 16

    def test_disabled_guard_never_blocks(self):
        guard = FillStallGuard("IL0", 0)
        guard.arm(10)
        assert guard.blocked_until(10) is None

    def test_negative_n_rejected(self):
        with pytest.raises(ConfigError):
            FillStallGuard("X", -1)

    def test_windows_pruned(self):
        guard = FillStallGuard("DL0", 1)
        for fill in range(0, 100, 10):
            guard.arm(fill)
        guard.blocked_until(1000)
        assert guard._windows == []


class TestIrawPolicy:
    def test_construction_wires_everything(self):
        policy = make_policy(IrawConfig(stabilization_cycles=1))
        assert policy.stabilization_cycles == 1
        assert policy.scoreboard.stabilization_cycles == 1
        assert policy.iq_gate.issue_threshold == 4
        assert policy.stable.enabled
        assert set(policy.guards) == set(GUARDED_BLOCKS)
        assert all(g.enabled for g in policy.guards.values())

    def test_disabled_config(self):
        policy = make_policy(IrawConfig.disabled())
        assert policy.stabilization_cycles == 0
        assert policy.iq_gate.issue_threshold == 0
        assert not policy.stable.enabled

    def test_selective_mechanisms(self):
        config = IrawConfig(stabilization_cycles=1, rf_enabled=False)
        policy = make_policy(config)
        assert policy.scoreboard.stabilization_cycles == 0
        assert policy.iq_gate.issue_threshold == 4  # others still on
        # The rule IrawConfig.effective relies on: with its switch off, a
        # mechanism is the one an N = 0 core builds.
        policy = make_policy(IrawConfig(
            stabilization_cycles=2, rf_enabled=False, iq_enabled=False,
            stable_enabled=False, cache_guards_enabled=False))
        assert policy.stabilization_cycles == 2
        assert policy.scoreboard.stabilization_cycles == 0
        assert policy.iq_gate.stabilization_cycles == 0
        assert policy.stable.stabilization_cycles == 0
        assert {g.stabilization_cycles for g in policy.guards.values()} \
            == {0}

    def test_arm_fill_guards_routes_by_block(self):
        policy = make_policy(IrawConfig(stabilization_cycles=1))
        policy.arm_fill_guards([("DL0", 50), ("UL1", 60), ("???", 70)])
        assert policy.guards["DL0"].blocked_until(50) == 52
        assert policy.guards["UL1"].blocked_until(60) == 62

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            IrawConfig(stabilization_cycles=5, max_stabilization_cycles=2)
        with pytest.raises(ConfigError):
            IrawConfig(stabilization_cycles=-1)


class TestVccController:
    """What the paper's Vcc controller programs at a level change: the
    configuration of a core built for the new operating point."""

    @staticmethod
    def config(vcc_mv, scheme=ClockScheme.IRAW, **overrides):
        point = FrequencySolver().operating_point(vcc_mv, scheme)
        return IrawConfig.for_operating_point(point, **overrides)

    def test_resolve_iraw_point(self):
        assert self.config(500.0).stabilization_cycles == 1

    def test_resolve_high_vcc_disables(self):
        assert not self.config(650.0).active

    def test_baseline_scheme_controller(self):
        assert not self.config(500.0, ClockScheme.BASELINE).active

    def test_overrides_forwarded(self):
        config = self.config(500.0, rf_enabled=False)
        assert not config.rf_enabled
        assert config.stabilization_cycles == 1
