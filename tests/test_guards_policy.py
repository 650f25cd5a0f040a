"""Tests for fill-stall guards, the policy bundle and the per-Vcc IRAW
configuration."""

import pytest

from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.core.config import IrawConfig
from repro.core.policy import GUARDED_BLOCKS, IrawPolicy
from repro.core.stall_guard import FillStallGuard
from repro.errors import ConfigError


class TestFillStallGuard:
    def test_blocks_during_window(self):
        guard = FillStallGuard("DL0")
        guard.configure(2)
        guard.arm(fill_cycle=10)
        assert guard.is_blocked(10)
        assert guard.is_blocked(12)
        assert not guard.is_blocked(13)

    def test_release_cycle(self):
        guard = FillStallGuard("DL0")
        guard.configure(2)
        guard.arm(10)
        assert guard.blocked_until(11) == 13

    def test_future_fills_do_not_block_now(self):
        guard = FillStallGuard("DL0")
        guard.configure(2)
        guard.arm(fill_cycle=100)
        assert not guard.is_blocked(50)
        assert guard.is_blocked(100)

    def test_overlapping_windows_take_latest(self):
        guard = FillStallGuard("UL1")
        guard.configure(3)
        guard.arm(10)
        guard.arm(12)
        assert guard.blocked_until(12) == 16

    def test_disabled_guard_never_blocks(self):
        guard = FillStallGuard("IL0")
        guard.configure(0)
        guard.arm(10)
        assert not guard.is_blocked(10)
        assert guard.fills == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ConfigError):
            FillStallGuard("X").configure(-1)

    def test_windows_pruned(self):
        guard = FillStallGuard("DL0")
        guard.configure(1)
        for fill in range(0, 100, 10):
            guard.arm(fill)
        guard.is_blocked(1000)
        assert guard._windows == []


class TestIrawPolicy:
    def test_construction_wires_everything(self):
        policy = IrawPolicy(config=IrawConfig(stabilization_cycles=1))
        assert policy.active
        assert policy.scoreboard.stabilization_cycles == 1
        assert policy.iq_gate.enabled
        assert policy.stable.enabled
        assert set(policy.guards) == set(GUARDED_BLOCKS)
        assert all(g.enabled for g in policy.guards.values())

    def test_disabled_config(self):
        policy = IrawPolicy(config=IrawConfig.disabled())
        assert not policy.active
        assert not policy.iq_gate.enabled
        assert not policy.stable.enabled

    def test_selective_mechanisms(self):
        config = IrawConfig(stabilization_cycles=1, rf_enabled=False)
        policy = IrawPolicy(config=config)
        assert policy.scoreboard.stabilization_cycles == 0
        assert policy.iq_gate.enabled  # others still on

    def test_arm_fill_guards_routes_by_block(self):
        policy = IrawPolicy(config=IrawConfig(stabilization_cycles=1))
        policy.arm_fill_guards([("DL0", 50), ("UL1", 60), ("???", 70)])
        assert policy.guards["DL0"].is_blocked(50)
        assert policy.guards["UL1"].is_blocked(60)

    def test_flush_clears_transients(self):
        policy = IrawPolicy(config=IrawConfig(stabilization_cycles=1))
        policy.scoreboard.producer_issued(1, 0, 3)
        policy.stable.store_committed(0x40, 1, 0)
        scoreboard = policy.scoreboard
        assert scoreboard.ready[1] == 3
        # A pipeline drain: each mechanism drops its in-flight state.
        scoreboard.flush()
        policy.stable.flush()
        for guard in policy.guards.values():
            guard.clear()
        # Every window back at cycle 0: ready, with an empty bubble.
        for window in (scoreboard.ready, scoreboard.bubble_lo,
                       scoreboard.bubble_hi):
            assert window == [0] * scoreboard.num_registers
        assert not policy.stable.lookup(0x40, 0).needs_repair

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

    def test_switch_reprograms_policy(self):
        policy = IrawPolicy(config=IrawConfig.disabled())
        config = self.config(500.0)
        policy.apply(config)
        assert policy.stabilization_cycles == config.stabilization_cycles
        assert policy.iq_gate.enabled
        policy.apply(self.config(700.0))
        assert not policy.active
        assert not policy.iq_gate.enabled

    def test_baseline_scheme_controller(self):
        assert not self.config(500.0, ClockScheme.BASELINE).active

    def test_overrides_forwarded(self):
        config = self.config(500.0, rf_enabled=False)
        assert not config.rf_enabled
        assert config.stabilization_cycles == 1
