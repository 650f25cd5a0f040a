"""Per-structure IRAW policy bundle.

One :class:`IrawPolicy` owns every avoidance mechanism instance of the core
(scoreboard, IQ gate, STable, six fill guards, prediction hazard tracking)
and programs them together for one Vcc level's N.  The pipeline talks to
the mechanisms through this object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.branch.iraw_effects import DeterminismMode
from repro.core.config import IrawConfig
from repro.core.iq_gate import IqOccupancyGate
from repro.core.scoreboard import Scoreboard
from repro.core.stable import StoreTable
from repro.core.stall_guard import FillStallGuard
from repro.isa.registers import NUM_REGISTERS

#: Blocks protected by post-fill stall guards.  Section 4.3 covers IL0,
#: UL1, ITLB, DTLB, WCB/EB and the fill buffers; Section 4.4 applies the
#: same treatment to DL0 *fills* (stores go through the STable instead).
GUARDED_BLOCKS = ("IL0", "UL1", "ITLB", "DTLB", "WCB_EB", "FB", "IFB", "DL0")


@dataclass
class IrawPolicy:
    """All IRAW avoidance mechanisms of one core instance."""

    config: IrawConfig = field(default_factory=IrawConfig.disabled)
    scoreboard: Scoreboard = None  # type: ignore[assignment]
    iq_gate: IqOccupancyGate = None  # type: ignore[assignment]
    stable: StoreTable = None  # type: ignore[assignment]
    guards: dict[str, FillStallGuard] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cfg = self.config
        if self.scoreboard is None:
            self.scoreboard = Scoreboard(
                num_registers=NUM_REGISTERS,
                bypass_levels=cfg.bypass_levels,
                max_stabilization_cycles=cfg.max_stabilization_cycles,
            )
        if self.iq_gate is None:
            self.iq_gate = IqOccupancyGate()
        if self.stable is None:
            self.stable = StoreTable(
                max_entries=max(1, cfg.max_stabilization_cycles),
                commit_width=1,
            )
        if not self.guards:
            self.guards = {name: FillStallGuard(name)
                           for name in GUARDED_BLOCKS}
        self.apply(cfg)

    # ------------------------------------------------------------------
    # Reconfiguration (the per-Vcc write path)
    # ------------------------------------------------------------------

    def apply(self, config: IrawConfig) -> None:
        """Program every mechanism for ``config`` (Vcc level change)."""
        self.config = config
        n = config.stabilization_cycles
        self.scoreboard.configure(n if config.rf_enabled else 0)
        self.iq_gate.configure(n, config.iq_enabled)
        self.stable.configure(n if config.stable_enabled else 0)
        guard_n = n if config.cache_guards_enabled else 0
        for guard in self.guards.values():
            guard.configure(guard_n)

    @property
    def active(self) -> bool:
        return self.config.active

    @property
    def stabilization_cycles(self) -> int:
        return self.config.stabilization_cycles

    @property
    def determinism_mode(self) -> DeterminismMode:
        return self.config.determinism_mode

    # ------------------------------------------------------------------
    # Convenience hooks used by the pipeline
    # ------------------------------------------------------------------

    def arm_fill_guards(self, fills) -> None:
        """Register (block, fill-cycle) events from the memory system."""
        for block, fill_cycle in fills:
            guard = self.guards.get(block)
            if guard is not None:
                guard.arm(fill_cycle)
