"""Per-structure IRAW policy bundle.

One :class:`IrawPolicy` builds every avoidance mechanism instance of the
core (scoreboard, IQ gate, STable, eight fill guards) for its
configuration's N.  The pipeline talks to the mechanisms through this
object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import IrawConfig
from repro.core.iq_gate import IqOccupancyGate
from repro.core.scoreboard import Scoreboard
from repro.core.stable import StoreTable
from repro.core.stall_guard import FillStallGuard
from repro.errors import ConfigError
from repro.isa.registers import NUM_REGISTERS

if TYPE_CHECKING:  # layering: the pipeline and memory build on the core
    from repro.memory.hierarchy import MemoryConfig
    from repro.pipeline.resources import PipelineParams

#: Blocks protected by post-fill stall guards.  Section 4.3 covers IL0,
#: UL1, ITLB, DTLB, WCB/EB and the fill buffers; Section 4.4 applies the
#: same treatment to DL0 *fills* (stores go through the STable instead).
GUARDED_BLOCKS = ("IL0", "UL1", "ITLB", "DTLB", "WCB_EB", "FB", "IFB", "DL0")


class IrawPolicy:
    """All IRAW avoidance mechanisms of one core, built for its N.

    Each mechanism gets N when its switch is on and 0 when it is off,
    the rule :meth:`IrawConfig.effective` relies on: at N = 0 every
    mechanism is off whatever its switch.  The Eq. 1 gate counts the
    core's ICI and AI (``params``), and the STable indexes sets like
    the core's DL0 (``memory``).
    """

    def __init__(self, config: IrawConfig, params: PipelineParams,
                 memory: MemoryConfig):
        self.config = config
        n = config.stabilization_cycles
        self.scoreboard = Scoreboard(
            num_registers=NUM_REGISTERS,
            bypass_levels=config.bypass_levels,
            stabilization_cycles=n if config.rf_enabled else 0)
        self.iq_gate = IqOccupancyGate(
            n if config.iq_enabled else 0,
            issue_window=params.issue_window,
            alloc_width=params.alloc_width)
        threshold = self.iq_gate.issue_threshold
        if threshold > params.iq_size:
            # The gate would wait forever for an occupancy the IQ
            # cannot reach.
            raise ConfigError(
                f"a {params.iq_size}-entry IQ is smaller than its Eq. 1 "
                f"issue threshold {threshold} (issue_window "
                f"{params.issue_window} + alloc_width "
                f"{params.alloc_width} x N {n})")
        self.stable = StoreTable(
            n if config.stable_enabled else 0,
            num_sets=memory.dl0_size // (memory.dl0_assoc
                                         * memory.line_size),
            line_size=memory.line_size)
        guard_n = n if config.cache_guards_enabled else 0
        self.guards = {name: FillStallGuard(name, guard_n)
                       for name in GUARDED_BLOCKS}

    @property
    def stabilization_cycles(self) -> int:
        return self.config.stabilization_cycles

    def arm_fill_guards(self, fills) -> None:
        """Register (block, fill-cycle) events from the memory system."""
        for block, fill_cycle in fills:
            guard = self.guards.get(block)
            if guard is not None:
                guard.arm(fill_cycle)
