"""Pipeline parameters and functional-unit/port model.

Widths and penalties follow the Intel Silverthorne (Bonnell) in-order core
the paper implements against: 2-wide fetch/allocate/issue, a 32-entry
instruction queue considering the 2 oldest entries (ICI = 2), one load and
one store port, single multiplier/divider/FP pipes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.isa.opcodes import (
    DEFAULT_LATENCY,
    UNPIPELINED_CLASSES,
    OpClass,
)


@dataclass(frozen=True)
class PipelineParams:
    """Static pipeline configuration."""

    #: Ops fetched per cycle into the fetch buffer.  Slightly overspeeded
    #: relative to the 2-wide allocate/issue so the instruction queue
    #: builds an occupancy cushion, as the prefetch buffers of the real
    #: front end do.
    fetch_width: int = 3
    alloc_width: int = 2        # AI in the paper
    issue_window: int = 2       # ICI in the paper
    iq_size: int = 32
    fetch_buffer_size: int = 12
    #: Cycles from fetch to IQ allocation (front-end depth).
    front_latency: int = 3
    #: Fetch-redirect penalty of a mispredicted branch after it resolves.
    mispredict_penalty: int = 11
    #: Bubble after a correctly predicted taken branch.  0 models a
    #: BTB-driven next-line predictor that hides the redirect (fetch still
    #: stops at the branch within the cycle, so taken branches cost fetch
    #: bandwidth either way).
    taken_branch_bubble: int = 0
    #: Register-file write ports.
    rf_write_ports: int = 2
    #: Cycles each RF write occupies its port.  1 in the paper's IRAW and
    #: baseline designs (writes either finish or are interrupted within
    #: their cycle); >1 models the *Extra Bypass* alternative of Table 1,
    #: which pipelines writes across cycles and pays port contention.
    rf_write_cycles: int = 1
    #: Execute latencies per class.
    latencies: dict[OpClass, int] = field(
        default_factory=lambda: dict(DEFAULT_LATENCY))

    def __post_init__(self) -> None:
        if self.fetch_width <= 0 or self.alloc_width <= 0:
            raise ConfigError("widths must be positive")
        if self.issue_window <= 0 or self.iq_size <= 0:
            raise ConfigError("issue window and IQ size must be positive")
        for opclass, latency in self.latencies.items():
            if latency <= 0:
                raise ConfigError(f"latency of {opclass} must be positive")


#: Functional unit assignment per class.  ALU-class ops (including
#: branches) can use either of two ALUs; memory classes use their port;
#: mul/fp are pipelined single units; divides share one unpipelined unit.
_UNIT_OF = {
    OpClass.INT_ALU: "alu",
    OpClass.BRANCH: "alu",
    OpClass.CALL: "alu",
    OpClass.RET: "alu",
    OpClass.NOP: None,
    OpClass.INT_MUL: "mul",
    OpClass.FP_ADD: "fp",
    OpClass.FP_MUL: "fp",
    OpClass.INT_DIV: "div",
    OpClass.FP_DIV: "div",
    OpClass.LOAD: "ldport",
    OpClass.STORE: "stport",
}

#: Units that can accept two ops per cycle.
_DUAL_UNITS = {"alu"}


class FunctionalUnits:
    """Issue-port and unpipelined-unit tracking.

    Per-class data comes from one table built at construction:
    ``classes[opclass] = (latency, unit, per-cycle limit, unpipelined)``,
    with ``unit`` an index into the per-unit state lists (-1: no unit).
    Each unit keeps its last issue cycle (``last_cycle``), the issues
    counted in that cycle (``issued``) and the cycle an unpipelined
    operation keeps it busy until (``busy_until``), so nothing is reset
    between cycles.  :meth:`can_accept` and :meth:`accept` state the
    rule; the issue stage (:meth:`repro.pipeline.core.InOrderCore.run`)
    applies it to the lists directly.
    """

    def __init__(self, params: PipelineParams):
        names = sorted({unit for unit in _UNIT_OF.values() if unit})
        index = {name: slot for slot, name in enumerate(names)}
        self.classes = {
            opclass: (params.latencies[opclass], index.get(unit, -1),
                      2 if unit in _DUAL_UNITS else 1,
                      opclass in UNPIPELINED_CLASSES)
            for opclass, unit in _UNIT_OF.items()
        }
        self.last_cycle = [-1] * len(names)
        self.issued = [0] * len(names)
        self.busy_until = [-1] * len(names)

    def can_accept(self, opclass: OpClass, cycle: int) -> bool:
        """Is the unit for ``opclass`` free at ``cycle``?"""
        _, unit, limit, unpipelined = self.classes[opclass]
        if unit < 0:
            return True
        if self.last_cycle[unit] == cycle and self.issued[unit] >= limit:
            return False
        return not unpipelined or self.busy_until[unit] < cycle

    def accept(self, opclass: OpClass, cycle: int) -> None:
        """Commit an issue at ``cycle`` to the unit for ``opclass``."""
        latency, unit, _, unpipelined = self.classes[opclass]
        if unit < 0:
            return
        if self.last_cycle[unit] == cycle:
            self.issued[unit] += 1
        else:
            self.last_cycle[unit] = cycle
            self.issued[unit] = 1
        if unpipelined:
            self.busy_until[unit] = cycle + latency
