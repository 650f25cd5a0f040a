"""Stall accounting and simulation results.

The paper attributes its 8-10% IRAW performance degradation to specific
structures (at 575 mV: 8.52% register file + 0.30% DL0 + 0.04% the rest),
so the simulator's stall bookkeeping mirrors that taxonomy: every cycle in
which the issue stage makes no forward progress is charged to exactly one
reason, and IRAW-specific stalls are distinguished from organic ones (a
true RAW dependence would have stalled the baseline too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class StallReason(str, Enum):
    """Why the oldest IQ entry could not issue this cycle."""

    FRONTEND_EMPTY = "frontend_empty"      # IQ empty (icache miss, redirect)
    IQ_GATE = "iq_gate"                    # IRAW: Eq. 1 occupancy gate
    RF_DEPENDENCY = "rf_dependency"        # organic RAW (baseline stalls too)
    RF_IRAW_BUBBLE = "rf_iraw_bubble"      # IRAW: scoreboard bubble (phase III)
    WAW_ORDER = "waw_order"                # write-port ordering
    FU_BUSY = "fu_busy"                    # structural (div busy, port taken)
    DL0_FILL_GUARD = "dl0_fill_guard"      # IRAW: DL0 post-fill stall
    DTLB_GUARD = "dtlb_guard"              # IRAW: DTLB post-refill stall
    STABLE_REPAIR = "stable_repair"        # IRAW: STable match repair stalls
    RSB_DETERMINISM = "rsb_determinism"    # extension: stall-after-call
    MEMORY_PENDING = "memory_pending"      # same-cycle store->load ordering
    WRITE_PORT = "write_port"              # Extra Bypass: RF port contention

#: Every reason, in declaration order: the order a pickled
#: :class:`StallStats` lists its counts in.
_REASONS = tuple(StallReason)

#: Reasons that exist only because of IRAW avoidance.
IRAW_STALL_REASONS = frozenset({
    StallReason.IQ_GATE,
    StallReason.RF_IRAW_BUBBLE,
    StallReason.DL0_FILL_GUARD,
    StallReason.DTLB_GUARD,
    StallReason.STABLE_REPAIR,
    StallReason.RSB_DETERMINISM,
})


@dataclass
class StallStats:
    """Per-reason stall-cycle counts plus IRAW instruction accounting."""

    cycles: dict[StallReason, int] = field(
        default_factory=lambda: {reason: 0 for reason in StallReason})
    #: Dynamic instructions whose issue was delayed >= 1 cycle by the
    #: register-file IRAW bubble (the paper's 13.2% statistic).
    iraw_delayed_instructions: int = 0
    #: NOOPs injected to drain the gated IQ (Section 4.2).
    injected_noops: int = 0

    def charge(self, reason: StallReason, cycles: int = 1) -> None:
        self.cycles[reason] += cycles

    def __reduce__(self):
        # The counts travel as a tuple in StallReason order and load
        # back onto the members themselves: a pickled member is rebuilt
        # by a lookup by value, twelve per result a cache read loads.
        counts = tuple([self.cycles[reason] for reason in _REASONS])
        return (_stall_stats, (counts, self.iraw_delayed_instructions,
                               self.injected_noops))

    @property
    def total_stall_cycles(self) -> int:
        return sum(self.cycles.values())

    @property
    def iraw_stall_cycles(self) -> int:
        return sum(self.cycles[r] for r in IRAW_STALL_REASONS)


def _stall_stats(counts: tuple, iraw_delayed_instructions: int,
                 injected_noops: int) -> StallStats:
    """A pickled :class:`StallStats` (see its ``__reduce__``)."""
    return StallStats(dict(zip(_REASONS, counts)),
                      iraw_delayed_instructions, injected_noops)


@dataclass
class SimulationResult:
    """Outcome of one trace run on one configuration."""

    trace_name: str
    config_name: str
    instructions: int
    cycles: int
    stalls: StallStats
    #: Reads that hit a stabilization window (must be 0 with IRAW on).
    iraw_violations: int
    #: Golden-value mismatches (must be 0 whenever golden values exist).
    value_mismatches: int
    branch_mispredicts: int
    branches: int
    memory_stats: dict = field(default_factory=dict)
    prediction_hazards: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def iraw_delay_fraction(self) -> float:
        """Fraction of instructions delayed by the RF IRAW bubble (13.2%)."""
        if not self.instructions:
            return 0.0
        return self.stalls.iraw_delayed_instructions / self.instructions

    @property
    def mispredict_rate(self) -> float:
        return (self.branch_mispredicts / self.branches
                if self.branches else 0.0)

    def stall_breakdown(self) -> dict[str, float]:
        """Stall cycles per reason as a fraction of total cycles."""
        if not self.cycles:
            return {}
        return {reason.value: count / self.cycles
                for reason, count in self.stalls.cycles.items() if count}

    def to_dict(self) -> dict:
        """JSON-serializable summary (harness outputs, result archives)."""
        return {
            "trace": self.trace_name,
            "config": self.config_name,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "iraw_violations": self.iraw_violations,
            "value_mismatches": self.value_mismatches,
            "branches": self.branches,
            "branch_mispredicts": self.branch_mispredicts,
            "mispredict_rate": self.mispredict_rate,
            "iraw_delay_fraction": self.iraw_delay_fraction,
            "injected_noops": self.stalls.injected_noops,
            "stall_breakdown": self.stall_breakdown(),
            "memory": self.memory_stats,
            "prediction_hazards": self.prediction_hazards,
        }
