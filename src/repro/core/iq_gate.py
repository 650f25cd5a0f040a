"""Instruction-queue IRAW gate (paper Section 4.2, Figure 9).

In-order cores issue only the oldest ICI instructions of the IQ, and those
IQ entries are read every cycle regardless of validity.  A just-allocated
entry is therefore at risk of being read while it stabilizes.  The paper's
gate allows issue only when

    occupancy >= ICI + AI * N                                   (Eq. 1)

so that even if the youngest ``AI * N`` entries are still stabilizing, the
ICI oldest ones are safe.
"""

from __future__ import annotations

from repro.errors import ConfigError


class IqOccupancyGate:
    """Issue gate for the instruction queue, built for one N (off at 0)."""

    def __init__(self, stabilization_cycles: int = 0, issue_window: int = 2,
                 alloc_width: int = 2):
        if stabilization_cycles < 0:
            raise ConfigError("stabilization_cycles cannot be negative")
        if issue_window <= 0 or alloc_width <= 0:
            raise ConfigError("issue window and alloc width must be positive")
        self.stabilization_cycles = stabilization_cycles
        self.issue_window = issue_window  # ICI
        self.alloc_width = alloc_width    # AI

    @property
    def issue_threshold(self) -> int:
        """Eq. 1: the ICI oldest entries may issue iff occupancy >= this.

        ICI + AI*N, as built by the Figure 9 adder, when the gate is on;
        0, which every occupancy meets, when Figure 9's ``stall_issue?``
        is off (N = 0).
        """
        if not self.stabilization_cycles:
            return 0
        return self.issue_window + self.alloc_width * self.stabilization_cycles

    @property
    def drain_noops(self) -> int:
        """NOOPs to inject when the pipeline must drain (Section 4.2)."""
        return self.alloc_width * self.stabilization_cycles
