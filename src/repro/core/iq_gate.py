"""Instruction-queue IRAW gate (paper Section 4.2, Figure 9).

In-order cores issue only the oldest ICI instructions of the IQ, and those
IQ entries are read every cycle regardless of validity.  A just-allocated
entry is therefore at risk of being read while it stabilizes.  The paper's
gate allows issue only when

    occupancy >= ICI + AI * N                                   (Eq. 1)

so that even if the youngest ``AI * N`` entries are still stabilizing, the
ICI oldest ones are safe.  The hardware of Figure 9 computes occupancy with
a borrow trick — append a '1' to the left of the tail (add IQsize), subtract
the head, drop the top bit (mod IQsize) — and the threshold by appending a
'0' to the right of N (times AI=2).  We mirror those bit manipulations
exactly so the logic itself is testable against plain arithmetic.
"""

from __future__ import annotations

from repro.errors import ConfigError


class IqOccupancyGate:
    """Issue gate for the instruction queue."""

    def __init__(self, iq_size: int = 32, issue_window: int = 2,
                 alloc_width: int = 2):
        if iq_size <= 0 or iq_size & (iq_size - 1):
            raise ConfigError(f"IQ size must be a power of two, got {iq_size}")
        if issue_window <= 0 or alloc_width <= 0:
            raise ConfigError("issue window and alloc width must be positive")
        self.iq_size = iq_size
        self.issue_window = issue_window  # ICI
        self.alloc_width = alloc_width    # AI
        self._pointer_bits = iq_size.bit_length() - 1
        self._stabilization_cycles = 0
        self._stall_issue = False

    # ------------------------------------------------------------------
    # Configuration (recomputed only on Vcc changes — Figure 9)
    # ------------------------------------------------------------------

    def configure(self, stabilization_cycles: int, enabled: bool) -> None:
        if stabilization_cycles < 0:
            raise ConfigError("stabilization_cycles cannot be negative")
        self._stabilization_cycles = stabilization_cycles
        self._stall_issue = enabled and stabilization_cycles > 0

    @property
    def enabled(self) -> bool:
        return self._stall_issue

    @property
    def threshold(self) -> int:
        """ICI + AI*N, as built by the Figure 9 adder."""
        if self.alloc_width == 2:
            # "Appending a '0' to the right of N corresponds to
            #  multiplying N by AI because AI is 2."
            scaled = self._stabilization_cycles << 1
        else:
            scaled = self._stabilization_cycles * self.alloc_width
        return self.issue_window + scaled

    #: Number of NOOPs to inject when the pipeline must drain (Section 4.2).
    @property
    def drain_noops(self) -> int:
        if not self._stall_issue:
            return 0
        return self.alloc_width * self._stabilization_cycles

    # ------------------------------------------------------------------
    # Occupancy, the Figure 9 way
    # ------------------------------------------------------------------

    def occupancy_from_pointers(self, head: int, tail: int) -> int:
        """((tail + IQsize) - head) mod IQsize via the append-'1' trick."""
        bits = self._pointer_bits
        mask = (1 << bits) - 1
        extended_tail = (1 << bits) | (tail & mask)  # append '1' to the left
        difference = extended_tail - (head & mask)
        return difference & mask  # discard the uppermost bit

    @property
    def issue_threshold(self) -> int:
        """Eq. 1: the ICI oldest entries may issue iff occupancy >= this.

        The ``threshold`` when the gate is on; 0, which every occupancy
        meets, when ``stall_issue?`` is off.
        """
        return self.threshold if self._stall_issue else 0
