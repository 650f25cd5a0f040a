"""Register-file datapath model with stabilization-window checking.

Timing of a write under IRAW clocking: a producer issued at cycle ``i``
with latency ``L`` writes the RF at cycle ``i + L + 1`` (writeback) and the
cell stabilizes during the next N cycles.  A read that lands inside
``[write+1, write+N]`` would observe a half-flipped cell: the model counts
it as an **IRAW violation** and returns deliberately corrupted data, so a
broken avoidance configuration is caught both by the violation counter and
by golden-value mismatches downstream.

The bypass network is modeled alongside: values completing at cycle ``c``
are available to consumers *issuing* during ``[c, c + bypass_levels - 1]``
without touching the RF array.
"""

from __future__ import annotations

from repro.isa.registers import NUM_REGISTERS

#: XOR mask applied to reads that violate a stabilization window, so the
#: corruption is visible to golden-value checks.
CORRUPTION_MASK = 0xDEAD_BEEF_DEAD_BEEF


class RegisterFileModel:
    """Values plus write timestamps for the 32 logical registers."""

    def __init__(self, initial: dict[int, int] | None = None):
        self.values = [0] * NUM_REGISTERS
        self._written_at = [-(10 ** 9)] * NUM_REGISTERS
        if initial:
            for reg, value in initial.items():
                self.values[reg] = value
        self.violations = 0

    def write(self, reg: int, value: int, cycle: int) -> None:
        """Writeback at ``cycle`` (stabilizes over the next N cycles)."""
        self.values[reg] = value
        self._written_at[reg] = cycle

    def read(self, reg: int, read_cycle: int, stabilization_cycles: int) -> int:
        """Array read at ``read_cycle``; corrupt inside the window.

        Under IRAW clocking (N > 0) the cell is unreadable during its write
        cycle (interrupted write in progress) and the N stabilization
        cycles after it.  Under baseline clocking (N = 0) writes complete
        within their cycle and the usual write-before-read port discipline
        makes same-cycle reads legal.
        """
        written = self._written_at[reg]
        if (stabilization_cycles > 0
                and written <= read_cycle <= written + stabilization_cycles):
            self.violations += 1
            return self.values[reg] ^ CORRUPTION_MASK
        return self.values[reg]


class BypassNetwork:
    """Forwarding of just-completed results to issuing consumers."""

    def __init__(self, levels: int = 1):
        self.levels = levels
        #: reg -> (value, completion cycle)
        self._latest: dict[int, tuple[int, int]] = {}

    def publish(self, reg: int, value: int, completion_cycle: int) -> None:
        self._latest[reg] = (value, completion_cycle)

    def lookup(self, reg: int, issue_cycle: int) -> int | None:
        """Value if ``reg`` is forwardable to an op issuing now."""
        if self.levels <= 0:
            return None
        entry = self._latest.get(reg)
        if entry is None:
            return None
        value, completed = entry
        if completed <= issue_cycle <= completed + self.levels - 1:
            return value
        return None
