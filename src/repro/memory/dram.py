"""Off-chip memory model: constant latency in *nanoseconds*.

The paper's Section 5.2 notes that performance gains trail frequency gains
partly because "off-chip memory latency remains constant" — in wall-clock
time.  When the core clocks higher (IRAW) the same nanoseconds cost more
cycles.  :class:`Dram` captures exactly that: it is configured once per
operating point with the cycle-equivalent of the fixed latency.
"""

from __future__ import annotations

from repro.errors import MemoryModelError


class Dram:
    """Fixed-latency backing store."""

    def __init__(self, latency_cycles: int):
        if latency_cycles <= 0:
            raise MemoryModelError("DRAM latency must be positive")
        self.latency_cycles = latency_cycles
        self.requests = 0

    def access(self) -> int:
        """Latency of one request, in cycles."""
        self.requests += 1
        return self.latency_cycles
