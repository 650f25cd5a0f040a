"""Line buffers: the fill buffers (FB, IFB) and the joint write-combining/
eviction buffer (WCB/EB).

All three are small SRAM structures in the paper's Figure 3 that "deal
with data communicated between DL0/IL0 and UL1".  Under IRAW clocking
their writes need the same post-write stall guard as cache fills
(Section 4.3).

One model serves all three: each entry holds one line in flight until
its completion cycle, and an entry is free once the current cycle
reaches it (lazy freeing, no events).  A request for a line already in
flight merges with its entry (a fill-buffer hit, a write combine);
otherwise it takes a free entry, and when the buffer is full it waits
for the earliest entry to free (a structural-hazard approximation).
"""

from __future__ import annotations

from repro.errors import MemoryModelError


class LineBuffer:
    """Entries holding lines in flight between two levels.

    Callers try :meth:`merge` first and :meth:`allocate` when it
    returns ``None``, both at the request cycle.
    """

    def __init__(self, name: str, entries: int):
        if entries <= 0:
            raise MemoryModelError(f"{name}: need at least one entry")
        self.capacity = entries
        #: Line address -> the cycle its entry completes and frees.
        self._busy: dict[int, int] = {}
        self.allocations = 0
        self.merges = 0
        self.full_delays = 0

    def _free(self, cycle: int) -> None:
        """Drop the entries that have completed by ``cycle``."""
        self._busy = {line: done for line, done in self._busy.items()
                      if done > cycle}

    def merge(self, line_address: int, cycle: int) -> int | None:
        """The completion cycle of ``line_address`` if it is still in
        flight at ``cycle`` (counted as a merge), else ``None``."""
        self._free(cycle)
        done = self._busy.get(line_address)
        if done is not None:
            self.merges += 1
        return done

    def allocate(self, line_address: int, cycle: int, latency: int) -> int:
        """Reserve an entry for a request issued at ``cycle`` that takes
        ``latency`` cycles; returns the cycle it completes.

        If the buffer is full, the request starts when the earliest
        entry frees (the delay is folded into the returned cycle).
        """
        self._free(cycle)
        start = cycle
        if len(self._busy) >= self.capacity:
            start = min(self._busy.values())
            self.full_delays += 1
            self._free(start)
        self._busy[line_address] = done = start + latency
        self.allocations += 1
        return done
