"""Fill buffers and the joint write-combining/eviction buffer (WCB/EB).

Both are small SRAM structures in the paper's Figure 3 that "deal with data
communicated between DL0/IL0 and UL1".  Under IRAW clocking their writes
need the same post-write stall guard as cache fills (Section 4.3).

The models are occupancy-limited with lazy timestamp-based freeing: an
entry is considered free once the current cycle passes its ``busy_until``.
When the structure is full the caller's request is delayed until the
earliest entry frees (a structural-hazard approximation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemoryModelError


@dataclass
class _Entry:
    line_address: int
    busy_until: int


class FillBufferFile:
    """Outstanding-miss registers (MSHR-like) in front of a cache.

    ``allocate`` merges requests to the same line: a second miss to an
    in-flight line piggybacks on the existing entry and completes at the
    same time, modelling the usual miss-status holding behaviour.
    """

    def __init__(self, name: str, entries: int):
        if entries <= 0:
            raise MemoryModelError(f"{name}: need at least one fill buffer")
        self.name = name
        self.capacity = entries
        self._entries: list[_Entry] = []
        self.allocations = 0
        self.merges = 0
        self.full_delays = 0

    def _prune(self, cycle: int) -> None:
        self._entries = [e for e in self._entries if e.busy_until > cycle]

    def outstanding(self, line_address: int, cycle: int) -> int | None:
        """If ``line_address`` is already in flight, its completion cycle."""
        self._prune(cycle)
        for entry in self._entries:
            if entry.line_address == line_address:
                return entry.busy_until
        return None

    def allocate(self, line_address: int, cycle: int, latency: int) -> int:
        """Reserve an entry for a miss issued at ``cycle``.

        Returns the cycle at which the fill completes.  If the buffer is
        full, the request is delayed until the earliest entry frees (the
        delay is folded into the returned completion time).
        """
        existing = self.outstanding(line_address, cycle)
        if existing is not None:
            self.merges += 1
            return existing
        start = cycle
        if len(self._entries) >= self.capacity:
            earliest = min(e.busy_until for e in self._entries)
            start = max(start, earliest)
            self.full_delays += 1
            self._prune(start)
        done = start + latency
        self._entries.append(_Entry(line_address, done))
        self.allocations += 1
        return done

    def occupancy(self, cycle: int) -> int:
        self._prune(cycle)
        return len(self._entries)


class WriteCombiningBuffer:
    """Joint write-combining and eviction buffer (WCB/EB).

    Holds dirty evicted lines (and combined store misses) on their way to
    UL1.  Entries stay busy for the UL1 write latency; pushing into a full
    buffer is delayed until the earliest drain completes.
    """

    def __init__(self, name: str = "WCB_EB", entries: int = 8):
        if entries <= 0:
            raise MemoryModelError(f"{name}: need at least one entry")
        self.name = name
        self.capacity = entries
        self._entries: list[_Entry] = []
        self.pushes = 0
        self.combines = 0
        self.full_delays = 0

    def _prune(self, cycle: int) -> None:
        self._entries = [e for e in self._entries if e.busy_until > cycle]

    def push(self, line_address: int, cycle: int, drain_latency: int) -> int:
        """Enqueue a line at ``cycle``; returns the drain-complete cycle."""
        self._prune(cycle)
        for entry in self._entries:
            if entry.line_address == line_address:
                self.combines += 1
                return entry.busy_until
        start = cycle
        if len(self._entries) >= self.capacity:
            earliest = min(e.busy_until for e in self._entries)
            start = max(start, earliest)
            self.full_delays += 1
            self._prune(start)
        done = start + drain_latency
        self._entries.append(_Entry(line_address, done))
        self.pushes += 1
        return done

    def occupancy(self, cycle: int) -> int:
        self._prune(cycle)
        return len(self._entries)
