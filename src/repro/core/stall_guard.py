"""Post-fill stall guards for infrequently written cache-like blocks.

Paper Section 4.3: IL0, UL1, ITLB, DTLB, WCB/EB and FB are written rarely
(on fills/refills), so the cheapest IRAW avoidance is to stall *any* access
to the block while a freshly written entry stabilizes — "as easy as keeping
the ports busy to prevent the port arbiter from issuing new accesses".

Each guard is a small counter reloaded on every fill with N, the value
the Vcc controller programs for the core's operating point.  Fills may
be registered with a *future* completion cycle (miss data arrives
later); the guard blocks the window ``[fill_cycle, fill_cycle + N]``.
"""

from __future__ import annotations

from repro.errors import ConfigError


class FillStallGuard:
    """Port-busy window tracking for one SRAM block, built for one N."""

    def __init__(self, name: str, stabilization_cycles: int = 0):
        if stabilization_cycles < 0:
            raise ConfigError("stabilization_cycles cannot be negative")
        self.name = name
        self.stabilization_cycles = stabilization_cycles
        #: Pending/active blocked windows as (start, end) cycles, unsorted
        #: but few (fills are rare on guarded blocks).
        self._windows: list[tuple[int, int]] = []

    @property
    def enabled(self) -> bool:
        return self.stabilization_cycles > 0

    def arm(self, fill_cycle: int) -> None:
        """A fill writes the block at ``fill_cycle`` (possibly future)."""
        if not self.enabled:
            return
        self._windows.append((fill_cycle,
                              fill_cycle + self.stabilization_cycles))

    def blocked_until(self, cycle: int) -> int | None:
        """If ``cycle`` falls in a blocked window, the first free cycle."""
        if not self._windows:
            return None
        release: int | None = None
        live: list[tuple[int, int]] = []
        for start, end in self._windows:
            if end < cycle:
                continue  # expired window: prune
            live.append((start, end))
            if start <= cycle and (release is None or end + 1 > release):
                release = end + 1
        self._windows = live
        return release
