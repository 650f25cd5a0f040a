"""Post-fill stall guards for infrequently written cache-like blocks.

Paper Section 4.3: IL0, UL1, ITLB, DTLB, WCB/EB and FB are written rarely
(on fills/refills), so the cheapest IRAW avoidance is to stall *any* access
to the block while a freshly written entry stabilizes — "as easy as keeping
the ports busy to prevent the port arbiter from issuing new accesses".

Each guard is a small counter reloaded on every fill; its reload value (N)
is reprogrammed by the Vcc controller.  Fills may be registered with a
*future* completion cycle (miss data arrives later); the guard blocks the
window ``[fill_cycle, fill_cycle + N]``.
"""

from __future__ import annotations

from repro.errors import ConfigError


class FillStallGuard:
    """Port-busy window tracking for one SRAM block."""

    def __init__(self, name: str):
        self.name = name
        self._stabilization_cycles = 0
        #: Pending/active blocked windows as (start, end) cycles, unsorted
        #: but few (fills are rare on guarded blocks).
        self._windows: list[tuple[int, int]] = []
        self.fills = 0

    def configure(self, stabilization_cycles: int) -> None:
        if stabilization_cycles < 0:
            raise ConfigError("stabilization_cycles cannot be negative")
        self._stabilization_cycles = stabilization_cycles
        if stabilization_cycles == 0:
            self._windows.clear()

    @property
    def enabled(self) -> bool:
        return self._stabilization_cycles > 0

    def arm(self, fill_cycle: int) -> None:
        """A fill writes the block at ``fill_cycle`` (possibly future)."""
        if not self.enabled:
            return
        self.fills += 1
        self._windows.append((fill_cycle,
                              fill_cycle + self._stabilization_cycles))

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

    def is_blocked(self, cycle: int) -> bool:
        return self.blocked_until(cycle) is not None

    def clear(self) -> None:
        """Drop all windows (pipeline drain / Vcc switch)."""
        self._windows.clear()
