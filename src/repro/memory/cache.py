"""Set-associative write-back cache model.

Used for IL0, DL0 and UL1.  The model tracks tags, validity, dirtiness and
LRU stamps; data correctness is handled at the system level (flat golden
memory plus the STable forwarding checks), which is the standard split for
timing simulators.

The cache reports *events* (hit, miss, eviction of a dirty line) and leaves
latency composition to the caller (the load/store unit), because miss
latencies depend on the next level and on the fill-buffer state.  Fills are
explicit: the LSU calls :meth:`Cache.fill` when the refill arrives, which
is also the hook where IRAW fill guards are armed (paper Section 4.3: "in
case of a fill we stall any access to cache").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import MemoryModelError


@dataclass
class CacheLine:
    """Tag-store state of one line."""

    tag: int
    valid: bool = True
    dirty: bool = False
    stamp: int = 0
    #: Cycle at which the line's data is actually present (fills are
    #: installed in the tag store at request time; the refill data
    #: arrives later, and hits on an in-flight line must wait for it).
    ready_at: int = 0


class AccessResult(NamedTuple):
    """Outcome of a tag lookup.

    A named tuple: the hierarchy builds one per access, and a frozen
    dataclass costs several times more to construct.  Immutable, so
    every miss without a dirty victim can share one.
    """

    hit: bool
    #: On a miss with a dirty victim, its full line address.
    writeback_address: int | None = None
    #: On a hit, the cycle the line's data is available (0 = long ago).
    data_ready: int = 0


#: The result of every miss without a dirty victim.
_MISS = AccessResult(hit=False)


class Cache:
    """One level of set-associative cache (tag store only).

    Parameters
    ----------
    name:
        For stats and error messages ("DL0", "IL0", "UL1").
    size_bytes / associativity / line_size:
        Geometry; ``size = sets * associativity * line_size``.
    hit_latency:
        Cycles from access to data for a hit (composed by the LSU).
    """

    def __init__(self, name: str, size_bytes: int, associativity: int,
                 line_size: int = 64, hit_latency: int = 1,
                 disabled_ways: list[int] | None = None):
        if size_bytes <= 0 or associativity <= 0 or line_size <= 0:
            raise MemoryModelError(f"{name}: non-positive geometry")
        if size_bytes % (associativity * line_size):
            raise MemoryModelError(
                f"{name}: size {size_bytes} not divisible by "
                f"assoc*line {associativity * line_size}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.hit_latency = hit_latency
        self.num_sets = size_bytes // (associativity * line_size)
        #: Per-set mapping tag -> CacheLine.
        self._sets: list[dict[int, CacheLine]] = [dict() for _ in
                                                  range(self.num_sets)]
        #: Faulty Bits support: ways per set unusable at the current
        #: sigma margin (lines with weak cells disabled, paper Table 1).
        if disabled_ways is not None:
            if len(disabled_ways) != self.num_sets:
                raise MemoryModelError(
                    f"{name}: disabled_ways must list all {self.num_sets} sets"
                )
            if any(d < 0 or d > associativity for d in disabled_ways):
                raise MemoryModelError(f"{name}: disabled_ways out of range")
            self._usable_ways = [associativity - d for d in disabled_ways]
        else:
            self._usable_ways = None
        self._use_counter = 0
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def set_index(self, address: int) -> int:
        return (address // self.line_size) % self.num_sets

    def tag_of(self, address: int) -> int:
        return address // (self.line_size * self.num_sets)

    def line_address(self, address: int) -> int:
        return address - (address % self.line_size)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def lookup(self, address: int) -> bool:
        """Tag probe without any state change (used by checks/tests)."""
        return self.tag_of(address) in self._sets[self.set_index(address)]

    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Probe for ``address``; update LRU and dirty bits on a hit.

        On a miss, **no** fill happens here — the caller decides when the
        refill arrives and calls :meth:`fill`.
        """
        self._use_counter += 1
        block = address // self.line_size
        line = self._sets[block % self.num_sets].get(block // self.num_sets)
        if line is not None:
            line.stamp = self._use_counter
            if is_write:
                line.dirty = True
            self.hits += 1
            return AccessResult(True, None, line.ready_at)
        self.misses += 1
        return _MISS

    def fill(self, address: int, dirty: bool = False,
             ready_at: int = 0) -> AccessResult:
        """Install the line containing ``address``; evict if needed.

        ``ready_at`` records when the refill data actually arrives, so a
        later hit on this still-in-flight line can wait for it.  Returns
        an :class:`AccessResult` whose ``writeback_address`` is set if a
        dirty victim must be written back to the next level.
        """
        self._use_counter += 1
        index = self.set_index(address)
        tag = self.tag_of(address)
        lines = self._sets[index]
        if tag in lines:
            # Refill of a present line (e.g. racing fills): refresh stamp.
            lines[tag].stamp = self._use_counter
            if dirty:
                lines[tag].dirty = True
            return AccessResult(hit=True, data_ready=lines[tag].ready_at)
        writeback = None
        capacity = (self._usable_ways[index] if self._usable_ways is not None
                    else self.associativity)
        if capacity <= 0:
            # Every way of this set is disabled: the line cannot be kept.
            self.evictions += 1
            return _MISS
        if len(lines) >= capacity:
            # LRU: the first way with the smallest use stamp.
            victim_tag = min(lines, key=lambda t: lines[t].stamp)
            victim = lines.pop(victim_tag)
            self.evictions += 1
            if victim.dirty:
                self.writebacks += 1
                writeback = (victim_tag * self.num_sets + index) * self.line_size
        lines[tag] = CacheLine(tag=tag, dirty=dirty,
                               stamp=self._use_counter, ready_at=ready_at)
        return _MISS if writeback is None else AccessResult(False, writeback)

    def invalidate(self, address: int) -> bool:
        """Drop the line containing ``address``; True if it was present."""
        index = self.set_index(address)
        return self._sets[index].pop(self.tag_of(address), None) is not None

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = self.writebacks = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0
