"""Set-associative write-back cache model.

Used for IL0, DL0 and UL1, and, as one-set caches of page-sized lines,
for the ITLB and DTLB.  The model tracks tags, dirtiness and LRU stamps;
data correctness is handled at the system level (flat golden
memory plus the STable forwarding checks), which is the standard split for
timing simulators.

The cache reports *events* (the hit line, a miss, the eviction of a dirty
line) and leaves latency composition to the caller (the memory system),
because miss latencies depend on the next level and on the fill-buffer
state.  Fills are explicit: the memory system calls :meth:`Cache.fill`
when it schedules the refill, and reports the fill to its listener, which
arms the IRAW fill guards (paper Section 4.3: "in case of a fill we stall
any access to cache").  Nothing is allocated per access: a lookup returns
the line itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

from repro.errors import MemoryModelError


@dataclass(slots=True)
class CacheLine:
    """Tag-store state of one line."""

    tag: int
    dirty: bool = False
    stamp: int = 0
    #: Cycle at which the line's data is actually present (fills are
    #: installed in the tag store at request time; the refill data
    #: arrives later, and hits on an in-flight line must wait for it).
    ready_at: int = 0


#: A line's LRU stamp: the key :meth:`Cache.fill` picks its victim by.
_STAMP = attrgetter("stamp")


class Cache:
    """One level of set-associative cache (tag store only).

    Parameters
    ----------
    name:
        The block ("DL0", "IL0", "UL1", "ITLB", "DTLB"), for error
        messages and, for a TLB, the fill events it causes.
    size_bytes / associativity / line_size:
        Geometry; ``size = sets * associativity * line_size``.
    """

    def __init__(self, name: str, size_bytes: int, associativity: int,
                 line_size: int = 64,
                 disabled_ways: Sequence[int] | None = None):
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

    def access(self, address: int,
               is_write: bool = False) -> CacheLine | None:
        """Probe for ``address``: the hit line (its LRU stamp and dirty
        bit updated; ``ready_at`` says when its data is in), or ``None``
        on a miss.

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
            return line
        self.misses += 1
        return None

    def fill(self, address: int, dirty: bool = False,
             ready_at: int = 0) -> int | None:
        """Install the line containing ``address``; evict if needed.

        ``ready_at`` records when the refill data actually arrives, so a
        later hit on this still-in-flight line can wait for it.  Returns
        the full line address of a dirty victim, which must be written
        back to the next level, or ``None``.
        """
        self._use_counter += 1
        block = address // self.line_size
        index = block % self.num_sets
        tag = block // self.num_sets
        lines = self._sets[index]
        line = lines.get(tag)
        if line is not None:
            # Refill of a present line (e.g. racing fills): refresh stamp.
            line.stamp = self._use_counter
            if dirty:
                line.dirty = True
            return None
        capacity = (self._usable_ways[index] if self._usable_ways is not None
                    else self.associativity)
        if capacity <= 0:
            # Every way of this set is disabled: the line cannot be kept.
            return None
        writeback = None
        if len(lines) >= capacity:
            # LRU: the line with the smallest use stamp (every access and
            # fill takes a fresh one, so no two lines share a stamp).
            victim = min(lines.values(), key=_STAMP)
            del lines[victim.tag]
            if victim.dirty:
                writeback = ((victim.tag * self.num_sets + index)
                             * self.line_size)
        lines[tag] = CacheLine(tag=tag, dirty=dirty,
                               stamp=self._use_counter, ready_at=ready_at)
        return writeback

    def invalidate(self, address: int) -> bool:
        """Drop the line containing ``address``; True if it was present."""
        index = self.set_index(address)
        return self._sets[index].pop(self.tag_of(address), None) is not None

    def reset_stats(self) -> None:
        self.hits = self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0
