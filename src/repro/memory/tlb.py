"""Fully-associative TLB model (ITLB and DTLB of the paper's Figure 3).

TLB refills are SRAM writes, so under IRAW clocking a refill arms the same
post-fill stall guard as a cache fill (paper Section 4.3 applies the
"infrequently written cache-like" strategy to both TLBs).
"""

from __future__ import annotations

from repro.errors import MemoryModelError


class Tlb:
    """A small fully-associative, LRU translation buffer."""

    def __init__(self, name: str, entries: int = 16,
                 page_size: int = 4096, miss_penalty: int = 30):
        if entries <= 0:
            raise MemoryModelError(f"{name}: TLB needs at least one entry")
        if page_size & (page_size - 1):
            raise MemoryModelError(f"{name}: page size must be a power of two")
        self.name = name
        self.entries = entries
        self.page_size = page_size
        self.miss_penalty = miss_penalty
        self._pages: dict[int, int] = {}
        self._use_counter = 0
        self.hits = 0
        self.misses = 0

    def page_of(self, address: int) -> int:
        return address // self.page_size

    def access(self, address: int) -> bool:
        """Probe the TLB; on a miss the caller schedules the walk + refill."""
        self._use_counter += 1
        page = address // self.page_size
        if page in self._pages:
            self._pages[page] = self._use_counter
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, address: int) -> None:
        """Install the translation for ``address`` (evicting LRU)."""
        self._use_counter += 1
        page = self.page_of(address)
        if page not in self._pages and len(self._pages) >= self.entries:
            lru_page = min(self._pages, key=self._pages.get)
            del self._pages[lru_page]
        self._pages[page] = self._use_counter

    def reset_stats(self) -> None:
        self.hits = self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0
