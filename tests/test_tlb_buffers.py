"""Tests for the TLBs (one-set caches of pages), the fill buffers and the
write-combining buffer (one line-buffer model).  The TLB's replacement is
held to the old dict-based TLB by a property in ``test_cache.py``."""

import pytest

from repro.errors import MemoryModelError
from repro.memory.buffers import LineBuffer
from repro.memory.cache import Cache
from repro.memory.hierarchy import PAGE_SIZE, MemoryConfig, MemorySystem


def make_tlb(entries):
    """A TLB as :class:`MemorySystem` builds one."""
    return Cache("T", entries * PAGE_SIZE, entries, PAGE_SIZE)


class TestTlb:
    def test_miss_then_hit(self):
        tlb = make_tlb(4)
        assert tlb.access(0x1234) is None
        tlb.fill(0x1234)
        assert tlb.access(0x1234) is not None
        assert tlb.access(0x1FFF) is not None  # same 4 KiB page
        assert tlb.access(0x2000) is None      # the next page

    def test_lru_eviction(self):
        tlb = make_tlb(2)
        tlb.fill(0x0000)
        tlb.fill(0x1000)
        tlb.access(0x0000)          # page 0 now MRU
        tlb.fill(0x2000)            # evicts page 1
        assert tlb.access(0x0000) is not None
        assert tlb.access(0x1000) is None

    def test_stats(self):
        tlb = make_tlb(4)
        tlb.access(0)
        tlb.fill(0)
        tlb.access(0)
        assert tlb.misses == 1 and tlb.hits == 1
        assert tlb.miss_rate == pytest.approx(0.5)
        tlb.reset_stats()
        assert tlb.accesses == 0

    def test_validation(self):
        with pytest.raises(MemoryModelError):
            make_tlb(0)
        with pytest.raises(MemoryModelError, match="ITLB"):
            MemorySystem(MemoryConfig(tlb_entries=0))

    def test_hierarchy_tlbs_are_one_set_caches_of_pages(self):
        assert PAGE_SIZE == 4096
        memory = MemorySystem(MemoryConfig(tlb_entries=12))
        for tlb in (memory.itlb, memory.dtlb):
            assert (tlb.num_sets, tlb.associativity, tlb.line_size) \
                == (1, 12, PAGE_SIZE)


class TestFillBuffers:
    def test_allocation_completes_after_latency(self):
        fb = LineBuffer("FB", entries=2)
        done = fb.allocate(0x100, cycle=10, latency=20)
        assert done == 30
        assert fb.allocations == 1

    def test_merge_same_line(self):
        fb = LineBuffer("FB", entries=2)
        first = fb.allocate(0x100, cycle=10, latency=20)
        second = fb.merge(0x100, cycle=15)
        assert second == first
        assert fb.merges == 1
        assert fb.allocations == 1

    def test_full_buffer_delays(self):
        fb = LineBuffer("FB", entries=1)
        fb.allocate(0x000, cycle=0, latency=50)
        done = fb.allocate(0x100, cycle=10, latency=50)
        assert done == 100  # waits for entry to free at 50, then +50
        assert fb.full_delays == 1

    def test_entries_free_lazily(self):
        busy = LineBuffer("FB", entries=1)
        busy.allocate(0x000, cycle=0, latency=10)
        assert busy.allocate(0x100, cycle=5, latency=10) == 20
        free = LineBuffer("FB", entries=1)
        free.allocate(0x000, cycle=0, latency=10)
        assert free.allocate(0x100, cycle=10, latency=10) == 20
        assert (busy.full_delays, free.full_delays) == (1, 0)

    def test_outstanding_lookup(self):
        """``merge`` finds a line only while it is in flight."""
        fb = LineBuffer("FB", entries=2)
        fb.allocate(0x200, cycle=0, latency=30)
        assert fb.merge(0x200, 10) == 30
        assert fb.merge(0x300, 10) is None
        assert fb.merge(0x200, 30) is None
        assert fb.merges == 1

    def test_validation(self):
        with pytest.raises(MemoryModelError):
            LineBuffer("FB", entries=0)
        for key, name in (("data_fill_buffers", "FB"),
                          ("fetch_fill_buffers", "IFB"),
                          ("wcb_entries", "WCB_EB")):
            with pytest.raises(MemoryModelError, match=name):
                MemorySystem(MemoryConfig(**{key: 0}))


class TestWriteCombiningBuffer:
    def test_push_and_drain(self):
        wcb = LineBuffer("WCB_EB", entries=2)
        done = wcb.allocate(0x100, cycle=5, latency=9)
        assert done == 14
        assert wcb.merge(0x100, 10) == 14
        assert wcb.merge(0x100, 20) is None

    def test_combining_same_line(self):
        memory = MemorySystem()
        wcb = memory.wcb
        first = wcb.allocate(0x100, cycle=0, latency=9)
        second = wcb.merge(0x100, cycle=3)
        assert second == first
        assert wcb.merges == 1
        assert wcb.allocations == 1
        assert memory.stats()["WCB_EB"] == {"pushes": 1, "combines": 1,
                                            "full_delays": 0}

    def test_full_buffer_delays(self):
        wcb = LineBuffer("WCB_EB", entries=1)
        wcb.allocate(0x000, cycle=0, latency=20)
        done = wcb.allocate(0x100, cycle=1, latency=20)
        assert done == 40
        assert wcb.full_delays == 1
