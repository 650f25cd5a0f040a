"""Tests for the composed memory system (fetch/load/store paths)."""

import pytest

from repro.engine.executors import warm_caches
from repro.engine.jobs import TraceSpec
from repro.errors import MemoryModelError
from repro.memory.hierarchy import MemoryConfig, MemorySystem


@pytest.fixture()
def fills():
    """The (block, cycle) fill events the memory system reported."""
    return []


@pytest.fixture()
def memory(fills):
    system = MemorySystem(MemoryConfig(dram_latency_cycles=100))
    system.on_fill = lambda block, cycle: fills.append((block, cycle))
    return system


class TestFetchPath:
    def test_cold_fetch_misses_everywhere(self, memory, fills):
        ready = memory.fetch(0x1000, cycle=0)
        blocks = {name for name, _ in fills}
        assert "ITLB" in blocks and "IL0" in blocks and "UL1" in blocks
        assert memory.il0.misses == 1
        # ITLB walk + UL1 + DRAM all contribute.
        assert ready > 100

    def test_warm_fetch_is_fast(self, memory, fills):
        memory.fetch(0x1000, cycle=0)
        del fills[:]
        ready = memory.fetch(0x1000, cycle=500)
        assert memory.il0.hits == 1
        assert ready == 500 + memory.config.il0_hit_latency
        assert fills == []

    def test_il0_hit_after_ul1_warm(self, memory, fills):
        memory.fetch(0x1000, cycle=0)
        memory.il0.invalidate(0x1000)
        del fills[:]
        ready = memory.fetch(0x1000, cycle=500)
        assert "IL0" in dict(fills)
        # UL1 hit: refill latency is the UL1 hit latency, no DRAM trip.
        assert ready == 500 + memory.config.ul1_hit_latency


class TestLoadPath:
    def test_cold_load_goes_to_dram(self, memory, fills):
        ready = memory.load(0x4000, cycle=0)
        assert memory.dl0.misses == 1
        blocks = dict(fills)
        assert "DTLB" in blocks and "DL0" in blocks and "UL1" in blocks
        assert ready >= 100
        assert memory.dram_requests == 1
        memory.load(0x4008, cycle=500)  # a DL0 hit reads no DRAM
        assert memory.dram_requests == 1

    @pytest.mark.parametrize("latency", [0, -5])
    def test_dram_latency_must_be_positive(self, latency):
        with pytest.raises(MemoryModelError, match="DRAM latency"):
            MemorySystem(MemoryConfig(dram_latency_cycles=latency))

    def test_fills_reach_the_listener_in_order(self, memory, fills):
        config = memory.config
        ready = memory.load(0x4000, cycle=0)
        walk = config.tlb_miss_penalty
        data = walk + config.ul1_hit_latency + 100
        assert fills == [("DTLB", walk), ("UL1", data), ("FB", walk),
                         ("DL0", data)]
        assert ready == data

    def test_unlistened_fills_are_dropped(self):
        memory = MemorySystem(MemoryConfig(dram_latency_cycles=100))
        assert memory.load(0x4000, cycle=0) >= 100

    def test_warm_load_hits_dl0(self, memory):
        memory.load(0x4000, cycle=0)
        ready = memory.load(0x4008, cycle=500)  # same line
        assert memory.dl0.hits == 1
        assert ready == 500 + memory.config.dl0_hit_latency

    def test_fill_buffer_merge_on_same_line(self, memory):
        memory.load(0x4000, cycle=0)
        first = memory.load(0x8000, cycle=500)
        second = memory.load(0x8008, cycle=501)  # in-flight same line
        assert second == first

    def test_dirty_eviction_flows_to_wcb(self, memory):
        config = memory.config
        set_stride = memory.dl0.num_sets * config.line_size
        base = 0x100000
        # Dirty one line, then overflow its set with clean fills.
        memory.store(base, cycle=0)
        for way in range(1, config.dl0_assoc + 1):
            memory.load(base + way * set_stride, cycle=1000 + way * 300)
        assert memory.stats()["WCB_EB"]["pushes"] >= 1


class TestStorePath:
    def test_store_hit_completes_quickly(self, memory):
        memory.load(0x4000, cycle=0)
        ready = memory.store(0x4000, cycle=500)
        assert memory.dl0.hits == 1
        assert ready == 501

    def test_store_miss_write_allocates(self, memory):
        memory.store(0x9000, cycle=0)
        assert memory.dl0.misses == 1
        assert memory.dl0.lookup(0x9000)


class TestWarmupReset:
    def test_reset_keeps_contents_drops_stats(self, memory):
        memory.load(0x4000, cycle=0)
        memory.fetch(0x1000, cycle=0)
        memory.reset_after_warmup()
        assert memory.dl0.accesses == 0
        assert memory.il0.accesses == 0
        assert memory.dram_requests == 0
        # Contents survive: immediate hits.
        memory.load(0x4000, cycle=10)
        memory.fetch(0x1000, cycle=10)
        assert memory.dl0.hits == 1 and memory.il0.hits == 1

    def test_warm_up_reads_no_dram(self):
        """Warm-up fills UL1 without reading DRAM, so a warmed run that
        never misses in UL1 can serve every DRAM latency."""
        trace = TraceSpec.synthetic("server-like", length=2000).build()
        memory = MemorySystem()
        memory.reset_after_warmup = lambda: None  # keep warm-up's counts
        warm_caches(memory, trace)
        assert memory.ul1.misses > 0
        assert memory.dram_requests == 0

    def test_stats_shape(self, memory):
        memory.load(0x4000, cycle=0)
        stats = memory.stats()
        assert set(stats) >= {"IL0", "DL0", "UL1", "ITLB", "DTLB",
                              "FB", "WCB_EB"}
        assert stats["DL0"]["misses"] == 1
