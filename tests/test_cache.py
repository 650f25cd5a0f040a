"""Tests for the set-associative cache model, incl. a reference-model
property test (hypothesis) for LRU behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryModelError
from repro.memory.cache import Cache


def make_cache(**kwargs):
    defaults = dict(name="T", size_bytes=1024, associativity=2,
                    line_size=64, hit_latency=1)
    defaults.update(kwargs)
    return Cache(**defaults)


class TestGeometry:
    def test_sets_computed(self):
        cache = make_cache()
        assert cache.num_sets == 1024 // (2 * 64)

    def test_rejects_nondivisible_size(self):
        with pytest.raises(MemoryModelError):
            make_cache(size_bytes=1000)

    def test_rejects_nonpositive(self):
        with pytest.raises(MemoryModelError):
            make_cache(associativity=0)

    def test_address_helpers(self):
        cache = make_cache()
        assert cache.line_address(130) == 128
        assert cache.set_index(0) == cache.set_index(
            cache.num_sets * 64)  # wraps around
        assert cache.tag_of(0) != cache.tag_of(cache.num_sets * 64)


class TestBasicBehaviour:
    def test_miss_then_hit_after_fill(self):
        cache = make_cache()
        assert cache.access(0x100) is None
        cache.fill(0x100)
        assert cache.access(0x100) is not None
        assert cache.hits == 1 and cache.misses == 1

    def test_hit_returns_the_line(self):
        cache = make_cache()
        cache.fill(0x100, ready_at=40)
        line = cache.access(0x108, is_write=True)
        assert line.tag == cache.tag_of(0x100)
        assert line.ready_at == 40 and line.dirty
        assert cache.access(0x100) is line  # no record per access

    def test_same_line_different_word_hits(self):
        cache = make_cache()
        cache.fill(0x100)
        assert cache.access(0x13F) is not None  # same 64-byte line

    def test_lru_eviction(self):
        cache = make_cache()  # 2-way
        stride = cache.num_sets * 64  # same-set stride
        cache.fill(0)
        cache.fill(stride)
        cache.access(0)  # make address 0 most recent
        cache.fill(2 * stride)  # evicts `stride`
        assert cache.access(0) is not None
        assert cache.access(stride) is None

    def test_dirty_eviction_reports_writeback(self):
        cache = make_cache()
        stride = cache.num_sets * 64
        cache.fill(0)
        cache.access(0, is_write=True)  # dirty
        cache.fill(stride)
        writeback = cache.fill(2 * stride)  # LRU victim is line 0 (dirty)
        assert writeback == 0
        assert cache.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = make_cache()
        stride = cache.num_sets * 64
        cache.fill(0)
        cache.fill(stride)
        assert cache.fill(2 * stride) is None

    def test_fill_dirty_flag(self):
        cache = make_cache()
        stride = cache.num_sets * 64
        cache.fill(0, dirty=True)
        cache.fill(stride)
        assert cache.fill(2 * stride) == 0

    def test_invalidate(self):
        cache = make_cache()
        cache.fill(0x40)
        assert cache.invalidate(0x40)
        assert cache.access(0x40) is None
        assert not cache.invalidate(0x40)

    def test_refill_present_line_is_benign(self):
        cache = make_cache()
        cache.fill(0x40)
        assert cache.fill(0x40, dirty=True) is None  # nothing evicted
        assert cache.evictions == 0
        assert cache.access(0x40).dirty

    def test_stats_reset(self):
        cache = make_cache()
        cache.access(0)
        cache.reset_stats()
        assert cache.accesses == 0
        assert cache.miss_rate == 0.0


class TestDisabledWays:
    def test_disabled_ways_shrink_capacity(self):
        cache = make_cache()
        disabled = [1] * cache.num_sets  # 2-way down to 1-way
        faulty = make_cache(disabled_ways=disabled)
        stride = faulty.num_sets * 64
        faulty.fill(0)
        faulty.fill(stride)  # must evict line 0 (only 1 usable way)
        assert faulty.access(0) is None

    def test_fully_disabled_set_caches_nothing(self):
        cache = make_cache(disabled_ways=None)
        disabled = [2] * cache.num_sets
        dead = make_cache(disabled_ways=disabled)
        dead.fill(0)
        assert dead.access(0) is None

    def test_disabled_ways_validation(self):
        with pytest.raises(MemoryModelError):
            make_cache(disabled_ways=[0, 1])  # wrong number of sets
        cache = make_cache()
        with pytest.raises(MemoryModelError):
            make_cache(disabled_ways=[3] * cache.num_sets)  # > assoc


class TestReplacementPolicies:
    def test_lru_picks_smallest_stamp(self):
        """A full set evicts its least recently used way."""
        cache = make_cache(size_bytes=3 * 64, associativity=3)
        for line in (0, 1, 2):
            cache.fill(line * 64)
        cache.access(0)
        cache.access(2 * 64)
        cache.fill(3 * 64)
        assert [cache.lookup(line * 64) for line in range(4)] \
            == [True, False, True, True]


class _ReferenceLru:
    """Dict-based golden model of a set-associative LRU cache."""

    def __init__(self, num_sets, assoc, line_size):
        self.num_sets = num_sets
        self.assoc = assoc
        self.line_size = line_size
        self.sets = [[] for _ in range(num_sets)]  # MRU at end

    def _locate(self, address):
        line = address // self.line_size
        return line % self.num_sets, line // self.num_sets

    def access(self, address):
        index, tag = self._locate(address)
        ways = self.sets[index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            return True
        return False

    def fill(self, address):
        index, tag = self._locate(address)
        ways = self.sets[index]
        if tag in ways:
            ways.remove(tag)
        elif len(ways) >= self.assoc:
            ways.pop(0)
        ways.append(tag)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=4095),
                          st.booleans()),
                min_size=1, max_size=300))
def test_cache_matches_reference_lru(operations):
    """Property: hit/miss sequence identical to a golden LRU model."""
    cache = Cache("P", size_bytes=512, associativity=2, line_size=32)
    reference = _ReferenceLru(cache.num_sets, 2, 32)
    for address, is_fill in operations:
        if is_fill:
            cache.fill(address)
            reference.fill(address)
        else:
            got = cache.access(address) is not None
            expected = reference.access(address)
            assert got == expected, address
