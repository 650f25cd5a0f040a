"""Tests for the Store Table (paper Section 4.4, Figure 10)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import IrawConfig
from repro.core.policy import IrawPolicy
from repro.core.stable import MatchKind, StableLookup, StoreTable
from repro.errors import ConfigError
from repro.memory.hierarchy import MemoryConfig
from repro.pipeline.core import CoreSetup, InOrderCore
from repro.workloads.profiles import SPECINT_LIKE
from repro.workloads.synthetic import SyntheticTraceGenerator

#: The default DL0 geometry: 64 sets x 64-byte lines.
SET_STRIDE = 64 * 64


def make_table(n=1, num_sets=64):
    return StoreTable(n, commit_width=1, num_sets=num_sets, line_size=64)


class TestLookupOutcomes:
    def test_no_match_is_the_common_case(self):
        table = make_table()
        table.store_committed(0x1000, data=5, cycle=10)
        # 0x1040 maps to set 1 while 0x1000 maps to set 0.
        result = table.lookup(0x1040, cycle=11)
        assert result.kind is MatchKind.NONE
        assert not result.needs_repair

    def test_shared_no_match_result_is_immutable(self):
        table = make_table()
        result = table.lookup(0x1040, cycle=11)
        assert table.lookup(0x2040, cycle=12) is result
        with pytest.raises(AttributeError):
            result.replayed_stores = 3
        assert result == StableLookup(MatchKind.NONE)

    def test_full_match_forwards_data(self):
        table = make_table()
        table.store_committed(0x1000, data=42, cycle=10)
        result = table.lookup(0x1000, cycle=11)
        assert result.kind is MatchKind.FULL
        assert result.data == 42
        assert result.needs_repair

    def test_set_only_match_repairs_without_data(self):
        """Same DL0 set, different line: the parallel set read may destroy
        the stabilizing line even though addresses differ (Section 4.4)."""
        table = make_table()
        table.store_committed(0x1000, data=42, cycle=10)
        result = table.lookup(0x1000 + SET_STRIDE, cycle=11)
        assert result.kind is MatchKind.SET_ONLY
        assert result.data is None
        assert result.needs_repair

    def test_different_set_no_match(self):
        table = make_table()
        table.store_committed(0x1000, data=42, cycle=10)
        result = table.lookup(0x1040, cycle=11)  # next set
        assert result.kind is MatchKind.NONE

    def test_expired_entries_do_not_match(self):
        """Entries only cover the last N cycles of stores."""
        table = make_table(n=1)
        table.store_committed(0x1000, data=42, cycle=10)
        assert table.lookup(0x1000, cycle=12).kind is MatchKind.NONE

    def test_youngest_full_match_wins(self):
        table = make_table(n=2)
        table.store_committed(0x1000, data=1, cycle=10)
        table.store_committed(0x1000, data=2, cycle=11)
        result = table.lookup(0x1000, cycle=12)
        assert result.data == 2


class TestReplay:
    def test_replay_counts_from_oldest_match(self):
        table = make_table(n=2)
        table.store_committed(0x1000, data=1, cycle=10)
        table.store_committed(0x2000, data=2, cycle=11)
        result = table.lookup(0x1000, cycle=11)
        # Oldest match is cycle 10; both live entries replay.
        assert result.replayed_stores == 2

    def test_replay_refreshes_entries(self):
        """Replayed stores rewrite DL0 and hence re-enter stabilization."""
        table = make_table(n=1)
        table.store_committed(0x1000, data=7, cycle=10)
        table.lookup(0x1000, cycle=11)       # triggers replay at 11
        result = table.lookup(0x1000, cycle=12)
        assert result.kind is MatchKind.FULL  # entry still live (refreshed)


class TestConfiguration:
    def test_entry_budget_follows_n(self):
        """Paper: 1 store/cycle x 2 stabilization cycles -> 2 entries."""
        assert len(StoreTable(2, commit_width=1)._entries) == 2
        assert len(StoreTable(1, commit_width=2)._entries) == 2
        assert len(StoreTable(0)._entries) == 1

    def test_disabled_table_ignores_everything(self):
        table = make_table(n=0)
        table.store_committed(0x1000, data=5, cycle=0)
        assert table.lookup(0x1000, cycle=0).kind is MatchKind.NONE

    def test_sizing_validation(self):
        with pytest.raises(ConfigError):
            StoreTable(-1)
        with pytest.raises(ConfigError):
            StoreTable(1, commit_width=0)
        with pytest.raises(ConfigError):
            StoreTable(1, num_sets=0)
        with pytest.raises(ConfigError):
            StoreTable(1, line_size=0)


class TestRoundRobin:
    def test_oldest_entry_replaced(self):
        table = make_table(n=2)
        # Distinct DL0 sets: 0x1000 -> set 0, 0x2040 -> set 1, 0x3080 -> set 2.
        table.store_committed(0x1000, data=1, cycle=10)
        table.store_committed(0x2040, data=2, cycle=11)
        table.store_committed(0x3080, data=3, cycle=12)  # replaces 0x1000
        assert table.lookup(0x1000, cycle=12).kind is MatchKind.NONE
        assert table.lookup(0x2040, cycle=12).kind is MatchKind.FULL


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0x1000, 0x1008, 0x1000 + SET_STRIDE,
                                           0x5000]),
                          st.integers(min_value=0, max_value=255)),
                min_size=1, max_size=30))
def test_full_match_always_returns_last_store_value(operations):
    """Property: an immediate load after a store to the same word always
    forwards that store's value (the Figure 10 correctness guarantee)."""
    table = make_table(n=1)
    cycle = 0
    for address, value in operations:
        table.store_committed(address, data=value, cycle=cycle)
        result = table.lookup(address, cycle=cycle + 1)
        assert result.kind is MatchKind.FULL
        assert result.data == value
        cycle += 2


class TestDl0Geometry:
    """Set-only matches follow the DL0 the table is built for."""

    def test_32_set_dl0_matches_at_half_the_stride(self):
        half = SET_STRIDE // 2
        small = make_table(num_sets=32)
        small.store_committed(0x1000, data=1, cycle=10)
        assert small.lookup(0x1000 + half, cycle=11).kind \
            is MatchKind.SET_ONLY
        default = make_table()
        default.store_committed(0x1000, data=1, cycle=10)
        assert default.lookup(0x1000 + half, cycle=11).kind is MatchKind.NONE

    def test_core_builds_the_table_from_its_dl0(self):
        """A 12 KiB, 6-way DL0 has 32 sets: at N = 1 a 6000-op trace
        has a set-only match that a table with the default 64 sets
        misses on the same core."""
        trace = SyntheticTraceGenerator(SPECINT_LIKE, seed=0).generate(6000)
        iraw = IrawConfig(stabilization_cycles=1)
        setup = CoreSetup(iraw=iraw, memory=MemoryConfig(dl0_size=12 * 1024))
        core = InOrderCore(setup)
        assert core.policy.stable.num_sets == 32
        fixed = InOrderCore(setup)
        fixed.policy = IrawPolicy(iraw, setup.params, MemoryConfig())
        matches = [c.run(trace).prediction_hazards["stable_set_matches"]
                   for c in (core, fixed)]
        assert matches == [1, 0]
