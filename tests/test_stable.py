"""Tests for the Store Table (paper Section 4.4, Figure 10)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stable import MatchKind, StableLookup, StoreTable
from repro.errors import ConfigError

#: DL0 geometry used by the table: 64 sets x 64-byte lines.
SET_STRIDE = 64 * 64


def make_table(n=1, entries=2):
    table = StoreTable(max_entries=entries, commit_width=1,
                       set_index_bits=6, line_size=64)
    table.configure(n)
    return table


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
        table = make_table(n=2, entries=2)
        table.store_committed(0x1000, data=1, cycle=10)
        table.store_committed(0x1000, data=2, cycle=11)
        result = table.lookup(0x1000, cycle=12)
        assert result.data == 2


class TestReplay:
    def test_replay_counts_from_oldest_match(self):
        table = make_table(n=2, entries=2)
        table.store_committed(0x1000, data=1, cycle=10)
        table.store_committed(0x2000, data=2, cycle=11)
        result = table.lookup(0x1000, cycle=11)
        # Oldest match is cycle 10; both live entries replay.
        assert result.replayed_stores == 2
        assert table.replays == 2

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
        table = StoreTable(max_entries=2, commit_width=1)
        table.configure(2)
        assert table._active_entries == 2

    def test_n_beyond_sizing_rejected(self):
        table = StoreTable(max_entries=2, commit_width=1)
        with pytest.raises(ConfigError):
            table.configure(3)

    def test_disabled_table_ignores_everything(self):
        table = make_table(n=0)
        table.store_committed(0x1000, data=5, cycle=0)
        assert table.lookup(0x1000, cycle=0).kind is MatchKind.NONE
        assert table.stores_tracked == 0

    def test_flush_invalidates(self):
        table = make_table()
        table.store_committed(0x1000, data=5, cycle=10)
        table.flush()
        assert table.lookup(0x1000, cycle=10).kind is MatchKind.NONE

    def test_sizing_validation(self):
        with pytest.raises(ConfigError):
            StoreTable(max_entries=0)
        with pytest.raises(ConfigError):
            StoreTable(line_size=48)


class TestRoundRobin:
    def test_oldest_entry_replaced(self):
        table = make_table(n=2, entries=2)
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
