"""The Store Table (STable) for frequently written cache-like blocks.

Paper Section 4.4: DL0 is written by cache-line fills (rare — handled by
the fill stall guard) **and by store instructions** (frequent — stalling
after each store would be ruinous).  The STable instead *tracks* the last
few stores so their stabilization windows can be policed a posteriori:

* It has ``commit_width x N`` entries (e.g. one store per cycle, 2-cycle
  stabilization -> 2 entries), each holding valid bit, address and data.
  It is built from latch cells, so it is readable in a single cycle even
  at low Vcc.
* Entries are replaced round-robin, which naturally retires the entry
  whose store has just stabilized; when no store commits in a cycle the
  oldest entry is invalidated instead (modeled lazily via timestamps).
* Loads probe the STable in parallel with DL0:

  - **no match** — the common case, nothing to do;
  - **full match** — the load wants data a stabilizing store just wrote:
    the STable forwards the data;
  - **set-only match** — the load reads the same DL0 *set* as a
    stabilizing store; because all ways of the set are read in parallel,
    the stabilizing line may be destroyed even though its address differs.

  In both match cases further cache accesses stall and the matching
  stores are *replayed* from the oldest onwards to restore the state
  (Figure 10), which also refreshes the STable itself.

Stores never trigger matches on their own behalf: they read only tags
(never modified by stores) and overwrite data, and overwriting a
stabilizing cell is harmless (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from repro.errors import ConfigError


class MatchKind(str, Enum):
    NONE = "none"
    FULL = "full"
    SET_ONLY = "set_only"


class StableLookup(NamedTuple):
    """Outcome of a load's parallel STable probe (a named tuple).

    Every probe without a match returns the same shared instance.
    """

    kind: MatchKind
    #: Forwarded data on a full match (golden-value pipelines only).
    data: int | None = None
    #: Number of stores replayed (cycles of repair stalls, Figure 10).
    replayed_stores: int = 0

    @property
    def needs_repair(self) -> bool:
        return self.kind is not MatchKind.NONE


_NO_MATCH = StableLookup(MatchKind.NONE)


@dataclass
class _StableEntry:
    valid: bool = False
    address: int = 0
    set_index: int = 0
    data: int = 0
    written_cycle: int = -1


class StoreTable:
    """Tracks not-yet-stabilized stores to DL0.

    Built for one N: it holds the ``max(1, commit_width x N)`` entries
    the Vcc controller enables for that N, and indexes sets like DL0
    (``num_sets`` sets of ``line_size`` bytes).  At N = 0 it is off.
    """

    def __init__(self, stabilization_cycles: int = 0, commit_width: int = 1,
                 num_sets: int = 64, line_size: int = 64):
        if stabilization_cycles < 0:
            raise ConfigError("stabilization_cycles cannot be negative")
        if commit_width <= 0 or num_sets <= 0 or line_size <= 0:
            raise ConfigError("STable sizing must be positive")
        self.line_size = line_size
        self.num_sets = num_sets
        self.stabilization_cycles = stabilization_cycles
        self._entries = [_StableEntry() for _ in
                         range(max(1, commit_width * stabilization_cycles))]
        self._cursor = 0
        # Statistics.
        self.full_matches = 0
        self.set_matches = 0

    @property
    def enabled(self) -> bool:
        return self.stabilization_cycles > 0

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def set_index_of(self, address: int) -> int:
        return (address // self.line_size) % self.num_sets

    def _word_address(self, address: int) -> int:
        return address & ~7

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def store_committed(self, address: int, data: int, cycle: int) -> None:
        """A store wrote DL0 this cycle: claim the round-robin entry."""
        if not self.enabled:
            return
        entry = self._entries[self._cursor % len(self._entries)]
        self._cursor += 1
        entry.valid = True
        entry.address = self._word_address(address)
        entry.set_index = self.set_index_of(address)
        entry.data = data
        entry.written_cycle = cycle

    def _entry_live(self, entry: _StableEntry, cycle: int) -> bool:
        """Valid and still inside its stabilization window."""
        return (entry.valid
                and cycle - entry.written_cycle <= self.stabilization_cycles)

    def lookup(self, address: int, cycle: int) -> StableLookup:
        """Probe on behalf of a load issued at ``cycle`` (Figure 10)."""
        if not self.stabilization_cycles:
            return _NO_MATCH
        word = self._word_address(address)
        set_index = self.set_index_of(address)
        full_match: _StableEntry | None = None
        oldest_match_cycle: int | None = None
        matches = 0
        for entry in self._entries:
            if not self._entry_live(entry, cycle):
                continue
            if entry.address == word:
                matches += 1
                if (full_match is None
                        or entry.written_cycle > full_match.written_cycle):
                    full_match = entry  # youngest full match has the data
                if (oldest_match_cycle is None
                        or entry.written_cycle < oldest_match_cycle):
                    oldest_match_cycle = entry.written_cycle
            elif entry.set_index == set_index:
                matches += 1
                if (oldest_match_cycle is None
                        or entry.written_cycle < oldest_match_cycle):
                    oldest_match_cycle = entry.written_cycle
        if not matches:
            return _NO_MATCH
        # Repair: replay every tracked store from the oldest matching one
        # onwards (they rewrite DL0 and refresh the STable, Figure 10).
        replayed = sum(
            1 for entry in self._entries
            if self._entry_live(entry, cycle)
            and entry.written_cycle >= oldest_match_cycle
        )
        for entry in self._entries:
            if (self._entry_live(entry, cycle)
                    and entry.written_cycle >= oldest_match_cycle):
                entry.written_cycle = cycle  # replayed = rewritten now
        if full_match is not None:
            self.full_matches += 1
            return StableLookup(MatchKind.FULL, data=full_match.data,
                                replayed_stores=replayed)
        self.set_matches += 1
        return StableLookup(MatchKind.SET_ONLY, replayed_stores=replayed)
