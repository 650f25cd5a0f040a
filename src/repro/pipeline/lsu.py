"""Load/store unit: DL0 + DTLB + STable + guards + golden-value datapath.

The LSU composes four concerns for every memory operation:

1. **IRAW guard checks** — DL0/DTLB post-fill windows and STable repair
   windows must be clear before the access may proceed (paper Sections
   4.3/4.4).  A blocked access returns the release cycle and a stall
   reason; the issue stage retries.
2. **STable policing** — loads probe the STable in parallel with DL0;
   matches forward data and/or trigger the Figure 10 replay repair.
3. **Timing** — the memory hierarchy returns the data-ready cycle and
   reports its fill events to the policy, which turns them into new
   guard windows.
4. **Value datapath** — a flat golden memory carries 64-bit words so
   kernel traces can verify end-to-end correctness; reads that would hit a
   stabilizing store's word *without* STable protection return corrupted
   data and bump the violation counter.
"""

from __future__ import annotations

from repro.core.policy import IrawPolicy
from repro.core.stable import MatchKind
from repro.isa.instructions import MicroOp
from repro.memory.hierarchy import MemorySystem
from repro.pipeline.stats import StallReason

#: Corruption mask for loads that read a stabilizing word unprotected.
LOAD_CORRUPTION_MASK = 0xBAD0_BAD0_BAD0_BAD0


class LoadStoreUnit:
    """Memory-side of the pipeline."""

    def __init__(self, memory: MemorySystem, policy: IrawPolicy,
                 initial_memory: dict[int, int] | None = None,
                 track_values: bool = True):
        self._memory = memory
        self._policy = policy
        self._track_values = track_values
        #: Data-side post-fill guards, in check order; a disabled guard
        #: never blocks, so it is left out.
        self._guards = tuple(
            (policy.guards[name], reason)
            for name, reason in (("DL0", StallReason.DL0_FILL_GUARD),
                                 ("DTLB", StallReason.DTLB_GUARD))
            if policy.guards[name].enabled)
        self._golden: dict[int, int] = {}
        if initial_memory:
            for address, value in initial_memory.items():
                self._golden[address & ~7] = value
        #: word address -> cycle of the last store writeback (corruption
        #: modeling when the STable is disabled under IRAW clocking).
        self._recent_stores: dict[int, int] = {}
        #: DL0 unusable until this cycle due to an STable repair replay.
        self._repair_until = -1
        self.iraw_violations = 0

    # ------------------------------------------------------------------
    # Guard checks (issue stage calls these before letting a memory op go)
    # ------------------------------------------------------------------

    def access_blocked(self, cycle: int) -> tuple[int, StallReason] | None:
        """Is the data-side blocked at ``cycle``?  (release, reason) if so."""
        if cycle <= self._repair_until:
            return self._repair_until + 1, StallReason.STABLE_REPAIR
        for guard, reason in self._guards:
            release = guard.blocked_until(cycle)
            if release is not None:
                return release, reason
        return None

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def execute_load(self, op: MicroOp, issue_cycle: int
                     ) -> tuple[int, int | None]:
        """Run a load issued at ``issue_cycle``.

        Returns ``(data_ready_cycle, value)``; ``value`` is ``None`` when
        value tracking is off.  The access itself happens one cycle after
        issue (address generation), which is also when the STable is
        probed (Figure 10: "Load accesses DL0 and STable" in parallel).
        """
        access_cycle = issue_cycle + 1
        address = op.mem_addr
        word = address & ~7

        lookup = self._policy.stable.lookup(address, access_cycle)
        if lookup.needs_repair:
            # Figure 10: stall further cache accesses while the matching
            # stores replay (one per cycle) and re-stabilize (N cycles).
            repair_cycles = (lookup.replayed_stores
                             + self._policy.stabilization_cycles)
            self._repair_until = max(self._repair_until,
                                     access_cycle + repair_cycles)

        ready = self._memory.load(address, access_cycle)

        value: int | None = None
        if self._track_values:
            if lookup.kind is MatchKind.FULL and lookup.data is not None:
                value = lookup.data
            else:
                value = self._golden.get(word, 0)
                value = self._maybe_corrupt(word, access_cycle, value)
        else:
            self._check_unprotected_window(word, access_cycle)
        return ready, value

    def _maybe_corrupt(self, word: int, access_cycle: int, value: int) -> int:
        if self._check_unprotected_window(word, access_cycle):
            return value ^ LOAD_CORRUPTION_MASK
        return value

    def _check_unprotected_window(self, word: int, access_cycle: int) -> bool:
        """True if this read hits a stabilizing store word unprotected."""
        n = self._policy.stabilization_cycles
        if n <= 0 or self._policy.stable.enabled:
            return False
        last_store = self._recent_stores.get(word)
        if last_store is not None and last_store <= access_cycle <= last_store + n:
            self.iraw_violations += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def commit_store(self, op: MicroOp, value: int | None,
                     write_cycle: int) -> None:
        """A store writes DL0 at ``write_cycle`` (its writeback)."""
        address = op.mem_addr
        word = address & ~7
        stored = value if value is not None else 0
        self._policy.stable.store_committed(address, stored, write_cycle)
        self._memory.store(address, write_cycle)
        if self._track_values:
            self._golden[word] = stored
        if self._policy.stabilization_cycles > 0:
            self._recent_stores[word] = write_cycle
            if len(self._recent_stores) > 4096:
                self._prune_recent(write_cycle)

    def _prune_recent(self, cycle: int) -> None:
        horizon = cycle - 8 * max(1, self._policy.stabilization_cycles)
        self._recent_stores = {w: c for w, c in self._recent_stores.items()
                               if c >= horizon}
