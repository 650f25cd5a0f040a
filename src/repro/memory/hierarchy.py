"""The assembled memory system of the Silverthorne-class core.

Composes IL0, DL0, UL1, both TLBs, the fill buffers and the WCB/EB into
three operations the pipeline uses: instruction fetch, data load and data
store.  Every response reports the *fill events* it caused — (block name,
completion cycle) pairs — because under IRAW clocking each fill is an SRAM
write whose target block must be guarded for N cycles afterwards (paper
Section 4.3).  The pipeline arms those guards; the hierarchy itself is
clocking-agnostic.

Timing composition is deterministic (latencies resolved at request time),
with structural hazards (full fill buffers / WCB) folded in as start
delays.  This keeps the hot path free of event queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.memory.buffers import FillBufferFile, WriteCombiningBuffer
from repro.memory.cache import Cache
from repro.memory.dram import Dram
from repro.memory.tlb import Tlb


@dataclass(frozen=True)
class MemoryConfig:
    """Geometry and latencies; defaults follow published Silverthorne data."""

    il0_size: int = 32 * 1024
    il0_assoc: int = 8
    il0_hit_latency: int = 1
    dl0_size: int = 24 * 1024
    dl0_assoc: int = 6
    dl0_hit_latency: int = 3
    ul1_size: int = 512 * 1024
    ul1_assoc: int = 8
    ul1_hit_latency: int = 9
    line_size: int = 64
    tlb_entries: int = 16
    tlb_miss_penalty: int = 30
    data_fill_buffers: int = 4
    fetch_fill_buffers: int = 2
    wcb_entries: int = 8
    dram_latency_cycles: int = 100


class MemoryResponse(NamedTuple):
    """Outcome of one memory operation (a named tuple).

    Attributes
    ----------
    ready_cycle:
        Cycle at which the data (or translation+data) is available.
    fills:
        Fill events caused by this operation: (block name, fill cycle).
    hit:
        First-level hit (IL0 for fetch, DL0 for load/store).
    """

    ready_cycle: int
    fills: tuple[tuple[str, int], ...] = ()
    hit: bool = True


class MemorySystem:
    """IL0 + DL0 + UL1 + TLBs + fill buffers + WCB/EB."""

    def __init__(self, config: MemoryConfig | None = None):
        self.config = config or MemoryConfig()
        c = self.config
        self.il0 = Cache("IL0", c.il0_size, c.il0_assoc, c.line_size,
                         c.il0_hit_latency)
        self.dl0 = Cache("DL0", c.dl0_size, c.dl0_assoc, c.line_size,
                         c.dl0_hit_latency)
        self.ul1 = Cache("UL1", c.ul1_size, c.ul1_assoc, c.line_size,
                         c.ul1_hit_latency)
        self.itlb = Tlb("ITLB", c.tlb_entries, miss_penalty=c.tlb_miss_penalty)
        self.dtlb = Tlb("DTLB", c.tlb_entries, miss_penalty=c.tlb_miss_penalty)
        self.data_fill_buffers = FillBufferFile("FB", c.data_fill_buffers)
        self.fetch_fill_buffers = FillBufferFile("IFB", c.fetch_fill_buffers)
        self.wcb = WriteCombiningBuffer("WCB_EB", c.wcb_entries)
        self.dram = Dram(c.dram_latency_cycles)

    # ------------------------------------------------------------------
    # Internal composition helpers
    # ------------------------------------------------------------------

    def _ul1_read(self, line_address: int, cycle: int,
                  fills: list[tuple[str, int]]) -> int:
        """Read a line from UL1 (filling it from DRAM on a miss)."""
        result = self.ul1.access(line_address)
        if result.hit:
            return max(cycle + self.config.ul1_hit_latency,
                       result.data_ready)
        data_cycle = (cycle + self.config.ul1_hit_latency
                      + self.dram.access())
        self.ul1.fill(line_address, ready_at=data_cycle)
        fills.append(("UL1", data_cycle))
        return data_cycle

    def _dl0_refill(self, address: int, cycle: int, dirty: bool,
                    fills: list[tuple[str, int]]) -> int:
        """Miss path for DL0: fill buffer, UL1/DRAM, refill, eviction."""
        line = self.dl0.line_address(address)
        merged = self.data_fill_buffers.outstanding(line, cycle)
        if merged is not None:
            self.data_fill_buffers.merges += 1
            if dirty:
                self.dl0.access(address, is_write=True)
            return merged
        data_cycle = self._ul1_read(line, cycle, fills)
        data_cycle = self.data_fill_buffers.allocate(
            line, cycle, data_cycle - cycle)
        fills.append(("FB", cycle))
        fill_result = self.dl0.fill(address, dirty=dirty,
                                    ready_at=data_cycle)
        fills.append(("DL0", data_cycle))
        if fill_result.writeback_address is not None:
            drain_done = self.wcb.push(fill_result.writeback_address,
                                       data_cycle,
                                       self.config.ul1_hit_latency)
            fills.append(("WCB_EB", data_cycle))
            self.ul1.fill(fill_result.writeback_address, dirty=True)
            fills.append(("UL1", drain_done))
        return data_cycle

    # ------------------------------------------------------------------
    # Pipeline-facing operations
    # ------------------------------------------------------------------

    def fetch(self, pc: int, cycle: int) -> MemoryResponse:
        """Instruction fetch of the line containing ``pc``."""
        fills: list[tuple[str, int]] = []
        start = cycle
        if not self.itlb.access(pc):
            walk_done = start + self.itlb.miss_penalty
            self.itlb.fill(pc)
            fills.append(("ITLB", walk_done))
            start = walk_done
        il0_result = self.il0.access(pc)
        if il0_result.hit:
            ready = max(start + self.config.il0_hit_latency,
                        il0_result.data_ready)
            return MemoryResponse(ready, tuple(fills), not fills)
        line = self.il0.line_address(pc)
        merged = self.fetch_fill_buffers.outstanding(line, start)
        if merged is not None:
            return MemoryResponse(merged, tuple(fills), False)
        data_cycle = self._ul1_read(line, start, fills)
        data_cycle = self.fetch_fill_buffers.allocate(
            line, start, data_cycle - start)
        self.il0.fill(pc, ready_at=data_cycle)
        fills.append(("IL0", data_cycle))
        return MemoryResponse(data_cycle, tuple(fills), False)

    def load(self, address: int, cycle: int) -> MemoryResponse:
        """Data load; ``ready_cycle`` is when the value can be consumed."""
        fills: list[tuple[str, int]] = []
        start = cycle
        if not self.dtlb.access(address):
            walk_done = start + self.dtlb.miss_penalty
            self.dtlb.fill(address)
            fills.append(("DTLB", walk_done))
            start = walk_done
        dl0_result = self.dl0.access(address)
        if dl0_result.hit:
            ready = max(start + self.config.dl0_hit_latency,
                        dl0_result.data_ready)
            return MemoryResponse(ready, tuple(fills), not fills)
        data_cycle = self._dl0_refill(address, start, dirty=False,
                                      fills=fills)
        return MemoryResponse(data_cycle, tuple(fills), False)

    def store(self, address: int, cycle: int) -> MemoryResponse:
        """Data store at commit time (write-allocate, write-back DL0)."""
        fills: list[tuple[str, int]] = []
        start = cycle
        if not self.dtlb.access(address):
            walk_done = start + self.dtlb.miss_penalty
            self.dtlb.fill(address)
            fills.append(("DTLB", walk_done))
            start = walk_done
        store_result = self.dl0.access(address, is_write=True)
        if store_result.hit:
            ready = max(start + 1, store_result.data_ready)
            return MemoryResponse(ready, tuple(fills), not fills)
        data_cycle = self._dl0_refill(address, start, dirty=True,
                                      fills=fills)
        return MemoryResponse(data_cycle, tuple(fills), False)

    # ------------------------------------------------------------------
    # Warmup support
    # ------------------------------------------------------------------

    def reset_after_warmup(self) -> None:
        """Clear statistics and transient buffer state, keep cache contents.

        The evaluation harness replays a trace's addresses through the
        hierarchy before the timed run so cold misses do not dominate
        short traces; afterwards this drops the side effects that must
        not leak into the measurement (stats, fill-buffer occupancy).
        """
        for cache in (self.il0, self.dl0, self.ul1):
            cache.reset_stats()
        for tlb in (self.itlb, self.dtlb):
            tlb.reset_stats()
        self.data_fill_buffers = FillBufferFile(
            "FB", self.config.data_fill_buffers)
        self.fetch_fill_buffers = FillBufferFile(
            "IFB", self.config.fetch_fill_buffers)
        self.wcb = WriteCombiningBuffer("WCB_EB", self.config.wcb_entries)
        self.dram.requests = 0

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-block hit/miss statistics."""
        blocks = {
            "IL0": self.il0, "DL0": self.dl0, "UL1": self.ul1,
            "ITLB": self.itlb, "DTLB": self.dtlb,
        }
        report: dict[str, dict[str, float]] = {}
        for name, block in blocks.items():
            report[name] = {
                "accesses": block.accesses,
                "misses": block.misses,
                "miss_rate": block.miss_rate,
            }
        report["FB"] = {"allocations": self.data_fill_buffers.allocations,
                        "merges": self.data_fill_buffers.merges,
                        "full_delays": self.data_fill_buffers.full_delays}
        report["WCB_EB"] = {"pushes": self.wcb.pushes,
                            "combines": self.wcb.combines,
                            "full_delays": self.wcb.full_delays}
        return report
