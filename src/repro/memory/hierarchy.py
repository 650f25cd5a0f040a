"""The assembled memory system of the Silverthorne-class core.

Composes IL0, DL0, UL1, both TLBs, the fill buffers and the WCB/EB into
three operations the pipeline uses: instruction fetch, data load and data
store.  Each returns the cycle its data is ready and reports every *fill
event* it causes — a block name and its completion cycle — to the
system's fill listener, because under IRAW clocking each fill is an SRAM
write whose target block must be guarded for N cycles afterwards (paper
Section 4.3).  The core wires the listener to its IRAW policy, which arms
those guards; the hierarchy itself is clocking-agnostic.

Timing composition is deterministic (latencies resolved at request time),
with structural hazards (full fill buffers / WCB) folded in as start
delays.  This keeps the hot path free of event queues, and no access
builds a record.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _ignore_fill(block: str, cycle: int) -> None:
    """The fill listener of a hierarchy nobody listens to."""


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
        #: Called as ``on_fill(block, cycle)`` for every fill an access
        #: causes, in the order it causes them.
        self.on_fill = _ignore_fill

    # ------------------------------------------------------------------
    # Internal composition helpers
    # ------------------------------------------------------------------

    def _ul1_read(self, line_address: int, cycle: int) -> int:
        """Read a line from UL1 (filling it from DRAM on a miss)."""
        line = self.ul1.access(line_address)
        if line is not None:
            return max(cycle + self.config.ul1_hit_latency, line.ready_at)
        data_cycle = (cycle + self.config.ul1_hit_latency
                      + self.dram.access())
        self.ul1.fill(line_address, ready_at=data_cycle)
        self.on_fill("UL1", data_cycle)
        return data_cycle

    def _dl0_refill(self, address: int, cycle: int, dirty: bool) -> int:
        """Miss path for DL0: fill buffer, UL1/DRAM, refill, eviction."""
        line = self.dl0.line_address(address)
        merged = self.data_fill_buffers.outstanding(line, cycle)
        if merged is not None:
            self.data_fill_buffers.merges += 1
            if dirty:
                self.dl0.access(address, is_write=True)
            return merged
        data_cycle = self._ul1_read(line, cycle)
        data_cycle = self.data_fill_buffers.allocate(
            line, cycle, data_cycle - cycle)
        self.on_fill("FB", cycle)
        writeback = self.dl0.fill(address, dirty=dirty, ready_at=data_cycle)
        self.on_fill("DL0", data_cycle)
        if writeback is not None:
            drain_done = self.wcb.push(writeback, data_cycle,
                                       self.config.ul1_hit_latency)
            self.on_fill("WCB_EB", data_cycle)
            self.ul1.fill(writeback, dirty=True)
            self.on_fill("UL1", drain_done)
        return data_cycle

    def _translate(self, tlb: Tlb, address: int, cycle: int) -> int:
        """The cycle ``address`` is translated from, walking on a miss."""
        if tlb.access(address):
            return cycle
        walk_done = cycle + tlb.miss_penalty
        tlb.fill(address)
        self.on_fill(tlb.name, walk_done)
        return walk_done

    # ------------------------------------------------------------------
    # Pipeline-facing operations
    # ------------------------------------------------------------------

    def fetch(self, pc: int, cycle: int) -> int:
        """Instruction fetch of the line containing ``pc``: the cycle
        its instructions are ready."""
        start = self._translate(self.itlb, pc, cycle)
        line = self.il0.access(pc)
        if line is not None:
            return max(start + self.config.il0_hit_latency, line.ready_at)
        line_address = self.il0.line_address(pc)
        merged = self.fetch_fill_buffers.outstanding(line_address, start)
        if merged is not None:
            return merged
        data_cycle = self._ul1_read(line_address, start)
        data_cycle = self.fetch_fill_buffers.allocate(
            line_address, start, data_cycle - start)
        self.il0.fill(pc, ready_at=data_cycle)
        self.on_fill("IL0", data_cycle)
        return data_cycle

    def load(self, address: int, cycle: int) -> int:
        """Data load: the cycle its value can be consumed."""
        start = self._translate(self.dtlb, address, cycle)
        line = self.dl0.access(address)
        if line is not None:
            return max(start + self.config.dl0_hit_latency, line.ready_at)
        return self._dl0_refill(address, start, dirty=False)

    def store(self, address: int, cycle: int) -> int:
        """Data store at commit time (write-allocate, write-back DL0):
        the cycle the line holds it."""
        start = self._translate(self.dtlb, address, cycle)
        line = self.dl0.access(address, is_write=True)
        if line is not None:
            return max(start + 1, line.ready_at)
        return self._dl0_refill(address, start, dirty=True)

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
