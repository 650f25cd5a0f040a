"""The *Extra Bypass* alternative of Table 1 (paper refs [3, 4, 20]).

Clock at the logic-allowed frequency and let SRAM writes take multiple
cycles, covering the gap with additional bypass levels and latches.  The
paper's Table 1 critique, quantified here:

* **Does not work for all SRAM blocks** — a bypass needs to know, at
  issue time, whether in-flight data will be consumed; cache-like blocks
  learn their addresses too late.  Honest core-level frequency is
  therefore still cache-write-bound (the baseline clock).  The
  hypothetical register-file-only variant clocks at the logic limit.
* **High hardware overhead** — each extra write cycle adds a full-width
  latch stage per write port (up to 128/256-bit SIMD data), plus bypass
  muxes on critical paths.
* **IPC impact** — multi-cycle writes occupy RF write ports; the pipeline
  models the resulting port contention directly
  (``PipelineParams.rf_write_cycles``).
* **No Vcc flexibility** — the latches and muxes are structural: their
  delay/area cost is paid at every Vcc level, and the write pipeline
  depth is fixed at design time for the worst case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuits.area import TRANSISTORS_PER_LATCH_BIT
from repro.circuits.frequency import ClockScheme, FrequencySolver, OperatingPoint


@dataclass
class ExtraBypassBaseline:
    """Pipelined multi-cycle SRAM writes with extra bypass latches."""

    solver: FrequencySolver
    #: Datapath width buffered per write port per extra cycle.
    latch_bits_per_stage: int = 128
    write_ports: int = 2
    #: The write pipeline is sized at design time for the lowest supported
    #: Vcc; its latches and muxes are paid at *every* operating point
    #: (Table 1: "adapts to multiple Vcc: NO").
    design_vcc_mv: float = 400.0
    name: str = "extra-bypass"

    def write_cycles(self, vcc_mv: float) -> int:
        """Cycles a full write needs at the logic-limited clock."""
        delays = self.solver.delay_model
        logic_phase = delays.logic(vcc_mv)
        write_phase = delays.write_with_wordline(vcc_mv)
        return max(1, math.ceil(write_phase / logic_phase))

    def operating_point(self, vcc_mv: float,
                        hypothetical_rf_only: bool = False) -> OperatingPoint:
        """Honest: cache-write-bound (baseline).  Hypothetical: logic clock."""
        scheme = (ClockScheme.LOGIC if hypothetical_rf_only
                  else ClockScheme.BASELINE)
        return self.solver.operating_point(vcc_mv, scheme)

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------

    def extra_latch_bits(self, vcc_mv: float | None = None) -> int:
        """Latch bits for the (write_cycles - 1) extra bypass stages.

        Defaults to the design worst case (``design_vcc_mv``): the stages
        exist in silicon regardless of the current operating point.
        """
        vcc = self.design_vcc_mv if vcc_mv is None else vcc_mv
        stages = max(0, self.write_cycles(vcc) - 1)
        return stages * self.latch_bits_per_stage * self.write_ports

    def area_overhead(self, vcc_mv: float | None = None,
                      core_transistors: int = 47_000_000) -> float:
        return (self.extra_latch_bits(vcc_mv) * TRANSISTORS_PER_LATCH_BIT
                / core_transistors)
