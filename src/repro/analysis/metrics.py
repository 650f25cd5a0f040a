"""Aggregation metrics for trace populations.

The paper reports aggregate speedups over 531 traces; we aggregate over
our (smaller) trace population the standard way: instruction-weighted IPC
for throughput-style numbers and geometric means for ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuits.frequency import OperatingPoint
from repro.pipeline.stats import SimulationResult


def geometric_mean(values) -> float:
    """Geometric mean of positive values (1.0 for an empty input)."""
    values = list(values)
    if not values:
        return 1.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class PointResult:
    """All trace runs of one (Vcc, scheme) evaluation point."""

    vcc_mv: float
    scheme: str
    point: OperatingPoint
    results: tuple[SimulationResult, ...]
    #: Executor-specific side reports as sorted ``(name, value)`` pairs
    #: (e.g. Faulty Bits' disabled-line fractions per cache).
    extras: tuple = ()

    @property
    def instructions(self) -> int:
        return sum(r.instructions for r in self.results)

    @property
    def cycles(self) -> int:
        return sum(r.cycles for r in self.results)

    @property
    def ipc(self) -> float:
        """Instruction-weighted aggregate IPC."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def execution_time_s(self) -> float:
        """Wall-clock time of the whole population at this frequency."""
        return self.cycles / (self.point.frequency_mhz * 1e6)

    @property
    def iraw_violations(self) -> int:
        return sum(r.iraw_violations for r in self.results)

    @property
    def value_mismatches(self) -> int:
        return sum(r.value_mismatches for r in self.results)

    @property
    def mean_iraw_delay_fraction(self) -> float:
        """Mean fraction of instructions delayed by the RF bubble."""
        if not self.results:
            return 0.0
        return (sum(r.iraw_delay_fraction for r in self.results)
                / len(self.results))

    def stall_fraction(self, reasons) -> float:
        """Fraction of all cycles stalled for any of ``reasons``."""
        if not self.cycles:
            return 0.0
        stalled = sum(r.stalls.cycles[reason]
                      for r in self.results for reason in reasons)
        return stalled / self.cycles


def speedup(baseline: PointResult, candidate: PointResult,
            per_trace_geomean: bool = True) -> float:
    """Wall-clock speedup of ``candidate`` over ``baseline``.

    Both points must have run the same trace population.  With
    ``per_trace_geomean`` the speedup is the geometric mean of per-trace
    time ratios (the venue-standard aggregation); otherwise it is the
    ratio of total execution times.

    A point with zero cycles (an empty or failed run) has no defined
    execution time, so either side being zero raises ``ValueError``
    naming the culprit instead of dividing by zero or feeding the
    geometric mean a non-positive ratio.
    """
    if len(baseline.results) != len(candidate.results):
        raise ValueError(
            f"speedup needs matching populations: baseline ran "
            f"{len(baseline.results)} traces, candidate "
            f"{len(candidate.results)}")
    if not per_trace_geomean:
        if candidate.cycles == 0 or baseline.cycles == 0:
            raise ValueError("speedup is undefined for zero-cycle points")
        return baseline.execution_time_s / candidate.execution_time_s
    f_base = baseline.point.frequency_mhz
    f_cand = candidate.point.frequency_mhz
    ratios = []
    for rb, rc in zip(baseline.results, candidate.results):
        if rb.cycles == 0 or rc.cycles == 0:
            raise ValueError(
                f"speedup is undefined: trace {rb.trace_name!r} has a "
                f"zero-cycle result")
        time_base = rb.cycles / f_base
        time_cand = rc.cycles / f_cand
        ratios.append(time_base / time_cand)
    return geometric_mean(ratios)


def comparison_row(vcc_mv: float, base: PointResult,
                   iraw: PointResult) -> dict[str, float]:
    """One Figure 11(b) row from one Vcc's baseline and IRAW results."""
    return {
        "vcc_mv": vcc_mv,
        "frequency_gain": (iraw.point.frequency_mhz
                           / base.point.frequency_mhz - 1.0),
        "performance_gain": speedup(base, iraw) - 1.0,
        "ipc_ratio": iraw.ipc / base.ipc if base.ipc else 0.0,
        "stabilization_cycles": iraw.point.stabilization_cycles,
        "iraw_delay_fraction": iraw.mean_iraw_delay_fraction,
    }
