"""Vcc-sweep evaluation harness (drives Figures 11b/12 and in-text stats).

A :class:`VccSweep` owns a trace population and runs it at any (Vcc,
scheme) evaluation point: the circuit model supplies frequency and N, the
pipeline supplies IPC, and both combine into speedups, execution times and
energy.

Every evaluation point is a declarative
:class:`~repro.engine.jobs.Job` resolved through a
:class:`~repro.engine.runner.ParallelRunner`.  The runner splits each
population point into **per-trace shards** — the unit of execution and
of on-disk caching is one (trace, Vcc, scheme, config) combination — so
a batch of few points over many traces still saturates every worker,
growing the population re-simulates only the new traces, and points
already produced by this sweep (or whose shards sit in the runner's
on-disk cache) are never re-simulated.

Cache warmup: the paper's 10 M-instruction traces amortize cold misses;
our traces are shorter, so the harness replays each trace's code and data
addresses through the memory hierarchy before the timed run (cache/TLB
contents survive, statistics and transient buffers reset).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuits import constants
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.engine.executors import warm_caches
from repro.engine.jobs import Job, TracePopulationSpec
from repro.engine.runner import ParallelRunner
from repro.analysis.metrics import PointResult, speedup
from repro.memory.hierarchy import MemoryConfig
from repro.pipeline.resources import PipelineParams
from repro.workloads.profiles import STANDARD_PROFILES

__all__ = ["STALL_ABLATIONS", "SweepSettings", "VccSweep", "comparison_row",
           "warm_caches"]

#: The Section 5.2 stall decomposition (8.86% = 8.52 + 0.30 + 0.04 at
#: 575 mV): its five IRAW evaluation points, in submission order, as
#: (record variant, decomposition column, IRAW switches).  The full
#: point leads; it has no column, and no variant because it may
#: coincide with a grid record.  Every other point withholds some
#: mechanisms' stalls, and its column is the IPC the full point loses
#: to them.
STALL_ABLATIONS = (
    ("", None, ()),
    ("stalls:all-off", "total_drop",
     (("cache_guards_enabled", False), ("iq_enabled", False),
      ("rf_enabled", False), ("stable_enabled", False))),
    ("stalls:no-rf", "rf_drop", (("rf_enabled", False),)),
    ("stalls:no-stable", "dl0_drop", (("stable_enabled", False),)),
    ("stalls:no-iq-guards", "other_drop",
     (("cache_guards_enabled", False), ("iq_enabled", False))),
)


@dataclass(frozen=True)
class SweepSettings:
    """Workload population and fidelity knobs of the harness."""

    profiles: tuple = STANDARD_PROFILES
    seeds_per_profile: int = 1
    trace_length: int = 12_000
    warm: bool = True
    dram_latency_ns: float = constants.DRAM_LATENCY_NS
    params: PipelineParams = field(default_factory=PipelineParams)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    riscv: tuple = ()

    def population(self) -> TracePopulationSpec:
        """The deterministic trace-population key of these settings."""
        return TracePopulationSpec(
            profiles=tuple(self.profiles),
            seeds_per_profile=self.seeds_per_profile,
            trace_length=self.trace_length,
            riscv=tuple(self.riscv),
        )


class VccSweep:
    """Runs the trace population across Vcc levels and clock schemes.

    Parameters
    ----------
    settings:
        Population and fidelity knobs.
    solver:
        Frequency solver; its delay model becomes part of every job key.
    runner:
        The execution engine.  Defaults to a serial in-memory runner
        (``workers=1``, no disk cache), so nothing is read from or
        written to disk.  Pass
        ``ParallelRunner(workers=N, cache=ResultCache.default())`` for
        parallel, persistent sweeps.
    """

    def __init__(self, settings: SweepSettings | None = None,
                 solver: FrequencySolver | None = None,
                 runner: ParallelRunner | None = None):
        self.settings = settings or SweepSettings()
        self.solver = solver or FrequencySolver()
        self.runner = runner or ParallelRunner()
        self._population = self.settings.population()

    @property
    def population(self) -> TracePopulationSpec:
        return self._population

    @property
    def stats(self):
        """Engine counters (simulations, memo/disk hits) for this sweep."""
        return self.runner.stats

    # ------------------------------------------------------------------
    # Job construction
    # ------------------------------------------------------------------

    def point_options(self) -> tuple:
        """Kind-independent job options shared by this sweep's points."""
        return (
            ("warm", self.settings.warm),
            ("dram_latency_ns", self.settings.dram_latency_ns),
            ("params", self.settings.params),
            ("memory", self.settings.memory),
            ("delay_model", self.solver.delay_model),
            ("nominal_frequency_mhz", self.solver.nominal_frequency_mhz),
        )

    def job_for(self, vcc_mv: float, scheme: ClockScheme,
                **iraw_overrides) -> Job:
        """The declarative job of one (Vcc, scheme) evaluation point."""
        return Job(
            kind="sweep-point",
            vcc_mv=vcc_mv,
            scheme=scheme.value,
            population=self._population,
            iraw_overrides=tuple(sorted(iraw_overrides.items())),
            options=self.point_options(),
        )

    # ------------------------------------------------------------------
    # Point evaluation
    # ------------------------------------------------------------------

    def run_point(self, vcc_mv: float, scheme: ClockScheme,
                  **iraw_overrides) -> PointResult:
        """Simulate the population at one (Vcc, scheme) point (memoized)."""
        return self.runner.run_one(self.job_for(vcc_mv, scheme,
                                                **iraw_overrides))

    def run_points(self, points, label: str = "sweep") -> list[PointResult]:
        """Resolve a batch of ``(vcc_mv, scheme)`` pairs through the engine.

        This is the parallel entry point: every not-yet-known point is
        sharded per trace and the shards run concurrently across the
        runner's workers (``points x traces`` parallel units, not just
        ``points``).  Every result is memoized so later
        :meth:`run_point`/:meth:`compare` calls on the same coordinates
        are free.
        """
        jobs = [self.job_for(vcc_mv, scheme) for vcc_mv, scheme in points]
        return self.runner.run(jobs, label=label)

    # ------------------------------------------------------------------
    # Headline comparisons
    # ------------------------------------------------------------------

    def compare(self, vcc_mv: float) -> dict[str, float]:
        """Frequency gain and performance gain at one Vcc (Figure 11b)."""
        base, iraw = self.run_points(
            [(vcc_mv, ClockScheme.BASELINE), (vcc_mv, ClockScheme.IRAW)],
            label=f"compare@{vcc_mv:g}mV")
        return comparison_row(vcc_mv, base, iraw)

    # ------------------------------------------------------------------
    # In-text stall decomposition (Section 5.2: 8.86% = 8.52 + 0.30 + 0.04)
    # ------------------------------------------------------------------

    def stall_jobs(self, vcc_mv: float = 575.0) -> list[Job]:
        """The five ablation jobs behind :meth:`stall_decomposition`, in
        :data:`STALL_ABLATIONS` order.

        Exposed separately so the ``stalls`` artifact planner can batch
        them with the rest of a campaign.
        """
        return [self.job_for(vcc_mv, ClockScheme.IRAW, **dict(switches))
                for _, _, switches in STALL_ABLATIONS]

    def stall_decomposition(self, vcc_mv: float = 575.0) -> dict[str, float]:
        """Marginal performance cost of each avoidance mechanism.

        Runs the IRAW point with all mechanisms, then with each mechanism's
        *stalls* disabled in turn (a timing-only what-if; correctness
        violations are counted but ignored), mirroring how the paper
        attributes its 8.86% drop at 575 mV.  The five ablation points are
        submitted as one engine batch, so they parallelize.
        """
        full, *withheld = self.runner.run(
            self.stall_jobs(vcc_mv),
            label=f"stall-decomposition@{vcc_mv:g}mV")
        row: dict[str, float] = {"vcc_mv": vcc_mv}
        for (_, column, _), result in zip(STALL_ABLATIONS[1:], withheld):
            row[column] = 1.0 - full.ipc / result.ipc
        row["iraw_delay_fraction"] = full.mean_iraw_delay_fraction
        return row


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
