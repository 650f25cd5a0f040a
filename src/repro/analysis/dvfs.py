"""DVFS scenario: dynamic Vcc switching with per-phase IRAW mechanisms.

The paper motivates IRAW with mobile DVFS (Section 1) and stresses that
the hardware reprograms every mechanism per Vcc level by rewriting a
handful of bits (Sections 4.1.3-4.4).  This module exercises that claim
end to end: a workload runs through a *schedule* of Vcc phases, and each
phase runs on a core built for its own operating point
(:func:`~repro.engine.executors.run_core`): the frequency, the N each
mechanism is built for and the memory latency in cycles all follow the
phase's Vcc.  A transition drains the pipeline (the ``AI*N`` NOOPs of
Section 4.2 are reported per phase) and leaves no in-flight state
behind, so a fresh core per phase models the drained machine with its
rewritten bits.  Phase
wall-clock times, energies and the transition overheads are accumulated.

One scenario's phases run in order, but *grids* of scenarios (schemes x
schedules x traces) are independent, so :func:`schedule_job` folds each
one into a declarative ``dvfs-schedule`` job; a spec's ``[[dvfs]]``
schedules reach the engine that way through
:class:`~repro.experiments.Experiment`, where they parallelize and
persist in the result cache.  A ``dvfs-schedule`` job already targets
a single trace, so it is the engine's atomic unit: the runner's
per-trace sharding applies to population kinds and leaves these jobs
whole.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.constants import DRAM_LATENCY_NS
from repro.circuits.ekv import check_voltage
from repro.circuits.energy import IRAW_DYNAMIC_OVERHEAD, EnergyModel
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.engine.executors import run_core
from repro.engine.jobs import Job, TraceSpec
from repro.errors import ConfigError
from repro.isa.instructions import MicroOp
from repro.memory.hierarchy import MemoryConfig
from repro.pipeline.resources import PipelineParams
from repro.workloads.trace import Trace

#: Wall-clock cost of one Vcc/frequency transition (regulator settling).
DEFAULT_TRANSITION_NS = 10_000.0


@dataclass(frozen=True)
class DvfsPhase:
    """One schedule entry: run ``instructions`` ops at ``vcc_mv``."""

    vcc_mv: float
    instructions: int

    def __post_init__(self) -> None:
        check_voltage(self.vcc_mv)
        if self.instructions <= 0:
            raise ConfigError("phase must cover at least one instruction")


@dataclass
class PhaseOutcome:
    phase: DvfsPhase
    frequency_mhz: float
    stabilization_cycles: int
    cycles: int
    time_s: float
    drain_noops: int


@dataclass
class DvfsOutcome:
    """Aggregate result of a scheduled run."""

    phases: list[PhaseOutcome]
    transitions: int
    transition_time_s: float

    @property
    def total_time_s(self) -> float:
        return (sum(p.time_s for p in self.phases)
                + self.transition_time_s)

    @property
    def instructions(self) -> int:
        return sum(p.phase.instructions for p in self.phases)


class DvfsScenario:
    """Run a trace through a Vcc schedule under a clocking scheme."""

    def __init__(self, scheme: ClockScheme = ClockScheme.IRAW,
                 solver: FrequencySolver | None = None,
                 params: PipelineParams | None = None,
                 memory: MemoryConfig | None = None,
                 dram_latency_ns: float = DRAM_LATENCY_NS,
                 transition_ns: float = DEFAULT_TRANSITION_NS,
                 warm: bool = True):
        self.scheme = scheme
        self.solver = solver or FrequencySolver()
        self.params = params or PipelineParams()
        self.memory = memory or MemoryConfig()
        self.dram_latency_ns = dram_latency_ns
        self.transition_ns = transition_ns
        self.warm = warm

    def run(self, trace: Trace, schedule: list[DvfsPhase]) -> DvfsOutcome:
        """Execute ``trace`` phase by phase per ``schedule``.

        The schedule must cover exactly the trace length.
        """
        covered = sum(phase.instructions for phase in schedule)
        if covered != len(trace.ops):
            raise ConfigError(
                f"schedule covers {covered} instructions, trace has "
                f"{len(trace.ops)}"
            )
        outcomes: list[PhaseOutcome] = []
        cursor = 0
        for phase in schedule:
            point = self.solver.operating_point(phase.vcc_mv, self.scheme)
            segment_ops = trace.ops[cursor:cursor + phase.instructions]
            cursor += phase.instructions
            segment = Trace(
                name=f"{trace.name}@{phase.vcc_mv:g}mV",
                ops=[_reindex(op, i) for i, op in enumerate(segment_ops)],
                source=trace.source,
                metadata=dict(trace.metadata),
            )
            run = run_core(segment, point, params=self.params,
                           memory=self.memory,
                           dram_latency_ns=self.dram_latency_ns,
                           warm=self.warm)
            cycles = run.result.cycles
            outcomes.append(PhaseOutcome(
                phase=phase,
                frequency_mhz=point.frequency_mhz,
                stabilization_cycles=point.stabilization_cycles,
                cycles=cycles,
                time_s=cycles / (point.frequency_mhz * 1e6),
                drain_noops=run.drain_noops,
            ))
        transitions = len(schedule)
        return DvfsOutcome(
            phases=outcomes,
            transitions=transitions,
            transition_time_s=transitions * self.transition_ns * 1e-9,
        )

    def energy_j(self, outcome: DvfsOutcome,
                 energy: EnergyModel | None = None) -> float:
        """Total energy of a scheduled run (per-phase accounting)."""
        model = energy or EnergyModel()
        total = 0.0
        share = 1.0 / max(1, outcome.instructions)
        for phase_outcome in outcome.phases:
            work = phase_outcome.phase.instructions * share
            breakdown = model.task_energy(
                phase_outcome.phase.vcc_mv,
                execution_time_s=max(1e-12, phase_outcome.time_s),
                work_fraction=work,
                dynamic_overhead=IRAW_DYNAMIC_OVERHEAD
                if self.scheme is ClockScheme.IRAW else 0.0,
            )
            total += breakdown.total_j
        return total


def _reindex(op: MicroOp, new_index: int) -> MicroOp:
    """Copy a micro-op with a new dynamic index (trace slicing).

    Every slot is copied by name: a loop over ``__slots__`` through
    ``getattr``/``setattr`` costs several times more per op.
    """
    clone = MicroOp.__new__(MicroOp)
    clone.index = new_index
    clone.opcode = op.opcode
    clone.opclass = op.opclass
    clone.dest = op.dest
    clone.srcs = op.srcs
    clone.imm = op.imm
    clone.pc = op.pc
    clone.mem_addr = op.mem_addr
    clone.taken = op.taken
    clone.target = op.target
    clone.golden_result = op.golden_result
    clone.store_value = op.store_value
    clone.is_load = op.is_load
    clone.is_store = op.is_store
    clone.is_control = op.is_control
    clone.is_call = op.is_call
    clone.is_return = op.is_return
    return clone


# ----------------------------------------------------------------------
# Engine jobs
# ----------------------------------------------------------------------

def schedule_job(trace: TraceSpec, phases, scheme: ClockScheme,
                 solver: FrequencySolver | None = None,
                 params: PipelineParams | None = None,
                 memory: MemoryConfig | None = None,
                 dram_latency_ns: float = DRAM_LATENCY_NS,
                 transition_ns: float = DEFAULT_TRANSITION_NS,
                 warm: bool = True) -> Job:
    """Fold one DVFS scenario — ``trace`` through ``phases`` under
    ``scheme`` — into a declarative engine job."""
    solver = solver or FrequencySolver()
    options = [
        ("phases", tuple(phases)),
        ("params", params or PipelineParams()),
        ("memory", memory or MemoryConfig()),
        ("dram_latency_ns", dram_latency_ns),
        ("transition_ns", transition_ns),
        ("warm", warm),
        ("delay_model", solver.delay_model),
        ("nominal_frequency_mhz", solver.nominal_frequency_mhz),
    ]
    return Job(kind="dvfs-schedule", scheme=scheme.value,
               trace=trace, options=tuple(options))
