"""Job execution: the functions that actually simulate an evaluation point.

Each :class:`~repro.engine.jobs.Job` kind maps to one module-level
function so jobs execute identically in-process (the serial backend) and
inside ``ProcessPoolExecutor`` workers (module-level functions pickle by
qualified name).  Population kinds execute only as per-trace *shards*
(``job.trace`` set): the runner splits populations before submission.
Traces are regenerated from their deterministic specs and memoized per
process, so parallel workers never ship trace objects across the pipe.

The serial and pool backends hand :func:`execute_chunk` one *trace
unit* at a time: every pending job of one trace spec.  Its members share
one :class:`UnitTables`, so the unit simulates each distinct machine
once, a shard's or a DVFS phase's, and builds each DVFS trace once;
every job still gets its own result.  Every simulated core is built and
run by :func:`run_core`, whether for a shard here, for a DVFS phase or
for ``repro simulate``.

This module deliberately imports only the simulator layers (circuits,
pipeline, workloads, baselines) at module scope — :mod:`repro.analysis`
sits *above* the engine and is imported lazily inside function bodies,
which keeps ``import repro.engine`` acyclic.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, NamedTuple

from repro.baselines.extra_bypass import ExtraBypassBaseline
from repro.baselines.faulty_bits import FaultyBitsBaseline
from repro.circuits import constants
from repro.circuits.frequency import ClockScheme, FrequencySolver, OperatingPoint
from repro.core.config import IrawConfig
from repro.errors import ConfigError
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.pipeline.core import CoreSetup, InOrderCore
from repro.pipeline.resources import PipelineParams
from repro.pipeline.stats import SimulationResult
from repro.workloads.trace import Trace
from repro.engine.broker import WireResult
from repro.engine.jobs import Job, TraceSpec

if TYPE_CHECKING:  # layering: analysis imports resolve lazily at runtime
    from repro.analysis.metrics import PointResult

#: Per-process memo of single traces: a worker receiving several shards
#: of the same trace at different (Vcc, scheme) points regenerates it
#: once.  Fork workers inherit the parent's entries, spawn workers
#: rebuild them deterministically.  Bounded LRU: long-lived processes
#: exploring many distinct settings must not accumulate every trace they
#: ever touched.
_TRACES: "OrderedDict[TraceSpec, Trace]" = OrderedDict()
_TRACES_MAX = 16

#: The queue backend's in-process workers run ``execute_job`` on
#: threads, so the memo bookkeeping must be serialized.  Builds happen
#: outside the lock: two threads racing on the same spec just build the
#: same deterministic trace twice, which beats serializing generation.
_MEMO_LOCK = threading.Lock()

#: Per-process memo of sampled Monte-Carlo die blocks (effective-sigma
#: + IS log-weight arrays), keyed by the hashable ``DieBlock`` recipe.
#: A campaign evaluates every block at every (Vcc, scheme) grid point
#: and the draws do not depend on the point, so the memo samples each
#: block once per process instead of once per job (re-sampling would
#: cost a 100k-die, six-point campaign about 0.2 s).  The bound holds
#: every block of a 1M-die campaign at the default block size.
_BLOCK_SAMPLES: OrderedDict = OrderedDict()
_BLOCK_SAMPLES_MAX = 256


def _memoized_build(store: OrderedDict, limit: int, spec):
    """Bounded-LRU memo over deterministic ``spec.build()`` results."""
    with _MEMO_LOCK:
        value = store.get(spec)
        if value is not None:
            store.move_to_end(spec)
            return value
    value = spec.build()
    with _MEMO_LOCK:
        store[spec] = value
        while len(store) > limit:
            store.popitem(last=False)
    return value


def trace_for(spec: TraceSpec) -> Trace:
    """The (per-process memoized) single trace of ``spec``."""
    return _memoized_build(_TRACES, _TRACES_MAX, spec)


def warm_caches(memory: MemorySystem, trace: Trace) -> None:
    """Replay a trace's addresses through the hierarchy, then reset stats.

    The paper's 10 M-instruction traces amortize cold misses; our traces
    are shorter, so each trace's code and data addresses are replayed
    before the timed run (cache/TLB contents survive, statistics and
    transient buffers reset).
    """
    il0, dl0, ul1 = memory.il0, memory.dl0, memory.ul1
    itlb, dtlb = memory.itlb, memory.dtlb
    line_size = memory.config.line_size
    last_line = -1
    for op in trace.ops:
        line = op.pc // line_size
        if line != last_line:
            last_line = line
            if itlb.access(op.pc) is None:
                itlb.fill(op.pc)
            if il0.access(op.pc) is None:
                il0.fill(op.pc)
                if ul1.access(op.pc) is None:
                    ul1.fill(op.pc)
        address = op.mem_addr
        if address is not None:
            if dtlb.access(address) is None:
                dtlb.fill(address)
            if dl0.access(address, is_write=op.is_store) is None:
                dl0.fill(address, dirty=op.is_store)
                if ul1.access(address) is None:
                    ul1.fill(address)
    memory.reset_after_warmup()


def iraw_for(point: OperatingPoint, switches=()) -> IrawConfig:
    """The IRAW mechanisms of the core that runs at ``point``.

    Under the IRAW scheme the point's N programs them, with the ablation
    ``switches`` (``(name, value)`` overrides of :class:`IrawConfig`)
    applied; under any other scheme writes fit the cycle, the mechanisms
    are off and ``switches`` do nothing.
    """
    if point.scheme is ClockScheme.IRAW:
        return IrawConfig.for_operating_point(point, **dict(switches))
    return IrawConfig.disabled()


class CoreRun(NamedTuple):
    """What :func:`run_core` reports of one run."""

    result: SimulationResult
    #: The memory mutator's report, as sorted ``(name, value)`` pairs.
    extras: tuple
    #: Whether any access reached DRAM (see :meth:`UnitTables.run`).
    reached_dram: bool
    #: NOOPs the core's Eq. 1 gate injects to drain its IQ (Section 4.2).
    drain_noops: int


def run_core(trace: Trace, point: OperatingPoint, switches=(), *,
             params: PipelineParams | None = None,
             memory: MemoryConfig | None = None,
             dram_latency_ns: float = constants.DRAM_LATENCY_NS,
             warm: bool, memory_mutator=None) -> CoreRun:
    """Build the core that runs at ``point`` and run ``trace`` on it.

    The one recipe of every simulated core (sweep shards, DVFS phases,
    ``repro simulate``): IRAW mechanisms by :func:`iraw_for`, the
    pipeline ``params``, and ``memory``'s geometry with its DRAM latency
    replaced by ``dram_latency_ns`` at the point's clock.
    ``memory_mutator`` (Faulty Bits' disabled lines) edits the fresh
    hierarchy and reports a ``{name: value}`` dict; then the caches are
    warmed with ``trace`` if ``warm`` is set, and the trace runs,
    checking golden values if it carries them.
    """
    memory = replace(memory or MemoryConfig(),
                     dram_latency_cycles=point.memory_latency_cycles(
                         dram_latency_ns))
    core = InOrderCore(CoreSetup(iraw=iraw_for(point, switches),
                                 params=params or PipelineParams(),
                                 memory=memory))
    extras = {}
    if memory_mutator is not None:
        extras = memory_mutator(core.memory) or {}
    if warm:
        warm_caches(core.memory, trace)
    result = core.run(trace)
    return CoreRun(result, tuple(sorted(extras.items())),
                   core.memory.dram_requests > 0,
                   core.policy.iq_gate.drain_noops)


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------

def _solver_for(job: Job) -> FrequencySolver:
    """Rebuild the frequency solver a job was keyed against."""
    kwargs = {}
    delay_model = job.option("delay_model")
    if delay_model is not None:
        kwargs["delay_model"] = delay_model
    nominal = job.option("nominal_frequency_mhz")
    if nominal is not None:
        kwargs["nominal_frequency_mhz"] = nominal
    return FrequencySolver(**kwargs)


def _params(job: Job) -> PipelineParams:
    """The pipeline a job was keyed against (the spec's ``[params]``)."""
    return job.option("params") or PipelineParams()


class UnitTables:
    """What the members of one trace unit share while it executes.

    :func:`execute_chunk` makes one per call, and it is dropped when the
    call returns: nothing here outlives its unit.  It holds each DVFS
    trace the unit builds and each machine run of its shards (see
    :func:`_run_shard`) and DVFS phases (see :meth:`run_phase`).
    """

    def __init__(self):
        self._traces: dict[TraceSpec, Trace] = {}
        #: ``(machine, runs)`` pairs; ``runs`` maps a DRAM latency (or
        #: ``None``, for a run that never reached DRAM) to a run.  A
        #: list, not a dict: ``PipelineParams`` holds a dict, so
        #: machines compare equal but do not hash.
        self._machines: list = []

    def trace(self, spec: TraceSpec) -> Trace:
        """``spec``'s trace, built once per unit.

        Not routed through the process memo: DVFS traces are long, and
        keeping them there would raise a campaign's peak memory.
        """
        trace = self._traces.get(spec)
        if trace is None:
            trace = self._traces[spec] = spec.build()
        return trace

    def run(self, machine, dram_latency: int, simulate):
        """The run of ``machine`` at ``dram_latency`` cycles.

        ``simulate()`` runs the core and returns ``(run,
        reached_dram)``; it is called only when no earlier run of the
        unit can serve.  A UL1 miss is the one read of the latency and
        counts in ``MemorySystem.dram_requests``; warm-up makes none, so
        a run that never reached DRAM serves every latency, and one that
        did serves only its own.
        """
        for known, runs in self._machines:
            if known == machine:
                break
        else:
            runs = {}
            self._machines.append((machine, runs))
        run = runs.get(None, runs.get(dram_latency))
        if run is None:
            run, reached_dram = simulate()
            runs[dram_latency if reached_dram else None] = run
        return run

    def run_phase(self, trace: Trace, start: int, count: int,
                  point: OperatingPoint, *, params: PipelineParams,
                  memory: MemoryConfig, dram_latency_ns: float,
                  warm: bool) -> CoreRun:
        """The run of ``count`` ops of ``trace`` from ``start`` on the
        core of ``point`` (one DVFS phase, see :func:`run_core`).

        A phase's machine is its trace and segment plus what a shard's
        machine holds (:func:`_run_shard`): the effective IRAW
        configuration, ``params``, ``warm`` and the memory geometry.
        The unit builds each trace spec once (:meth:`trace`), so the
        trace object stands for its spec.  At N = 0 an IRAW phase is
        the baseline's machine, so the two schedules of one trace run
        it once.  The phase runs on a view of the trace
        (:meth:`Trace.segment`), built only when it is simulated.
        """
        machine = (trace, start, count, iraw_for(point).effective(),
                   params, warm, memory)

        def simulate():
            segment = trace.segment(start, count,
                                    f"{trace.name}@{point.vcc_mv:g}mV")
            run = run_core(segment, point, params=params, memory=memory,
                           dram_latency_ns=dram_latency_ns, warm=warm)
            return run, run.reached_dram

        return self.run(machine, point.memory_latency_cycles(dram_latency_ns),
                        simulate)


def _run_shard(job: Job, point: OperatingPoint, params: PipelineParams,
               scheme_name: str, name: str, tables: UnitTables,
               memory_mutator=None, mutation=None):
    """Run the shard's one trace on the core of ``point`` (:func:`run_core`).

    The core runs once per *machine* in ``tables``: the trace, the
    effective IRAW configuration (:meth:`IrawConfig.effective`), the
    pipeline ``params``, warm-up, the memory config and ``mutation``,
    the recipe of ``memory_mutator``.  The
    point's DRAM latency is not part of the machine (see
    :meth:`UnitTables.run`), and neither is ``name``: each job gets its
    own copy of the run's result under its own name.

    The result is a one-trace population result; the runner concatenates
    shard results back into the population result (see
    :func:`repro.engine.jobs.aggregate_shard_results`).
    """
    from repro.analysis.metrics import PointResult

    if job.trace is None:
        raise ConfigError(f"{job.kind} job needs a trace spec (population "
                          f"jobs execute as per-trace shards)")
    switches = job.iraw_overrides
    dram_latency_ns = job.option("dram_latency_ns", constants.DRAM_LATENCY_NS)
    # The spec's memory config: its own DRAM latency is always replaced
    # by the point's, so it only carries the geometry into the machine.
    memory = job.option("memory") or MemoryConfig()
    warm = job.option("warm", True)
    machine = (job.trace, iraw_for(point, switches).effective(), params,
               warm, memory, mutation)

    def simulate():
        run = run_core(trace_for(job.trace), point, switches, params=params,
                       memory=memory, dram_latency_ns=dram_latency_ns,
                       warm=warm, memory_mutator=memory_mutator)
        return (run.result, run.extras), run.reached_dram

    result, extras = tables.run(
        machine, point.memory_latency_cycles(dram_latency_ns), simulate)
    # A copy per job: no two results share stats an API user may edit,
    # and the unit's own run is never handed out.
    result = result.copy_as(name)
    return PointResult(vcc_mv=job.vcc_mv, scheme=scheme_name, point=point,
                       results=(result,), extras=extras)


# ----------------------------------------------------------------------
# Executors by kind
# ----------------------------------------------------------------------

def _run_sweep_point(job: Job, tables: UnitTables) -> PointResult:
    """One (Vcc, scheme) population point (``Experiment.population_job``)."""
    scheme = ClockScheme(job.scheme)
    point = _solver_for(job).operating_point(job.vcc_mv, scheme)
    return _run_shard(job, point, _params(job), scheme.value,
                      f"{scheme.value}@{job.vcc_mv:g}mV", tables)


def _run_faulty_bits(job: Job, tables: UnitTables) -> PointResult:
    """Table 1's Faulty Bits alternative: honest clock, degraded caches."""
    baseline = FaultyBitsBaseline(_solver_for(job))
    # The disabled lines depend on the margin, the seed and the
    # variation model only, never on the Vcc.
    recipe = ("faulty-bits", baseline.design_sigma, baseline.seed,
              baseline.variation)
    return _run_shard(job, baseline.operating_point(job.vcc_mv),
                      _params(job), baseline.name, baseline.name, tables,
                      memory_mutator=baseline.apply_to_memory,
                      mutation=recipe)


def _run_extra_bypass(job: Job, tables: UnitTables) -> PointResult:
    """Table 1's Extra Bypass alternative (optionally RF-only)."""
    baseline = ExtraBypassBaseline(_solver_for(job))
    hypothetical = bool(job.option("hypothetical_rf_only", False))
    point = baseline.operating_point(job.vcc_mv,
                                     hypothetical_rf_only=hypothetical)
    # The spec's pipeline with the multi-cycle write path swapped in:
    # only the hypothetical RF-only variant clocks past a full write.
    params = replace(_params(job),
                     rf_write_cycles=baseline.write_cycles(job.vcc_mv)
                     if hypothetical else 1,
                     rf_write_ports=baseline.write_ports)
    return _run_shard(job, point, params, baseline.name, baseline.name,
                      tables)


def _run_dvfs_schedule(job: Job, tables: UnitTables):
    """One DVFS scenario: a trace through a Vcc schedule."""
    # Lazy import: analysis.dvfs sits above the engine in the layering.
    from repro.analysis.dvfs import DEFAULT_TRANSITION_NS, DvfsScenario

    if job.trace is None:
        raise ConfigError("dvfs-schedule job needs a trace spec")
    phases = job.option("phases")
    if not phases:
        raise ConfigError("dvfs-schedule job needs a phase schedule")
    scenario = DvfsScenario(
        scheme=ClockScheme(job.scheme),
        solver=_solver_for(job),
        params=job.option("params"),
        memory=job.option("memory"),
        dram_latency_ns=job.option("dram_latency_ns",
                                   constants.DRAM_LATENCY_NS),
        transition_ns=job.option("transition_ns", DEFAULT_TRANSITION_NS),
        warm=bool(job.option("warm", True)),
    )
    return scenario.run(tables.trace(job.trace), list(phases), tables)


def _run_mc_block(job: Job, tables: UnitTables):
    """A contiguous Monte-Carlo die block at one (Vcc, scheme) point.

    The block's die range (``die_start``/``dies``) and the campaign's
    physics config ride in the job options — and therefore in the
    canonical key — so every block, one die included, is an
    independently cacheable, dedupable unit across all backends.  The
    sampled block is memoized per process and shared by every grid
    point that evaluates it.
    """
    # Lazy import: repro.montecarlo sits beside the engine in layering.
    from repro.montecarlo.sampling import DieBlock, evaluate_block

    config = job.option("mc")
    die_start = job.option("die_start")
    dies = job.option("dies")
    if config is None or die_start is None or dies is None:
        raise ConfigError("mc-block job needs 'mc' config and "
                          "'die_start'/'dies' options")
    block = DieBlock(config, int(die_start), int(dies))
    sample = _memoized_build(_BLOCK_SAMPLES, _BLOCK_SAMPLES_MAX, block)
    return evaluate_block(config, block.die_start, block.dies, job.vcc_mv,
                          ClockScheme(job.scheme), solver=_solver_for(job),
                          sample=sample)


def _crash(job: Job, tables: UnitTables):
    """Test-only executor: deterministic failure for error-path tests."""
    raise RuntimeError(f"injected engine crash ({job.option('note', '')})")


def _sleep(job: Job, tables: UnitTables):
    """Test-only executor: controllable stall for queue fault drills.

    The duration comes from ``$REPRO_SELFTEST_SLEEP_S`` when set (so a
    test can make a detached worker hang without the duration leaking
    into the job key), else the ``sleep_s`` option.  The result echoes
    only the deterministic ``note`` so it stays cache-stable.
    """
    env = os.environ.get("REPRO_SELFTEST_SLEEP_S")
    duration = float(env) if env else float(job.option("sleep_s", 0.0))
    if duration > 0:
        time.sleep(duration)
    return {"note": job.option("note", "")}


def worker_tag() -> str:
    """A short identity for trace spans executed in this process."""
    return f"pid:{os.getpid()}"


_EXECUTORS = {
    "sweep-point": _run_sweep_point,
    "faulty-bits": _run_faulty_bits,
    "extra-bypass": _run_extra_bypass,
    "dvfs-schedule": _run_dvfs_schedule,
    "mc-block": _run_mc_block,
    "engine-selftest-crash": _crash,
    "engine-selftest-sleep": _sleep,
}


def execute_job(job: Job, tables: UnitTables | None = None):
    """Run one job to completion (in this process) and return its result.

    ``tables`` are those of the trace unit the job executes in (see
    :func:`execute_chunk`).  Without them the job runs alone, as a queue
    worker runs every shard it claims.
    """
    try:
        executor = _EXECUTORS[job.kind]
    except KeyError:
        raise ConfigError(f"no executor for job kind {job.kind!r}") from None
    return executor(job, tables if tables is not None else UnitTables())


def execute_chunk(jobs) -> list:
    """Run a list of jobs in-process as one unit, isolating failures.

    The serial and pool backends submit one trace unit per call (or a
    chunk of trace-less jobs); the members share one
    :class:`UnitTables`, so a member whose machine an earlier member
    already ran reports about 0 s.  A chunk must not lose its completed
    results to one bad member, so each member gets its own outcome, in
    submission order: a :class:`~repro.engine.broker.WireResult` (the
    result, :func:`worker_tag`, and the member's execute time on this
    worker's monotonic clock — a duration, so no cross-process clock
    agreement is needed), or the exception the member raised.
    """
    tables = UnitTables()
    worker = worker_tag()
    outcomes = []
    for job in jobs:
        started = time.perf_counter()
        try:
            result = execute_job(job, tables)
        except Exception as exc:
            outcomes.append(exc)
        else:
            outcomes.append(WireResult(result, worker,
                                       time.perf_counter() - started))
    return outcomes
