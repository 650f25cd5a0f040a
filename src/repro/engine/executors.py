"""Job execution: the functions that actually simulate an evaluation point.

Each :class:`~repro.engine.jobs.Job` kind maps to one module-level
function so jobs execute identically in-process (the serial fallback) and
inside ``ProcessPoolExecutor`` workers (module-level functions pickle by
qualified name).  Population kinds execute only as per-trace *shards*
(``job.trace`` set): the runner splits populations before submission.
Traces are regenerated from their deterministic specs and memoized per
process, so parallel workers never ship trace objects across the pipe.

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
from typing import TYPE_CHECKING

from repro.baselines.extra_bypass import ExtraBypassBaseline
from repro.baselines.faulty_bits import FaultyBitsBaseline
from repro.circuits import constants
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.core.config import IrawConfig
from repro.errors import ConfigError
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.pipeline.core import CoreSetup, InOrderCore
from repro.pipeline.resources import PipelineParams
from repro.workloads.trace import Trace
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
    last_line = -1
    for op in trace.ops:
        line = op.pc >> 6
        if line != last_line:
            last_line = line
            if not itlb.access(op.pc):
                itlb.fill(op.pc)
            if not il0.access(op.pc).hit:
                il0.fill(op.pc)
                if not ul1.access(op.pc).hit:
                    ul1.fill(op.pc)
        address = op.mem_addr
        if address is not None:
            if not dtlb.access(address):
                dtlb.fill(address)
            if not dl0.access(address, is_write=op.is_store).hit:
                dl0.fill(address, dirty=op.is_store)
                if not ul1.access(address).hit:
                    ul1.fill(address)
    memory.reset_after_warmup()


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


def _run_shard(job: Job, point, setup: CoreSetup, scheme_name: str,
               memory_mutator=None):
    """Run the shard's one trace on a fresh core under ``setup``.

    The result is a one-trace population result; the runner concatenates
    shard results back into the population result (see
    :func:`repro.engine.jobs.aggregate_shard_results`).
    """
    from repro.analysis.metrics import PointResult

    if job.trace is None:
        raise ConfigError(f"{job.kind} job needs a trace spec (population "
                          f"jobs execute as per-trace shards)")
    trace = trace_for(job.trace)
    dram_latency_ns = job.option("dram_latency_ns",
                                 constants.DRAM_LATENCY_NS)
    base_memory = job.option("memory") or MemoryConfig()
    warm = job.option("warm", True)
    memory = replace(base_memory,
                     dram_latency_cycles=point.memory_latency_cycles(
                         dram_latency_ns))
    core = InOrderCore(replace(setup, memory=memory))
    extras: dict[str, float] = {}
    if memory_mutator is not None:
        extras = dict(memory_mutator(core.memory) or {})
    if warm:
        warm_caches(core.memory, trace)
    return PointResult(vcc_mv=job.vcc_mv, scheme=scheme_name, point=point,
                       results=(core.run(trace),),
                       extras=tuple(sorted(extras.items())))


# ----------------------------------------------------------------------
# Executors by kind
# ----------------------------------------------------------------------

def _run_sweep_point(job: Job) -> PointResult:
    """The classic (Vcc, scheme) evaluation point of ``VccSweep``."""
    solver = _solver_for(job)
    scheme = ClockScheme(job.scheme)
    point = solver.operating_point(job.vcc_mv, scheme)
    if scheme is ClockScheme.IRAW:
        iraw = IrawConfig.for_operating_point(point, **job.overrides_dict())
    else:
        iraw = IrawConfig.disabled()
    setup = CoreSetup(iraw=iraw, params=_params(job),
                      name=f"{scheme.value}@{job.vcc_mv:g}mV",
                      check_values=False)
    return _run_shard(job, point, setup, scheme.value)


def _run_faulty_bits(job: Job) -> PointResult:
    """Table 1's Faulty Bits alternative: honest clock, degraded caches."""
    baseline = FaultyBitsBaseline(_solver_for(job))
    point = baseline.operating_point(job.vcc_mv)
    setup = replace(baseline.core_setup(job.vcc_mv), params=_params(job))
    return _run_shard(job, point, setup, "faulty-bits",
                      memory_mutator=baseline.apply_to_memory)


def _run_extra_bypass(job: Job) -> PointResult:
    """Table 1's Extra Bypass alternative (optionally RF-only)."""
    baseline = ExtraBypassBaseline(_solver_for(job))
    hypothetical = bool(job.option("hypothetical_rf_only", False))
    point = baseline.operating_point(job.vcc_mv,
                                     hypothetical_rf_only=hypothetical)
    setup = baseline.core_setup(job.vcc_mv,
                                hypothetical_rf_only=hypothetical)
    # The spec's pipeline, with only the multi-cycle write path swapped in.
    params = replace(_params(job),
                     rf_write_cycles=setup.params.rf_write_cycles,
                     rf_write_ports=setup.params.rf_write_ports)
    return _run_shard(job, point, replace(setup, params=params),
                      "extra-bypass")


def _run_dvfs_schedule(job: Job):
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
    return scenario.run(job.trace.build(), list(phases))


def _run_mc_block(job: Job):
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


def _crash(job: Job):
    """Test-only executor: deterministic failure for error-path tests."""
    raise RuntimeError(f"injected engine crash ({job.option('note', '')})")


def _sleep(job: Job):
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


def execute_job(job: Job):
    """Run one job to completion (in this process) and return its result."""
    try:
        executor = _EXECUTORS[job.kind]
    except KeyError:
        raise ConfigError(f"no executor for job kind {job.kind!r}") from None
    return executor(job)


def execute_chunk(jobs):
    """Run a list of jobs in-process, isolating per-job failures.

    The pool backend submits whole chunks per worker round trip; a chunk
    must not lose its completed results to one bad member, so each
    outcome is tagged: ``("ok", result, seconds)`` or
    ``("err", exception, seconds)``, in submission order.  ``seconds`` is
    the member's execute time on this worker's monotonic clock (a
    duration, so no cross-process clock agreement is needed).  Returns
    ``(worker_tag(), outcomes)``.
    """
    outcomes = []
    for job in jobs:
        started = time.perf_counter()
        try:
            tag, value = "ok", execute_job(job)
        except Exception as exc:
            tag, value = "err", exc
        outcomes.append((tag, value, time.perf_counter() - started))
    return worker_tag(), outcomes
