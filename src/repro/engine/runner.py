"""Order-preserving, deduplicating, cache-aware job batch execution.

``ParallelRunner.run`` resolves each job in three tiers:

1. **in-memory memo** — results already produced by this runner;
2. **on-disk cache** — results persisted by any earlier run of the same
   code (see :mod:`repro.engine.cache`);
3. **execution** — everything still pending, handed to the runner's
   :mod:`execution backend <repro.engine.backends>`: inline
   (:class:`~repro.engine.backends.SerialBackend`, deterministic), a
   ``ProcessPoolExecutor``
   (:class:`~repro.engine.backends.PoolBackend`), or the distributed
   work-queue broker (:class:`~repro.engine.backends.QueueBackend`,
   shards executed by detached ``python -m repro worker`` processes).
   Serial and pool run every pending job of one trace as one *trace
   unit*, which simulates each distinct machine once; every job still
   gets its own result.

Population jobs are split into **per-trace shards** before execution
(:func:`~repro.engine.jobs.shard_jobs`): the unit of work and of on-disk
caching is a single (trace, Vcc, scheme, config) point, so a grid with
few points and many traces still saturates every worker, and growing a
population re-simulates only the traces that are actually new.  Shard
results are reduced back into the population result in population order
(:func:`~repro.engine.jobs.aggregate_shard_results`) — deterministic no
matter which worker finished first — and the aggregate lives in the
runner's memo only; the disk cache stores shards, never aggregates, so
per-trace granularity cannot double the cache footprint.

Duplicate jobs inside one batch are simulated once.  Results come back
in submission order regardless of which worker finished first, so
figure generators can ``zip`` them against their grid.

Error model: on every backend a failed job is re-raised as
:class:`~repro.errors.EngineError` chained to the original exception,
and the rest of the batch is cancelled.  A crashed shard names its trace
(via the job label) and its canonical job key, so the offending
evaluation point can be rerun or purged from the cache directly.  The
queue backend retries transient failures first (bounded, counted in
``stats.requeued``/``stats.retried``) and only surfaces permanent ones.
"""

from __future__ import annotations

import os
import time

from repro.engine.backends import ShardFailure, resolve_backend
from repro.engine.broker import WireResult
from repro.engine.cache import MISS, ResultCache
from repro.engine.jobs import Job, aggregate_shard_results, job_key, \
    shard_jobs
from repro.engine.progress import NullProgress
from repro.errors import EngineError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import BatchTrace, NullTraceSink


class EngineStats:
    """Counters accumulated across every batch a runner executes.

    ``submitted``/``memory_hits``/``deduplicated`` count the jobs handed
    to :meth:`ParallelRunner.run`; ``disk_hits`` and ``simulated`` count
    executable units — per-trace shards for population jobs — since those
    are what the disk cache stores and the backends resolve.  A shard
    counts as simulated when execution resolved it, even when its trace
    unit served it from an earlier run of the same machine.
    ``requeued`` and ``retried`` count the queue backend's fault
    recovery: every re-dispatch of a shard (expired lease, quarantined
    result, failed attempt with retry budget left) bumps ``requeued``,
    and each *distinct* shard that needed more than one dispatch bumps
    ``retried`` once.

    Each counter is a plain integer attribute (``stats.simulated +=
    1``).  Given a :class:`~repro.obs.metrics.MetricsRegistry`, the
    stats register one callback counter per attribute
    (``engine_<name>``), the instruments a Prometheus scrape renders.
    Copies built from keywords or by unpickling register nothing.
    """

    #: Counter name -> help text, in ``as_dict`` order.
    COUNTERS = {
        "submitted": "Jobs handed to the runner",
        "memory_hits": "Jobs answered from the runner's own memo",
        "disk_hits": "Jobs answered from the on-disk cache (shards)",
        "deduplicated": "Duplicate jobs collapsed within one batch",
        "sharded": "Population jobs split into per-trace shards",
        "simulated": "Shards and atomic jobs resolved by execution",
        "requeued": "Shard re-dispatch events (queue fault recovery)",
        "retried": "Distinct shards that needed more than one dispatch",
        "errors": "Batches that surfaced a shard failure",
    }

    def __init__(self, registry: MetricsRegistry | None = None,
                 **initial):
        for name in self.COUNTERS:
            setattr(self, name, 0)
        for name, value in initial.items():
            if name not in self.COUNTERS:
                raise TypeError(
                    f"EngineStats got an unexpected counter {name!r}")
            setattr(self, name, int(value))
        if registry is not None:
            for name, help in self.COUNTERS.items():
                registry.counter(f"engine_{name}", help,
                                 fn=lambda name=name: getattr(self, name))

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> dict:
        """The counters as a plain mapping (metrics/JSON surface)."""
        return {name: getattr(self, name) for name in self.COUNTERS}

    def delta(self, before) -> dict:
        """Counter increments since the ``before`` snapshot.

        Long-lived multi-campaign consumers (the ``repro serve``
        collector) attribute one shared runner's work to individual
        campaigns by snapshotting around each batch.  ``before`` may be
        another ``EngineStats`` or a plain mapping (e.g. a registry
        record persisted by an older code version); counters it does
        not know about count from zero instead of raising.
        """
        if hasattr(before, "as_dict"):
            before = before.as_dict()
        return {name: value - int(before.get(name, 0) or 0)
                for name, value in self.as_dict().items()}

    def __eq__(self, other) -> bool:
        if isinstance(other, EngineStats):
            return self.as_dict() == other.as_dict()
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value}"
                          for name, value in self.as_dict().items())
        return f"EngineStats({inner})"


class ParallelRunner:
    """Execute job batches with memoization and pluggable backends.

    Parameters
    ----------
    workers:
        Process count for the pool backend.  ``1`` (default) selects the
        serial backend — deterministic, no subprocesses, the same
        results as every other backend.  ``0`` means "one per CPU".
    cache:
        A :class:`~repro.engine.cache.ResultCache`, or ``None`` to keep
        results only in memory (hermetic: nothing read from or written
        to disk).
    progress:
        Listener with the :class:`~repro.engine.progress.NullProgress`
        protocol.
    backend:
        Execution backend: ``None`` derives it from ``workers`` (serial
        for 1, pool otherwise), a name from
        :data:`~repro.engine.backends.BACKEND_NAMES`, or an
        ``ExecutionBackend`` instance (e.g. a configured
        :class:`~repro.engine.backends.QueueBackend`).
    trace_sink:
        A span sink (:class:`~repro.obs.trace.JsonlTraceSink`) to which
        every batch emits one span per resolved shard plus a batch
        span.  ``None`` (default) traces into a
        :class:`~repro.obs.trace.NullTraceSink`: the batch is timed the
        same way and the spans are dropped.
    metrics:
        A shared :class:`~repro.obs.metrics.MetricsRegistry` for this
        runner's instruments (``stats`` counters, cache gauges, queue
        fault counters).  ``None`` creates a private registry.
    """

    def __init__(self, workers: int = 1,
                 cache: ResultCache | None = None,
                 progress=None,
                 backend=None,
                 trace_sink=None,
                 metrics: MetricsRegistry | None = None):
        if workers == 0 or workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1 (got {workers})")
        self.workers = int(workers)
        self.cache = cache
        self.progress = progress if progress is not None else NullProgress()
        self.backend = resolve_backend(backend, workers=self.workers)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = EngineStats(registry=self.metrics)
        self.trace_sink = trace_sink if trace_sink is not None \
            else NullTraceSink()
        for layer in (self.backend, self.cache):
            attach = getattr(layer, "attach_metrics", None)
            if attach is not None:
                attach(self.metrics)
        self._memo: dict[str, object] = {}

    # -- public API ----------------------------------------------------

    def run(self, jobs, label: str = "") -> list:
        """Resolve ``jobs`` and return their results in submission order."""
        jobs = list(jobs)
        keys = [job_key(job) for job in jobs]
        self.stats.submitted += len(jobs)
        trace = BatchTrace(self.trace_sink, backend=self.backend.name,
                           batch_label=label)
        #: Executable units still unknown: atomic jobs and shards.
        pending: dict[str, Job] = {}
        #: Sharded population jobs awaiting reduction, in plan order.
        plans: dict[str, tuple[Job, tuple[str, ...]]] = {}
        status = "error"
        try:
            for job, key in zip(jobs, keys):
                if key in self._memo:
                    self.stats.memory_hits += 1
                    continue
                if key in pending or key in plans:
                    self.stats.deduplicated += 1
                    continue
                shards = shard_jobs(job)
                if shards is None:
                    if not self._from_disk(key, job, trace):
                        pending[key] = job
                    continue
                self.stats.sharded += 1
                shard_keys = []
                for shard in shards:
                    shard_key = job_key(shard)
                    shard_keys.append(shard_key)
                    if shard_key in self._memo or shard_key in pending:
                        continue
                    if not self._from_disk(shard_key, shard, trace):
                        pending[shard_key] = shard
                plans[key] = (job, tuple(shard_keys))
            trace.plan_done()
            if pending:
                self._execute(pending, label, trace)
            for key, (job, shard_keys) in plans.items():
                # Reduction order is the plan's population order, fixed
                # at submission — shard completion order cannot
                # influence it.
                reduce_start = time.perf_counter()
                self._memo[key] = aggregate_shard_results(
                    job, [self._memo[shard_key] for shard_key in shard_keys])
                trace.aggregated(time.perf_counter() - reduce_start)
            results = [self._memo[key] for key in keys]
            status = "ok"
            return results
        finally:
            trace.finish(status)
            if self.cache is not None:
                self.cache.flush()

    def run_one(self, job: Job):
        """Resolve a single job (memo/cache-aware)."""
        return self.run([job])[0]

    def cached_result(self, job: Job):
        """This runner's memoized result for ``job`` (or ``None``)."""
        return self._memo.get(job_key(job))

    @property
    def memo_size(self) -> int:
        """Results currently held in this runner's in-memory memo."""
        return len(self._memo)

    def reset_memo(self) -> int:
        """Drop the in-memory memo; returns the number of entries freed.

        The on-disk cache (if any) is untouched, so re-resolving a
        dropped key later is a disk hit, not a re-simulation.  Long-lived
        processes (the ``repro serve`` collector) call this between
        campaigns to bound memory — the disk cache's LRU bound handles
        the persistent tier.
        """
        freed = len(self._memo)
        self._memo.clear()
        return freed

    # -- resolution helpers --------------------------------------------

    def _from_disk(self, key: str, job: Job, trace: BatchTrace) -> bool:
        """Memoize ``key`` from the on-disk cache; False on a miss."""
        if self.cache is None:
            return False
        read_start = time.perf_counter()
        value = self.cache.get(key)
        read_s = time.perf_counter() - read_start
        if value is MISS:
            return False  # miss read time stays in the plan stage
        trace.record_hit(key, job, read_s)
        self._memo[key] = value
        self.stats.disk_hits += 1
        return True

    # -- execution -----------------------------------------------------

    def _execute(self, pending: dict[str, Job], label: str,
                 trace: BatchTrace) -> None:
        total = len(pending)
        requeued_before = self.stats.requeued
        self.progress.start(total, label)
        trace.submitted(pending.items())
        completions = self.backend.execute(pending, self.stats)
        try:
            done = 0
            for key, wire in completions:
                self._record(key, wire, trace)
                done += 1
                self.progress.advance(done, total,
                                      self._progress_label(label,
                                                           requeued_before))
        except ShardFailure as failure:
            self.stats.errors += 1
            trace.failed(failure.key)
            raise EngineError(
                _failure_message(failure.job, failure.key, failure.cause,
                                 where=failure.where)) from failure.cause
        finally:
            self.progress.finish(total, label)

    def _progress_label(self, label: str, requeued_before: int) -> str:
        """Surface this batch's fault recovery in the progress line."""
        requeued = self.stats.requeued - requeued_before
        if not requeued:
            return label
        return f"{label} [requeued {requeued}]".strip()

    def _record(self, key: str, wire: WireResult,
                trace: BatchTrace) -> None:
        """Store a completion's bare result and emit its span."""
        self.stats.simulated += 1
        self._memo[key] = wire.result
        write_s = 0.0
        if self.cache is not None:
            write_start = time.perf_counter()
            self.cache.put(key, wire.result)
            write_s = time.perf_counter() - write_start
        trace.collected(key, wire.execute_s, wire.worker, write_s)


def _failure_message(job: Job, key: str, exc: BaseException,
                     where: str = "") -> str:
    """Failure text naming the evaluation unit precisely.

    The label already identifies the trace for shard jobs; the canonical
    key lets the operator purge or re-run exactly the failed unit.
    """
    suffix = f" {where}" if where else ""
    return f"job '{job.label}' (key {key}) failed{suffix}: {exc}"
