"""Experiment-orchestration engine.

The paper's headline artifacts (Table 1, Figures 11a/11b/12) are grids of
independent (Vcc, scheme, trace-population) evaluation points.  This
package turns each point into a declarative :class:`~repro.engine.jobs.Job`
and executes batches of them through a
:class:`~repro.engine.runner.ParallelRunner`:

* **Jobs** (:mod:`repro.engine.jobs`) are frozen, picklable descriptions of
  one evaluation — config, trace-population key and evaluation point.
  Identical jobs have identical canonical keys, which drive both the
  in-memory memo and the on-disk cache.
* **Sharding** (:func:`~repro.engine.jobs.shard_jobs`): population jobs
  split into one shard per trace before execution, so the unit of work
  and of caching is a single (trace, Vcc, scheme, config) point;
  :func:`~repro.engine.jobs.aggregate_shard_results` reduces shards back
  to the population result in population order.
* **Execution** (:mod:`repro.engine.executors`) maps a job kind to the
  function that simulates it.  The same function runs in-process
  (``workers=1``, the bit-identical serial fallback) or inside a
  ``ProcessPoolExecutor`` worker.
* **Backends** (:mod:`repro.engine.backends`) make the execution tier
  pluggable: ``SerialBackend`` (inline), ``PoolBackend`` (process pool)
  and ``QueueBackend`` — a fault-tolerant distributed backend on a
  filesystem spool broker (:mod:`repro.engine.broker`) whose shards are
  executed by detached ``python -m repro worker`` processes, with
  rename-based leases, heartbeats and bounded re-dispatch of shards
  lost to crashed workers.  All three are bit-identical on the same
  batch.
* **Caching** (:mod:`repro.engine.cache`) memoizes completed results in a
  content-addressed on-disk store (``$REPRO_CACHE_DIR``, else
  ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``) keyed by the job's
  canonical key under a fingerprint of the package source, so any code
  change invalidates stale results.
  ``$REPRO_CACHE_MAX_BYTES`` bounds the store: the directory is its own
  index (an entry's size is its file size, its recency its mtime), and
  least-recently-used shards are evicted first.
* **Progress** (:mod:`repro.engine.progress`) reports batch progress
  without coupling the runner to a UI.
* **Telemetry** (:mod:`repro.obs`) threads through all of the above:
  the runner's ``stats`` counters live in a shared
  :class:`~repro.obs.metrics.MetricsRegistry` (``runner.metrics``), the
  cache/broker/queue layers register their own instruments there, and a
  ``--trace-out`` JSONL sink records one span per resolved shard with a
  plan / cache-read / queue-wait / execute / cache-write / aggregate
  timing breakdown (``repro trace report`` renders it).

Typical use::

    from repro.engine import Job, ParallelRunner, ResultCache

    runner = ParallelRunner(workers=4, cache=ResultCache.default())
    results = runner.run(jobs)          # order-preserving, deduplicated
    print(runner.stats)                 # hits / misses / simulations
"""

from repro.engine.backends import (
    BACKEND_NAMES,
    PoolBackend,
    QueueBackend,
    SerialBackend,
    resolve_backend,
)
from repro.engine.broker import SpoolBroker, WireResult, run_worker_loop
from repro.engine.cache import ResultCache
from repro.engine.cli import add_engine_arguments, build_runner, \
    runner_from_args
from repro.engine.jobs import (
    Job,
    TracePopulationSpec,
    TraceSpec,
    aggregate_shard_results,
    job_key,
    shard_jobs,
)
from repro.engine.progress import NullProgress, TextProgress
from repro.engine.runner import EngineError, EngineStats, ParallelRunner

__all__ = [
    "BACKEND_NAMES",
    "EngineError",
    "EngineStats",
    "Job",
    "NullProgress",
    "ParallelRunner",
    "PoolBackend",
    "QueueBackend",
    "ResultCache",
    "SerialBackend",
    "SpoolBroker",
    "TextProgress",
    "WireResult",
    "TracePopulationSpec",
    "TraceSpec",
    "add_engine_arguments",
    "aggregate_shard_results",
    "build_runner",
    "job_key",
    "resolve_backend",
    "run_worker_loop",
    "runner_from_args",
    "shard_jobs",
]
