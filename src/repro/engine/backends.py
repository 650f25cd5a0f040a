"""Pluggable execution backends behind the runner's shard contract.

The :class:`~repro.engine.runner.ParallelRunner` resolves memo and disk
hits itself, then hands everything still pending — atomic jobs and
per-trace shards, as a ``key -> Job`` mapping — to an **execution
backend**.  A backend is anything with::

    name: str              # "serial" | "pool" | "queue" | ...
    def execute(self, pending, stats):
        # yield (key, WireResult) pairs as units complete, in any order;
        # raise ShardFailure when a unit permanently fails

Every completion is one :class:`~repro.engine.broker.WireResult`: the
result plus the worker that produced it and the execute seconds that
worker measured.  The runner alone unwraps it, stores the result and
hands the timing to the batch's span.  The runner turns every
``ShardFailure`` into an :class:`~repro.errors.EngineError` naming the
unit's label and canonical key, whichever backend raised it.

Three implementations ship here:

* :class:`SerialBackend` — inline, deterministic, no subprocesses.
* :class:`PoolBackend` — a ``ProcessPoolExecutor`` fan-out on one
  machine: one chunk per trace unit, plus automatically sized chunks of
  trace-less jobs, one chunk per worker round trip.  A batch of one
  trace unit skips pool setup and runs inline.
* :class:`QueueBackend` — a fault-tolerant distributed backend on the
  filesystem spool broker (:mod:`repro.engine.broker`): shards are
  pickled into ``pending/``, detached ``python -m repro worker``
  processes claim them one at a time via rename-based leases with
  heartbeats, and the backend collects the ``done/`` result envelopes,
  re-dispatching shards whose lease expires (crashed or wedged worker)
  or whose result is corrupt (quarantined), up to ``max_retries`` times
  per shard.

Serial and pool execute **trace units** (:func:`trace_units`): every
pending job of one trace spec goes through one
:func:`~repro.engine.executors.execute_chunk` call, which simulates
each distinct machine of the unit once.  The queue leases one shard per
claim, so its workers simulate every shard.

All three produce bit-identical results for the same batch — the
backend-equivalence suite (``tests/test_golden.py``) locks that down
against the checked-in goldens.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from dataclasses import dataclass, field

from repro.engine.broker import SpoolBroker, CompletedEvent, CorruptEvent, \
    ExpiredEvent, FailedEvent, LostEvent, WireResult, default_queue_root, \
    run_worker_loop
from repro.engine.executors import execute_chunk
from repro.engine.jobs import Job
from repro.errors import ConfigError

#: Backend names accepted by ``--backend`` / :func:`resolve_backend`.
BACKEND_NAMES = ("serial", "pool", "queue")

#: Spool directories that already produced the workerless-spool warning
#: in this process.  The warning is an operator hint ("you forgot to
#: start a worker"), so it fires once per spool directory — not once per
#: runner batch, which would repeat it for every campaign a long-lived
#: multi-campaign process (``repro serve``) runs over one shared spool.
_WORKERLESS_WARNED_SPOOLS: set = set()
_WORKERLESS_WARNED_LOCK = threading.Lock()


class ShardFailure(RuntimeError):
    """Internal: one executable unit failed inside a backend.

    Backends raise this instead of :class:`~repro.errors.EngineError`
    so the runner owns the error contract: it wraps every failure into
    an ``EngineError`` naming the unit's label (which carries the trace
    for shard jobs) and canonical key.
    """

    def __init__(self, key: str, job: Job, cause: BaseException,
                 where: str = ""):
        super().__init__(f"shard {key} failed")
        self.key = key
        self.job = job
        self.cause = cause
        self.where = where


class RemoteShardError(RuntimeError):
    """A shard raised on a queue worker; carries the remote traceback."""


def trace_units(pending) -> list[list[tuple[str, Job]]]:
    """Group the pending ``(key, job)`` pairs into trace units.

    A unit is every pending job of one trace spec, in first-appearance
    order, members in pending order.  A job without a trace
    (``mc-block``, the self-test kinds) is a unit of one.
    """
    units: dict = {}
    for key, job in pending.items():
        # Keys are strings and specs are dataclasses: they never collide.
        group = key if job.trace is None else job.trace
        units.setdefault(group, []).append((key, job))
    return list(units.values())


def _deliver(part, outcomes, where: str = ""):
    """Yield a chunk's completed members, then raise its first failure.

    Completed members always reach the runner before a member failure
    is raised, so one bad job never discards its siblings' finished
    simulations.
    """
    failure = None
    for (key, job), outcome in zip(part, outcomes):
        if isinstance(outcome, WireResult):
            yield key, outcome
        elif failure is None:
            failure = ShardFailure(key, job, outcome, where=where)
    if failure is not None:
        raise failure from failure.cause


class SerialBackend:
    """Inline execution, one trace unit at a time — deterministic."""

    name = "serial"

    def execute(self, pending, stats):
        for unit in trace_units(pending):
            yield from _deliver(unit, execute_chunk([job for _, job in unit]))


class PoolBackend:
    """``ProcessPoolExecutor`` fan-out across one machine's cores.

    Pending jobs ship in chunks, one chunk per worker round trip: one
    chunk per trace unit, so a worker builds each trace once and
    simulates each of its machines once, and trace-less jobs in chunks
    sized from their count (:meth:`_chunk_size`) so cheap vectorized
    jobs like ``mc-block`` amortize pickle/submit overhead.  Chunk
    members execute independently
    (:func:`~repro.engine.executors.execute_chunk`) and stream back as
    individual ``(key, WireResult)`` completions.
    """

    name = "pool"

    def __init__(self, workers: int = 0):
        if workers == 0 or workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigError(f"pool backend needs workers >= 1 "
                              f"(got {workers})")
        self.workers = int(workers)
        # Imported where a pool is chosen, not with this module:
        # concurrent.futures loads logging, which serial runs never use.
        import concurrent.futures

        self._futures = concurrent.futures

    def _chunk_size(self, pending_count: int) -> int:
        """Trace-less jobs per worker round trip, for ``pending_count``
        of them.

        Keeps ~8 chunks in flight per worker for load balance and caps
        the chunk at 32 so one slow member cannot starve the completion
        stream; batches too small to matter ship one job per chunk.
        """
        return min(32, max(1, pending_count // (self.workers * 8)))

    def execute(self, pending, stats):
        """Ship ``pending`` as chunks and stream back their members.

        A chunk's completed members are always delivered before any
        member failure is raised.
        """
        units = trace_units(pending)
        if len(units) == 1:
            yield from SerialBackend().execute(pending, stats)
            return
        # One chunk per trace unit; trace-less jobs, units of one each,
        # ship in chunks sized from their count.
        chunks = [unit for unit in units if unit[0][1].trace is not None]
        loose = [unit[0] for unit in units if unit[0][1].trace is None]
        size = self._chunk_size(len(loose))
        chunks += [loose[index:index + size]
                   for index in range(0, len(loose), size)]
        pool = self._futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(chunks)))
        try:
            futures = {
                pool.submit(execute_chunk, [job for _, job in part]): part
                for part in chunks}
            for future in self._futures.as_completed(futures):
                part = futures[future]
                try:
                    outcomes = future.result()
                except Exception as exc:
                    # The whole chunk died (worker crash / unpicklable
                    # payload): attribute it to the first member.
                    key, job = part[0]
                    raise ShardFailure(key, job, exc,
                                       where="in a worker process") from exc
                yield from _deliver(part, outcomes,
                                    where="in a worker process")
        finally:
            # On a failure, drop queued chunks but wait out the ones in
            # flight (the interpreter's exit would wait for them anyway):
            # an executor still winding down at exit races CPython's
            # exit hook, which can print a spurious traceback after the
            # EngineError.
            pool.shutdown(wait=True, cancel_futures=True)


@dataclass
class _BatchState:
    """One queue batch's collection bookkeeping."""

    outstanding: set = field(default_factory=set)
    #: Dispatch count per key (1 = first execution).
    attempts: dict = field(default_factory=dict)
    #: Keys that have been re-dispatched at least once.
    retried: set = field(default_factory=set)
    #: Consecutive polls each key has looked lost (no spool file at
    #: all); acted on only after two passes, since a single pass can
    #: race a shard mid-transition (the probes are not one snapshot).
    lost_polls: dict = field(default_factory=dict)


class QueueBackend:
    """Distributed execution through the filesystem spool broker.

    Parameters
    ----------
    queue_dir:
        Spool root shared with the workers (default ``$REPRO_QUEUE_DIR``).
        Validated eagerly: a missing/non-directory/unwritable root raises
        :class:`~repro.errors.ConfigError` with a clean message.
    lease_timeout:
        Seconds without a heartbeat before a claim is considered dead and
        its shard re-dispatched (default ``$REPRO_QUEUE_LEASE_S`` or 60).
    max_retries:
        Re-dispatches allowed per shard (lease expiries, quarantined
        results and failed attempts all count) before the batch fails
        with an :class:`~repro.errors.EngineError`.
    local_workers:
        Worker threads the backend itself runs for the duration of each
        batch.  ``0`` (the default) relies entirely on detached
        ``python -m repro worker`` processes; ``N > 0`` makes the backend
        self-sufficient — used by the equivalence tests and handy for
        single-machine smoke runs of the full wire path.
    poll_interval:
        Collector sleep between polls that made no progress.
    """

    name = "queue"

    def __init__(self, queue_dir=None, *, lease_timeout: float | None = None,
                 max_retries: int = 3, local_workers: int = 0,
                 poll_interval: float = 0.05):
        if queue_dir is None:
            queue_dir = default_queue_root()
        if max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        self.broker = SpoolBroker(queue_dir, lease_timeout=lease_timeout)
        self.max_retries = int(max_retries)
        self.local_workers = int(local_workers)
        self.poll_interval = float(poll_interval)
        #: Fault events by class, across every batch of this backend.
        self.faults = dict.fromkeys(("lost", "expired", "corrupt",
                                     "failed"), 0)

    def attach_metrics(self, registry) -> None:
        """Register queue fault-recovery instruments on ``registry``.

        One callback counter per fault class reads :attr:`faults`
        (re-dispatches overall are the runner's ``engine_requeued``),
        and the broker's lease-watch hook feeds a heartbeat-lag
        histogram: how stale each live lease's beat looks at poll time.
        """
        for name in self.faults:
            registry.counter("queue_faults", "Queue fault events by class",
                             labels={"outcome": name},
                             fn=lambda name=name: self.faults[name])
        lag = registry.histogram(
            "queue_heartbeat_lag_s",
            "Seconds since each live lease's last heartbeat, per poll")
        self.broker.on_lease_lag = lag.observe

    # -- collection ----------------------------------------------------

    def _new_state(self, pending) -> _BatchState:
        return _BatchState(outstanding=set(pending),
                           attempts={key: 1 for key in pending})

    def _requeue(self, key: str, job: Job, state: _BatchState, stats,
                 cause: BaseException, resubmit: bool) -> None:
        """Charge one failed dispatch and re-dispatch or give up."""
        if state.attempts[key] > self.max_retries:
            raise ShardFailure(
                key, job, cause,
                where=f"on the queue backend after {state.attempts[key]} "
                      f"attempts") from cause
        state.attempts[key] += 1
        stats.requeued += 1
        if key not in state.retried:
            state.retried.add(key)
            stats.retried += 1
        if resubmit:
            self.broker.submit(key, job)

    def _step(self, pending, state: _BatchState, stats):
        """One poll pass: handle every event.

        Returns ``(completions, failure)``: the ``(key, WireResult)``
        pairs collected this pass, plus the first fatal
        :class:`ShardFailure` (or ``None``).
        A fatal failure never swallows sibling completions — the poll
        already consumed their ``done/`` files, so dropping them here
        would force the caller to re-simulate work that succeeded.
        Completed events are handled first for the same reason.
        """
        completions = []
        failure = None
        lost_this_pass = set()
        events = self.broker.poll(state.outstanding)
        events.sort(key=lambda event: not isinstance(event, CompletedEvent))
        for event in events:
            if failure is not None:
                break  # the batch is dead; stop charging retry budgets
            key = event.key
            job = pending[key]
            if isinstance(event, CompletedEvent):
                state.outstanding.discard(key)
                completions.append((key, event.result))
                continue
            try:
                self._handle_fault(event, key, job, state, stats,
                                   lost_this_pass)
            except ShardFailure as exc:
                failure = exc
        # A lost-candidate that produced any other outcome (or simply
        # reappeared) this pass was a mid-transition race, not a loss.
        for key in list(state.lost_polls):
            if key not in lost_this_pass:
                del state.lost_polls[key]
        return completions, failure

    def _handle_fault(self, event, key, job, state: _BatchState, stats,
                      lost_this_pass: set) -> None:
        """Recovery for one non-completion event (may raise ShardFailure)."""
        if isinstance(event, LostEvent):
            count = state.lost_polls.get(key, 0) + 1
            if count < 2:
                state.lost_polls[key] = count
                lost_this_pass.add(key)
                return
            state.lost_polls.pop(key, None)
            self.faults["lost"] += 1
            self._requeue(key, job, state, stats,
                          RemoteShardError(
                              "shard vanished from the spool (corrupt "
                              "pending payload quarantined by a worker, "
                              "or collected by another runner)"),
                          resubmit=True)
        elif isinstance(event, ExpiredEvent):
            # The broker already renamed the shard back to pending/.
            self.faults["expired"] += 1
            self._requeue(key, job, state, stats,
                          RemoteShardError(
                              f"worker lease expired after "
                              f"{self.broker.lease_timeout:g}s without "
                              f"a heartbeat (crashed or wedged worker)"),
                          resubmit=False)
        elif isinstance(event, CorruptEvent):
            self.faults["corrupt"] += 1
            self._requeue(key, job, state, stats,
                          RemoteShardError(
                              f"corrupt result quarantined at "
                              f"{event.quarantined}"),
                          resubmit=True)
        elif isinstance(event, FailedEvent):
            self.faults["failed"] += 1
            self._requeue(key, job, state, stats,
                          RemoteShardError(
                              f"shard raised on a queue worker:\n"
                              f"{event.error}"),
                          resubmit=True)

    def execute(self, pending, stats):
        state = self._new_state(pending)
        for key, job in pending.items():
            self.broker.submit(key, job)
        stop = threading.Event()
        workers = [
            threading.Thread(
                target=run_worker_loop,
                kwargs=dict(broker=self.broker, stop=stop,
                            poll_interval=min(self.poll_interval, 0.05)),
                daemon=True, name=f"queue-worker-{i}")
            for i in range(self.local_workers)]
        for thread in workers:
            thread.start()
        start = time.monotonic()
        warned = False
        collected_any = False
        try:
            while state.outstanding:
                completions, failure = self._step(pending, state, stats)
                collected_any = collected_any or bool(completions)
                # Deliver sibling completions before surfacing a fatal
                # failure: their done/ files are already consumed, so
                # they must reach the runner's memo/cache now or the
                # successful simulations would be lost with the batch.
                yield from completions
                if failure is not None:
                    raise failure
                if not completions and state.outstanding:
                    if not warned and self._looks_stalled(start,
                                                          collected_any):
                        warned = True
                    time.sleep(self.poll_interval)
        finally:
            stop.set()
            for thread in workers:
                # Bounded join: a local worker mid-simulation must not
                # delay (or, if the shard wedges, permanently block) a
                # fatal error from reaching the user.  The threads are
                # daemons, and a straggler's late done/ write is just a
                # valid answer for a future batch.
                thread.join(timeout=1.0)
            # Leave no orphans behind: un-collected shards of a failed
            # batch would otherwise keep detached workers busy forever.
            for key in state.outstanding:
                self.broker.forget(key)

    def _looks_stalled(self, start: float, collected_any: bool) -> bool:
        """Warn (once) when nothing has touched the spool for a while.

        A queue run with no live workers would otherwise hang silently —
        the single most likely operator mistake (no worker started, or a
        worker serving a different spool/code version).  Heuristic: no
        completion yet, no in-process workers, nothing currently
        claimed, and a full lease window has elapsed.
        """
        if collected_any or self.local_workers > 0:
            return False
        elapsed = time.monotonic() - start
        if elapsed <= self.broker.lease_timeout:
            return False
        if any(self.broker.claimed_dir.glob("*.job")):
            return False  # a worker is on it, just slow
        with _WORKERLESS_WARNED_LOCK:
            if str(self.broker.spool) in _WORKERLESS_WARNED_SPOOLS:
                # Another batch over this spool already warned: stay
                # quiet but stop re-checking for this batch too.
                return True
            _WORKERLESS_WARNED_SPOOLS.add(str(self.broker.spool))
        warnings.warn(
            f"queue backend: no worker has claimed any shard from "
            f"{self.broker.spool} after {elapsed:.1f}s; start "
            f"'python -m repro worker --queue {self.broker.root}' from the "
            f"same code version (the spool directory is fingerprinted)",
            RuntimeWarning, stacklevel=2)
        return True


def resolve_backend(spec, workers: int = 1, queue_dir=None):
    """Resolve a backend request into a backend instance.

    ``None`` derives the backend from ``workers``: serial for
    ``workers=1``, the process pool otherwise.  A string picks a backend
    by name (:data:`BACKEND_NAMES`); anything with an ``execute``
    attribute is used as-is.
    """
    if spec is None:
        return SerialBackend() if workers == 1 else PoolBackend(workers)
    if isinstance(spec, str):
        if spec == "serial":
            return SerialBackend()
        if spec == "pool":
            return PoolBackend(workers)
        if spec == "queue":
            if workers > 1:
                # An explicit flag must never be a silent no-op: the
                # queue backend's executors are the detached `repro
                # worker` processes, not runner-side subprocesses (and
                # in-process threads would serialize on the GIL).
                warnings.warn(
                    f"the queue backend executes shards on detached "
                    f"'repro worker' processes; --workers {workers} is "
                    f"ignored — start {workers} workers (or use "
                    f"--concurrency) instead", RuntimeWarning,
                    stacklevel=2)
            return QueueBackend(queue_dir)
        raise ConfigError(f"unknown backend {spec!r} "
                          f"(expected one of {', '.join(BACKEND_NAMES)})")
    if hasattr(spec, "execute"):
        return spec
    raise ConfigError(f"backend must be a name or an ExecutionBackend "
                      f"instance, got {type(spec).__name__!r}")
