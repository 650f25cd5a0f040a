"""Per-shard span tracing: records, sinks, and batch-scoped attribution.

Every shard the engine reads back from the disk cache or executes on a
backend emits one :class:`Span`: the job key, trace label, backend and
worker identity, and a monotonic per-stage timing breakdown (plan, cache
read, queue wait, execute, cache write, aggregate).  Spans are appended
as JSON lines to a :class:`JsonlTraceSink` selected with ``--trace-out
PATH`` or the ``$REPRO_TRACE_DIR`` environment variable; with neither
set they go to a :class:`NullTraceSink`, which drops them.  Every run
takes the same timed path either way — the sink only decides whether
the spans are kept.

The interesting accounting lives in :class:`BatchTrace`, one instance
per ``ParallelRunner.run`` batch.  It splits each executed shard's
wall-clock residency (submit → collect, measured runner-side on
``time.perf_counter``) into:

``execute``
    the worker-reported simulation time, which every backend delivers
    in the shard's :class:`~repro.engine.broker.WireResult` envelope:
    timed per trace-unit member by the serial backend and pool workers
    (:func:`~repro.engine.executors.execute_chunk`), and per shard by
    queue workers;
``cache_write``
    the runner-side put into the result cache;
``queue_wait``
    everything else — dispatch, spool residency, pickle transit.

The three stages sum to the measured residency *by construction*, so a
trace is self-consistent without any cross-machine clock agreement:
worker clocks only ever contribute durations, never timestamps.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

#: Bump when the span record shape changes incompatibly.
SPAN_VERSION = 1

#: Canonical stage names, in pipeline order.  Reports render stages in
#: this order; spans may carry any subset.
STAGES = ("plan", "cache_read", "queue_wait", "execute",
          "cache_write", "aggregate")

#: Environment variable naming a directory for per-process trace files.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"


@dataclass
class Span:
    """One traced unit of engine work (a shard, a hit, or a batch)."""

    key: str
    label: str = ""
    kind: str = ""
    backend: str = ""
    worker: str = ""
    batch: str = ""
    #: Offset from the batch origin, seconds (monotonic clock).
    start_s: float = 0.0
    duration_s: float = 0.0
    #: Stage name -> seconds; stages absent from the span took no time.
    stages: dict = field(default_factory=dict)
    cache_hit: bool = False
    status: str = "ok"
    version: int = SPAN_VERSION

    def to_dict(self) -> dict:
        return {"version": self.version, "key": self.key,
                "label": self.label, "kind": self.kind,
                "backend": self.backend, "worker": self.worker,
                "batch": self.batch, "start_s": self.start_s,
                "duration_s": self.duration_s,
                "stages": dict(self.stages),
                "cache_hit": self.cache_hit, "status": self.status}

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Rebuild a span from a decoded JSON record.

        Unknown keys are ignored and missing keys fall back to field
        defaults, so traces written by newer or older versions of the
        schema still load.
        """
        known = {"key", "label", "kind", "backend", "worker", "batch",
                 "start_s", "duration_s", "stages", "cache_hit",
                 "status", "version"}
        kwargs = {name: payload[name] for name in known
                  if name in payload}
        kwargs.setdefault("key", "")
        kwargs["stages"] = dict(kwargs.get("stages") or {})
        return cls(**kwargs)


class NullTraceSink:
    """The disabled sink: every operation is a no-op.

    A runner built without a sink traces into this one, so untraced runs
    assemble the same spans as traced ones and simply drop them.
    """

    def emit(self, span: Span) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class JsonlTraceSink:
    """Appends one JSON line per span to a file (thread-safe).

    The file is opened lazily on first emit (creating parent
    directories), so constructing a sink for a run that resolves
    entirely from memo leaves no empty file behind unless a batch
    actually emits.
    """

    def __init__(self, path):
        self.path = str(path)
        self._handle = None
        self._lock = threading.Lock()

    def emit(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        with self._lock:
            if self._handle is None:
                parent = os.path.dirname(os.path.abspath(self.path))
                os.makedirs(parent, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def default_trace_sink():
    """The sink implied by the environment, or None.

    ``$REPRO_TRACE_DIR`` names a directory; each process appends to its
    own ``repro-trace-<pid>.jsonl`` inside it so concurrent runners
    never interleave writes within a line.
    """
    root = os.environ.get(TRACE_DIR_ENV, "").strip()
    if not root:
        return None
    return JsonlTraceSink(
        os.path.join(root, f"repro-trace-{os.getpid()}.jsonl"))


def read_spans(path) -> list:
    """Load spans from a JSONL trace file.

    Malformed lines (say, the torn final line of a killed process) are
    skipped rather than fatal; a missing file raises ``OSError`` for the
    caller to translate.
    """
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if not isinstance(payload, dict):
                continue
            spans.append(Span.from_dict(payload))
    return spans


class BatchTrace:
    """Span assembly for one runner batch.

    The runner drives it through a small verb set — ``record_hit`` for
    cache hits, ``submitted``/``collected`` for backend work, ``failed``
    for shard errors, ``aggregated`` for reduction time, and a final
    ``finish`` that emits the batch-level span carrying plan and
    aggregate time.  All timestamps come from ``time.perf_counter``
    relative to a single batch origin.
    """

    def __init__(self, sink, backend: str = "", batch_label: str = ""):
        self.sink = sink
        self.backend = backend
        self.batch = batch_label
        self._origin = time.perf_counter()
        self._plan_s = 0.0
        self._aggregate_s = 0.0
        self._hit_read_s = 0.0
        #: key -> submit offset (seconds from origin).
        self._submitted: dict = {}
        self._lock = threading.Lock()

    def now(self) -> float:
        return time.perf_counter() - self._origin

    # -- planning ----------------------------------------------------

    def plan_done(self) -> None:
        """Close the planning stage (everything before dispatch).

        Cache reads that happened during planning are accounted to
        their own spans, so they are subtracted back out of plan time.
        """
        self._plan_s = max(0.0, self.now() - self._hit_read_s)

    def record_hit(self, key: str, job, read_s: float) -> None:
        """Emit the span for a shard served from the disk cache."""
        with self._lock:
            self._hit_read_s += read_s
        end = self.now()
        self.sink.emit(Span(
            key=key, label=str(getattr(job, "label", "") or ""),
            kind=str(getattr(job, "kind", "") or ""),
            backend=self.backend, batch=self.batch,
            start_s=max(0.0, end - read_s), duration_s=read_s,
            stages={"cache_read": read_s}, cache_hit=True))

    # -- backend execution -------------------------------------------

    def submitted(self, pending) -> None:
        """Stamp dispatch time for every (key, job) about to execute."""
        now = self.now()
        with self._lock:
            for key, job in pending:
                self._submitted[key] = (now, job)

    def collected(self, key: str, execute_s: float, worker: str,
                  cache_write_s: float = 0.0) -> None:
        """Emit the span for an executed shard now fully resolved.

        ``execute_s`` and ``worker`` come from the shard's completion
        envelope; the execute time is clamped into the runner-side
        residency left after the cache write.
        """
        end = self.now()
        with self._lock:
            submit_t, job = self._submitted.pop(key, (end, None))
        duration = max(0.0, end - submit_t)
        cache_write_s = min(max(0.0, cache_write_s), duration)
        budget = duration - cache_write_s
        execute_s = min(max(0.0, float(execute_s)), budget)
        queue_wait = max(0.0, budget - execute_s)
        stages = {"queue_wait": queue_wait, "execute": execute_s}
        if cache_write_s > 0.0:
            stages["cache_write"] = cache_write_s
        self.sink.emit(Span(
            key=key, label=str(getattr(job, "label", "") or ""),
            kind=str(getattr(job, "kind", "") or ""),
            backend=self.backend, worker=worker, batch=self.batch,
            start_s=submit_t, duration_s=duration, stages=stages))

    def failed(self, key: str) -> None:
        """Emit an error-status span for a shard that raised."""
        end = self.now()
        with self._lock:
            submit_t, job = self._submitted.pop(key, (end, None))
        self.sink.emit(Span(
            key=key, label=str(getattr(job, "label", "") or ""),
            kind=str(getattr(job, "kind", "") or ""),
            backend=self.backend, batch=self.batch,
            start_s=submit_t, duration_s=max(0.0, end - submit_t),
            stages={}, status="error"))

    # -- reduction ---------------------------------------------------

    def aggregated(self, seconds: float) -> None:
        with self._lock:
            self._aggregate_s += max(0.0, seconds)

    def finish(self, status: str = "ok") -> None:
        """Emit the batch-level span and flush the sink."""
        self.sink.emit(Span(
            key="", label=self.batch, kind="engine-batch",
            backend=self.backend, batch=self.batch,
            start_s=0.0, duration_s=self.now(),
            stages={"plan": self._plan_s,
                    "aggregate": self._aggregate_s},
            status=status))
        self.sink.flush()
