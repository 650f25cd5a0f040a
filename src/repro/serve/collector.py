"""The serve tier's scheduler: many campaigns, one engine runner.

A single background thread owns the shared
:class:`~repro.engine.runner.ParallelRunner` and advances every admitted
campaign round-robin, one chunk of its planned jobs at a time.  Because
all campaigns resolve through one runner, the engine's identity rules do
the multi-tenant heavy lifting for free: overlapping job keys across
campaigns hit the shared memo/disk cache and simulate exactly once, and
each campaign's share of the work is attributed by snapshotting
:class:`~repro.engine.runner.EngineStats` around its own chunks.

Streaming contract
------------------
A campaign's plan puts its grid-point jobs first, in
:meth:`Experiment.grid_points` order, and the canonical ResultSet emits
the grid records first in that same order — so as chunks complete, the
collector appends exactly the canonical-order *prefix* of the final
rows.  The ``?after=`` cursor therefore never sees a row move or
reorder: rows only append, and the finished buffer equals the canonical
ResultSet row-for-row (which is what makes the served CSV export
bit-identical to a local run).

Back-pressure and quotas are enforced at admission, under the same lock
the worker thread uses: a submission beyond the backlog bound raises
:class:`BacklogFull` (HTTP 429 + Retry-After), a spec planning more jobs
than the per-campaign cap raises :class:`SpecTooLarge` (HTTP 413), and a
tenant already at their in-flight bound is declined until their work
drains.
"""

from __future__ import annotations

import threading
import warnings as warnings_module

from repro.engine.broker import spool_status
from repro.engine.runner import ParallelRunner
from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry, Sample
from repro.experiments.experiment import Experiment
from repro.experiments.spec import ExperimentSpec
from repro.serve.registry import (
    ACTIVE_STATES,
    CampaignRecord,
    CampaignRegistry,
    jsonable,
    record_row,
)


class BacklogFull(Exception):
    """Admission declined: the service is at its backlog bound (HTTP 429)."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class SpecTooLarge(Exception):
    """Admission declined: the spec plans more jobs than allowed (413)."""


class UnknownCampaign(KeyError):
    """No campaign with that id exists (HTTP 404)."""


class _Active:
    """Collector-side execution state of one admitted campaign."""

    def __init__(self, record: CampaignRecord, experiment: Experiment,
                 jobs: list):
        self.record = record
        self.experiment = experiment
        self.jobs = jobs
        self.next_index = 0
        #: Grid points whose records can stream as a canonical prefix.
        self.grid_points = experiment.grid_points()
        self.emitted_grid = 0

    @property
    def remaining(self) -> int:
        return len(self.jobs) - self.next_index


class Collector:
    """Single-threaded multiplexer of campaigns onto one runner."""

    def __init__(self, runner: ParallelRunner,
                 registry: CampaignRegistry, *,
                 chunk_jobs: int = 32,
                 backlog_jobs: int = 10_000,
                 tenant_jobs: int = 5_000,
                 max_spec_jobs: int = 50_000,
                 retry_after_s: float = 5.0,
                 memo_limit: int = 200_000):
        if chunk_jobs < 1:
            raise ConfigError(f"chunk_jobs must be >= 1 (got {chunk_jobs})")
        if backlog_jobs < 1 or tenant_jobs < 1 or max_spec_jobs < 1:
            raise ConfigError("serve quotas must be >= 1")
        self.runner = runner
        self.registry = registry
        self.chunk_jobs = int(chunk_jobs)
        self.backlog_jobs = int(backlog_jobs)
        self.tenant_jobs = int(tenant_jobs)
        self.max_spec_jobs = int(max_spec_jobs)
        self.retry_after_s = float(retry_after_s)
        self.memo_limit = int(memo_limit)
        self.lock = threading.RLock()
        #: Admission order; the worker round-robins over this list.
        self._active: list[_Active] = []
        #: Every campaign this process knows, by id (active + terminal).
        self._records: dict[str, CampaignRecord] = {}
        self._next_turn = 0
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None
        #: Shared with the runner when it has one, so one Prometheus
        #: scrape sees engine counters and serve gauges side by side.
        #: (Named to avoid shadowing the :meth:`metrics` JSON body.)
        self.metrics_registry: MetricsRegistry = \
            getattr(runner, "metrics", None) or MetricsRegistry()
        self._register_instruments()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-collector")
        self._thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        self._stopping.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def resume(self) -> int:
        """Re-admit persisted campaigns after a restart.

        Terminal campaigns are loaded for status/results service;
        interrupted ones (``planned``/``running``) are re-planned from
        their persisted spec and re-executed from scratch — the shared
        result cache turns the replay into disk hits, and the row
        buffer restarts from zero so the cursor contract holds within
        each server lifetime.  Returns the number resumed.
        """
        resumed = 0
        with self.lock:
            for record in self.registry.load_all():
                if record.id in self._records:
                    continue
                self._records[record.id] = record
                if record.state not in ACTIVE_STATES:
                    continue
                try:
                    spec = ExperimentSpec.from_dict(record.spec)
                    experiment = Experiment(spec, runner=self.runner)
                    jobs = experiment.plan()
                except ConfigError as exc:
                    record.state = "failed"
                    record.error = (f"could not re-plan after restart: "
                                    f"{exc}")
                    self.registry.save(record)
                    continue
                record.state = "planned"
                record.done_jobs = 0
                record.rows = []
                record.warnings = []
                record.total_jobs = len(jobs)
                self.registry.save(record)
                self._active.append(_Active(record, experiment, jobs))
                resumed += 1
        if resumed:
            self._wake.set()
        return resumed

    # -- admission -----------------------------------------------------

    def submit(self, spec: ExperimentSpec, tenant: str = "default"
               ) -> CampaignRecord:
        """Admit one campaign (or raise the appropriate decline)."""
        tenant = str(tenant or "default")
        experiment = Experiment(spec, runner=self.runner)
        jobs = experiment.plan()  # ConfigError propagates (HTTP 400)
        if len(jobs) > self.max_spec_jobs:
            raise SpecTooLarge(
                f"spec {spec.name!r} plans {len(jobs)} jobs, above the "
                f"per-campaign cap of {self.max_spec_jobs}")
        with self.lock:
            backlog = self.backlog()
            if backlog >= self.backlog_jobs:
                raise BacklogFull(
                    f"backlog is full ({backlog} jobs in flight, bound "
                    f"{self.backlog_jobs}); retry later",
                    self.retry_after_s)
            in_flight = self.tenant_in_flight(tenant)
            if in_flight and in_flight + len(jobs) > self.tenant_jobs:
                raise BacklogFull(
                    f"tenant {tenant!r} has {in_flight} jobs in flight; "
                    f"admitting {len(jobs)} more would exceed the "
                    f"per-tenant bound of {self.tenant_jobs}",
                    self.retry_after_s)
            record = self.registry.new_record(
                name=spec.name, tenant=tenant, spec=spec.to_dict(),
                total_jobs=len(jobs))
            self.registry.save(record)
            self._records[record.id] = record
            self._active.append(_Active(record, experiment, jobs))
        self._wake.set()
        return record

    # -- introspection (all under the lock) ----------------------------

    def backlog(self) -> int:
        """Jobs admitted but not yet executed, across every campaign."""
        with self.lock:
            return sum(active.remaining for active in self._active)

    def tenant_in_flight(self, tenant: str) -> int:
        with self.lock:
            return sum(active.remaining for active in self._active
                       if active.record.tenant == tenant)

    def _get(self, campaign_id: str) -> CampaignRecord:
        record = self._records.get(campaign_id)
        if record is None:
            raise UnknownCampaign(f"unknown campaign {campaign_id!r}")
        return record

    def status(self, campaign_id: str) -> dict:
        with self.lock:
            return self._get(campaign_id).status_dict()

    def rows_after(self, campaign_id: str, after: int = 0
                   ) -> tuple[list, dict]:
        """Rows past the cursor plus the snapshot the headers carry."""
        with self.lock:
            record = self._get(campaign_id)
            after = max(0, int(after))
            rows = [dict(row) for row in record.rows[after:]]
            info = {"state": record.state,
                    "next_after": after + len(rows),
                    "rows_available": len(record.rows)}
            return rows, info

    def artifact_rows(self, campaign_id: str, name: str) -> list:
        """Rendered artifact rows (raises until the campaign is done)."""
        with self.lock:
            record = self._get(campaign_id)
            if record.state != "done":
                raise ConfigError(
                    f"campaign {campaign_id} is {record.state}; artifacts "
                    f"render once it is done")
            if name not in record.artifact_rows:
                known = ", ".join(sorted(record.artifact_rows)) or "(none)"
                raise UnknownCampaign(
                    f"campaign {campaign_id} has no artifact {name!r}; "
                    f"known: {known}")
            return [dict(row) for row in record.artifact_rows[name]]

    def cancel(self, campaign_id: str) -> dict:
        """Cancel an active campaign (terminal ones are left as-is)."""
        with self.lock:
            record = self._get(campaign_id)
            if record.active:
                record.state = "cancelled"
                self._active = [active for active in self._active
                                if active.record.id != campaign_id]
                self.registry.save(record)
            return record.status_dict()

    def campaigns(self) -> list[dict]:
        with self.lock:
            return [record.status_dict()
                    for record in sorted(self._records.values(),
                                         key=lambda r: (r.created_s, r.id))]

    def _tally(self) -> tuple[dict, dict]:
        """Campaign counts by state and active usage by tenant (the
        caller holds the lock)."""
        states: dict[str, int] = {}
        for record in self._records.values():
            states[record.state] = states.get(record.state, 0) + 1
        tenants: dict[str, dict] = {}
        for active in self._active:
            usage = tenants.setdefault(
                active.record.tenant,
                {"active_campaigns": 0, "in_flight_jobs": 0})
            usage["active_campaigns"] += 1
            usage["in_flight_jobs"] += active.remaining
        return states, tenants

    def metrics(self) -> dict:
        """The ``GET /v1/metrics`` body: engine, queue, cache, tenants."""
        with self.lock:
            states, tenants = self._tally()
            payload = {
                "engine": dict(self.runner.stats.as_dict(),
                               memo_entries=self.runner.memo_size),
                "backlog_jobs": sum(active.remaining
                                    for active in self._active),
                "backlog_bound": self.backlog_jobs,
                "campaign_states": states,
                "tenants": tenants,
            }
        payload["queue"] = self._queue_metrics()
        payload["cache"] = self._cache_metrics()
        return payload

    def _register_instruments(self) -> None:
        """Serve-tier gauges and dynamic-label samples for a scrape."""
        registry = self.metrics_registry
        registry.gauge("serve_backlog_jobs",
                       "Jobs admitted but not yet executed",
                       fn=self.backlog)
        registry.gauge("serve_backlog_bound",
                       "Admission bound on the serve backlog",
                       fn=lambda: self.backlog_jobs)
        registry.gauge("serve_memo_entries",
                       "Entries in the shared runner's in-memory memo",
                       fn=lambda: self.runner.memo_size)
        registry.collector(self._metric_samples)

    def _metric_samples(self):
        """Per-state / per-tenant gauges whose label sets are dynamic."""
        samples = []
        with self.lock:
            states, tenants = self._tally()
            for state, count in sorted(states.items()):
                samples.append(Sample(
                    "serve_campaigns", count, (("state", state),),
                    help="Campaigns known to this process, by state"))
            for tenant, usage in sorted(tenants.items()):
                labels = (("tenant", tenant),)
                samples.append(Sample(
                    "serve_tenant_active_campaigns",
                    usage["active_campaigns"], labels,
                    help="Active campaigns per tenant"))
                samples.append(Sample(
                    "serve_tenant_in_flight_jobs",
                    usage["in_flight_jobs"], labels,
                    help="Unexecuted jobs per tenant"))
        status = self._queue_metrics()
        if status is not None:
            current = next((entry for entry in status["versions"]
                            if entry.get("current")), None)
            if current is not None:
                for state in ("pending", "claimed", "done", "failed"):
                    samples.append(Sample(
                        "queue_spool_shards", current.get(state, 0),
                        (("state", state),),
                        help="Current-version spool shards, by state"))
        return samples

    def prometheus(self) -> str:
        """The ``GET /v1/metrics`` body under ``Accept: text/plain``."""
        return self.metrics_registry.to_prometheus()

    def _queue_metrics(self):
        broker = getattr(self.runner.backend, "broker", None)
        if broker is None:
            return None
        try:
            return spool_status(broker.root)
        except ConfigError:
            return None

    def _cache_metrics(self):
        cache = self.runner.cache
        if cache is None:
            return None
        try:
            return {"root": str(cache.root),
                    "entries": cache.entry_count(),
                    "bytes": cache.total_bytes(),
                    "max_bytes": cache.max_bytes}
        except OSError:
            return None

    # -- the worker thread ---------------------------------------------

    def _run(self) -> None:
        while not self._stopping.is_set():
            if not self._step():
                self._wake.wait(timeout=0.05)
                self._wake.clear()

    def _pick(self) -> _Active | None:
        """Next campaign with work, round-robin from the last turn."""
        with self.lock:
            if not self._active:
                return None
            count = len(self._active)
            for offset in range(count):
                active = self._active[(self._next_turn + offset) % count]
                if active.remaining > 0 or active.record.state != "done":
                    self._next_turn = \
                        (self._next_turn + offset + 1) % count
                    return active
            return None

    def _step(self) -> bool:
        """Advance one campaign by one chunk; False when idle."""
        active = self._pick()
        if active is None:
            return False
        record = active.record
        with self.lock:
            if record.state == "planned":
                record.state = "running"
            chunk = active.jobs[active.next_index:
                                active.next_index + self.chunk_jobs]
        before = self.runner.stats.as_dict()
        try:
            caught = self._run_chunk(active, chunk)
        except Exception as exc:  # noqa: BLE001 - one campaign, not the loop
            self._fail(active, exc, before)
            return True
        with self.lock:
            if record.state == "cancelled":
                # Raced with DELETE: the chunk's results stay cached
                # (harmless — content-addressed), the campaign is gone.
                return True
            active.next_index += len(chunk)
            record.done_jobs = active.next_index
            self._merge_stats(record, before)
            self._note_warnings(record, caught)
            self._stream_ready_rows(active)
            finished = active.remaining == 0
            if not finished:
                self.registry.save(record)
        if finished:
            self._finalize(active)
        return True

    def _run_chunk(self, active: _Active, chunk: list) -> list:
        """Execute one chunk, returning the warnings it raised."""
        if not chunk:
            return []
        label = f"{active.record.name or active.record.id}" \
                f":{active.next_index}"
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            self.runner.run(chunk, label=label)
        return list(caught)

    def _finalize(self, active: _Active) -> None:
        """Collect the canonical rows and render every artifact."""
        record = active.record
        before = self.runner.stats.as_dict()
        try:
            with warnings_module.catch_warnings(record=True) as caught:
                warnings_module.simplefilter("always")
                results = active.experiment.run()
                artifact_rows = {
                    name: [{str(key): jsonable(value)
                            for key, value in row.items()}
                           for row in rows]
                    for name, rows
                    in active.experiment.artifacts().items()}
        except Exception as exc:  # noqa: BLE001 - one campaign, not the loop
            self._fail(active, exc, before)
            return
        with self.lock:
            if record.state == "cancelled":
                return
            self._note_warnings(record, caught)
            all_rows = [record_row(rec) for rec in results]
            # The streamed prefix was produced by the same record
            # builders in the same order; extend, never rewrite, so the
            # cursor contract holds.
            record.rows.extend(all_rows[len(record.rows):])
            record.artifact_rows = artifact_rows
            record.state = "done"
            record.done_jobs = record.total_jobs
            self._active = [entry for entry in self._active
                            if entry is not active]
            self.registry.save(record)
        if self.runner.memo_size > self.memo_limit:
            # Bound the long-lived process; re-resolving a dropped key
            # later is a disk hit, not a re-simulation.
            self.runner.reset_memo()

    def _stream_ready_rows(self, active: _Active) -> None:
        """Append the grid-record prefix whose jobs have resolved."""
        record = active.record
        ready = min(active.next_index, len(active.grid_points))
        while active.emitted_grid < ready:
            point = active.grid_points[active.emitted_grid]
            record.rows.append(record_row(
                active.experiment._point_record(*point)))
            active.emitted_grid += 1

    def _fail(self, active: _Active, exc: Exception, before: dict) -> None:
        """Retire a campaign whose chunk or finalization raised."""
        record = active.record
        with self.lock:
            record.state = "failed"
            record.error = str(exc) or type(exc).__name__
            self._merge_stats(record, before)
            self._active = [entry for entry in self._active
                            if entry is not active]
            self.registry.save(record)

    def _merge_stats(self, record: CampaignRecord, before: dict) -> None:
        """Attribute the runner counters moved since ``before``."""
        for name, delta in self.runner.stats.delta(before).items():
            if delta:
                record.stats[name] = record.stats.get(name, 0) + delta

    @staticmethod
    def _note_warnings(record: CampaignRecord, caught) -> None:
        for warning in caught:
            text = (f"{type(warning.message).__name__}: "
                    f"{warning.message}")
            if text not in record.warnings:
                record.warnings.append(text)
