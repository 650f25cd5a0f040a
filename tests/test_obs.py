"""Telemetry layer: metrics instruments, span tracing, reporting.

Covers the :mod:`repro.obs` package plus its integration points — the
runner's trace sink and the registry counters that read its stats, the
``repro trace report`` and ``repro cache --stats`` CLI arms, and the
progress listeners.  The two load-bearing invariants are property-tested
with hypothesis: histogram merge equals the histogram of the
concatenated observations, and span serialization round-trips through
JSON.

The golden-identity guard matters most: running the same batch with
tracing on and off must produce bit-identical results, because
telemetry that perturbs the experiment would invalidate every
reproduction claim downstream.
"""

import json
import os
import pickle
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    EngineStats,
    Job,
    NullProgress,
    ParallelRunner,
    PoolBackend,
    QueueBackend,
    ResultCache,
    SpoolBroker,
    TextProgress,
    job_key,
)
from repro.engine.broker import WorkerSupervisor
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
)
from repro.obs.report import render_report, summarize
from repro.obs.trace import (
    STAGES,
    BatchTrace,
    JsonlTraceSink,
    NullTraceSink,
    Span,
    read_spans,
)

pytestmark = pytest.mark.engine


def sleep_jobs(count: int, tag: str = "t") -> list:
    return [Job(kind="engine-selftest-sleep",
                options=(("note", f"{tag}{index}"),))
            for index in range(count)]


# ---------------------------------------------------------------------------
# Instruments


class TestInstruments:
    def test_counter_reads_its_owners_count(self):
        counts = {"done": 5}
        counter = Counter("c", fn=lambda: counts["done"])
        assert counter.value == 5
        counts["done"] += 1
        assert counter.value == 6
        assert isinstance(counter.value, int)
        assert Counter("sick", fn=lambda: 1 / 0).value == 0

    def test_gauge_callback_wins_and_swallows_errors(self):
        gauge = Gauge("g", fn=lambda: 7)
        assert gauge.value == 7.0
        sick = Gauge("sick", fn=lambda: 1 / 0)
        assert sick.value == 0.0

    def test_histogram_buckets_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, float("inf")))

    def test_histogram_observe_and_cumulative(self):
        hist = Histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        assert hist.bucket_counts() == [1, 2, 1]
        assert hist.cumulative() == [1, 3, 4]
        assert hist.count == 4
        assert hist.sum == pytest.approx(6.05)


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("jobs", "help", fn=lambda: 1)
        second = registry.counter("jobs", fn=lambda: 2)
        assert first is second
        assert second.value == 1  # the first callback is kept

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", fn=lambda: 0)
        with pytest.raises(ValueError):
            registry.gauge("x", fn=lambda: 0)

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        faults = {"lost": 1, "failed": 0}
        lost = registry.counter("faults", labels={"outcome": "lost"},
                                fn=lambda: faults["lost"])
        failed = registry.counter("faults", labels={"outcome": "failed"},
                                  fn=lambda: faults["failed"])
        assert lost is not failed
        snap = registry.snapshot()
        assert snap["faults{outcome=lost}"] == 1
        assert snap["faults{outcome=failed}"] == 0

    def test_collector_samples_in_snapshot_and_text(self):
        registry = MetricsRegistry()
        registry.collector(lambda: [
            Sample("tenants", 3, (("tenant", "acme"),), help="per tenant")])
        registry.collector(lambda: 1 / 0)  # sick collector is skipped
        assert registry.snapshot()["tenants{tenant=acme}"] == 3
        text = registry.to_prometheus()
        assert 'repro_tenants{tenant="acme"} 3' in text

    def test_prometheus_text_is_well_formed(self):
        import re
        registry = MetricsRegistry()
        registry.counter("done", "jobs done", fn=lambda: 2)
        registry.gauge("depth", "queue depth", fn=lambda: 1.5)
        hist = registry.histogram("lat", "latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(10.0)
        text = registry.to_prometheus()
        assert "# TYPE repro_done_total counter" in text
        assert "repro_done_total 2" in text
        assert 'repro_lat_bucket{le="+Inf"} 2' in text
        assert "repro_lat_sum" in text and "repro_lat_count 2" in text
        sample = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
                            r"(\{[^}]*\})? -?[0-9.e+E-]+$")
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert sample.match(line), line

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.gauge("g", labels={"path": 'a"b\\c\nd'}, fn=lambda: 1)
        text = registry.to_prometheus()
        assert r'path="a\"b\\c\nd"' in text


# ---------------------------------------------------------------------------
# Spans and sinks


span_dicts = st.fixed_dictionaries({
    "key": st.text(max_size=16),
    "label": st.text(max_size=16),
    "kind": st.text(max_size=16),
    "backend": st.sampled_from(["serial", "pool", "queue"]),
    "worker": st.text(max_size=8),
    "batch": st.text(max_size=8),
    "start_s": st.floats(0.0, 1e6),
    "duration_s": st.floats(0.0, 1e3),
    "stages": st.dictionaries(st.sampled_from(STAGES),
                              st.floats(0.0, 1e3), max_size=len(STAGES)),
    "cache_hit": st.booleans(),
    "status": st.sampled_from(["ok", "error"]),
})


class TestSpans:
    @settings(max_examples=50, deadline=None)
    @given(payload=span_dicts)
    def test_span_round_trips_through_json(self, payload):
        span = Span(**payload)
        clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert clone.to_dict() == span.to_dict()

    def test_from_dict_tolerates_unknown_and_missing_fields(self):
        span = Span.from_dict({"key": "k", "future_field": 1})
        assert span.key == "k"
        assert span.status == "ok"
        assert span.stages == {}

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "spans.jsonl"
        sink = JsonlTraceSink(path)
        sink.emit(Span(key="a", kind="j"))
        sink.emit(Span(key="b", kind="j", status="error"))
        sink.close()
        spans = read_spans(path)
        assert [span.key for span in spans] == ["a", "b"]
        assert spans[1].status == "error"

    def test_read_spans_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "dirty.jsonl"
        path.write_text('{"key": "good"}\nnot json\n[1, 2]\n')
        assert [span.key for span in read_spans(path)] == ["good"]

    def test_null_sink_is_disabled(self):
        """Without a sink the runner traces into the null sink, which
        accepts every span and keeps none."""
        assert isinstance(ParallelRunner(workers=1).trace_sink,
                          NullTraceSink)
        sink = NullTraceSink()
        sink.emit(Span(key="k"))
        sink.flush()
        sink.close()

    def test_batch_trace_attributes_stages_exactly(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        trace = BatchTrace(sink, backend="serial", batch_label="b")
        job = Job(kind="engine-selftest-sleep", options=(("note", "x"),))
        key = job_key(job)
        trace.plan_done()
        trace.submitted({key: job}.items())
        trace.collected(key, 0.002, "w1", cache_write_s=0.0005)
        trace.finish("ok")
        sink.close()
        shard = [s for s in read_spans(tmp_path / "t.jsonl")
                 if s.kind != "engine-batch"][0]
        parts = sum(shard.stages.get(stage, 0.0)
                    for stage in ("queue_wait", "execute", "cache_write"))
        assert parts == pytest.approx(shard.duration_s, rel=1e-6)
        assert shard.worker == "w1"


# ---------------------------------------------------------------------------
# EngineStats: plain counts, read by the registry's counters


class TestEngineStatsView:
    def test_counters_live_in_the_registry(self):
        registry = MetricsRegistry()
        stats = EngineStats(registry=registry)
        stats.simulated += 1
        stats.simulated += 2
        assert stats.simulated == 3
        assert registry.snapshot()["engine_simulated"] == 3
        assert "repro_engine_simulated_total 3" in registry.to_prometheus()
        assert set(registry.snapshot()) == {
            f"engine_{name}" for name in EngineStats.COUNTERS}

    def test_keyword_construction_and_equality(self):
        assert EngineStats(memory_hits=2, disk_hits=1).hits == 3
        assert EngineStats(simulated=1) == EngineStats(simulated=1)
        assert EngineStats(simulated=1) != EngineStats(simulated=2)

    def test_unknown_kwarg_raises(self):
        with pytest.raises(TypeError):
            EngineStats(bogus=1)

    def test_pickle_round_trip(self):
        registry = MetricsRegistry()
        stats = EngineStats(registry=registry, simulated=4, errors=1)
        copy = pickle.loads(pickle.dumps(stats))
        assert copy == stats
        copy.simulated += 1  # a copy: the registry still reads the original
        assert registry.snapshot()["engine_simulated"] == 4

    def test_delta_tolerates_missing_counters(self):
        """Counters added after a snapshot was persisted must read as 0
        in the baseline, not KeyError (old registry JSONs stay loadable)."""
        stats = EngineStats(simulated=5, retried=2)
        old_snapshot = {"simulated": 3}  # persisted before 'retried' existed
        delta = stats.delta(old_snapshot)
        assert delta["simulated"] == 2
        assert delta["retried"] == 2

    def test_delta_tolerates_none_values(self):
        delta = EngineStats(simulated=1).delta({"simulated": None})
        assert delta["simulated"] == 1


# ---------------------------------------------------------------------------
# Progress listeners


class TestProgress:
    def test_null_progress_is_silent(self):
        listener = NullProgress()
        listener.start(3)
        listener.advance(1, 3)
        listener.finish(3)  # nothing to assert: must simply not raise

    def test_text_progress_emits_and_clears(self):
        import io
        stream = io.StringIO()
        listener = TextProgress(stream=stream)
        listener.start(3, "lbl")
        listener.advance(2, 3, "lbl")
        listener.finish(3, "lbl")
        text = stream.getvalue()
        assert "0/3 lbl" in text and "2/3 lbl" in text

    def test_text_progress_skips_tiny_batches(self):
        import io
        stream = io.StringIO()
        listener = TextProgress(stream=stream, min_total=2)
        listener.start(1)
        listener.advance(1, 1)
        listener.finish(1)
        assert stream.getvalue() == ""

    def test_text_progress_survives_closed_stream(self):
        import io
        stream = io.StringIO()
        listener = TextProgress(stream=stream)
        listener.start(5)
        stream.close()
        listener.advance(1, 5)  # must go silent, not raise
        listener.finish(5)


# ---------------------------------------------------------------------------
# Runner integration


class TestRunnerTracing:
    def run_traced(self, tmp_path, *, workers=1, backend=None, cache=None,
                   jobs=None, name="run.jsonl"):
        path = tmp_path / name
        runner = ParallelRunner(workers=workers, cache=cache,
                                backend=backend,
                                trace_sink=JsonlTraceSink(path))
        results = runner.run(jobs if jobs is not None else sleep_jobs(4),
                             label="traced")
        return results, read_spans(path), runner

    def test_one_span_per_executed_shard(self, tmp_path):
        _, spans, _ = self.run_traced(tmp_path)
        shards = [span for span in spans if span.kind != "engine-batch"]
        batches = [span for span in spans if span.kind == "engine-batch"]
        assert len(shards) == 4
        assert len(batches) == 1
        assert all(span.backend == "serial" for span in shards)
        # Serial members carry the same envelope as pool members.
        assert all(span.worker == f"pid:{os.getpid()}" for span in shards)
        assert all("execute" in span.stages for span in shards)

    def test_stage_timings_sum_to_span_duration(self, tmp_path):
        _, spans, _ = self.run_traced(tmp_path)
        for span in spans:
            if span.kind == "engine-batch" or span.cache_hit:
                continue
            parts = sum(span.stages.get(stage, 0.0)
                        for stage in ("queue_wait", "execute",
                                      "cache_write"))
            assert parts == pytest.approx(span.duration_s, rel=1e-6)

    def test_pool_backend_emits_worker_tagged_spans(self, tmp_path):
        _, spans, _ = self.run_traced(
            tmp_path, workers=2, backend=PoolBackend(workers=2))
        shards = [span for span in spans if span.kind != "engine-batch"]
        assert len(shards) == 4
        assert all(span.backend == "pool" for span in shards)
        assert all(span.worker.startswith("pid:") for span in shards)
        assert all(span.stages.get("execute", 0.0) >= 0.0
                   for span in shards)

    def test_cache_hits_emit_hit_spans(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        jobs = sleep_jobs(3, tag="hit")
        warm = ParallelRunner(workers=1, cache=cache)
        warm.run(jobs)
        _, spans, runner = self.run_traced(
            tmp_path, cache=ResultCache(root=tmp_path / "cache"),
            jobs=jobs)
        hits = [span for span in spans if span.cache_hit]
        assert len(hits) == 3
        assert runner.stats.disk_hits == 3
        assert all("cache_read" in span.stages for span in hits)

    def test_tracing_does_not_perturb_results(self, tmp_path):
        jobs = sleep_jobs(4, tag="ident")
        plain = ParallelRunner(workers=1).run(jobs)
        traced, _, _ = self.run_traced(tmp_path, jobs=jobs)
        assert pickle.dumps(plain) == pickle.dumps(traced)

    def test_disabled_sink_builds_no_trace(self, tmp_path, monkeypatch):
        """A NullTraceSink run writes no span anywhere, and its results
        are pickle-identical to a traced run's."""
        jobs = sleep_jobs(2, tag="null")
        monkeypatch.chdir(tmp_path)
        runner = ParallelRunner(workers=1, trace_sink=NullTraceSink())
        untraced = runner.run(jobs)
        assert list(tmp_path.iterdir()) == []
        traced, spans, _ = self.run_traced(tmp_path / "traced", jobs=jobs)
        assert len(spans) == 3  # two shards plus the batch span
        assert pickle.dumps(untraced) == pickle.dumps(traced)

    def test_failed_shard_emits_error_span(self, tmp_path):
        path = tmp_path / "err.jsonl"
        runner = ParallelRunner(workers=1,
                                trace_sink=JsonlTraceSink(path))
        bad = [Job(kind="engine-selftest-crash",
                   options=(("note", "boom"),))]
        with pytest.raises(Exception):
            runner.run(bad, label="failing")
        statuses = {span.kind: span.status for span in read_spans(path)}
        assert statuses["engine-selftest-crash"] == "error"
        assert statuses["engine-batch"] == "error"


# ---------------------------------------------------------------------------
# Reporting and CLI arms


class TestReporting:
    def test_summarize_counts_and_hit_rates(self, tmp_path):
        spans = [
            Span(key="a", kind="k", duration_s=1.0,
                 stages={"execute": 1.0}),
            Span(key="b", kind="k", cache_hit=True, duration_s=0.1,
                 stages={"cache_read": 0.1}),
            Span(key="c", kind="k", status="error"),
            Span(key="", kind="engine-batch", duration_s=2.0,
                 stages={"plan": 0.5}),
        ]
        summary = summarize(spans)
        assert summary["shards"] == 3
        assert summary["batches"] == 1
        assert summary["errors"] == 1
        assert summary["wall_s"] == pytest.approx(2.0)
        (kind_row,) = summary["hit_rates"]
        assert kind_row["hits"] == 1
        assert kind_row["executed"] == 1
        assert kind_row["hit_rate"] == pytest.approx(0.5)

    def test_slowest_shards_rank_by_execute_not_residency(self):
        # The longer-resident shard mostly waited; the other one worked.
        spans = [
            Span(key="waited", kind="k", duration_s=5.0,
                 stages={"queue_wait": 4.9, "execute": 0.1}),
            Span(key="worked", kind="k", duration_s=2.0,
                 stages={"queue_wait": 0.5, "execute": 1.5}),
        ]
        slowest = summarize(spans)["slowest"]
        assert [row["key"] for row in slowest] == ["worked", "waited"]

    def test_render_report_mentions_every_stage_observed(self):
        spans = [Span(key="a", kind="k", duration_s=1.0,
                      stages={"execute": 0.7, "queue_wait": 0.3})]
        text = render_report(spans)
        assert "execute" in text and "queue_wait" in text
        assert "1 shard span(s)" in text

    def test_trace_report_cli(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "cli.jsonl"
        runner = ParallelRunner(workers=1,
                                trace_sink=JsonlTraceSink(path))
        runner.run(sleep_jobs(2, tag="cli"))
        assert main(["trace", "report", str(path)]) == 0
        assert "Per-stage breakdown" in capsys.readouterr().out
        assert main(["trace", "report", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"] == 2
        assert main(["trace", "report", str(tmp_path / "nope.jsonl")]) == 2

    def test_trace_generate_still_validates(self, capsys):
        from repro.cli import main
        assert main(["trace"]) == 2
        assert "needs --profile and --out" in capsys.readouterr().err


class TestCacheStatsCli:
    def test_cache_stats_json(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        runner = ParallelRunner(workers=1, cache=ResultCache.default())
        runner.run(sleep_jobs(3, tag="stats"))
        runner.run(sleep_jobs(3, tag="stats"))  # memo hits, not disk
        fresh = ParallelRunner(workers=1, cache=ResultCache.default())
        fresh.run(sleep_jobs(3, tag="stats"))  # disk hits
        fresh.cache.flush()

        assert main(["cache", "--stats", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == 3
        assert report["hits"] == 3
        assert report["misses"] == 3
        assert report["hit_rate"] == pytest.approx(0.5)
        assert report["versions"][0]["current"] is True

    def test_cache_stats_is_read_only_and_exclusive(self, tmp_path,
                                                    monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["cache", "--stats", "--clear"]) == 2
        assert main(["cache", "--json"]) == 2
        capsys.readouterr()
        assert main(["cache", "--stats"]) == 0
        assert "hit rate" in capsys.readouterr().out

    def test_prune_resets_the_hit_rate_window(self, tmp_path,
                                              monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        runner = ParallelRunner(workers=1, cache=ResultCache.default())
        runner.run(sleep_jobs(2, tag="w"))
        runner.cache.flush()
        assert main(["cache", "--prune"]) == 0
        capsys.readouterr()
        assert main(["cache", "--stats", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hits"] == 0 and report["misses"] == 0
        assert report["hit_rate"] is None


# ---------------------------------------------------------------------------
# Queue, broker and supervisor telemetry


class TestQueueTelemetry:
    def test_traced_queue_run_tags_spans_with_worker(self, tmp_path):
        backend = QueueBackend(tmp_path / "spool", local_workers=2,
                               lease_timeout=60.0, poll_interval=0.01)
        path = tmp_path / "queue.jsonl"
        runner = ParallelRunner(backend=backend,
                                trace_sink=JsonlTraceSink(path))
        results = runner.run(sleep_jobs(4, tag="q"), label="queued")
        assert len(results) == 4
        shards = [span for span in read_spans(path)
                  if span.kind != "engine-batch"]
        assert len(shards) == 4
        assert all(span.backend == "queue" for span in shards)
        # Worker identity and worker-measured execute time ride back in
        # the WireResult envelope; both must survive the spool round
        # trip into the span.
        assert all(span.worker for span in shards)
        assert all(span.stages.get("execute", -1.0) >= 0.0
                   for span in shards)

    def test_queue_run_registers_fault_instruments(self, tmp_path):
        backend = QueueBackend(tmp_path / "spool", local_workers=1,
                               lease_timeout=60.0, poll_interval=0.01)
        runner = ParallelRunner(backend=backend)
        runner.run(sleep_jobs(2, tag="reg"))
        snapshot = runner.metrics.snapshot()
        # A clean run touches none of the fault paths, but every
        # instrument must exist (the scrape surface is stable).
        for outcome in ("lost", "expired", "corrupt", "failed"):
            assert snapshot[f"queue_faults{{outcome={outcome}}}"] == 0
        # Heartbeat lag is a health sample, not a fault: a busy host may
        # poll a live claim twice before its beat moves, so a clean run
        # may record some.  Every one lies within the 60 s lease timeout.
        assert "queue_heartbeat_lag_s" in snapshot
        lag = snapshot["queue_heartbeat_lag_s"]
        within_lease = lag["buckets"].index(60.0) + 1
        assert sum(lag["counts"][:within_lease]) == lag["count"]
        # Re-dispatches are engine_requeued and expiries are
        # queue_faults{outcome=expired}: neither is counted twice.
        assert snapshot["engine_requeued"] == 0
        assert "queue_requeued" not in snapshot
        assert "queue_lease_expired" not in snapshot

    def test_lease_lag_hook_reports_stale_heartbeat(self, tmp_path):
        broker = SpoolBroker(tmp_path / "spool", lease_timeout=30.0)
        job = sleep_jobs(1, tag="lag")[0]
        key = job_key(job)
        assert broker.submit(key, job)
        assert broker.claim_next("w1") is not None
        lags: list = []
        broker.on_lease_lag = lags.append
        assert broker.poll([key]) == []  # first pass arms the watch
        assert lags == []
        time.sleep(0.02)
        assert broker.poll([key]) == []  # healthy lease, beat unmoved
        assert len(lags) == 1
        assert lags[0] > 0.0

    def test_expired_lease_counts_one_expired_fault(self, tmp_path):
        backend = QueueBackend(tmp_path / "spool", lease_timeout=0.01,
                               poll_interval=0.01)
        registry = MetricsRegistry()
        backend.attach_metrics(registry)
        job = sleep_jobs(1, tag="expire")[0]
        pending = {job_key(job): job}
        stats = EngineStats(registry=registry)
        state = backend._new_state(pending)
        assert backend.broker.submit(job_key(job), job)
        assert backend.broker.claim_next("w1") is not None
        assert backend._step(pending, state, stats) == ([], None)  # arms
        time.sleep(0.05)
        assert backend._step(pending, state, stats) == ([], None)
        snapshot = registry.snapshot()
        assert snapshot["queue_faults{outcome=expired}"] == 1
        assert snapshot["engine_requeued"] == 1
        # The shard went back to pending/ and is claimable again.
        assert backend.broker.claim_next("w2") is not None

    def test_attach_metrics_wires_broker_hooks(self, tmp_path):
        backend = QueueBackend(tmp_path / "spool", lease_timeout=30.0,
                               poll_interval=0.01)
        registry = MetricsRegistry()
        backend.attach_metrics(registry)
        broker = backend.broker
        job = sleep_jobs(1, tag="wired")[0]
        key = job_key(job)
        assert broker.submit(key, job)
        assert broker.claim_next("w1") is not None
        broker.poll([key])  # arms the lease watch
        time.sleep(0.02)
        broker.poll([key])  # healthy lease, beat unmoved
        assert registry.snapshot()["queue_heartbeat_lag_s"]["count"] == 1

    def test_supervisor_attach_metrics_exports_fleet_gauges(
            self, tmp_path):
        supervisor = WorkerSupervisor(tmp_path / "spool", max_workers=2,
                                      spawn=lambda: None)
        registry = MetricsRegistry()
        supervisor.attach_metrics(registry)
        supervisor.spawned = 3
        supervisor.crashed = 1
        supervisor.respawns = 2
        job = sleep_jobs(1, tag="sup")[0]
        assert supervisor.broker.submit(job_key(job), job)
        snapshot = registry.snapshot()
        assert snapshot["supervisor_fleet"] == 0
        assert snapshot["supervisor_spawned"] == 3
        assert snapshot["supervisor_crashed"] == 1
        assert snapshot["supervisor_respawns"] == 2
        assert snapshot["queue_backlog_shards"] == 1
