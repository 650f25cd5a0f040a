"""Backend-equivalence and fault-injection suite for the queue backend.

The queue backend's promise is exactly-once *collection* on top of
at-least-once *execution*: a shard may be claimed by a worker that is
then SIGKILLed, may come back as a corrupt result file, or may raise on
the worker — and the batch must still complete with bit-identical
results, bounded retries and honest ``requeued``/``retried`` counters.
These tests drill each failure mode against the real spool protocol
(rename-based leases, heartbeat files, quarantine), including one test
that SIGKILLs a live ``python -m repro worker`` subprocess mid-shard,
and a hypothesis property over arbitrary lease-expiry/failure/completion
interleavings.
"""

import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    EngineError,
    EngineStats,
    Job,
    ParallelRunner,
    QueueBackend,
    SpoolBroker,
    TraceSpec,
    job_key,
    run_worker_loop,
)
from repro.engine.backends import (
    PoolBackend,
    RemoteShardError,
    SerialBackend,
    resolve_backend,
)
from repro.engine.broker import (
    CompletedEvent,
    LEASE_ENV,
    QUEUE_DIR_ENV,
    WireResult,
    default_lease_timeout,
    validated_queue_root,
    worker_identity,
)
from repro.errors import ConfigError
from repro.workloads.profiles import KERNEL_LIKE

pytestmark = pytest.mark.engine

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def sleep_job(note: str = "", sleep_s: float = 0.0) -> Job:
    """Cheap deterministic job whose result echoes ``note``."""
    options = {"note": note}
    if sleep_s:
        options["sleep_s"] = sleep_s
    return Job(kind="engine-selftest-sleep", options=tuple(options.items()))


def shard_job(seed: int = 0) -> Job:
    """A real single-trace simulation shard (milliseconds at length 300)."""
    return Job(kind="sweep-point", vcc_mv=500.0, scheme="iraw",
               trace=TraceSpec.synthetic(KERNEL_LIKE, seed=seed, length=300))


def queue_backend(root, **kwargs) -> QueueBackend:
    kwargs.setdefault("lease_timeout", 30.0)
    kwargs.setdefault("poll_interval", 0.02)
    return QueueBackend(root, **kwargs)


class TestBrokerPrimitives:
    def test_submit_claim_complete_round_trip(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        job = sleep_job("round-trip")
        key = job_key(job)
        assert broker.submit(key, job)
        claim = broker.claim_next("w1")
        assert claim is not None and claim.key == key
        assert claim.job == job            # survived the pickle round trip
        assert not (broker.pending_dir / f"{key}.job").exists()
        assert claim.heartbeat_path.read_text("utf-8") == "w1"
        broker.complete(claim, {"note": "round-trip"}, execute_s=0.25)
        (event,) = broker.poll({key})
        assert isinstance(event, CompletedEvent)
        assert event.result == WireResult({"note": "round-trip"},
                                          worker="w1", execute_s=0.25)
        # collection consumes every spool file of the key
        for directory in (broker.pending_dir, broker.claimed_dir,
                          broker.done_dir, broker.failed_dir):
            assert list(directory.iterdir()) == []

    def test_claim_is_exclusive(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        job = sleep_job("solo")
        broker.submit(job_key(job), job)
        assert broker.claim_next("w1") is not None
        assert broker.claim_next("w2") is None

    def test_submit_deduplicates_spooled_shards(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        job = sleep_job("once")
        key = job_key(job)
        assert broker.submit(key, job)
        assert not broker.submit(key, job)          # still pending
        claim = broker.claim_next()
        assert not broker.submit(key, job)          # claimed
        claim.release()
        assert not broker.submit(key, job)          # pending again
        claim = broker.claim_next()
        assert claim is not None
        broker.complete(claim, {"note": "once"})
        # A published result is already the answer for this key: do not
        # re-spool the shard for a worker to redundantly re-simulate.
        assert not broker.submit(key, job)
        (event,) = broker.poll({key})
        assert isinstance(event, CompletedEvent)
        assert broker.submit(key, job)              # collected: fresh batch

    def test_release_returns_shard_to_pending(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        job = sleep_job("boomerang")
        key = job_key(job)
        broker.submit(key, job)
        broker.claim_next("w1").release()
        assert (broker.pending_dir / f"{key}.job").exists()
        assert list(broker.claimed_dir.iterdir()) == []

    def test_corrupt_pending_shard_is_quarantined_on_claim(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        (broker.pending_dir / "deadbeef.job").write_bytes(b"not a pickle")
        assert broker.claim_next("w1") is None
        assert list(broker.pending_dir.iterdir()) == []
        assert len(list(broker.quarantine_dir.iterdir())) == 1

    def test_worker_loop_executes_spooled_shards(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        for i in range(3):
            job = sleep_job(f"n{i}")
            broker.submit(job_key(job), job)
        completed, failed = run_worker_loop(broker, idle_exit=0.0,
                                            poll_interval=0.01)
        assert (completed, failed) == (3, 0)
        assert len(list(broker.done_dir.iterdir())) == 3

    def test_every_done_payload_is_a_tagged_wire_result(self, tmp_path):
        """One result format: whatever a worker publishes to ``done/``
        is a :class:`WireResult` carrying the worker tag (the claim's
        owner) and the execute seconds the worker measured."""
        import pickle

        broker = SpoolBroker(tmp_path)
        notes = {}
        for i in range(3):
            job = sleep_job(f"n{i}")
            broker.submit(job_key(job), job)
            notes[job_key(job)] = f"n{i}"
        assert run_worker_loop(broker, idle_exit=0.0,
                               poll_interval=0.01) == (3, 0)
        payloads = {path.stem: pickle.loads(path.read_bytes())
                    for path in broker.done_dir.glob("*.pkl")}
        assert set(payloads) == set(notes)
        for key, wire in payloads.items():
            assert isinstance(wire, WireResult)
            assert wire.result == {"note": notes[key]}
            assert wire.worker == worker_identity()  # this thread's tag
            assert wire.execute_s >= 0.0

    def test_worker_loop_reports_failures_separately(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        crash = Job(kind="engine-selftest-crash")
        broker.submit(job_key(crash), crash)
        ok = sleep_job("fine")
        broker.submit(job_key(ok), ok)
        completed, failed = run_worker_loop(broker, idle_exit=0.0,
                                            poll_interval=0.01)
        assert (completed, failed) == (1, 1)
        assert len(list(broker.failed_dir.iterdir())) == 1

    def test_straggler_cannot_clobber_a_reclaimed_lease(self, tmp_path):
        # W1 freezes past its lease; the collector re-pends the shard and
        # W2 re-claims it.  When W1 wakes up, its stale claim handle must
        # neither delete W2's lease files nor publish a failure that
        # would charge the retry budget for a healthy shard.
        broker = SpoolBroker(tmp_path)
        job = sleep_job("contested")
        key = job_key(job)
        broker.submit(key, job)
        w1 = broker.claim_next("w1")
        # Simulate the collector's expiry: shard back to pending/, lease
        # heartbeat dropped (exactly what _expire does).
        os.rename(w1.path, broker.pending_dir / f"{key}.job")
        w1.heartbeat_path.unlink()
        w2 = broker.claim_next("w2")
        assert not w1.owns() and w2.owns()
        broker.fail(w1, RuntimeError("stale straggler failure"))
        assert list(broker.failed_dir.iterdir()) == []   # silently dropped
        assert w2.path.exists() and w2.heartbeat_path.exists()
        w1.release()                                     # also a no-op
        assert w2.path.exists()
        broker.complete(w2, {"note": "contested"})
        (event,) = broker.poll({key})
        assert isinstance(event, CompletedEvent)
        assert event.result == WireResult({"note": "contested"}, worker="w2")

    def test_idle_exit_measures_idleness_not_execution_time(self, tmp_path):
        # A shard that runs longer than --idle-exit must not count as
        # idleness: work arriving shortly after it finishes is served.
        import threading

        broker = SpoolBroker(tmp_path)
        slow = sleep_job("slow", sleep_s=0.4)
        broker.submit(job_key(slow), slow)
        follow_up = sleep_job("follow-up")

        def submit_later():
            time.sleep(0.5)
            broker.submit(job_key(follow_up), follow_up)

        helper = threading.Thread(target=submit_later, daemon=True)
        helper.start()
        completed, failed = run_worker_loop(broker, idle_exit=0.3,
                                            poll_interval=0.02)
        helper.join()
        assert (completed, failed) == (2, 0)

    def test_spool_is_code_versioned(self, tmp_path):
        from repro.engine.cache import CACHE_SCHEMA_VERSION, code_fingerprint

        broker = SpoolBroker(tmp_path)
        assert broker.spool.parent == tmp_path
        assert broker.spool.name \
            == f"v{CACHE_SCHEMA_VERSION}-{code_fingerprint()}"


class TestQueueBackendEquivalence:
    def test_queue_matches_serial_and_shards_populations(self, tmp_path):
        from repro.circuits.frequency import ClockScheme
        from repro.experiments import Experiment, ExperimentSpec

        experiment = Experiment(ExperimentSpec(
            name="queue", profiles=(KERNEL_LIKE.name,), trace_length=300))
        points = [(650.0, ClockScheme.BASELINE), (500.0, ClockScheme.IRAW)]
        jobs = [experiment.population_job(vcc, scheme)
                for vcc, scheme in points]
        serial = ParallelRunner().run(jobs)
        runner = ParallelRunner(
            backend=queue_backend(tmp_path, local_workers=2))
        queued = runner.run(jobs)
        for a, b in zip(serial, queued):
            assert a.cycles == b.cycles
            assert a.instructions == b.instructions
            assert a.ipc == b.ipc
            assert a.point == b.point
        assert runner.stats.sharded == len(points)
        assert runner.stats.requeued == 0

    def test_results_travel_through_the_spool_pickles(self, tmp_path):
        # local_workers really go through pending/ -> claimed/ -> done/.
        backend = queue_backend(tmp_path, local_workers=1)
        runner = ParallelRunner(backend=backend)
        job = shard_job()
        (result,) = runner.run([job])
        (expected,) = ParallelRunner().run([job])
        assert result.results[0].cycles == expected.results[0].cycles
        assert result == expected


class TestFaultInjection:
    """The satellite drills: SIGKILL, corruption, retry exhaustion."""

    def test_sigkilled_worker_lease_expires_and_batch_completes(
            self, tmp_path, monkeypatch):
        queue = tmp_path / "spool"
        broker = SpoolBroker(queue, lease_timeout=1.0)
        job = sleep_job("survivor")
        key = job_key(job)
        broker.submit(key, job)

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["REPRO_SELFTEST_SLEEP_S"] = "600"   # the worker hangs mid-shard
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--queue", str(queue),
             "--poll", "0.05"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            claimed = broker.claimed_dir / f"{key}.job"
            deadline = time.monotonic() + 60.0
            while not claimed.exists():
                if proc.poll() is not None:
                    pytest.fail("worker exited early: "
                                f"{proc.stderr.read().decode()}")
                assert time.monotonic() < deadline, \
                    "worker never claimed the shard"
                time.sleep(0.02)
        finally:
            proc.kill()     # SIGKILL: no cleanup, lease goes stale
            proc.wait()
            proc.stderr.close()

        monkeypatch.delenv("REPRO_SELFTEST_SLEEP_S", raising=False)
        runner = ParallelRunner(backend=queue_backend(
            queue, local_workers=1, lease_timeout=1.0))
        results = runner.run([job])
        assert results == [{"note": "survivor"}]    # not lost
        assert runner.stats.simulated == 1          # not duplicated
        assert runner.stats.requeued >= 1           # lease expired
        assert runner.stats.retried == 1
        assert runner.stats.errors == 0

    def test_corrupt_done_result_is_quarantined_and_reexecuted(
            self, tmp_path):
        backend = queue_backend(tmp_path, local_workers=1)
        # The 0.15 s execution keeps the corrupt file in place long
        # enough that the collector provably reads it first.
        job = sleep_job("phoenix", sleep_s=0.15)
        key = job_key(job)
        garbage = b"these bytes are not a pickle"
        (backend.broker.done_dir / f"{key}.pkl").write_bytes(garbage)
        runner = ParallelRunner(backend=backend)
        results = runner.run([job])
        assert results == [{"note": "phoenix"}]
        assert runner.stats.requeued == 1
        assert runner.stats.retried == 1
        quarantined = list(backend.broker.quarantine_dir.iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].read_bytes() == garbage

    def test_exhausted_retries_name_the_trace_and_job_key(self, tmp_path):
        job = Job(kind="engine-selftest-crash",
                  trace=TraceSpec.synthetic(KERNEL_LIKE, seed=0, length=300),
                  options=(("note", "doomed"),))
        backend = queue_backend(tmp_path, local_workers=1, max_retries=2)
        runner = ParallelRunner(backend=backend)
        with pytest.raises(EngineError) as excinfo:
            runner.run([job])
        message = str(excinfo.value)
        assert "trace=kernel-like/seed0" in message   # names the trace
        assert job_key(job) in message                # names the job key
        assert "after 3 attempts" in message          # 1 + max_retries
        cause = excinfo.value.__cause__
        assert isinstance(cause, RemoteShardError)
        assert "injected engine crash (doomed)" in str(cause)
        assert runner.stats.requeued == 2
        assert runner.stats.retried == 1
        assert runner.stats.errors == 1
        # The failed batch leaves no orphaned work for detached workers.
        assert list(backend.broker.pending_dir.iterdir()) == []
        assert list(backend.broker.failed_dir.iterdir()) == []

    def test_corrupt_pending_payload_is_requeued_not_hung(self, tmp_path):
        # A worker that claims an unreadable pending payload quarantines
        # it, leaving the shard with no spool file at all; the collector
        # must detect the loss and re-submit rather than poll forever.
        backend = queue_backend(tmp_path, local_workers=1)
        job = sleep_job("lazarus")
        key = job_key(job)
        backend.broker.submit(key, job)
        (backend.broker.pending_dir / f"{key}.job").write_bytes(b"scrambled")
        runner = ParallelRunner(backend=backend)
        results = runner.run([job])
        assert results == [{"note": "lazarus"}]
        assert runner.stats.requeued >= 1
        assert len(list(backend.broker.quarantine_dir.iterdir())) == 1

    def test_foreign_cleanup_is_redispatched_after_two_lost_polls(
            self, tmp_path):
        # Another runner sharing the spool collected (and forgot) a key
        # this runner still needs: two consecutive lost polls, then a
        # re-dispatch — never an infinite wait.
        backend = queue_backend(tmp_path, local_workers=0)
        broker = backend.broker
        job = sleep_job("shared")
        key = job_key(job)
        pending = {key: job}
        stats = EngineStats()
        state = backend._new_state(pending)
        broker.submit(key, job)
        broker.forget(key)                      # the other runner's cleanup
        assert backend._step(pending, state, stats) == ([], None)  # candidate
        assert stats.requeued == 0
        assert backend._step(pending, state, stats) == ([], None)  # confirmed
        assert stats.requeued == 1
        assert (broker.pending_dir / f"{key}.job").exists() # re-spooled
        claim = broker.claim_next("w1")
        broker.complete(claim, {"note": "shared"})
        assert backend._step(pending, state, stats) \
            == ([(key, WireResult({"note": "shared"}, worker="w1"))], None)

    def test_mid_transition_race_does_not_burn_retry_budget(self, tmp_path):
        # One lost poll followed by the shard reappearing must clear the
        # candidate instead of counting toward max_retries.
        backend = queue_backend(tmp_path, local_workers=0)
        broker = backend.broker
        job = sleep_job("flicker")
        key = job_key(job)
        pending = {key: job}
        stats = EngineStats()
        state = backend._new_state(pending)
        assert backend._step(pending, state, stats) == ([], None)  # lost once
        assert state.lost_polls == {key: 1}
        broker.submit(key, job)                             # reappears
        assert backend._step(pending, state, stats) == ([], None)
        assert state.lost_polls == {}                       # candidate cleared
        assert stats.requeued == 0

    def test_shard_finishing_during_a_poll_is_not_reported_lost(
            self, tmp_path, monkeypatch):
        # A worker claims and completes the shard right after the poll's
        # first directory listing: a live shard, never a lost one.
        broker = SpoolBroker(tmp_path)
        job = sleep_job("racing")
        key = job_key(job)
        broker.submit(key, job)
        listings = []

        def racing(listing):
            def wrapped(directory):
                entries = listing(directory)
                listings.append(directory)
                if len(listings) == 1:
                    broker.complete(broker.claim_next("w1"),
                                    {"note": "racing"})
                return entries
            return wrapped

        monkeypatch.setattr(broker, "_names", racing(broker._names))
        monkeypatch.setattr(broker, "_stats", racing(broker._stats))
        (event,) = broker.poll({key})
        assert isinstance(event, CompletedEvent)
        assert event.result == WireResult({"note": "racing"}, worker="w1")

    def test_workerless_spool_warns_instead_of_hanging_silently(
            self, tmp_path):
        import threading

        backend = QueueBackend(tmp_path, local_workers=0, lease_timeout=0.1,
                               poll_interval=0.01)
        job = sleep_job("late")

        def late_worker():
            time.sleep(0.5)   # well past the lease window
            run_worker_loop(backend.broker, max_shards=1,
                            poll_interval=0.01, idle_exit=5.0)

        helper = threading.Thread(target=late_worker, daemon=True)
        helper.start()
        try:
            with pytest.warns(RuntimeWarning, match="no worker has claimed"):
                results = ParallelRunner(backend=backend).run([job])
        finally:
            helper.join()
        assert results == [{"note": "late"}]

    def test_workerless_warning_fires_once_per_spool(self, tmp_path):
        """Regression: every concurrent batch over one workerless spool
        used to emit its own copy of the warning; now the first batch
        warns and the rest go quiet (but still stop re-checking)."""
        import warnings

        first = QueueBackend(tmp_path, local_workers=0, lease_timeout=0.01)
        second = QueueBackend(tmp_path, local_workers=0, lease_timeout=0.01)
        stalled_since = time.monotonic() - 1.0
        with pytest.warns(RuntimeWarning, match="no worker has claimed"):
            assert first._looks_stalled(stalled_since, False) is True
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert second._looks_stalled(stalled_since, False) is True
        # A different spool directory is a different mistake: warn again.
        other = QueueBackend(tmp_path / "other", local_workers=0,
                             lease_timeout=0.01)
        with pytest.warns(RuntimeWarning, match="no worker has claimed"):
            assert other._looks_stalled(stalled_since, False) is True

    def test_worker_side_exception_text_travels_to_the_runner(self, tmp_path):
        job = Job(kind="engine-selftest-crash", options=(("note", "once"),))
        backend = queue_backend(tmp_path, local_workers=1, max_retries=0)
        with pytest.raises(EngineError) as excinfo:
            ParallelRunner(backend=backend).run([job])
        # The remote traceback (raise site and message) is preserved.
        assert "injected engine crash (once)" in str(excinfo.value.__cause__)
        assert "RuntimeError" in str(excinfo.value.__cause__)

    def test_sibling_completion_survives_a_fatal_pass(self, tmp_path):
        # One poll pass can deliver a completed shard *and* a fatal
        # failure for another; the completed result's done/ file is
        # consumed by that same pass, so it must be returned (and reach
        # the runner's memo) rather than dropped with the dying batch.
        backend = queue_backend(tmp_path, local_workers=0, max_retries=0)
        ok = sleep_job("kept")
        doomed = sleep_job("doomed")
        k_ok, k_bad = job_key(ok), job_key(doomed)
        broker = backend.broker
        pending = {k_ok: ok, k_bad: doomed}
        stats = EngineStats()
        state = backend._new_state(pending)
        for key, job in pending.items():
            broker.submit(key, job)
        c1 = broker.claim_next("w", key=k_ok)
        broker.complete(c1, {"note": "kept"})
        c2 = broker.claim_next("w", key=k_bad)
        broker.fail(c2, RuntimeError("permanent failure"))
        completions, failure = backend._step(pending, state, stats)
        assert completions == [(k_ok, WireResult({"note": "kept"},
                                                 worker="w"))]
        assert failure is not None
        assert "permanent failure" in str(failure.cause)

    def test_stale_failure_report_is_not_charged_to_a_new_batch(
            self, tmp_path):
        # A failed/ file left by an interrupted previous run must not
        # consume this batch's retry budget before any execution.
        backend = queue_backend(tmp_path, local_workers=1, max_retries=0)
        job = sleep_job("fresh-start")
        (backend.broker.failed_dir / f"{job_key(job)}.err").write_text(
            "RuntimeError: stale failure from a dead runner\n")
        runner = ParallelRunner(backend=backend)
        assert runner.run([job]) == [{"note": "fresh-start"}]
        assert runner.stats.requeued == 0
        assert runner.stats.errors == 0


class TestInterleavingProperty:
    """Random lease-expiry/failure/completion interleavings converge."""

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_every_interleaving_collects_exactly_once(self, data,
                                                      tmp_path_factory):
        root = tmp_path_factory.mktemp("interleave")
        n = data.draw(st.integers(min_value=2, max_value=4), label="shards")
        fates = {}
        jobs = {}
        order = {}
        for i in range(n):
            job = sleep_job(f"shard-{i}")
            key = job_key(job)
            jobs[key] = job
            order[key] = i
            fates[key] = data.draw(
                st.lists(st.sampled_from(("expire", "fail", "corrupt")),
                         max_size=2),
                label=f"fates[{i}]") + ["complete"]
        # Lease expiry is observation-based (heartbeat mtime unchanged
        # for lease_timeout of the collector's monotonic clock); a tiny
        # timeout makes any claim left in place across two polls expire,
        # which is exactly what the scripted "expire" fate sets up —
        # every other fate resolves its claim before the next poll.
        backend = QueueBackend(root, local_workers=0, lease_timeout=1e-9,
                               poll_interval=0.0, max_retries=10)
        broker = backend.broker
        stats = EngineStats()
        state = backend._new_state(jobs)
        for key, job in jobs.items():
            broker.submit(key, job)
        collected = {}
        fault_counts = {key: len(f) - 1 for key, f in fates.items()}
        faults = sum(fault_counts.values())

        def step():
            completions, failure = backend._step(jobs, state, stats)
            assert failure is None, f"retry budget unexpectedly spent: " \
                                    f"{failure}"
            for key, result in completions:
                assert key not in collected, "collected twice"
                collected[key] = result

        budget = 50 * (faults + n + 1)
        while any(fates.values()):
            budget -= 1
            assert budget > 0, "interleaving failed to converge"
            actionable = sorted((k for k, f in fates.items() if f),
                                key=order.__getitem__)
            key = data.draw(st.sampled_from(actionable), label="next shard")
            claim = broker.claim_next("scripted", key=key)
            if claim is None:
                step()  # a prior expiry/corruption needs collecting first
                continue
            fate = fates[key].pop(0)
            if fate == "complete":
                broker.complete(claim, {"note": jobs[key].option("note")})
            elif fate == "fail":
                broker.fail(claim, RuntimeError("transient worker failure"))
            elif fate == "expire":
                pass  # leave the claim in place: its heartbeat never
                      # moves again, so the lease watch expires it
            elif fate == "corrupt":
                (broker.done_dir / f"{key}.pkl").write_bytes(b"garbage")
                claim.discard()
            if data.draw(st.booleans(), label="poll now"):
                step()
        while state.outstanding:
            budget -= 1
            assert budget > 0, "collection failed to converge"
            step()

        assert sorted(collected) == sorted(jobs)
        for key, job in jobs.items():
            assert collected[key].result == {"note": job.option("note")}
        assert stats.requeued == faults
        assert stats.retried == sum(
            1 for count in fault_counts.values() if count > 0)
        for directory in (broker.pending_dir, broker.claimed_dir,
                          broker.done_dir, broker.failed_dir):
            assert list(directory.iterdir()) == []


class TestValidation:
    """Env-root validation: clean errors, never tracebacks."""

    def test_root_that_is_a_file_is_rejected(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(ConfigError, match="not a directory"):
            SpoolBroker(blocker)

    def test_uncreatable_root_is_rejected(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(ConfigError, match="cannot create"):
            validated_queue_root(blocker / "nested")

    def test_missing_root_configuration_is_rejected(self, monkeypatch):
        monkeypatch.delenv(QUEUE_DIR_ENV, raising=False)
        with pytest.raises(ConfigError, match=QUEUE_DIR_ENV):
            QueueBackend()

    def test_lease_env_validation(self, monkeypatch):
        monkeypatch.setenv(LEASE_ENV, "not-a-number")
        with pytest.raises(ConfigError, match="number of seconds"):
            default_lease_timeout()
        monkeypatch.setenv(LEASE_ENV, "-3")
        with pytest.raises(ConfigError, match="positive"):
            default_lease_timeout()
        monkeypatch.setenv(LEASE_ENV, "7.5")
        assert default_lease_timeout() == 7.5
        monkeypatch.delenv(LEASE_ENV)
        assert default_lease_timeout() > 0

    def test_worker_cli_rejects_bad_queue_dir_cleanly(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert main(["worker", "--queue", str(blocker)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not a directory" in err

    def test_worker_cli_requires_a_queue(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv(QUEUE_DIR_ENV, raising=False)
        assert main(["worker"]) == 2
        assert QUEUE_DIR_ENV in capsys.readouterr().err

    def test_worker_cli_rejects_bad_concurrency(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["worker", "--queue", str(tmp_path),
                     "--concurrency", "0"]) == 2
        assert "concurrency" in capsys.readouterr().err

    def test_worker_cli_surfaces_crashed_children(self, tmp_path,
                                                  monkeypatch, capsys):
        from repro.cli import main

        # Each spawned child rebuilds its own broker; if every child
        # dies at startup the parent must not claim success for an
        # unserved spool.
        monkeypatch.setenv("REPRO_SELFTEST_WORKER_CRASH", "1")
        assert main(["worker", "--queue", str(tmp_path),
                     "--concurrency", "2", "--idle-exit", "0.1"]) == 1
        assert "exited abnormally" in capsys.readouterr().err
        monkeypatch.delenv("REPRO_SELFTEST_WORKER_CRASH")
        assert main(["worker", "--queue", str(tmp_path),
                     "--concurrency", "2", "--idle-exit", "0.1"]) == 0

    def test_cache_cli_rejects_non_directory_root_cleanly(self, tmp_path,
                                                          monkeypatch,
                                                          capsys):
        from repro.cli import main

        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker))
        assert main(["cache", "--prune"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "REPRO_CACHE_DIR" in err

    def test_unknown_backend_name_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            resolve_backend("carrier-pigeon")
        with pytest.raises(ConfigError, match="ExecutionBackend"):
            resolve_backend(42)


class TestOneFailureContract:
    """Every backend fails the same way: an ``EngineError`` naming the
    job's label and canonical key, chained to the job's exception."""

    @pytest.mark.parametrize("name", ["serial", "pool", "queue"])
    def test_failing_job_raises_keyed_engine_error(self, tmp_path, name):
        crash = Job(kind="engine-selftest-crash",
                    trace=TraceSpec.synthetic(KERNEL_LIKE, seed=0,
                                              length=300),
                    options=(("note", "contract"),))
        backend = {
            "serial": SerialBackend,
            "pool": lambda: PoolBackend(workers=2),
            "queue": lambda: queue_backend(tmp_path, local_workers=1,
                                           max_retries=0),
        }[name]()
        runner = ParallelRunner(backend=backend)
        # The sibling makes the pool fan out to worker processes rather
        # than run a lone pending job inline.
        with pytest.raises(EngineError) as excinfo:
            runner.run([crash, sleep_job("sibling")])
        assert f"job '{crash.label}' (key {job_key(crash)}) failed" \
            in str(excinfo.value)
        cause = excinfo.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert "injected engine crash (contract)" in str(cause)
        assert runner.stats.errors == 1

    def test_failed_pool_batch_leaves_no_worker_processes(self):
        import multiprocessing

        crash = Job(kind="engine-selftest-crash", options=(("note", "x"),))
        siblings = [sleep_job(f"in-flight-{i}", sleep_s=0.3)
                    for i in range(3)]
        runner = ParallelRunner(backend=PoolBackend(workers=2))
        with pytest.raises(EngineError):
            runner.run([crash, *siblings])
        assert multiprocessing.active_children() == []


class TestBackendResolution:
    def test_auto_resolution_follows_workers(self):
        assert isinstance(resolve_backend(None, workers=1), SerialBackend)
        pool = resolve_backend(None, workers=3)
        assert isinstance(pool, PoolBackend) and pool.workers == 3

    def test_names_resolve_and_instances_pass_through(self, tmp_path):
        assert isinstance(resolve_backend("serial", workers=8), SerialBackend)
        assert isinstance(resolve_backend("pool", workers=2), PoolBackend)
        queue = resolve_backend("queue", queue_dir=tmp_path)
        assert isinstance(queue, QueueBackend)
        assert resolve_backend(queue) is queue

    def test_queue_backend_warns_when_workers_flag_is_dropped(self,
                                                              tmp_path):
        with pytest.warns(RuntimeWarning, match="--workers 4 is ignored"):
            resolve_backend("queue", workers=4, queue_dir=tmp_path)

    def test_runner_exposes_its_backend(self, tmp_path):
        assert ParallelRunner().backend.name == "serial"
        assert ParallelRunner(workers=4).backend.name == "pool"
        runner = ParallelRunner(backend=queue_backend(tmp_path))
        assert runner.backend.name == "queue"


class TestWorkerCli:
    def test_worker_drains_a_spool_and_exits_on_idle(self, tmp_path,
                                                     capsys):
        from repro.cli import main

        broker = SpoolBroker(tmp_path)
        for i in range(2):
            job = sleep_job(f"cli-{i}")
            broker.submit(job_key(job), job)
        assert main(["worker", "--queue", str(tmp_path),
                     "--poll", "0.02", "--idle-exit", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "executed 2 shard(s)" in out
        assert len(list(broker.done_dir.iterdir())) == 2

    def test_worker_concurrency_spawns_cooperating_processes(self, tmp_path,
                                                             capsys):
        from repro.cli import main

        broker = SpoolBroker(tmp_path)
        for i in range(4):
            job = sleep_job(f"mp-{i}")
            broker.submit(job_key(job), job)
        assert main(["worker", "--queue", str(tmp_path), "--poll", "0.02",
                     "--concurrency", "2", "--idle-exit", "0.3"]) == 0
        assert "2 worker processes exited" in capsys.readouterr().out
        assert len(list(broker.done_dir.iterdir())) == 4
        assert list(broker.pending_dir.iterdir()) == []

    def test_worker_reports_failed_shards_separately(self, tmp_path, capsys):
        from repro.cli import main

        broker = SpoolBroker(tmp_path)
        crash = Job(kind="engine-selftest-crash")
        broker.submit(job_key(crash), crash)
        ok = sleep_job("good")
        broker.submit(job_key(ok), ok)
        assert main(["worker", "--queue", str(tmp_path), "--poll", "0.02",
                     "--idle-exit", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "executed 1 shard(s), 1 failed" in out

    def test_worker_max_shards_bounds_the_session(self, tmp_path, capsys):
        from repro.cli import main

        broker = SpoolBroker(tmp_path)
        for i in range(3):
            job = sleep_job(f"bounded-{i}")
            broker.submit(job_key(job), job)
        assert main(["worker", "--queue", str(tmp_path), "--poll", "0.02",
                     "--max-shards", "1"]) == 0
        assert "executed 1 shard(s)" in capsys.readouterr().out
        assert len(list(broker.pending_dir.iterdir())) == 2
        assert main(["worker", "--queue", str(tmp_path), "--poll", "0.02",
                     "--max-shards", "0"]) == 0     # zero really means zero
        assert "executed 0 shard(s)" in capsys.readouterr().out
        assert len(list(broker.pending_dir.iterdir())) == 2

    def test_worker_rejects_nonsensical_knobs(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["worker", "--queue", str(tmp_path),
                     "--poll", "0"]) == 2
        assert "--poll" in capsys.readouterr().err
        assert main(["worker", "--queue", str(tmp_path),
                     "--max-shards", "-1"]) == 2
        assert "--max-shards" in capsys.readouterr().err
