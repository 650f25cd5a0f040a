"""Tests of the experiment engine: jobs, cache, runner, integrations."""

import dataclasses
import importlib.util
import pathlib
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.engine.cache as cache_module
from repro.analysis.dvfs import DvfsPhase, schedule_job
from repro.circuits.frequency import ClockScheme
from repro.engine import (
    EngineError,
    Job,
    ParallelRunner,
    ResultCache,
    TracePopulationSpec,
    TraceSpec,
    job_key,
)
from repro.engine.cache import MISS
from repro.engine.jobs import shard_jobs
from repro.errors import ConfigError
from repro.experiments import Experiment, ExperimentSpec
from repro.experiments.artifacts import table1_jobs
from repro.montecarlo.campaign import montecarlo_jobs
from repro.montecarlo.spec import MonteCarloSpec
from repro.workloads.profiles import KERNEL_LIKE, SPECINT_LIKE
from repro.workloads.riscv import RiscvProgram

pytestmark = pytest.mark.engine

#: Tiny population: every engine test simulates in milliseconds.
TINY = ExperimentSpec(name="tiny", profiles=(KERNEL_LIKE.name,),
                      trace_length=400)


def tiny_experiment(runner=None) -> Experiment:
    return Experiment(TINY, runner=runner)


def tiny_jobs(*points) -> list[Job]:
    """The tiny population's jobs at ``(vcc_mv, scheme)`` points."""
    experiment = tiny_experiment()
    return [experiment.population_job(vcc_mv, scheme)
            for vcc_mv, scheme in points]


class TestJobKeys:
    def test_equal_jobs_share_a_key(self):
        a = tiny_experiment().population_job(500.0, ClockScheme.IRAW)
        b = tiny_experiment().population_job(500.0, ClockScheme.IRAW)
        assert a == b
        assert job_key(a) == job_key(b)

    def test_override_order_is_canonicalized(self):
        experiment = tiny_experiment()
        a = experiment.population_job(
            500.0, ClockScheme.IRAW,
            (("rf_enabled", False), ("iq_enabled", False)))
        b = experiment.population_job(
            500.0, ClockScheme.IRAW,
            (("iq_enabled", False), ("rf_enabled", False)))
        assert job_key(a) == job_key(b)

    def test_scheme_members_and_values_key_alike(self):
        experiment = tiny_experiment()
        assert job_key(experiment.population_job(500.0, ClockScheme.IRAW)) \
            == job_key(experiment.population_job(500.0, "iraw"))

    def test_equal_jobs_built_from_a_member_and_its_value_share_a_key(self):
        member = Job(kind="sweep-point", vcc_mv=500.0, scheme=ClockScheme.IRAW)
        value = Job(kind="sweep-point", vcc_mv=500.0, scheme="iraw")
        assert member == value and job_key(member) == job_key(value)

    def test_every_knob_lands_in_the_key(self):
        experiment = tiny_experiment()
        job = experiment.population_job
        base = job(500.0, ClockScheme.IRAW)
        assert job_key(base) != job_key(job(525.0, ClockScheme.IRAW))
        assert job_key(base) != job_key(job(500.0, ClockScheme.BASELINE))
        assert job_key(base) != job_key(
            job(500.0, ClockScheme.IRAW, {"rf_enabled": False}))
        other_population = Experiment(ExperimentSpec(
            name="other", profiles=(SPECINT_LIKE.name,), trace_length=400))
        assert job_key(base) != job_key(
            other_population.population_job(500.0, ClockScheme.IRAW))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            Job(kind="unheard-of")

    def test_non_plain_data_rejected(self):
        job = Job(kind="sweep-point", options=(("knob", object()),))
        with pytest.raises(TypeError, match="'object'"):
            job_key(job)

    def test_population_spec_is_deterministic(self):
        spec = TracePopulationSpec(profiles=(KERNEL_LIKE,), trace_length=300)
        first = [trace.build() for trace in spec.trace_specs()]
        second = [trace.build() for trace in spec.trace_specs()]
        assert [t.name for t in first] == [t.name for t in second]
        assert [op.pc for op in first[0].ops] \
            == [op.pc for op in second[0].ops]

    def test_trace_memo_is_bounded(self):
        from repro.engine import executors

        specs = [TraceSpec.synthetic(KERNEL_LIKE, length=length)
                 for length in range(100, 100 + executors._TRACES_MAX + 4)]
        for spec in specs:
            executors.trace_for(spec)
        assert len(executors._TRACES) == executors._TRACES_MAX
        # Least recently used first out; the newest trace is memoized.
        assert specs[0] not in executors._TRACES
        assert executors.trace_for(specs[-1]) is executors._TRACES[specs[-1]]


def one_job_per_kind() -> dict:
    """A small job of every kind, planned the way the program plans it."""
    experiment = tiny_experiment()
    population = experiment.population_job(500.0, ClockScheme.IRAW,
                                           {"rf_enabled": False})
    shard = shard_jobs(population)[0]
    _, _, faulty, bypass = table1_jobs(experiment)
    return {
        "population": population,
        "synthetic-shard": shard,
        "kernel-shard": dataclasses.replace(
            shard, trace=TraceSpec.for_kernel("dot", 16)),
        "riscv-shard": dataclasses.replace(shard, trace=TraceSpec(
            source="riscv", program=RiscvProgram("pin", bytes(range(16))))),
        "faulty-bits": shard_jobs(faulty)[0],
        "extra-bypass": shard_jobs(bypass)[0],
        "dvfs-schedule": schedule_job(
            TraceSpec.synthetic(KERNEL_LIKE, seed=2, length=400),
            (DvfsPhase(650.0, 200), DvfsPhase(450.0, 200)),
            ClockScheme.IRAW),
        "mc-block": montecarlo_jobs(MonteCarloSpec(dies=8, seed=3, block=4),
                                    (500.0,), ("iraw",))[1],
    }


class TestPinnedKeys:
    """Literal job keys, unchanged since 1.14.0.

    Cache entries, spool files and served campaigns are named by these
    bytes, so a change to them orphans every stored result.  Change a
    pin only with a release note saying so.
    """

    PINS = {
        "population":
            "b4678ff7d7d66174d5f44f9cea7c924eaa8e5aa2ee6a291e235909ae96fb829f",
        "synthetic-shard":
            "9979cec4953f69a6be27eaa9e776f82510b3f968623e6ae751bc44171d287374",
        "kernel-shard":
            "7f8ef908629856fa00922f6dbad4c19be72f1c5d9d9c798b36951e837aad1d67",
        "riscv-shard":
            "71e7912e0d848c0367badadd30e2a58451b03d3480580590509263254d984324",
        "faulty-bits":
            "7e090a5c860860cfa31f4fd92932fd3490c4bdad37ef067466129cb9a24f1852",
        "extra-bypass":
            "a650cc81edc4f6b304b6645580fcd396d64a4d4a83b80fdd59e537310334f188",
        "dvfs-schedule":
            "37bc170c482d6fe273860607d3e9d41249e7ce115a4c7008e7fe25dd814ae8b0",
        "mc-block":
            "cd7a7128502d08a4584091c6a069a2a70887892ee6a8f5ead3c7431304c1b021",
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_key_bytes_are_pinned(self, name):
        job = one_job_per_kind()[name]
        assert job_key(job) == self.PINS[name]
        assert job_key(job) == self.PINS[name]  # memoized values


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert cache.get("k") is MISS
        assert cache.put("k", {"value": 42})
        assert cache.get("k") == {"value": 42}
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.entry_count() == 1

    @pytest.mark.parametrize("garbage", [
        b"not a pickle",   # unknown opcode -> UnpicklingError
        b"garbage\n",      # parses as protocol-0 GET -> ValueError
        b"",               # empty file -> EOFError
        b"\x80\x05only-a-prefix",  # truncated frame
    ])
    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path, garbage):
        cache = ResultCache(root=tmp_path)
        cache.put("k", [1, 2, 3])
        path = cache.version_dir / "k.pkl"
        path.write_bytes(garbage)
        assert cache.get("k") is MISS
        assert not path.exists()

    def test_code_fingerprint_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(root=tmp_path)
        cache.put("k", "old-code-result")
        monkeypatch.setattr(cache_module, "_FINGERPRINT", "f" * 16)
        fresh = ResultCache(root=tmp_path)
        assert fresh.get("k") is MISS  # other version dir, never served
        fresh.put("k", "new-code-result")
        assert fresh.get("k") == "new-code-result"
        assert fresh.prune_stale() == 1  # the old version dir is reclaimed

    def test_schema_version_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(root=tmp_path)
        cache.put("k", "v1-result")
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 999)
        assert ResultCache(root=tmp_path).get("k") is MISS

    def test_shard_result_loads_without_enum_lookups(self, tmp_path,
                                                      monkeypatch):
        """A cache read rebuilds no StallReason or ClockScheme member by
        value: the stall counts travel as a tuple in reason order and
        the operating point's scheme by name."""
        shard = shard_jobs(tiny_jobs((500.0, ClockScheme.IRAW))[0])[0]
        result = ParallelRunner().run_one(shard)
        cache = ResultCache(root=tmp_path)
        cache.put("k", result)
        lookups = []
        by_value = type(ClockScheme).__call__

        def counted(cls, *args, **kwargs):
            lookups.append(cls.__name__)
            return by_value(cls, *args, **kwargs)

        monkeypatch.setattr(type(ClockScheme), "__call__", counted)
        loaded = cache.get("k")
        assert lookups == []
        assert loaded == result
        assert loaded.point.scheme is ClockScheme.IRAW
        assert list(loaded.results[0].stalls.cycles) \
            == list(result.results[0].stalls.cycles)

    def test_arguments_after_root_are_keyword_only(self, tmp_path):
        # An old positional ``enabled`` must not become a byte bound.
        with pytest.raises(TypeError):
            ResultCache(tmp_path, False)

    def test_unwritable_location_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("a plain file, not a directory")
        cache = ResultCache(root=blocker / "nested")
        with pytest.warns(RuntimeWarning, match="not writable"):
            assert not cache.put("k", 1)
        assert not cache.put("k2", 2)  # silent after the first warning
        assert cache.get("k") is MISS


LRU_KEYS = ("a", "b", "c", "d", "e")
LRU_BOUNDS = (None, 100, 200, 300, 450)
#: Half the operations are puts and gets, so most runs evict entries
#: whose recency comes from a hit.
LRU_OPS = st.one_of(
    st.tuples(st.just("put"),
              st.tuples(st.sampled_from(LRU_KEYS),
                        st.sampled_from(("x" * 40, "x" * 80, "x" * 160)))),
    st.tuples(st.just("get"), st.sampled_from(LRU_KEYS)),
    st.tuples(st.sampled_from(("flush", "plan", "enforce")), st.none()),
    st.tuples(st.sampled_from(("reopen", "bound")),
              st.sampled_from(LRU_BOUNDS)))


class ReferenceLru:
    """The cache's LRU policy as plain dictionaries.

    ``stamps`` is each entry's recency on disk, taken from one counter
    as the cache's stamps come from one clock.
    """

    def __init__(self, bound):
        self.bound = bound
        self.clock = 0
        self.sizes: dict[str, int] = {}
        self.stamps: dict[str, int] = {}

    def tick(self) -> int:
        self.clock += 1
        return self.clock

    def plan(self) -> list[tuple[str, int]]:
        if self.bound is None:
            return []
        total = sum(self.sizes.values())
        victims = []
        for key in sorted(self.sizes, key=self.stamps.__getitem__):
            if total <= self.bound:
                break
            victims.append((key, self.sizes[key]))
            total -= self.sizes[key]
        return victims

    def enforce(self) -> list[tuple[str, int]]:
        victims = self.plan()
        for key, _ in victims:
            del self.sizes[key], self.stamps[key]
        return victims

    def put(self, key: str, size: int) -> None:
        self.sizes[key] = size
        self.stamps[key] = self.tick()
        self.enforce()

    def get(self, key: str) -> bool:
        if key not in self.sizes:
            return False
        self.stamps[key] = self.tick()
        return True


class TestLruBound:
    """$REPRO_CACHE_MAX_BYTES: byte-bounded store with LRU eviction."""

    @staticmethod
    def entry_size(cache: ResultCache, payload) -> int:
        probe = ResultCache(root=cache.root / "probe")
        probe.put("probe", payload)
        return probe.total_bytes()

    def test_eviction_respects_byte_bound(self, tmp_path):
        unit = self.entry_size(ResultCache(root=tmp_path), "x" * 64)
        cache = ResultCache(root=tmp_path, max_bytes=3 * unit)
        for i in range(10):
            assert cache.put(f"k{i}", "x" * 64)
            assert cache.total_bytes() <= 3 * unit
        assert cache.entry_count() == 3

    def test_eviction_follows_recency_not_insertion(self, tmp_path):
        unit = self.entry_size(ResultCache(root=tmp_path), "x" * 64)
        cache = ResultCache(root=tmp_path, max_bytes=3 * unit)
        for i in range(3):
            cache.put(f"k{i}", "x" * 64)
        assert cache.get("k0") == "x" * 64   # k0 becomes most recent
        cache.put("k3", "x" * 64)            # evicts k1, the true LRU
        assert cache.get("k1") is MISS
        assert cache.get("k0") == "x" * 64
        assert cache.get("k2") == "x" * 64
        assert cache.get("k3") == "x" * 64

    def test_single_oversized_entry_is_not_kept(self, tmp_path):
        cache = ResultCache(root=tmp_path, max_bytes=8)
        cache.put("big", "x" * 4096)
        assert cache.total_bytes() <= 8
        assert cache.get("big") is MISS

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(root=tmp_path)  # max_bytes=None
        for i in range(20):
            cache.put(f"k{i}", "x" * 256)
        assert cache.entry_count() == 20

    def test_corrupt_index_rebuild_preserves_mtime_recency(self, tmp_path):
        import os as os_module

        unit = self.entry_size(ResultCache(root=tmp_path), "x" * 64)
        cache = ResultCache(root=tmp_path, max_bytes=2 * unit)
        cache.put("old", "x" * 64)
        cache.put("new", "x" * 64)
        past = 1_000_000_000
        os_module.utime(cache.version_dir / "old.pkl", (past, past))
        fresh = ResultCache(root=tmp_path, max_bytes=2 * unit)
        fresh.put("k2", "x" * 64)   # a fresh instance evicts the oldest mtime
        assert fresh.get("old") is MISS
        assert fresh.get("new") == "x" * 64

    def test_hit_recency_is_write_behind_until_flush(self, tmp_path):
        unit = self.entry_size(ResultCache(root=tmp_path), "x" * 64)
        cache = ResultCache(root=tmp_path, max_bytes=3 * unit)
        for i in range(3):
            cache.put(f"k{i}", "x" * 64)
        assert cache.get("k0") == "x" * 64   # stamped at hit time
        cache.flush()                        # persists the hit/miss tally
        fresh = ResultCache(root=tmp_path, max_bytes=3 * unit)
        fresh.put("k3", "x" * 64)
        assert fresh.get("k1") is MISS       # true LRU after the flush
        assert fresh.get("k0") == "x" * 64
        fresh.flush()
        assert ResultCache(root=tmp_path).flush() is None  # clean no-op

    def test_runner_flushes_hit_recency_per_batch(self, tmp_path):
        jobs = tiny_jobs((650.0, ClockScheme.BASELINE))
        ParallelRunner(cache=ResultCache(root=tmp_path)).run(jobs)
        reader = ResultCache(root=tmp_path)
        before = {path.name: path.stat().st_mtime_ns
                  for path in reader.version_dir.glob("*.pkl")}
        runner = ParallelRunner(cache=reader)
        runner.run(jobs)
        assert runner.stats.simulated == 0   # pure disk-hit batch
        assert runner.stats.disk_hits == len(before) > 0
        after = {path.name: path.stat().st_mtime_ns
                 for path in reader.version_dir.glob("*.pkl")}
        assert after.keys() == before.keys()
        assert all(after[name] > before[name] for name in before)

    def test_same_tick_hits_keep_their_order(self, tmp_path):
        """Hits within one clock tick still rank in hit order.

        The three puts and three hits take well under a file-system
        clock tick; with plain ``os.utime(path)`` stamps they would tie
        and the (mtime, key) walk would evict ``k0``, the newest hit.
        """
        unit = self.entry_size(ResultCache(root=tmp_path), "x" * 64)
        cache = ResultCache(root=tmp_path)
        for key in ("k0", "k1", "k2"):
            cache.put(key, "x" * 64)
        for key in ("k2", "k1", "k0"):
            assert cache.get(key) == "x" * 64
        cache.flush()
        fresh = ResultCache(root=tmp_path, max_bytes=2 * unit)
        assert fresh.enforce_limit() == [("k2", unit)]
        assert {path.stem for path in fresh.version_dir.glob("*.pkl")} \
            == {"k0", "k1"}

    @given(bound=st.sampled_from(LRU_BOUNDS),
           ops=st.lists(LRU_OPS, min_size=10, max_size=40))
    @example(bound=450, ops=[   # puts while unbounded, then a bounded put
        ("put", ("a", "x" * 160)), ("bound", None),
        ("put", ("b", "x" * 160)), ("put", ("c", "x" * 160)),
        ("bound", 450), ("put", ("d", "x" * 40))])
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_lru(self, bound, ops, tmp_path_factory):
        root = tmp_path_factory.mktemp("lru")
        cache = ResultCache(root=root, max_bytes=bound)
        model = ReferenceLru(bound)

        def on_disk():
            found = {}
            for path in cache.version_dir.glob("*.pkl"):
                stat = path.stat()
                found[path.stem] = (stat.st_size, stat.st_mtime_ns)
            return found

        for op, arg in ops:
            if op == "put":
                key, payload = arg
                assert cache.put(key, payload)
                model.put(key, len(pickle.dumps(
                    payload, protocol=pickle.HIGHEST_PROTOCOL)))
            elif op == "get":
                assert (cache.get(arg) is not MISS) == model.get(arg)
            elif op == "flush":
                cache.flush()
            elif op == "reopen":    # a new process reads recency from disk
                cache = ResultCache(root=root, max_bytes=arg)
                model.bound = arg
            elif op == "bound":
                cache.max_bytes = model.bound = arg
            elif op == "plan":
                before = on_disk()
                assert cache.plan_evictions() == model.plan()
                assert on_disk() == before  # deletes and stamps nothing
            else:
                assert cache.enforce_limit() == model.enforce()
            assert {key: size for key, (size, _) in on_disk().items()} \
                == model.sizes

    def test_enforce_limit_reports_what_it_deleted(self, tmp_path):
        unit = self.entry_size(ResultCache(root=tmp_path), "x" * 64)
        cache = ResultCache(root=tmp_path)
        for i in range(5):
            cache.put(f"k{i}", "x" * 64)
        bounded = ResultCache(root=tmp_path, max_bytes=2 * unit)
        evicted = bounded.enforce_limit()
        assert [key for key, _ in evicted] == ["k0", "k1", "k2"]
        assert all(size > 0 for _, size in evicted)
        assert {p.stem for p in bounded.version_dir.glob("*.pkl")} \
            == {"k3", "k4"}
        assert bounded.enforce_limit() == []  # idempotent once under bound

    def test_max_bytes_env_parsing(self, monkeypatch):
        from repro.engine.cache import cache_max_bytes

        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        assert cache_max_bytes() is None
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1048576")
        assert cache_max_bytes() == 1048576
        assert ResultCache.default().max_bytes == 1048576
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        assert cache_max_bytes() is None
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "lots")
        with pytest.warns(RuntimeWarning, match="non-integer"):
            assert cache_max_bytes() is None


class TestCachePruneCli:
    def test_prune_output_matches_what_was_deleted(self, tmp_path,
                                                   monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache(root=tmp_path)
        for i in range(4):
            cache.put(f"k{i}", "x" * 64)
        per_entry = cache.total_bytes() // 4
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", str(2 * per_entry))

        before = {p.stem for p in cache.version_dir.glob("*.pkl")}
        assert main(["cache", "--prune"]) == 0
        after = {p.stem for p in cache.version_dir.glob("*.pkl")}

        out = capsys.readouterr().out
        listed = [line.split()[1] for line in out.splitlines()
                  if line.startswith("evicted ") and "bytes)" in line]
        assert sorted(listed) == sorted(before - after)
        assert listed == ["k0", "k1"]  # oldest first
        assert "2 entries over the" in out
        assert f"bound: {2 * per_entry} bytes" in out

    def test_prune_unbounded_reports_nothing_evicted(self, tmp_path,
                                                     monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        ResultCache(root=tmp_path).put("k", "x" * 64)
        assert main(["cache", "--prune"]) == 0
        out = capsys.readouterr().out
        assert "evicted" not in out
        assert "bound: unbounded" in out
        assert (tmp_path / ResultCache(root=tmp_path).version_dir.name
                / "k.pkl").exists()


class TestRunnerSerial:
    def test_memoizes_identical_jobs(self):
        runner = ParallelRunner()
        first, second = tiny_jobs(*[(500.0, ClockScheme.IRAW)] * 2)
        a = runner.run_one(first)
        b = runner.run_one(second)
        assert a is b
        assert runner.stats.simulated == 1
        assert runner.stats.memory_hits == 1

    def test_batch_deduplicates(self):
        runner = ParallelRunner()
        results = runner.run(tiny_jobs(*[(500.0, ClockScheme.IRAW)] * 3))
        assert results[0] is results[1] is results[2]
        assert runner.stats.simulated == 1
        assert runner.stats.deduplicated == 2

    def test_batch_preserves_submission_order(self):
        points = [(650.0, ClockScheme.BASELINE), (500.0, ClockScheme.IRAW),
                  (500.0, ClockScheme.BASELINE)]
        results = ParallelRunner().run(tiny_jobs(*points))
        assert [(r.vcc_mv, r.scheme) for r in results] \
            == [(v, s.value) for v, s in points]

    def test_serial_errors_raise_keyed_engine_error(self):
        runner = ParallelRunner(workers=1)
        crash = Job(kind="engine-selftest-crash")
        with pytest.raises(EngineError) as excinfo:
            runner.run([crash])
        assert runner.stats.errors == 1
        message = str(excinfo.value)
        assert f"job '{crash.label}' (key {job_key(crash)}) failed" \
            in message
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "injected engine crash" in str(excinfo.value.__cause__)

    def test_single_job_on_parallel_runner_wraps_errors(self):
        # One pending job runs inline even with workers > 1, but the
        # runner's error contract (EngineError) must still hold.
        runner = ParallelRunner(workers=4)
        with pytest.raises(EngineError, match="failed"):
            runner.run([Job(kind="engine-selftest-crash")])

    def test_results_are_picklable(self):
        point = ParallelRunner().run(tiny_jobs((500.0, ClockScheme.IRAW)))[0]
        clone = pickle.loads(pickle.dumps(point))
        assert clone.cycles == point.cycles
        assert clone.point == point.point


class TestOnDiskCache:
    def test_warm_cache_rerun_performs_zero_simulations(self, tmp_path):
        points = [(650.0, ClockScheme.BASELINE), (500.0, ClockScheme.IRAW)]
        cold = ParallelRunner(cache=ResultCache(root=tmp_path))
        first = cold.run(tiny_jobs(*points))
        assert cold.stats.simulated == len(points)

        warm = ParallelRunner(cache=ResultCache(root=tmp_path))
        second = warm.run(tiny_jobs(*points))
        assert warm.stats.simulated == 0
        assert warm.stats.disk_hits == len(points)
        for a, b in zip(first, second):
            assert a.cycles == b.cycles and a.ipc == b.ipc

    def test_no_cache_runner_touches_no_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        experiment = tiny_experiment()  # default runner: memory-only
        experiment.runner.run(tiny_jobs((650.0, ClockScheme.BASELINE)))
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "here"))
        cache = ResultCache.default()
        assert cache.root == tmp_path / "here"


@pytest.mark.slow
class TestParallelExecution:
    def test_parallel_equals_serial_on_a_small_sweep(self, tmp_path):
        points = [(vcc, scheme)
                  for vcc in (650.0, 575.0, 500.0)
                  for scheme in (ClockScheme.BASELINE, ClockScheme.IRAW)]
        serial = ParallelRunner().run(tiny_jobs(*points))
        parallel_runner = ParallelRunner(workers=2,
                                         cache=ResultCache(root=tmp_path))
        parallel = parallel_runner.run(tiny_jobs(*points))
        for a, b in zip(serial, parallel):
            assert a.cycles == b.cycles
            assert a.instructions == b.instructions
            assert a.point == b.point
            assert a.ipc == b.ipc
        assert parallel_runner.stats.simulated == len(points)

    def test_worker_crash_propagates_as_engine_error(self):
        runner = ParallelRunner(workers=2)
        jobs = [Job(kind="engine-selftest-crash", options=(("note", str(i)),))
                for i in range(2)]
        with pytest.raises(EngineError, match="failed in a worker"):
            runner.run(jobs)
        assert runner.stats.errors >= 1

    def test_worker_crash_chains_original_exception(self):
        runner = ParallelRunner(workers=2)
        jobs = [Job(kind="engine-selftest-crash", options=(("note", str(i)),))
                for i in range(2)]
        with pytest.raises(EngineError) as excinfo:
            runner.run(jobs)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "injected engine crash" in str(excinfo.value.__cause__)

    def test_dvfs_schedule_batch_matches_direct_scenario(self):
        from repro.analysis.dvfs import DvfsScenario

        spec = TraceSpec.synthetic(KERNEL_LIKE, seed=3, length=600)
        phases = (DvfsPhase(650.0, 300), DvfsPhase(500.0, 300))
        batched, = ParallelRunner(workers=2).run(
            [schedule_job(spec, phases, ClockScheme.IRAW)])
        direct = DvfsScenario(scheme=ClockScheme.IRAW).run(
            spec.build(), list(phases))
        assert [p.cycles for p in batched.phases] \
            == [p.cycles for p in direct.phases]
        assert batched.total_time_s == direct.total_time_s


class TestRetryCounters:
    """EngineStats.requeued/retried: the queue backend's fault ledger."""

    @staticmethod
    def queue_runner(tmp_path, progress=None, **kwargs):
        from repro.engine import QueueBackend

        kwargs.setdefault("lease_timeout", 30.0)
        kwargs.setdefault("poll_interval", 0.02)
        kwargs.setdefault("local_workers", 1)
        return ParallelRunner(backend=QueueBackend(tmp_path / "spool",
                                                   **kwargs),
                              progress=progress)

    def test_clean_batches_count_no_retries(self, tmp_path):
        runner = self.queue_runner(tmp_path)
        runner.run([Job(kind="engine-selftest-sleep",
                        options=(("note", "clean"),))])
        assert runner.stats.requeued == 0
        assert runner.stats.retried == 0

    def test_every_redispatch_is_counted_once_per_event(self, tmp_path):
        runner = self.queue_runner(tmp_path, max_retries=2)
        with pytest.raises(EngineError):
            runner.run([Job(kind="engine-selftest-crash",
                            options=(("note", "counted"),))])
        # 3 executions: the first dispatch plus max_retries re-dispatches.
        assert runner.stats.requeued == 2
        assert runner.stats.retried == 1   # one distinct shard retried
        assert runner.stats.errors == 1

    def test_serial_and_pool_backends_never_requeue(self, tmp_path):
        serial = ParallelRunner()
        with pytest.raises(RuntimeError):
            serial.run([Job(kind="engine-selftest-crash")])
        assert serial.stats.requeued == 0 and serial.stats.retried == 0

    def test_requeues_surface_in_progress_output(self, tmp_path):
        from repro.engine import QueueBackend, job_key

        class RecordingProgress:
            def __init__(self):
                self.labels = []

            def start(self, total, label=""):
                pass

            def advance(self, done, total, label=""):
                self.labels.append(label)

            def finish(self, total, label=""):
                pass

        progress = RecordingProgress()
        backend = QueueBackend(tmp_path / "spool", local_workers=1,
                               lease_timeout=30.0, poll_interval=0.02)
        # A corrupt pre-existing result forces one quarantine + requeue;
        # the 0.15 s execution keeps it in place until the first poll.
        job = Job(kind="engine-selftest-sleep",
                  options=(("note", "drill"), ("sleep_s", 0.15)))
        (backend.broker.done_dir
         / f"{job_key(job)}.pkl").write_bytes(b"garbage")
        runner = ParallelRunner(backend=backend, progress=progress)
        runner.run([job], label="fault drill")
        assert runner.stats.requeued == 1
        assert progress.labels[-1] == "fault drill [requeued 1]"


class TestEngineKnobs:
    """The shared --workers/--no-cache wiring of every front end."""

    def test_worker_count_validation(self):
        import argparse

        from repro.engine.cli import worker_count

        assert worker_count("4") == 4
        assert worker_count("0") == 0
        with pytest.raises(argparse.ArgumentTypeError, match="integer"):
            worker_count("many")
        with pytest.raises(argparse.ArgumentTypeError, match=">= 0"):
            worker_count("-1")

    def test_build_runner_honors_no_cache(self, monkeypatch, tmp_path):
        from repro.engine import build_runner

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
        hermetic = build_runner(workers=1, no_cache=True)
        assert hermetic.cache is None
        cached = build_runner(workers=2, no_cache=False)
        assert cached.workers == 2
        assert cached.cache.root == tmp_path
        assert cached.cache.max_bytes == 4096

    def test_add_engine_arguments_roundtrip(self):
        import argparse

        from repro.engine import add_engine_arguments, runner_from_args

        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        args = parser.parse_args(["--workers", "3", "--no-cache"])
        runner = runner_from_args(args)
        assert runner.workers == 3
        assert runner.cache is None
        assert runner.backend.name == "pool"   # legacy auto-selection

    def test_backend_arguments_roundtrip(self, tmp_path):
        import argparse

        from repro.engine import add_engine_arguments, runner_from_args

        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        args = parser.parse_args(["--no-cache", "--backend", "serial",
                                  "--workers", "4"])
        assert runner_from_args(args).backend.name == "serial"
        args = parser.parse_args(["--no-cache", "--backend", "queue",
                                  "--queue", str(tmp_path)])
        runner = runner_from_args(args)
        assert runner.backend.name == "queue"
        assert runner.backend.broker.root == tmp_path

    def test_queue_dir_alone_implies_the_queue_backend(self, tmp_path):
        # `--queue DIR` without `--backend queue` must not silently run
        # locally while the operator's detached workers sit idle.
        import argparse

        from repro.engine import add_engine_arguments, runner_from_args

        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        args = parser.parse_args(["--no-cache", "--queue", str(tmp_path)])
        assert runner_from_args(args).backend.name == "queue"
        # ...and an explicit --workers N on the queue backend is called
        # out rather than silently dropped.
        args = parser.parse_args(["--no-cache", "--queue", str(tmp_path),
                                  "--workers", "4"])
        with pytest.warns(RuntimeWarning, match="workers"):
            assert runner_from_args(args).backend.name == "queue"

    def test_build_runner_resolves_backends(self, tmp_path):
        from repro.engine import build_runner

        assert build_runner(no_cache=True).backend.name == "serial"
        assert build_runner(workers=2,
                            no_cache=True).backend.name == "pool"
        runner = build_runner(no_cache=True, backend="queue",
                              queue_dir=tmp_path)
        assert runner.backend.name == "queue"

    def test_stats_hits_totals_both_tiers(self):
        from repro.engine import EngineStats

        stats = EngineStats(memory_hits=2, disk_hits=3)
        assert stats.hits == 5
        assert stats.requeued == 0 and stats.retried == 0


class TestTextProgress:
    class Stream:
        def __init__(self):
            self.chunks = []

        def write(self, text):
            self.chunks.append(text)

        def flush(self):
            pass

    def test_reports_batch_progress(self):
        from repro.engine import TextProgress

        stream = self.Stream()
        progress = TextProgress(stream=stream)
        progress.start(3, "sweep")
        progress.advance(1, 3, "sweep")
        progress.advance(3, 3, "sweep")
        progress.finish(3, "sweep")
        text = "".join(stream.chunks)
        assert "0/3 sweep" in text
        assert "1/3 sweep" in text
        assert "3/3 sweep" in text

    def test_small_batches_stay_silent(self):
        from repro.engine import TextProgress

        stream = self.Stream()
        progress = TextProgress(stream=stream, min_total=2)
        progress.start(1, "one")
        progress.advance(1, 1, "one")
        progress.finish(1, "one")
        assert stream.chunks == []

    def test_broken_stream_goes_silent(self):
        from repro.engine import TextProgress

        class Broken:
            def write(self, text):
                raise OSError("gone")

            def flush(self):  # pragma: no cover - never reached
                pass

        progress = TextProgress(stream=Broken())
        progress.start(5, "x")  # must not raise
        progress.advance(1, 5, "x")
        progress.finish(5, "x")


class TestStableTokenContainers:
    def test_dicts_and_sets_tokenize_deterministically(self):
        a = Job(kind="sweep-point",
                options=(("knob", {"b": 2, "a": frozenset({3, 1})}),))
        b = Job(kind="sweep-point",
                options=(("knob", {"a": frozenset({1, 3}), "b": 2}),))
        assert job_key(a) == job_key(b)


class TestBenchConftest:
    def test_record_table_tolerates_readonly_results_dir(self, monkeypatch,
                                                         tmp_path):
        conftest_path = (pathlib.Path(__file__).resolve().parent.parent
                         / "benchmarks" / "conftest.py")
        spec = importlib.util.spec_from_file_location("bench_conftest",
                                                      conftest_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        blocker = tmp_path / "occupied"
        blocker.write_text("results dir path is taken by a file")
        monkeypatch.setattr(module, "RESULTS_DIR", blocker / "results")
        with pytest.warns(RuntimeWarning, match="not writable"):
            module.record_table("t1", "table body")
        module.record_table("t2", "table body")  # silent skip, no crash
        assert [name for name, _ in module._TABLES] == ["t1", "t2"]
