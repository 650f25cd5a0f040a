"""Shard invariants of the per-trace execution engine.

Three properties guard the sharding refactor:

* shard keys are **stable** — the same shard hashes to the same key in
  any process, so cache entries written by one worker are valid for all;
* shard keys are **disjoint across traces** (and evaluation points), and
  **shared across populations** that contain the same trace — the
  property that makes growing a population re-simulate only new traces;
* shard **completion order is irrelevant** — the aggregation step reads
  shard results by key in population order, so any permutation of
  finishing workers yields the identical population result.
"""

import concurrent.futures
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import PointResult
from repro.analysis.sweep import SweepSettings, VccSweep
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.core.config import IrawConfig
from repro.engine import (
    EngineError,
    Job,
    ParallelRunner,
    ResultCache,
    TracePopulationSpec,
    TraceSpec,
    aggregate_shard_results,
    job_key,
    shard_jobs,
)
from repro.engine.executors import execute_job, warm_caches
from repro.obs.trace import JsonlTraceSink, read_spans
from repro.pipeline.core import CoreSetup, InOrderCore
from repro.workloads.profiles import (
    KERNEL_LIKE,
    OFFICE_LIKE,
    SPECINT_LIKE,
    STANDARD_PROFILES,
)

pytestmark = pytest.mark.engine

#: Four traces (2 profiles x 2 seeds), short enough to simulate in ms.
POPULATION = TracePopulationSpec(profiles=(KERNEL_LIKE, SPECINT_LIKE),
                                 seeds_per_profile=2, trace_length=300)


def population_job(vcc_mv: float = 500.0,
                   scheme: ClockScheme = ClockScheme.IRAW,
                   population: TracePopulationSpec = POPULATION) -> Job:
    sweep = VccSweep(SweepSettings(profiles=population.profiles,
                                   seeds_per_profile=population.seeds_per_profile,
                                   trace_length=population.trace_length))
    return sweep.job_for(vcc_mv, scheme)


def unsharded_result(job: Job) -> PointResult:
    """A sweep-point population job evaluated without shards.

    A fresh core per ``trace_specs()`` trace, caches warmed, results
    concatenated in population order: the reference the sharded
    aggregate must reproduce.
    """
    scheme = ClockScheme(job.scheme)
    solver = FrequencySolver(
        delay_model=job.option("delay_model"),
        nominal_frequency_mhz=job.option("nominal_frequency_mhz"))
    point = solver.operating_point(job.vcc_mv, scheme)
    memory = replace(job.option("memory"),
                     dram_latency_cycles=point.memory_latency_cycles(
                         job.option("dram_latency_ns")))
    setup = CoreSetup(
        iraw=IrawConfig.for_operating_point(point, **job.overrides_dict()),
        params=job.option("params"), memory=memory,
        name=f"{scheme.value}@{job.vcc_mv:g}mV", check_values=False)
    results = []
    for spec in job.population.trace_specs():
        trace = spec.build()
        core = InOrderCore(setup)
        warm_caches(core.memory, trace)
        results.append(core.run(trace))
    return PointResult(vcc_mv=job.vcc_mv, scheme=scheme.value, point=point,
                       results=tuple(results))


def _shard_keys(job: Job) -> list[str]:
    """Module-level so a ProcessPoolExecutor worker can run it."""
    return [job_key(shard) for shard in shard_jobs(job)]


class TestShardKeys:
    def test_stable_across_processes(self):
        job = population_job()
        parent_keys = _shard_keys(job)
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            child_keys = pool.submit(_shard_keys, job).result(timeout=120)
        assert child_keys == parent_keys

    def test_shards_cover_population_in_order(self):
        job = population_job()
        shards = shard_jobs(job)
        assert len(shards) == 4
        specs = POPULATION.trace_specs()
        assert tuple(s.trace for s in shards) == specs
        assert all(s.population is None for s in shards)
        assert all(s.kind == job.kind for s in shards)

    def test_disjoint_across_traces(self):
        keys = _shard_keys(population_job())
        assert len(set(keys)) == len(keys)

    @settings(max_examples=25, deadline=None)
    @given(vcc=st.sampled_from([650.0, 575.0, 500.0, 450.0, 400.0]),
           scheme=st.sampled_from([ClockScheme.BASELINE, ClockScheme.IRAW]))
    def test_disjoint_across_points(self, vcc, scheme):
        base = set(_shard_keys(population_job(500.0, ClockScheme.IRAW)))
        other = set(_shard_keys(population_job(vcc, scheme)))
        if (vcc, scheme) == (500.0, ClockScheme.IRAW):
            assert other == base
        else:
            assert not other & base

    def test_shared_trace_shares_keys_across_populations(self):
        # Same options, population grown by one profile: the common
        # traces' shard keys coincide — the incremental-reuse property.
        small = population_job()
        grown = population_job(population=TracePopulationSpec(
            profiles=(KERNEL_LIKE, SPECINT_LIKE, OFFICE_LIKE),
            seeds_per_profile=2, trace_length=300))
        small_keys = _shard_keys(small)
        grown_keys = _shard_keys(grown)
        assert set(small_keys) < set(grown_keys)
        assert len(set(grown_keys) - set(small_keys)) == 2  # new profile

    def test_unshardable_kinds_stay_atomic(self):
        schedule = Job(kind="dvfs-schedule", scheme="iraw",
                       trace=TraceSpec.synthetic(KERNEL_LIKE, length=300),
                       options=(("phases", ()),))
        assert shard_jobs(schedule) is None
        assert shard_jobs(Job(kind="engine-selftest-crash")) is None
        # A shard itself must not shard again.
        shard = shard_jobs(population_job())[0]
        assert shard_jobs(shard) is None


class TestAggregation:
    @pytest.fixture(scope="class")
    def executed(self):
        """One executed population: shard results by key + the reference."""
        job = population_job()
        shards = shard_jobs(job)
        keys = [job_key(s) for s in shards]
        results = {key: execute_job(shard)
                   for key, shard in zip(keys, shards)}
        return job, keys, results, unsharded_result(job)

    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(range(4)))
    def test_completion_order_never_changes_the_aggregate(self, executed,
                                                          order):
        job, keys, results, reference = executed
        # Replay the runner's flow: shards *complete* in `order`, the
        # memo is keyed, and the reduction walks keys in plan order.
        memo = {}
        for i in order:
            memo[keys[i]] = results[keys[i]]
        aggregated = aggregate_shard_results(
            job, [memo[key] for key in keys])
        assert aggregated == reference

    def test_aggregate_matches_legacy_per_field(self, executed):
        job, keys, results, reference = executed
        aggregated = aggregate_shard_results(
            job, [results[key] for key in keys])
        assert aggregated.vcc_mv == reference.vcc_mv
        assert aggregated.scheme == reference.scheme
        assert aggregated.point == reference.point
        assert aggregated.results == reference.results
        assert aggregated.extras == reference.extras
        assert aggregated.ipc == reference.ipc
        assert aggregated.cycles == reference.cycles

    def test_population_job_executes_only_as_shards(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="per-trace shards"):
            execute_job(population_job())

    def test_empty_shard_results_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="no shard results"):
            aggregate_shard_results(population_job(), [])


#: Many-trace/one-point shape (six profiles) for cache-reuse checks.
TINY_MANY = SweepSettings(profiles=STANDARD_PROFILES, trace_length=300)


class TestIncrementalCaching:
    def test_adding_one_trace_simulates_only_its_shards(self, tmp_path):
        points = [(500.0, ClockScheme.BASELINE), (500.0, ClockScheme.IRAW)]
        small = SweepSettings(profiles=(KERNEL_LIKE, SPECINT_LIKE),
                              trace_length=300)
        grown = SweepSettings(profiles=(KERNEL_LIKE, SPECINT_LIKE,
                                        OFFICE_LIKE), trace_length=300)

        cold = VccSweep(small, runner=ParallelRunner(
            cache=ResultCache(root=tmp_path)))
        cold.run_points(points)
        assert cold.stats.simulated == 2 * 2  # traces x points

        warm = VccSweep(grown, runner=ParallelRunner(
            cache=ResultCache(root=tmp_path)))
        warm.run_points(points)
        # Only the new trace's shards simulate; the old population's
        # shards are all served from the on-disk cache.
        assert warm.stats.simulated == 1 * 2
        assert warm.stats.disk_hits == 2 * 2

    def test_identical_regeneration_is_simulation_free(self, tmp_path):
        points = [(575.0, ClockScheme.IRAW)]
        first = VccSweep(TINY_MANY, runner=ParallelRunner(
            cache=ResultCache(root=tmp_path)))
        first.run_points(points)
        assert first.stats.simulated == len(TINY_MANY.profiles)
        again = VccSweep(TINY_MANY, runner=ParallelRunner(
            cache=ResultCache(root=tmp_path)))
        again.run_points(points)
        assert again.stats.simulated == 0


class TestWorkerSaturation:
    def test_many_trace_grid_exposes_enough_parallel_units(self):
        # 8 traces x 2 points: pre-sharding this batch held 2 executable
        # units and starved a 4-worker pool; sharded it holds 16.
        sweep = VccSweep(SweepSettings(profiles=STANDARD_PROFILES[:4],
                                       seeds_per_profile=2,
                                       trace_length=300))
        jobs = [sweep.job_for(500.0, ClockScheme.BASELINE),
                sweep.job_for(500.0, ClockScheme.IRAW)]
        units = [shard for job in jobs for shard in shard_jobs(job)]
        assert len(units) == 16
        assert len({job_key(unit) for unit in units}) == 16

    @pytest.mark.slow
    def test_pool_spreads_many_trace_grid_over_workers(self, tmp_path):
        # 8 traces x 2 points.  Wall-clock speedup is measured by
        # benchmarks/pool_speedup.py; tier-1 checks what is deterministic
        # and that the shards really ran in several worker processes.
        settings_ = SweepSettings(profiles=STANDARD_PROFILES[:4],
                                  seeds_per_profile=2, trace_length=6000)
        points = [(500.0, ClockScheme.BASELINE), (500.0, ClockScheme.IRAW)]
        serial_results = VccSweep(settings_).run_points(points)

        spans_path = tmp_path / "spans.jsonl"
        parallel_sweep = VccSweep(
            settings_, runner=ParallelRunner(
                workers=4, trace_sink=JsonlTraceSink(spans_path)))
        parallel_results = parallel_sweep.run_points(points)

        assert serial_results == parallel_results
        assert parallel_sweep.stats.simulated == 16
        shards = [span for span in read_spans(spans_path)
                  if span.kind != "engine-batch"]
        assert len(shards) == 16
        workers = {span.worker for span in shards}
        assert all(worker.startswith("pid:") for worker in workers)
        assert len(workers) > 1, workers


class TestShardFailureReporting:
    def test_engine_error_names_trace_and_job_key(self):
        # One pending job on a multi-worker runner runs inline but keeps
        # the wrapped-error contract — deterministic message check.
        crash = Job(kind="engine-selftest-crash",
                    trace=TraceSpec.synthetic(KERNEL_LIKE, seed=3,
                                              length=300))
        runner = ParallelRunner(workers=4)
        with pytest.raises(EngineError) as excinfo:
            runner.run([crash])
        message = str(excinfo.value)
        assert "trace=kernel-like/seed3" in message
        assert job_key(crash) in message
        assert "injected engine crash" in message

    @pytest.mark.slow
    def test_worker_process_error_names_trace_and_job_key(self):
        crashes = [Job(kind="engine-selftest-crash",
                       trace=TraceSpec.synthetic(KERNEL_LIKE, seed=seed,
                                                 length=300),
                       options=(("note", str(seed)),))
                   for seed in (0, 1)]
        runner = ParallelRunner(workers=2)
        with pytest.raises(EngineError) as excinfo:
            runner.run(crashes)
        message = str(excinfo.value)
        assert "in a worker process" in message
        assert "trace=kernel-like/seed" in message
        assert any(job_key(job) in message for job in crashes)

    def test_shard_label_names_its_trace(self):
        shard = shard_jobs(population_job())[0]
        assert "trace=kernel-like/seed0" in shard.label
        assert "iraw@500mV" in shard.label
