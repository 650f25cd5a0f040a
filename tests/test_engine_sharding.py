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

Trace units add one more: a unit simulates each distinct machine once,
yet every job's result equals a core built for that job alone.
"""

import concurrent.futures
import copy
import dataclasses
import importlib.util
import itertools
import pathlib
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dvfs import DvfsPhase, DvfsScenario, schedule_job
from repro.analysis.metrics import PointResult
from repro.baselines.extra_bypass import ExtraBypassBaseline
from repro.baselines.faulty_bits import FaultyBitsBaseline
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
from repro.experiments import Experiment, ExperimentSpec
from repro.obs.trace import JsonlTraceSink, read_spans
from repro.pipeline.core import CoreSetup, InOrderCore
from repro.pipeline.stats import StallReason
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


def experiment_of(profiles, trace_length: int = 300, seeds: int = 1,
                  warm: bool = True, runner=None) -> Experiment:
    """An experiment over ``profiles`` (TraceProfile values)."""
    return Experiment(ExperimentSpec(
        name="shards", profiles=tuple(profile.name for profile in profiles),
        seeds_per_profile=seeds, trace_length=trace_length, warm=warm),
        runner=runner)


def population_job(vcc_mv: float = 500.0,
                   scheme: ClockScheme = ClockScheme.IRAW,
                   population: TracePopulationSpec = POPULATION) -> Job:
    experiment = experiment_of(population.profiles, population.trace_length,
                               population.seeds_per_profile)
    return experiment.population_job(vcc_mv, scheme)


def run_points(experiment: Experiment, points) -> list[PointResult]:
    """Resolve ``(vcc_mv, scheme)`` points through the experiment's runner."""
    return experiment.runner.run([experiment.population_job(vcc, scheme)
                                  for vcc, scheme in points])


def unsharded_result(job: Job) -> PointResult:
    """A population job evaluated without shards or trace units.

    A fresh core per ``trace_specs()`` trace, set up the way the job's
    kind sets it up (``sweep-point``, ``faulty-bits`` with its disabled
    lines, ``extra-bypass``), caches warmed unless ``warm`` is off,
    results concatenated in population order: the reference the engine
    must reproduce.
    """
    solver = FrequencySolver(
        delay_model=job.option("delay_model"),
        nominal_frequency_mhz=job.option("nominal_frequency_mhz"))
    params = job.option("params")
    mutate = None
    iraw = IrawConfig.disabled()
    if job.kind == "faulty-bits":
        baseline = FaultyBitsBaseline(solver)
        point = baseline.operating_point(job.vcc_mv)
        name = "faulty-bits"
        mutate = baseline.apply_to_memory
    elif job.kind == "extra-bypass":
        baseline = ExtraBypassBaseline(solver)
        hypothetical = job.option("hypothetical_rf_only", False)
        point = baseline.operating_point(job.vcc_mv,
                                         hypothetical_rf_only=hypothetical)
        name = "extra-bypass"
        params = replace(params, rf_write_ports=baseline.write_ports,
                         rf_write_cycles=baseline.write_cycles(job.vcc_mv)
                         if hypothetical else 1)
    else:
        scheme = ClockScheme(job.scheme)
        point = solver.operating_point(job.vcc_mv, scheme)
        if scheme is ClockScheme.IRAW:
            iraw = IrawConfig.for_operating_point(point,
                                                  **job.overrides_dict())
        name = f"{scheme.value}@{job.vcc_mv:g}mV"
    memory = replace(job.option("memory"),
                     dram_latency_cycles=point.memory_latency_cycles(
                         job.option("dram_latency_ns")))
    setup = CoreSetup(iraw=iraw, params=params, memory=memory, name=name)
    results, extras = [], {}
    for spec in job.population.trace_specs():
        trace = spec.build()
        core = InOrderCore(setup)
        if mutate is not None:
            extras = mutate(core.memory)
        if job.option("warm", True):
            warm_caches(core.memory, trace)
        results.append(core.run(trace))
    return PointResult(vcc_mv=job.vcc_mv, scheme=job.scheme, point=point,
                       results=tuple(results),
                       extras=tuple(sorted(extras.items())))


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


class TestIncrementalCaching:
    def test_adding_one_trace_simulates_only_its_shards(self, tmp_path):
        points = [(500.0, ClockScheme.BASELINE), (500.0, ClockScheme.IRAW)]
        small = experiment_of((KERNEL_LIKE, SPECINT_LIKE),
                              runner=ParallelRunner(
                                  cache=ResultCache(root=tmp_path)))
        run_points(small, points)
        assert small.stats.simulated == 2 * 2  # traces x points

        grown = experiment_of((KERNEL_LIKE, SPECINT_LIKE, OFFICE_LIKE),
                              runner=ParallelRunner(
                                  cache=ResultCache(root=tmp_path)))
        run_points(grown, points)
        # Only the new trace's shards simulate; the old population's
        # shards are all served from the on-disk cache.
        assert grown.stats.simulated == 1 * 2
        assert grown.stats.disk_hits == 2 * 2

    def test_identical_regeneration_is_simulation_free(self, tmp_path):
        # Many traces (all six profiles), one point.
        points = [(575.0, ClockScheme.IRAW)]
        first = experiment_of(STANDARD_PROFILES, runner=ParallelRunner(
            cache=ResultCache(root=tmp_path)))
        run_points(first, points)
        assert first.stats.simulated == len(STANDARD_PROFILES)
        again = experiment_of(STANDARD_PROFILES, runner=ParallelRunner(
            cache=ResultCache(root=tmp_path)))
        run_points(again, points)
        assert again.stats.simulated == 0


class TestWorkerSaturation:
    def test_many_trace_grid_exposes_enough_parallel_units(self):
        # 8 traces x 2 points: pre-sharding this batch held 2 executable
        # units and starved a 4-worker pool; sharded it holds 16.
        experiment = experiment_of(STANDARD_PROFILES[:4], seeds=2)
        jobs = [experiment.population_job(500.0, ClockScheme.BASELINE),
                experiment.population_job(500.0, ClockScheme.IRAW)]
        units = [shard for job in jobs for shard in shard_jobs(job)]
        assert len(units) == 16
        assert len({job_key(unit) for unit in units}) == 16

    @pytest.mark.slow
    def test_pool_spreads_many_trace_grid_over_workers(self, tmp_path):
        # 8 traces x 2 points.  Wall-clock speedup is measured by
        # benchmarks/pool_speedup.py; tier-1 checks what is deterministic
        # and that the shards really ran in several worker processes.
        points = [(500.0, ClockScheme.BASELINE), (500.0, ClockScheme.IRAW)]
        serial_results = run_points(
            experiment_of(STANDARD_PROFILES[:4], 6000, seeds=2), points)

        spans_path = tmp_path / "spans.jsonl"
        parallel = experiment_of(
            STANDARD_PROFILES[:4], 6000, seeds=2, runner=ParallelRunner(
                workers=4, trace_sink=JsonlTraceSink(spans_path)))
        parallel_results = run_points(parallel, points)

        assert serial_results == parallel_results
        assert parallel.stats.simulated == 16
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


# ----------------------------------------------------------------------
# Trace units: each distinct machine is simulated once per unit
# ----------------------------------------------------------------------

REPO = pathlib.Path(__file__).resolve().parent.parent

#: The paper's 700 -> 400 mV sweep.
GRID_MV = (700.0, 650.0, 600.0, 550.0, 500.0, 450.0, 400.0)

#: The four IRAW mechanism switches.
SWITCHES = ("rf_enabled", "iq_enabled", "cache_guards_enabled",
            "stable_enabled")


@pytest.fixture
def core_runs(monkeypatch):
    """The trace names of every ``InOrderCore.run`` call in this process."""
    calls = []
    original = InOrderCore.run

    def counted(self, trace, *args, **kwargs):
        calls.append(trace.name)
        return original(self, trace, *args, **kwargs)

    monkeypatch.setattr(InOrderCore, "run", counted)
    return calls


def baseline_jobs(experiment: Experiment, vcc_mv: float,
                  hypothetical_rf_only: bool) -> list[Job]:
    """Table 1's Faulty Bits and Extra Bypass jobs at one point."""
    return [
        experiment.population_job(vcc_mv, "faulty-bits", kind="faulty-bits"),
        experiment.population_job(
            vcc_mv, "extra-bypass", kind="extra-bypass",
            options=(("hypothetical_rf_only", hypothetical_rf_only),)),
    ]


def assert_fresh(results, jobs) -> None:
    """Each job's result equals fresh cores built for that job alone,
    field by field, ``config_name`` included."""
    for result, job in zip(results, jobs, strict=True):
        reference = unsharded_result(job)
        for field in dataclasses.fields(PointResult):
            if field.name != "results":
                assert getattr(result, field.name) \
                    == getattr(reference, field.name), (job.label, field)
        for got, want in zip(result.results, reference.results,
                             strict=True):
            for field in dataclasses.fields(want):
                assert getattr(got, field.name) \
                    == getattr(want, field.name), (job.label, field.name)


@st.composite
def unit_batches(draw):
    """2-3 short traces, part of the 700 -> 400 mV grid, three clock
    schemes with random switch overrides, warm or cold, plus the two
    Table 1 baselines at every drawn point."""
    profiles = tuple(draw(st.lists(st.sampled_from(STANDARD_PROFILES),
                                   min_size=2, max_size=3,
                                   unique_by=lambda profile: profile.name)))
    length = draw(st.integers(min_value=200, max_value=400))
    experiments = {warm: experiment_of(profiles, length, warm=warm)
                   for warm in (True, False)}
    grid = draw(st.lists(st.sampled_from(GRID_MV), min_size=1, max_size=4,
                         unique=True))
    jobs = []
    for vcc_mv in grid:
        schemes = draw(st.lists(st.sampled_from([ClockScheme.BASELINE,
                                                 ClockScheme.IRAW,
                                                 ClockScheme.LOGIC]),
                                min_size=1, max_size=3, unique=True))
        for scheme in schemes:
            overrides = draw(st.dictionaries(st.sampled_from(SWITCHES),
                                             st.booleans()))
            experiment = experiments[draw(st.booleans())]
            jobs.append(experiment.population_job(vcc_mv, scheme, overrides))
        jobs += baseline_jobs(experiments[draw(st.booleans())], vcc_mv,
                              draw(st.booleans()))
    return jobs


class TestTraceUnits:
    @settings(max_examples=12, deadline=None)
    @given(jobs=unit_batches())
    def test_every_job_matches_a_fresh_core(self, jobs):
        assert_fresh(ParallelRunner(workers=1).run(jobs), jobs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fixed_batch_matches_fresh_cores(self, tmp_path, workers):
        # N = 0 ablations, an N > 0 ablation, cold runs at two DRAM
        # latencies and both baselines, over two traces.
        warm = experiment_of((KERNEL_LIKE, SPECINT_LIKE))
        cold = experiment_of((KERNEL_LIKE, SPECINT_LIKE), warm=False)
        rf_off = {"rf_enabled": False}
        jobs = [warm.population_job(650.0, ClockScheme.BASELINE),
                warm.population_job(650.0, ClockScheme.IRAW, rf_off),
                warm.population_job(500.0, ClockScheme.IRAW),
                warm.population_job(500.0, ClockScheme.IRAW, rf_off),
                cold.population_job(700.0, ClockScheme.BASELINE),
                cold.population_job(450.0, ClockScheme.LOGIC),
                *baseline_jobs(warm, 500.0, True),
                *baseline_jobs(cold, 600.0, False)]
        spans_path = tmp_path / "spans.jsonl"
        results = ParallelRunner(
            workers=workers,
            trace_sink=JsonlTraceSink(spans_path)).run(jobs)
        assert_fresh(results, jobs)
        # One chunk per trace unit: every shard of a trace ran in one
        # process.
        workers_by_trace: dict = {}
        for span in read_spans(spans_path):
            if span.kind != "engine-batch":
                trace = span.label.split("trace=")[1].split()[0]
                workers_by_trace.setdefault(trace, set()).add(span.worker)
        assert len(workers_by_trace) == 2
        assert all(len(tags) == 1 for tags in workers_by_trace.values())

    def test_dram_latency_is_shared_only_by_runs_that_never_read_it(
            self, core_runs):
        # Cold, the trace misses to DRAM, so 700 and 650 mV (different
        # DRAM latencies in cycles) run the same machine twice.
        cold = experiment_of((SPECINT_LIKE,), 400, warm=False)
        jobs = [cold.population_job(700.0, ClockScheme.BASELINE),
                cold.population_job(650.0, ClockScheme.BASELINE)]
        high, low = ParallelRunner().run(jobs)
        assert len(core_runs) == 2
        assert high.results[0].cycles != low.results[0].cycles
        assert_fresh([high, low], jobs)
        # Warmed, it never reaches DRAM: one run serves both latencies.
        warm = experiment_of((SPECINT_LIKE,), 400)
        del core_runs[:]
        ParallelRunner().run(
            [warm.population_job(vcc, ClockScheme.BASELINE)
             for vcc in (700.0, 650.0)])
        assert len(core_runs) == 1

    @pytest.mark.parametrize("profile", [SPECINT_LIKE, KERNEL_LIKE,
                                         OFFICE_LIKE],
                             ids=lambda profile: profile.name)
    def test_switches_do_nothing_at_n0(self, profile):
        trace = TraceSpec.synthetic(profile, length=400).build()

        def run(**switches):
            setup = CoreSetup(iraw=IrawConfig(**switches))
            return InOrderCore(setup).run(trace)

        all_on = run()
        for values in itertools.product((True, False), repeat=4):
            switches = dict(zip(SWITCHES, values))
            assert run(**switches) == all_on, switches
            assert IrawConfig(**switches).effective() == IrawConfig()
            at_n1 = IrawConfig(stabilization_cycles=1, **switches)
            assert at_n1.effective() == at_n1

    def test_shipped_campaign_runs_each_machine_once(self, core_runs):
        spec = ExperimentSpec.load(REPO / "examples" / "lowvcc_campaign.toml")
        runner = ParallelRunner()
        Experiment(spec, runner=runner).run()
        # 9 population runs (3 traces x 3 machines) plus 10 DVFS phase
        # machines: two schedules of three phases under two schemes, less
        # the 650 and 700 mV phases, where IRAW (N = 0) runs the
        # baseline's machine.  21 before DVFS phases shared machines, 78
        # before trace units.
        assert len(core_runs) == 19
        assert runner.stats.simulated == 70

    def test_dvfs_schedules_share_n0_phases(self, core_runs):
        trace = TraceSpec.synthetic(OFFICE_LIKE, seed=5, length=900)
        phases = (DvfsPhase(650.0, 300), DvfsPhase(450.0, 300),
                  DvfsPhase(700.0, 300))
        schemes = (ClockScheme.BASELINE, ClockScheme.IRAW)
        outcomes = ParallelRunner().run(
            [schedule_job(trace, phases, scheme) for scheme in schemes])
        # Three baseline phases and IRAW's 450 mV one: at 650 and 700 mV
        # N = 0, so IRAW runs the baseline's machine.
        assert len(core_runs) == 4
        built = trace.build()
        for outcome, scheme in zip(outcomes, schemes, strict=True):
            alone = DvfsScenario(scheme=scheme).run(built, list(phases))
            assert outcome == alone
        shared = {id(phase) for phase in outcomes[0].phases}
        assert not shared & {id(phase) for phase in outcomes[1].phases}
        assert outcomes[0].phases[0].cycles == outcomes[1].phases[0].cycles

    def test_pool_speedup_grid_repeats_no_machine(self, core_runs):
        path = REPO / "benchmarks" / "pool_speedup.py"
        spec = importlib.util.spec_from_file_location("pool_speedup", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        runner = ParallelRunner()
        module.timed_grid(runner)
        assert len(core_runs) == runner.stats.simulated == 16

    def test_jobs_never_share_result_objects(self, core_runs):
        experiment = experiment_of((KERNEL_LIKE,))
        # All three are the baseline machine (N = 0 at 650 and 700 mV).
        results = ParallelRunner().run([
            experiment.population_job(650.0, ClockScheme.BASELINE),
            experiment.population_job(650.0, ClockScheme.IRAW),
            experiment.population_job(700.0, ClockScheme.IRAW,
                                      {"rf_enabled": False})])
        assert len(core_runs) == 1
        before = copy.deepcopy(results)
        edited = results[0].results[0]
        edited.stalls.cycles[StallReason.RF_DEPENDENCY] += 1
        edited.memory_stats["IL0"]["misses"] += 1
        edited.prediction_hazards["bp_predictions"] += 1
        assert results[0] != before[0]
        assert results[1:] == before[1:]

    def test_units_group_pending_jobs_by_trace(self):
        from repro.engine.backends import trace_units

        first = TraceSpec.synthetic(KERNEL_LIKE, length=300)
        second = TraceSpec.synthetic(SPECINT_LIKE, length=300)
        pending = {
            "a": Job(kind="engine-selftest-sleep", trace=first),
            "b": Job(kind="engine-selftest-sleep"),
            "c": Job(kind="engine-selftest-sleep", trace=second),
            "d": Job(kind="engine-selftest-sleep", trace=first,
                     options=(("note", "d"),)),
            "e": Job(kind="engine-selftest-sleep", options=(("note", "e"),)),
        }
        units = [[key for key, _ in unit] for unit in trace_units(pending)]
        assert units == [["a", "d"], ["b"], ["c"], ["e"]]
