"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py PHASE PARAMS_JSON

Phases:

``golden``
    Reproduce the committed goldens in ``tests/goldens/`` through one
    workload's runner configuration, with the campaigns of the golden
    suite ``tests/test_golden.py`` (untimed).
``fill``
    Fill a result cache with the shard grid and save its rows: the
    input of ``warm-regen`` (untimed).
``pass``
    One campaign: load the generated spec, run it as one engine batch,
    render every artifact.  ``setup_s`` runs from the parent's spawn
    stamp to the first job batch reaching the runner, ``wall_s`` from
    there until every artifact is rendered.  Output checks run after
    the clock stops.  With ``trace`` set, spans are recorded around the
    program's public functions and reduced to per-layer metrics; a
    traced pool pass also gives the runner the program's own trace
    sink, whose shard spans show how busy the pool's workers were.

The last stdout line is one JSON object.  Only the standard library is
imported before the pass starts timing the program's own import.
"""

import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's (pool
    worker), in MiB; Linux reports both in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _marked_runner(parallel_runner):
    class MarkedRunner(parallel_runner):
        """A runner that stamps when the first job batch reaches it."""

        submitted_mono = None
        submitted_perf = None
        first_batch = ()
        first_batch_stats = None

        def run(self, jobs, label=""):
            if self.submitted_mono is not None:
                return super().run(jobs, label)
            self.submitted_mono = time.monotonic()
            self.submitted_perf = time.perf_counter()
            self.first_batch = jobs = list(jobs)
            results = super().run(jobs, label)
            self.first_batch_stats = self.stats.as_dict()
            return results

    return MarkedRunner


def _runner(params, runner_cls, trace_sink=None):
    from repro.api import ResultCache
    from repro.engine.backends import PoolBackend

    cache = ResultCache(root=params["cache_dir"]) \
        if params.get("cache_dir") else None
    if params["backend"] == "pool":
        return runner_cls(backend=PoolBackend(workers=params["workers"]),
                          cache=cache, trace_sink=trace_sink)
    return runner_cls(workers=1, cache=cache, trace_sink=trace_sink)


def timed_pass(params: dict) -> dict:
    started = time.perf_counter()
    import repro.api
    import_s = time.perf_counter() - started

    tracer = sink = None
    cache_bytes = 0
    if params["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        if params["backend"] == "pool":
            # Every other traced pass keeps the program on its untraced
            # path: the sink moves the pool onto its timed executors.
            from repro.obs.trace import JsonlTraceSink

            sink = JsonlTraceSink(params["sink_path"])
    runner = _runner(params, _marked_runner(repro.api.ParallelRunner), sink)
    if tracer is not None and runner.cache is not None:
        cache_bytes = runner.cache.total_bytes()
    experiment = repro.api.Experiment(repro.api.load_spec(params["spec"]),
                                      runner=runner)
    experiment.run()
    artifacts = experiment.artifacts()
    ended = time.perf_counter()
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.stop()
        summary = tracer.summary(runner.submitted_perf, ended)
        tracer.dump(params["spans_path"])
        if sink is not None:
            sink.close()

    # -- untimed: output checks ------------------------------------------
    import campaigns

    checks = campaigns.Checks()
    instructions = campaigns.check_batch(runner, runner.first_batch, checks)
    workload = params["workload"]
    ess_fraction = 0.0
    if workload == "warm-regen":
        checks.check(runner.stats.simulated == 0,
                     f"warm-regen simulated {runner.stats.simulated} "
                     f"shards")
        with open(params["fill_rows"], encoding="utf-8") as handle:
            expected = json.load(handle)
        actual = json.loads(campaigns.canonical_rows(experiment, artifacts))
        for section in ("records", "artifacts"):
            checks.check(actual[section] == expected[section],
                         f"warm-regen {section} differ from the fill pass")
    if workload == "mc-tail":
        ess_fraction = campaigns.check_ess(artifacts["deep_tail"], checks)
    checks.check(all(artifacts.values()), "an artifact rendered empty")

    dies = experiment.spec.montecarlo.dies \
        if experiment.spec.montecarlo is not None else 0
    result = {
        "setup_s": runner.submitted_mono - params["spawned"],
        "wall_s": ended - runner.submitted_perf,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "instructions": instructions,
        "dies": dies,
        **checks.as_dict(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(
            summary, wall_s=result["wall_s"], import_s=import_s,
            batch_stats=runner.first_batch_stats, cache=runner.cache,
            cache_bytes=cache_bytes, sink=sink, workers=params["workers"],
            ess_fraction=ess_fraction)
    return result


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _pool_idle(sink, workers: int) -> tuple[float, float]:
    """Worker idle time and utilization over the campaign batch, from
    the pool pass's shard spans: of the batch's ``duration x workers``
    of worker time, Σ execute ran shards and the rest was idle."""
    from repro.obs.trace import read_spans

    spans = read_spans(sink.path)
    batch = next(span for span in spans if span.kind == "engine-batch")
    execute = sum(span.stages.get("execute", 0.0) for span in spans
                  if span.batch == batch.batch)
    capacity = batch.duration_s * workers
    return capacity - execute, _ratio(execute, capacity)


def layer_metrics(summary: dict, wall_s: float, import_s: float,
                  batch_stats: dict, cache, cache_bytes: int, sink,
                  workers: int, ess_fraction: float) -> dict:
    """Reduce one traced pass to the ``module.metric`` names."""
    from repro.engine.cache import CacheStats
    from repro.pipeline.stats import StallReason

    calls, total, own = summary["calls"], summary["total_s"], \
        summary["self_s"]
    counts = summary["counts"]
    core = counts.get("InOrderCore.run", {})
    metrics = {}

    simulate_s = own.get("InOrderCore.run", 0.0)
    instructions = core.get("instructions", 0)
    metrics["pipeline.simulate_s"] = simulate_s
    metrics["pipeline.sim_kips"] = _ratio(instructions, simulate_s) / 1e3
    metrics["pipeline.instructions"] = instructions
    metrics["pipeline.cycles"] = core.get("cycles", 0)
    for reason in StallReason:
        name = f"stall.{reason.value}"
        metrics[f"pipeline.{name}"] = core.get(name, 0)
    metrics["pipeline.iraw_violations"] = core.get("iraw_violations", 0)
    for block in ("il0", "dl0", "ul1"):
        metrics[f"memory.{block}_misses"] = core.get(f"{block}_misses", 0)
    metrics["branch.mispredicts"] = core.get("mispredicts", 0)

    builds = calls.get("TraceSpec.build", 0)
    memo_builds = summary["edges"].get("trace_for>TraceSpec.build", 0)
    requests = calls.get("trace_for", 0) + builds - memo_builds
    metrics["workloads.trace_build_s"] = total.get("TraceSpec.build", 0.0)
    metrics["workloads.traces_built"] = builds
    metrics["workloads.trace_memo_hit_rate"] = _ratio(requests - builds,
                                                      requests)
    metrics["workloads.riscv_s"] = total.get("run_riscv_program", 0.0)

    metrics["engine.warmup_s"] = total.get("warm_caches", 0.0)
    metrics["engine.execute_s"] = total.get("execute_job", 0.0)
    metrics["engine.job_key_s"] = total.get("job_key", 0.0)
    metrics["engine.job_keys"] = calls.get("job_key", 0)
    metrics["engine.aggregate_s"] = total.get("aggregate_shard_results",
                                              0.0)
    metrics["engine.dedup_ratio"] = _ratio(batch_stats["deduplicated"],
                                           batch_stats["submitted"])
    stats = cache.stats if cache is not None else CacheStats()
    metrics["engine.cache_read_s"] = own.get("ResultCache.get", 0.0)
    metrics["engine.cache_hit_rate"] = _ratio(stats.hits,
                                              stats.hits + stats.misses)
    metrics["engine.cache_write_s"] = own.get("ResultCache.put", 0.0)
    metrics["engine.cache_writes"] = stats.writes
    metrics["engine.cache_write_mb"] = (
        cache.total_bytes() - cache_bytes if cache is not None else 0) / 2**20
    metrics["engine.cache_flush_s"] = total.get("ResultCache.flush", 0.0)
    metrics["engine.fingerprint_s"] = total.get("code_fingerprint", 0.0)
    idle, utilization = _pool_idle(sink, workers) \
        if sink is not None else (0.0, 0.0)
    metrics["engine.queue_wait_s"] = idle
    metrics["engine.worker_util"] = utilization

    metrics["circuits.operating_point_s"] = total.get(
        "FrequencySolver.operating_point", 0.0)
    metrics["circuits.operating_points"] = calls.get(
        "FrequencySolver.operating_point", 0)
    metrics["analysis.dvfs_s"] = total.get("DvfsScenario.run", 0.0)

    sample_s = total.get("DieBlock.build", 0.0)
    eval_s = total.get("evaluate_block", 0.0)
    metrics["montecarlo.sample_s"] = sample_s
    metrics["montecarlo.sample_dies_per_s"] = _ratio(
        counts.get("DieBlock.build", {}).get("dies", 0), sample_s)
    metrics["montecarlo.eval_s"] = eval_s
    metrics["montecarlo.eval_die_points_per_s"] = _ratio(
        counts.get("evaluate_block", {}).get("dies", 0), eval_s)
    metrics["montecarlo.reduce_s"] = sum(
        total.get(name, 0.0) for name in ("yield_curve_rows", "vccmin_rows",
                                          "per_die_rows", "deep_tail_rows"))
    metrics["montecarlo.ess_fraction"] = ess_fraction

    metrics["experiments.plan_s"] = total.get("Experiment.plan", 0.0)
    metrics["experiments.render_s"] = total.get("Experiment.artifact", 0.0)
    metrics["api.import_s"] = import_s

    for layer, seconds in summary["layer_self_s"].items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["trace.wall_s"] = wall_s
    metrics["trace.unattributed_s"] = wall_s - summary["covered_s"]
    metrics["trace.spans"] = summary["spans"]
    return metrics


def golden(params: dict) -> dict:
    """Reproduce every committed golden through the workload's runner
    configuration, with the golden suite's own campaigns; warm-regen
    fills a cache first, then regenerates from it."""
    import pathlib

    import campaigns
    from repro.api import ParallelRunner

    suite = campaigns.golden_suite(pathlib.Path(params["root"]))
    checks = campaigns.Checks()
    runner = _runner(params, ParallelRunner)
    if params["workload"] == "warm-regen":
        campaigns.compute_goldens(suite, runner)
        runner = _runner(params, ParallelRunner)
    campaigns.check_goldens(suite, campaigns.compute_goldens(suite, runner),
                            checks)
    if params["workload"] == "warm-regen":
        checks.check(runner.stats.simulated == 0,
                     "warm golden regeneration simulated shards")
    return checks.as_dict()


def fill(params: dict) -> dict:
    """Fill warm-regen's cache with the shard grid; save its rows."""
    import campaigns
    from repro.api import Experiment, ParallelRunner, load_spec

    runner = _runner(params, ParallelRunner)
    experiment = Experiment(load_spec(params["spec"]), runner=runner)
    experiment.run()
    artifacts = experiment.artifacts()
    checks = campaigns.Checks()
    campaigns.check_batch(runner, experiment.plan(), checks)
    with open(params["fill_rows"], "w", encoding="utf-8") as handle:
        handle.write(campaigns.canonical_rows(experiment, artifacts))
    return checks.as_dict()


PHASES = {"golden": golden, "fill": fill, "pass": timed_pass}


if __name__ == "__main__":
    phase, params = sys.argv[1], json.loads(sys.argv[2])
    print(json.dumps(PHASES[phase](params)))
