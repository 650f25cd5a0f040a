"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``run``       execute a declarative experiment spec file (TOML/JSON)
``figures``   regenerate the paper's figures as ASCII tables
``compare``   baseline-vs-IRAW comparison at chosen Vcc levels
``mc``        Monte-Carlo die sampling: yield and Vccmin distributions
``simulate``  run one kernel or synthetic trace on the pipeline
``trace``     generate a synthetic trace; ``trace report`` summarizes
              a ``--trace-out`` telemetry span file
``kernels``   list the built-in kernels
``calibrate`` re-run the circuit-model fit and report the anchors
``cache``     inspect or clear the on-disk result cache (``--stats``
              for a read-only usage/hit-rate report)
``queue``     inspect a queue spool / garbage-collect stale versions
``worker``    run a queue-backend worker against a spool directory
``serve``     run the always-on HTTP/JSON experiment service
``submit``    POST a spec file to a running service
``status``    report a served campaign's state
``results``   stream/export a served campaign's result rows

``repro run experiment.toml`` is the declarative front end: the spec
file names a trace population, a Vcc grid, clock schemes, ablations,
DVFS schedules and a list of named artifacts (``table1``, ``fig11b``,
``fig12``, ``energy450``, ``overheads``, ``dvfs``), and one driver
(:class:`repro.experiments.Experiment`) compiles it into a single
engine batch.  ``figures``, ``compare`` and ``mc`` are conveniences
that build the equivalent spec in memory and run it through the same
driver; ``mc --dies N`` sweeps N sampled dies across the Vcc grid
(``yield_curve`` + ``vccmin_dist`` artifacts), ``--block B`` batches
them into vectorized ``mc-block`` jobs of B dies each,
``--importance-shift S`` importance-samples the deep tail (adding the
``deep_tail`` artifact), and ``run`` accepts the same
``--dies``/``--confidence``/``--block``/``--importance-shift``
overrides for spec files with a ``[montecarlo]`` section.

The simulation-backed subcommands run their evaluation points through
the experiment engine: every point is sharded per trace, ``--workers N``
spreads the shards across N processes (``0`` = one per CPU) and
completed shards persist in the on-disk result cache
(``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``) unless ``--no-cache`` is given.
``$REPRO_CACHE_MAX_BYTES`` bounds the cache; ``cache --prune`` evicts
least-recently-used entries beyond the bound and reclaims stale code
versions.

``--backend queue`` spools the shards through a filesystem broker
(``--queue DIR`` or ``$REPRO_QUEUE_DIR``) instead of executing them
in-process: start any number of ``python -m repro worker --queue DIR``
processes — other terminals, other machines sharing the directory — and
the runner collects their results, re-dispatching shards lost to
crashed workers.  ``repro queue --gc`` (or ``repro worker --gc``)
deletes spool version directories stranded by old code versions.
Configuration errors (bad spool or cache roots, unknown backends) exit
with a one-line message and status 2.

Telemetry: every engine-backed subcommand accepts ``--trace-out PATH``
(or honors ``$REPRO_TRACE_DIR``) to append one JSON span per resolved
shard — stage timings for plan, cache read, queue wait, execute, cache
write and aggregate — and ``repro trace report RUN.jsonl`` renders the
per-stage breakdown, slowest shards and cache hit rates.
``GET /v1/metrics`` on the service returns Prometheus text when asked
with ``Accept: text/plain``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import repro
from repro.analysis.figures import figure1_series
from repro.analysis.reporting import format_table
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.engine import (
    ParallelRunner,
    ResultCache,
    TextProgress,
    add_engine_arguments,
    runner_from_args,
)
from repro.engine.broker import (
    QUEUE_DIR_ENV,
    SpoolBroker,
    WorkerSupervisor,
    prune_stale_versions,
    spool_status,
    worker_main,
)
from repro.engine.executors import run_core
from repro.engine.jobs import TraceSpec
from repro.errors import ConfigError
from repro.experiments import KNOWN_ARTIFACTS, Experiment, ExperimentSpec
from repro.experiments.artifacts import ARTIFACTS
from repro.montecarlo.importance import ImportanceSpec
from repro.serve.cli import add_serve_subcommands, dispatch_serve
from repro.workloads.kernels import KERNEL_BUILDERS
from repro.workloads.profiles import PROFILES_BY_NAME
from repro.workloads.synthetic import SyntheticTraceGenerator
from repro.workloads.traceio import load_trace, save_trace


def _build_runner(args) -> ParallelRunner:
    """The engine configuration requested on the command line."""
    progress = TextProgress() if sys.stderr.isatty() else None
    return runner_from_args(args, progress=progress)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'High-Performance Low-Vcc In-Order "
                    "Core' (HPCA 2010)")
    parser.add_argument("--version", action="version",
                        version=f"repro {repro.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="execute a declarative experiment spec file",
        description="Load an ExperimentSpec from a TOML or JSON file, "
                    "compile it into one engine batch, and render the "
                    "artifacts it lists.  Any user-authored grid runs "
                    "this way — new scenarios need a spec file, not "
                    "new code.")
    run.add_argument("spec", help="spec file (.toml or .json)")
    run.add_argument("--artifact", action="append", metavar="NAME",
                     choices=KNOWN_ARTIFACTS, default=None,
                     help="render only this artifact (repeatable; "
                          "default: the spec's list)")
    run.add_argument("--export-csv", metavar="PATH", default=None,
                     help="write the flat ResultSet as CSV")
    run.add_argument("--export-json", metavar="PATH", default=None,
                     help="write the flat ResultSet as JSON")
    run.add_argument("--dry-run", action="store_true",
                     help="print the campaign plan without simulating")
    run.add_argument("--json", action="store_true",
                     help="with --dry-run: emit the planned jobs (kind, "
                          "trace origin, canonical key) as JSON — the "
                          "same serializer behind the service's "
                          "POST /v1/campaigns?dry_run=1")
    run.add_argument("--dies", type=int, default=None, metavar="N",
                     help="override the spec's montecarlo die count")
    run.add_argument("--confidence", type=float, default=None,
                     metavar="C",
                     help="override the spec's montecarlo confidence "
                          "level for yield intervals")
    run.add_argument("--block", type=int, default=None, metavar="B",
                     help="override the spec's montecarlo block size "
                          "(dies per vectorized mc-block job)")
    run.add_argument("--importance-shift", default=None, metavar="S",
                     help="override the spec's montecarlo importance "
                          "proposal shift (cell sigmas, or 'auto')")
    add_engine_arguments(run)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("--artifact", default="circuit",
                         choices=["fig1", "fig11a", "fig11b", "fig12",
                                  "circuit", "all"],
                         help="'circuit' = fig1+fig11a (fast); 'all' "
                              "includes the simulated figures")
    figures.add_argument("--step", type=float, default=25.0)
    figures.add_argument("--length", type=int, default=6000)
    add_engine_arguments(figures)

    compare = sub.add_parser("compare", help="baseline vs IRAW at Vcc levels")
    compare.add_argument("--vcc", type=float, nargs="+",
                         default=[575.0, 500.0, 450.0, 400.0])
    compare.add_argument("--length", type=int, default=6000)
    add_engine_arguments(compare)

    mc = sub.add_parser(
        "mc", help="Monte-Carlo die sampling: yield and Vccmin",
        description="Sample dies (seeded Gaussian Vth maps over the "
                    "paper's SRAM arrays) and evaluate each against "
                    "the design clock across a Vcc grid.  Renders the "
                    "yield_curve and vccmin_dist artifacts; every "
                    "(die, Vcc, scheme) point is an ordinary engine "
                    "job, so workers, backends and the result cache "
                    "apply as usual.")
    mc.add_argument("--dies", type=int, default=64, metavar="N",
                    help="number of sampled dies (default 64)")
    mc.add_argument("--block", type=int, default=None, metavar="B",
                    help="dies per vectorized mc-block job (default 1)")
    mc.add_argument("--confidence", type=float, default=0.95, metavar="C",
                    help="confidence level for Wilson yield intervals "
                         "(default 0.95)")
    mc.add_argument("--seed", type=int, default=0,
                    help="campaign seed (each die derives its own "
                         "independent RNG stream from it)")
    mc.add_argument("--vcc", type=float, nargs="+", default=None,
                    help="explicit Vcc grid in mV (default: the paper "
                         "sweep at --step)")
    mc.add_argument("--step", type=float, default=25.0,
                    help="grid step for the default 700->400 mV sweep")
    mc.add_argument("--schemes", nargs="+",
                    default=["baseline", "iraw"],
                    choices=[s.value for s in ClockScheme],
                    help="clock schemes to bin dies under")
    mc.add_argument("--importance-shift", default=None, metavar="S",
                    help="importance-sample the deep tail: shift the "
                         "die-to-die Vth offset S cell sigmas toward "
                         "failure ('auto' resolves a deep-tail shift "
                         "from the design margin); adds the deep_tail "
                         "artifact")
    mc.add_argument("--export-csv", metavar="PATH", default=None,
                    help="write the flat ResultSet as CSV")
    mc.add_argument("--export-json", metavar="PATH", default=None,
                    help="write the flat ResultSet as JSON")
    add_engine_arguments(mc)

    simulate = sub.add_parser("simulate", help="run one workload")
    source = simulate.add_mutually_exclusive_group(required=True)
    source.add_argument("--kernel", choices=sorted(KERNEL_BUILDERS))
    source.add_argument("--profile", choices=sorted(PROFILES_BY_NAME))
    source.add_argument("--trace-file", help="JSON-lines trace file")
    simulate.add_argument("--size", type=int, default=32,
                          help="kernel problem size")
    simulate.add_argument("--length", type=int, default=6000,
                          help="synthetic trace length")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--vcc", type=float, default=500.0)
    simulate.add_argument("--scheme", default="iraw",
                          choices=["baseline", "iraw", "logic"])
    simulate.add_argument("--cold", action="store_true",
                          help="skip the cache warmup pass")

    trace = sub.add_parser(
        "trace", help="generate a trace / report on a telemetry run",
        description="Without a subcommand: generate a synthetic "
                    "instruction trace (--profile/--out required).  "
                    "'trace report RUN.jsonl' instead summarizes a "
                    "telemetry span file written by --trace-out or "
                    "$REPRO_TRACE_DIR.")
    trace.add_argument("--profile", default=None,
                       choices=sorted(PROFILES_BY_NAME))
    trace.add_argument("--length", type=int, default=10_000)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", default=None)
    trace_sub = trace.add_subparsers(dest="trace_command")
    trace_report = trace_sub.add_parser(
        "report", help="summarize a --trace-out span file",
        description="Render per-stage wall-clock percentiles, the "
                    "slowest executed shards and per-kind cache hit "
                    "rates from a JSONL span file.")
    trace_report.add_argument("trace_file", metavar="RUN.jsonl",
                              help="span file written by --trace-out")
    trace_report.add_argument("--top", type=int, default=10, metavar="N",
                              help="slowest shards to list (default 10)")
    trace_report.add_argument("--json", action="store_true",
                              help="emit the summary as JSON")

    sub.add_parser("kernels", help="list built-in kernels")
    sub.add_parser("calibrate", help="re-fit the circuit model")

    cache = sub.add_parser("cache", help="inspect/clear the result cache")
    cache.add_argument("--clear", action="store_true",
                       help="delete every entry of the current code version")
    cache.add_argument("--prune", action="store_true",
                       help="delete entries from stale code versions and "
                            "evict least-recently-used entries beyond "
                            "$REPRO_CACHE_MAX_BYTES")
    cache.add_argument("--dry-run", action="store_true",
                       help="with --prune: report what would be deleted "
                            "without touching the store")
    cache.add_argument("--stats", action="store_true",
                       help="read-only usage report: entry count, bytes, "
                            "per-version breakdown and hit rate since "
                            "the last prune")
    cache.add_argument("--json", action="store_true",
                       help="with --stats: emit the report as JSON")

    queue = sub.add_parser(
        "queue", help="inspect a queue spool / GC stale versions",
        description="Report the spool's current-version backlog "
                    "(pending/claimed/done/failed shard counts) and, "
                    "with --gc, delete version directories stranded by "
                    "older code versions.")
    queue.add_argument("--queue", metavar="DIR", default=None,
                       help=f"spool directory (default ${QUEUE_DIR_ENV})")
    queue.add_argument("--gc", action="store_true",
                       help="delete stale version directories under the "
                            "spool root and report what was removed")
    queue.add_argument("--json", action="store_true",
                       help="emit per-version depth/age counts as JSON "
                            "(the /v1/metrics queue data source)")

    worker = sub.add_parser(
        "worker", help="run a queue-backend worker",
        description="Claim per-trace shards from a spool directory "
                    "(written by a '--backend queue' run), execute them "
                    "and publish the results.  Run any number of these, "
                    "on any machine that shares the directory.")
    worker.add_argument("--queue", metavar="DIR", default=None,
                        help=f"spool directory (default ${QUEUE_DIR_ENV})")
    worker.add_argument("--concurrency", type=int, default=1, metavar="N",
                        help="worker processes to run (default 1)")
    worker.add_argument("--poll", type=float, default=0.2, metavar="S",
                        help="seconds between claim attempts when idle")
    worker.add_argument("--idle-exit", type=float, default=None, metavar="S",
                        help="exit after S seconds with nothing to claim "
                             "(default: serve forever; 2 for supervised "
                             "workers)")
    worker.add_argument("--max-shards", type=int, default=None, metavar="M",
                        help="exit after executing M shards (not with "
                             "--supervise)")
    worker.add_argument("--supervise", action="store_true",
                        help="run a supervisor instead of a fixed fleet: "
                             "size worker processes to the queue depth "
                             "(up to --concurrency), respawn crashed "
                             "ones, exit when the spool drains")
    worker.add_argument("--gc", action="store_true",
                        help="garbage-collect stale spool versions and "
                             "exit instead of serving")

    add_serve_subcommands(sub)
    return parser


def _print_stats(runner: ParallelRunner) -> None:
    stats = runner.stats
    print(f"\nengine: {stats.simulated} trace shards simulated, "
          f"{stats.memory_hits} memo hits, {stats.disk_hits} cache hits")


def _parse_importance_shift(value):
    """``--importance-shift`` text to an :class:`ImportanceSpec` shift:
    ``'auto'`` or a float sigma count (``None`` passes through)."""
    if value is None:
        return None
    text = str(value).strip()
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"--importance-shift must be a sigma count "
                          f"or 'auto' (got {value!r})") from None


def _montecarlo_overrides(spec: ExperimentSpec, dies, confidence, block,
                          importance_shift=None):
    """Apply the montecarlo CLI overrides to a loaded spec."""
    shift = _parse_importance_shift(importance_shift)
    if dies is None and confidence is None and block is None \
            and shift is None:
        return spec
    if spec.montecarlo is None:
        raise ConfigError(
            "--dies/--confidence/--block/--importance-shift "
            f"override a [montecarlo] section, but spec {spec.name!r} "
            f"has none")
    overrides: dict = {}
    if dies is not None:
        overrides["dies"] = dies
    if confidence is not None:
        overrides["confidence"] = confidence
    if block is not None:
        overrides["block"] = block
    if shift is not None:
        current = spec.montecarlo.importance
        overrides["importance"] = ImportanceSpec(
            shift_sigma=shift,
            ess_warn=current.ess_warn if current is not None
            else ImportanceSpec().ess_warn)
    return dataclasses.replace(
        spec, montecarlo=dataclasses.replace(spec.montecarlo, **overrides))


def _trace_origins(spec) -> list[str]:
    """One line per planned trace: its label and where it comes from."""
    origins = []
    for profile in spec.profiles:
        for seed in range(spec.seeds_per_profile):
            origins.append(f"{profile}/seed{seed}  "
                           f"(synthetic profile {profile!r})")
    for ref in spec.riscv:
        origins.append(f"{ref.name}  (riscv program {ref.path})")
    return origins


def _cmd_run(args) -> int:
    spec = ExperimentSpec.load(args.spec)
    if args.artifact:
        seen = []
        for name in args.artifact:
            if name not in seen:
                seen.append(name)
        spec = dataclasses.replace(spec, artifacts=tuple(seen))
    spec = _montecarlo_overrides(spec, args.dies, args.confidence,
                                 args.block, args.importance_shift)
    experiment = Experiment(spec, runner=_build_runner(args))
    if args.dry_run and args.json:
        print(json.dumps(experiment.plan_summary(), indent=2,
                         sort_keys=True))
        return 0
    if args.json:
        raise ConfigError("--json needs --dry-run (the run itself "
                          "exports via --export-json)")
    if args.dry_run:
        jobs = experiment.plan()
        grid = spec.grid()
        print(f"experiment:  {spec.name}")
        population = (f"population:  {len(spec.profiles)} profiles x "
                      f"{spec.seeds_per_profile} seeds x "
                      f"{spec.trace_length} instructions")
        if spec.riscv:
            population += (f" + {len(spec.riscv)} riscv "
                           f"program{'s' if len(spec.riscv) != 1 else ''}")
        print(population)
        for origin in _trace_origins(spec):
            print(f"  {origin}")
        print(f"grid:        {len(grid)} Vcc levels x "
              f"{len(spec.schemes)} schemes "
              f"(+{len(spec.ablations)} ablations, "
              f"{len(spec.dvfs)} dvfs schedules)")
        if spec.montecarlo is not None:
            block = "" if spec.montecarlo.block is None \
                else f", block {spec.montecarlo.block}"
            print(f"montecarlo:  {spec.montecarlo.dies} dies "
                  f"(seed {spec.montecarlo.seed}, "
                  f"{spec.montecarlo.confidence:g} confidence{block})")
        print(f"jobs:        {len(jobs)} before dedup/sharding")
        print(f"artifacts:   {', '.join(spec.artifacts) or '(none)'}")
        return 0
    _render_experiment(experiment, args)
    return 0


def _render_experiment(experiment, args) -> None:
    """Shared tail of ``repro run`` and ``repro mc``: run the campaign,
    print every listed artifact, honor the export flags, report stats."""
    results = experiment.run()
    for name, rows in experiment.artifacts().items():
        print(format_table(rows, title=ARTIFACTS[name].title))
        print()
    if args.export_csv:
        results.to_csv(args.export_csv)
        print(f"wrote {len(results)} records to {args.export_csv}")
    if args.export_json:
        results.to_json(args.export_json)
        print(f"wrote {len(results)} records to {args.export_json}")
    _print_stats(experiment.runner)


def _cmd_figures(args) -> int:
    wanted = args.artifact
    if wanted in ("fig1", "circuit", "all"):
        print(format_table(figure1_series(step_mv=args.step),
                           title="Figure 1"))
        print()
    if wanted in ("fig11a", "circuit", "all"):
        print(format_table(FrequencySolver().figure11a_series(args.step),
                           title="Figure 11(a)"))
        print()
    if wanted in ("fig11b", "fig12", "all"):
        # The simulated figures go through the declarative driver: the
        # equivalent of a spec file with the chosen grid and artifacts.
        artifacts = []
        if wanted in ("fig11b", "all"):
            artifacts.append("fig11b")
        if wanted in ("fig12", "all"):
            artifacts.append("fig12")
        spec = ExperimentSpec(name="cli-figures",
                              trace_length=args.length,
                              step_mv=args.step,
                              artifacts=tuple(artifacts))
        experiment = Experiment(spec, runner=_build_runner(args))
        experiment.run()
        if wanted in ("fig11b", "all"):
            print(format_table(experiment.artifact("fig11b"),
                               title="Figure 11(b)"))
            print()
        if wanted in ("fig12", "all"):
            print(format_table(experiment.artifact("fig12"),
                               title="Figure 12"))
    return 0


def _cmd_compare(args) -> int:
    # A compare is the fig11b artifact over an explicit Vcc list.
    spec = ExperimentSpec(name="cli-compare",
                          trace_length=args.length,
                          vcc_mv=tuple(args.vcc),
                          artifacts=("fig11b",))
    experiment = Experiment(spec, runner=_build_runner(args))
    experiment.run()
    print(format_table(experiment.artifact("fig11b"),
                       title="IRAW vs baseline"))
    return 0


def _cmd_mc(args) -> int:
    # A die-sampling campaign is a population-less spec with the
    # montecarlo artifacts — built in memory, run through the one driver.
    from repro.montecarlo import MonteCarloSpec

    shift = _parse_importance_shift(args.importance_shift)
    importance = None if shift is None \
        else ImportanceSpec(shift_sigma=shift)
    artifacts = ("yield_curve", "vccmin_dist")
    if importance is not None:
        artifacts += ("deep_tail",)
    spec = ExperimentSpec(
        name="cli-mc",
        profiles=(),
        vcc_mv=tuple(args.vcc) if args.vcc else (),  # spec dedups
        step_mv=None if args.vcc else args.step,
        schemes=tuple(dict.fromkeys(args.schemes)),
        montecarlo=MonteCarloSpec(dies=args.dies, seed=args.seed,
                                  confidence=args.confidence,
                                  block=args.block,
                                  importance=importance),
        artifacts=artifacts,
    )
    experiment = Experiment(spec, runner=_build_runner(args))
    _render_experiment(experiment, args)
    return 0


def _cmd_simulate(args) -> int:
    if args.trace_file:
        trace = load_trace(args.trace_file)
    elif args.kernel:
        trace = TraceSpec.for_kernel(args.kernel, args.size).build()
    else:
        trace = TraceSpec.synthetic(args.profile, seed=args.seed,
                                    length=args.length).build()

    scheme = ClockScheme(args.scheme)
    point = FrequencySolver().operating_point(args.vcc, scheme)
    result = run_core(trace, point, warm=not args.cold).result

    print(f"trace:        {trace.name} ({len(trace)} instructions)")
    print(f"operating at: {point.frequency_mhz:.1f} MHz "
          f"({scheme.value}, {args.vcc:g} mV, N={point.stabilization_cycles})")
    print(f"cycles:       {result.cycles}")
    print(f"IPC:          {result.ipc:.3f}")
    print(f"mispredicts:  {result.mispredict_rate:.3%}")
    print(f"IRAW delayed: {result.iraw_delay_fraction:.3%}")
    print(f"violations:   {result.iraw_violations}")
    if trace.has_golden_values():
        print(f"golden-value mismatches: {result.value_mismatches}")
    breakdown = result.stall_breakdown()
    if breakdown:
        print("stalls:", ", ".join(f"{name}={fraction:.1%}"
                                   for name, fraction in sorted(
                                       breakdown.items(),
                                       key=lambda kv: -kv[1])))
    return 0


def _cmd_trace(args) -> int:
    if getattr(args, "trace_command", None) == "report":
        return _cmd_trace_report(args)
    # The generate path keeps its historical contract (--profile/--out
    # mandatory) but validates by hand now that 'trace report' shares
    # the subparser and argparse can no longer mark them required.
    if args.profile is None or args.out is None:
        raise ConfigError("trace generation needs --profile and --out "
                          "(or use 'repro trace report RUN.jsonl')")
    generator = SyntheticTraceGenerator(PROFILES_BY_NAME[args.profile],
                                        seed=args.seed)
    trace = generator.generate(args.length)
    save_trace(trace, args.out)
    print(f"wrote {len(trace)} instructions to {args.out}")
    return 0


def _cmd_trace_report(args) -> int:
    from repro.obs.report import render_report, summarize
    from repro.obs.trace import read_spans
    try:
        spans = read_spans(args.trace_file)
    except OSError as exc:
        raise ConfigError(f"cannot read trace file: {exc}")
    if args.json:
        print(json.dumps(summarize(spans, top=args.top), indent=2,
                         sort_keys=True))
        return 0
    print(render_report(spans, top=args.top))
    return 0


def _cmd_kernels() -> int:
    from repro.workloads.kernels import build_kernel
    for name in sorted(KERNEL_BUILDERS):
        spec = build_kernel(name, 8)
        print(f"{name:15s} {spec.description}")
    return 0


def _cmd_calibrate() -> int:
    from repro.circuits.calibration import anchor_report, fit_model
    model = fit_model()
    rows = [{"anchor": a.name, "target": a.target, "achieved": a.achieved,
             "error": a.relative_error} for a in anchor_report(model)]
    print(format_table(rows, title="Calibration anchors"))
    return 0


def _spool_gc(root) -> int:
    """Shared ``--gc`` arm of ``repro queue`` and ``repro worker``."""
    removed = prune_stale_versions(root)
    for name, files in removed:
        print(f"removed stale spool version {name} ({files} file(s))")
    print(f"garbage-collected {len(removed)} stale spool version(s)")
    return 0


def _cmd_queue(args) -> int:
    root = args.queue or os.environ.get(QUEUE_DIR_ENV)
    if args.gc:
        return _spool_gc(root)
    # Inspection is strictly read-only (spool_status builds no
    # SpoolBroker, creates no directories): a typo'd path must not
    # leave a real-looking empty spool behind.
    status = spool_status(root)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    current = next((entry for entry in status["versions"]
                    if entry["current"]), None)
    stale = [entry for entry in status["versions"] if not entry["current"]]
    print(f"spool root:    {status['root']}")
    print(f"code version:  {status['current_version']}"
          + ("" if current is not None else " (no spool written yet)"))
    for name in ("pending", "claimed", "done", "failed"):
        print(f"{name + ':':14s} "
              f"{current[name] if current is not None else 0}")
    age = current["oldest_pending_age_s"] if current is not None else None
    print("oldest pending: "
          + (f"{age:.1f} s" if age is not None else "-"))
    for entry in stale:
        print(f"  stale {entry['version']}: {entry['pending']} pending, "
              f"{entry['claimed']} claimed, {entry['done']} done, "
              f"{entry['failed']} failed")
    print(f"stale versions: {len(stale)}"
          + (f" ({', '.join(entry['version'] for entry in stale)}) "
             f"— reclaim with 'repro queue --gc'" if stale else ""))
    return 0


def _cmd_worker(args) -> int:
    root = args.queue or os.environ.get(QUEUE_DIR_ENV)
    if args.gc:
        return _spool_gc(root)
    if args.concurrency < 1:
        raise ConfigError(f"--concurrency must be >= 1 "
                          f"(got {args.concurrency})")
    if args.poll <= 0:
        raise ConfigError(f"--poll must be positive seconds "
                          f"(got {args.poll:g})")
    if args.max_shards is not None and args.max_shards < 0:
        raise ConfigError(f"--max-shards must be >= 0 "
                          f"(got {args.max_shards})")
    if args.supervise and args.max_shards is not None:
        raise ConfigError("--max-shards does not apply with --supervise: "
                          "the supervisor respawns workers to queue depth")
    broker = SpoolBroker(root)  # validates the spool root eagerly
    if args.supervise:
        knobs = {"max_workers": args.concurrency, "worker_poll": args.poll}
        if args.idle_exit is not None:
            knobs["idle_exit"] = args.idle_exit
        supervisor = WorkerSupervisor(root, **knobs)
        print(f"worker: supervising spool {broker.spool} "
              f"(up to {args.concurrency} workers)", file=sys.stderr)
        supervisor.run()
        print(f"worker: spool drained; spawned {supervisor.spawned} "
              f"worker(s), respawned after {supervisor.crashed} crash(es)")
        return 0
    print(f"worker: serving spool {broker.spool}", file=sys.stderr)
    if args.concurrency == 1:
        completed, failed = worker_main(root, poll_interval=args.poll,
                                        idle_exit=args.idle_exit,
                                        max_shards=args.max_shards)
        executed = (completed, failed)
    else:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        children = [
            context.Process(target=worker_main, args=(root,),
                            kwargs=dict(poll_interval=args.poll,
                                        idle_exit=args.idle_exit,
                                        max_shards=args.max_shards),
                            daemon=False)
            for _ in range(args.concurrency)]
        for child in children:
            child.start()
        executed = None  # children report via the spool, not a pipe
        for child in children:
            child.join()
        crashed = [child.exitcode for child in children if child.exitcode]
        if crashed:
            print(f"error: {len(crashed)} of {args.concurrency} worker "
                  f"processes exited abnormally "
                  f"(exit codes {sorted(set(crashed))})", file=sys.stderr)
            return 1
    if executed is not None:
        completed, failed = executed
        summary = f"worker: executed {completed} shard(s)"
        if failed:
            summary += f", {failed} failed"
        print(summary)
    else:
        print(f"worker: {args.concurrency} worker processes exited")
    return 0


def _cmd_cache(args) -> int:
    cache = ResultCache.default()
    if cache.root.exists() and not cache.root.is_dir():
        raise ConfigError(f"cache root {cache.root} exists but is not a "
                          f"directory (check $REPRO_CACHE_DIR)")
    if args.stats:
        # Strictly read-only: combining it with mutation flags would
        # make the report describe a store that no longer exists.
        if args.clear or args.prune or args.dry_run:
            raise ConfigError("--stats is read-only; run it without "
                              "--clear/--prune/--dry-run")
        return _cache_stats(cache, as_json=args.json)
    if args.json:
        raise ConfigError("--json only makes sense with --stats")
    if args.dry_run and (args.clear or not args.prune):
        raise ConfigError("--dry-run only makes sense with --prune "
                          "(and without --clear)")
    if args.prune and args.dry_run:
        # Strictly read-only: report the same decisions --prune would
        # take (stale versions first, then the LRU walk) without
        # deleting or stamping anything.
        stale = cache.stale_versions()
        for name, entries in stale:
            print(f"would prune stale version {name} "
                  f"({entries} entr{'y' if entries == 1 else 'ies'})")
        print(f"would prune {sum(n for _, n in stale)} entries from "
              f"{len(stale)} stale code version(s)")
        planned = cache.plan_evictions()
        for key, size in planned:
            print(f"would evict {key} ({size} bytes)")
        if cache.max_bytes is not None:
            print(f"would evict {len(planned)} entries over the "
                  f"{cache.max_bytes}-byte bound")
    elif args.prune:
        removed = cache.prune_stale()
        cache.reset_persisted_stats()  # hit-rate window restarts here
        print(f"pruned {removed} entries from stale code versions")
        evicted = cache.enforce_limit()
        for key, size in evicted:
            print(f"evicted {key} ({size} bytes)")
        if cache.max_bytes is not None:
            print(f"evicted {len(evicted)} entries over the "
                  f"{cache.max_bytes}-byte bound")
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} entries")
    bound = (f"{cache.max_bytes} bytes" if cache.max_bytes is not None
             else "unbounded")
    print(f"cache root:    {cache.root}")
    print(f"code version:  {cache.version_dir.name}")
    print(f"entries:       {cache.entry_count()}")
    print(f"size:          {cache.total_bytes()} bytes (bound: {bound})")
    return 0


def _cache_stats(cache: ResultCache, as_json: bool = False) -> int:
    """The read-only ``repro cache --stats`` report."""
    report = cache.usage_report()
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    bound = (f"{report['max_bytes']} bytes"
             if report["max_bytes"] is not None else "unbounded")
    print(f"cache root:    {report['root']}")
    print(f"code version:  {report['version']}")
    print(f"entries:       {report['entries']}")
    print(f"size:          {report['bytes']} bytes (bound: {bound})")
    for entry in report["versions"]:
        marker = " (current)" if entry["current"] else ""
        print(f"  version {entry['version']}{marker}: "
              f"{entry['entries']} entr"
              f"{'y' if entry['entries'] == 1 else 'ies'}, "
              f"{entry['bytes']} bytes")
    lookups = report["hits"] + report["misses"]
    if report["hit_rate"] is None:
        print("hit rate:      n/a (no lookups since last prune)")
    else:
        print(f"hit rate:      {report['hit_rate']:.1%} "
              f"({report['hits']}/{lookups} since last prune)")
    return 0


def _dispatch(args) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "mc":
        return _cmd_mc(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "kernels":
        return _cmd_kernels()
    if args.command == "calibrate":
        return _cmd_calibrate()
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "queue":
        return _cmd_queue(args)
    if args.command == "worker":
        return _cmd_worker(args)
    served = dispatch_serve(args)
    if served is not None:
        return served
    return 1  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        # Operator-facing configuration problems (bad $REPRO_QUEUE_DIR /
        # $REPRO_CACHE_DIR roots, invalid knobs, malformed spec files)
        # exit cleanly instead of dumping a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
