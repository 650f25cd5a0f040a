"""Run one benchmark workload for a while and report its metrics.

    python3 perfbench/run.py --workload sim-cold --seed 0 --seconds 25 \
        --trace 0

Run from the repository root.  Every pass is a fresh interpreter
(``perfbench/child.py``) with a fresh cache directory; before the first
timed pass the benchmark compiles the program's bytecode and reproduces
the committed goldens through the workload's runner configuration, so
neither lands in a timed number.  Passes repeat until ``--seconds`` have
elapsed (at least three), and every reported time is a median over them.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last stdout line is one JSON object; the lines
before it print every metric by name with its unit.  Scratch files live
under ``.perfbench/`` and are removed at exit, except one results record
per run (with the seed and host) under ``.perfbench/results/``.

Exit status: 0 when every pass ran (the JSON says whether the outputs
were correct), 2 when the repository or a pass is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

import calibration

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2
#: Every child must finish before the run's own 180 s limit.
DEADLINE_S = 170.0

#: Per-layer metrics a pool pass cannot see (they run in its workers):
#: pool-cold takes them from a serial traced pass of the same spec.
WORKER_SIDE = ("pipeline.", "memory.", "branch.", "workloads.",
               "circuits.", "analysis.", "montecarlo.", "engine.warmup_s",
               "engine.execute_s", "trace.wall_s", "trace.unattributed_s")
#: Self times are only comparable within one pass: take them all from
#: the same pass as ``trace.wall_s``.
SELF_TIME_SUFFIX = ".self_s"
#: Simulated counts: identical on every pass of one seed.
EXACT = ("pipeline.instructions", "pipeline.cycles",
         "pipeline.iraw_violations", "memory.il0_misses",
         "memory.dl0_misses", "memory.ul1_misses", "branch.mispredicts",
         "montecarlo.ess_fraction")
EXACT_PREFIX = "pipeline.stall."


class BenchError(RuntimeError):
    """The repository or a pass is unusable: exit 2, print no result."""


def _env() -> dict:
    env = dict(os.environ)
    for name in ("REPRO_CACHE_DIR", "REPRO_CACHE_MAX_BYTES",
                 "REPRO_TRACE_DIR", "REPRO_QUEUE_DIR"):
        env.pop(name, None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


class BenchRun:
    """One benchmark run: its scratch directory and child processes."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.started = time.monotonic()
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        self.run_id = (f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-"
                       f"{os.getpid()}")
        self.work = STATE / "work" / self.run_id
        self.env = _env()
        self.workers = campaigns.pool_workers(os.cpu_count() or 1)
        self.checks = campaigns.Checks()
        self.passes = 0

    def child(self, phase: str, params: dict) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"out of time before the {phase} phase")
        params = dict(params, workload=self.workload, root=str(ROOT),
                      workers=self.workers)
        params["spawned"] = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), phase,
             json.dumps(params)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = process.communicate(timeout=remaining)
        finally:
            # The child leads its own process group, pool workers
            # included: take down whatever is left (nothing, when it
            # exited normally), then reap the child.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        if process.returncode != 0:
            raise BenchError(f"{phase} phase exited {process.returncode}:"
                             f"\n{err[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def scratch(self) -> pathlib.Path:
        """A fresh directory for one child: its cache, sink and spans."""
        self.passes += 1
        directory = self.work / f"pass-{self.passes}"
        directory.mkdir()
        return directory

    def cache_dir(self, scratch: pathlib.Path, warm: bool = False):
        if not campaigns.uses_disk_cache(self.workload):
            return None
        if warm:
            shutil.copytree(self.work / "fill-cache", scratch / "cache")
        return str(scratch / "cache")

    def run_pass(self, backend: str, traced: bool, variant: int = 0,
                 spans_path=None) -> dict:
        scratch = self.scratch()
        params = dict(
            cache_dir=self.cache_dir(scratch,
                                     warm=self.workload == "warm-regen"),
            spec=str(self.work / f"spec-{variant}.toml"), backend=backend,
            trace=traced, fill_rows=str(self.work / "fill-rows.json"),
            sink_path=str(scratch / "sink.jsonl"),
            spans_path=str(spans_path or scratch / "spans.jsonl"))
        try:
            return self.child("pass", params)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def prepare(self) -> None:
        """Compile bytecode, write the specs, check the goldens and (for
        warm-regen) fill the cache — all before any timed pass."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        compile_bytecode()
        self.spec_seeds = campaigns.spec_seeds(self.workload, self.seed)
        for variant, spec_seed in enumerate(self.spec_seeds):
            campaigns.workload_spec(self.workload, ROOT, spec_seed).save(
                self.work / f"spec-{variant}.toml")
        scratch = self.scratch()
        self.checks.merge(self.child("golden", {
            "cache_dir": self.cache_dir(scratch),
            "backend": campaigns.backend_of(self.workload)}))
        shutil.rmtree(scratch, ignore_errors=True)
        if self.workload == "warm-regen":
            self.checks.merge(self.child("fill", {
                "spec": str(self.work / "spec-0.toml"), "backend": "pool",
                "cache_dir": str(self.work / "fill-cache"),
                "fill_rows": str(self.work / "fill-rows.json")}))


def compile_bytecode() -> None:
    """Untimed warm-up: compile every module the passes will import."""
    import compileall

    for directory in (ROOT / "src" / "repro", HERE):
        compileall.compile_dir(str(directory), quiet=1)


def _work_units(workload: str, result: dict) -> float:
    """Throughput numerator: dies, or thousand retired instructions."""
    if workload == "mc-tail":
        return result["dies"]
    return result["instructions"] / 1e3


def measure(bench_run: BenchRun, seconds: float) -> dict:
    """Untraced passes with kernel samples between them; times are the
    passes' medians at the reference host speed (see calibration.py)."""
    backend = campaigns.backend_of(bench_run.workload)
    passes = []
    kernel = []
    calibration.sample(kernel)
    start = time.monotonic()
    variants = len(bench_run.spec_seeds)
    # Whole cycles only, so every spec seed weighs the same in a median.
    while len(passes) < MIN_PASSES or len(passes) % variants \
            or time.monotonic() - start < seconds:
        result = bench_run.run_pass(backend, traced=False,
                                    variant=len(passes) % variants)
        bench_run.checks.merge(result)
        passes.append(result)
        calibration.sample(kernel)
    host = {"setup_s": statistics.median(p["setup_s"] for p in passes),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "kernel_s": statistics.fmean(kernel)}
    scale = calibration.REFERENCE_S / host["kernel_s"]
    metrics = {
        "setup_s": host["setup_s"] * scale,
        "wall_s": host["wall_s"] * scale,
        "throughput": statistics.median(
            _work_units(bench_run.workload, p) / p["wall_s"]
            for p in passes) / scale,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {"metrics": metrics, "passes": passes, "host": host}


def measure_traced(bench_run: BenchRun, seconds: float) -> dict:
    """Alternate untraced and traced passes; pool-cold adds a serial
    traced pass per round for the layers its workers hide."""
    backend = campaigns.backend_of(bench_run.workload)
    spans_path = STATE / "results" / f"{bench_run.run_id}-spans.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    untraced, traced, serial = [], [], []
    start = time.monotonic()
    while len(traced) < MIN_TRACED_ROUNDS \
            or time.monotonic() - start < seconds:
        untraced.append(bench_run.run_pass(backend, traced=False))
        traced.append(bench_run.run_pass(backend, traced=True,
                                         spans_path=spans_path))
        if backend == "pool":
            serial.append(bench_run.run_pass("serial", traced=True))
        for result in (untraced[-1], traced[-1], *serial[-1:]):
            bench_run.checks.merge(result)
    worker_passes = serial or traced
    metrics = {}
    for name in traced[0]["layers"]:
        worker_side = name.startswith(WORKER_SIDE) \
            or name.endswith(SELF_TIME_SUFFIX)
        values = [p["layers"][name]
                  for p in (worker_passes if worker_side else traced)]
        if name in EXACT or name.startswith(EXACT_PREFIX):
            bench_run.checks.check(len(set(values)) == 1,
                                   f"{name} differs between traced "
                                   f"passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace_overhead_pct"] = 100.0 * (traced_wall / untraced_wall
                                             - 1.0)
    return {"metrics": metrics, "passes": traced + serial,
            "untraced": untraced}


def host_record(bench_run: BenchRun) -> dict:
    import numpy

    return {"seed": bench_run.seed, "spec_seeds": bench_run.spec_seeds,
            "host": socket.gethostname(),
            "nproc": os.cpu_count(), "pool_workers": bench_run.workers,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def _print_summary(bench_run: BenchRun, host: dict, metrics: dict,
                   units: dict, passes: int) -> None:
    checks = bench_run.checks
    print(f"perfbench {bench_run.workload} seed={host['seed']} "
          f"host={host['host']} nproc={host['nproc']} "
          f"python={host['python']} numpy={host['numpy']} "
          f"passes={passes}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<36} "
          f"{checks.failed / checks.attempted:>14.6g} ratio "
          f"({checks.failed}/{checks.attempted} operations)")
    for message in checks.messages:
        print(f"  FAILED: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=campaigns.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_run = BenchRun(args.workload, args.seed, bool(args.trace))
    try:
        bench_run.prepare()
        if bench_run.trace:
            run = measure_traced(bench_run, args.seconds)
            listed = BENCH["per_layer"]
        else:
            run = measure(bench_run, args.seconds)
            listed = BENCH["end_to_end"]
    finally:
        shutil.rmtree(bench_run.work, ignore_errors=True)
    units = {entry["name"]: entry["unit"] for entry in listed}
    missing = sorted(set(units) - set(run["metrics"]))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    metrics = {name: run["metrics"][name] for name in units}
    shown = dict(metrics)
    if not bench_run.trace:
        # The throughput again, under its workload family's name, and
        # the unscaled host times beside the kernel time that scales them.
        name = "dies_per_s" if args.workload == "mc-tail" else "sim_kips"
        shown[name] = metrics["throughput"]
        units[name] = "1/s"
        for name, value in run["host"].items():
            shown[f"host.{name}"] = value
            units[f"host.{name}"] = "s"
    host = host_record(bench_run)
    _print_summary(bench_run, host, shown, units, len(run["passes"]))
    checks = bench_run.checks.as_dict()
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, **host, "metrics": metrics,
              **checks, "passes": run["passes"],
              "untraced_passes": run.get("untraced", [])}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{bench_run.run_id}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", "utf-8")
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _load() -> None:
    """Check the checkout, then import the workload definitions."""
    global BENCH, campaigns
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        raise BenchError(f"{bench_path} not found: run from the "
                         f"repository root")
    BENCH = json.loads(bench_path.read_text("utf-8"))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError("src/repro is missing: the benchmark runs the "
                         "program from its source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import campaigns as module

    campaigns = module
    missing = [str(path.relative_to(ROOT))
               for path in campaigns.required_files(ROOT)
               if not path.is_file()]
    if missing:
        raise BenchError(f"missing repository files: {', '.join(missing)}")


if __name__ == "__main__":
    try:
        _load()
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
