"""Telemetry overhead guard: span tracing against the untraced runner.

Runs batches of trivial ``engine-selftest-sleep`` jobs through three
legs of fresh serial runners and reports each leg's best wall clock::

    python benchmarks/obs_overhead.py --jobs 400 --repeat 3 \
        --out benchmarks/results/BENCH_obs.json

* ``reference`` and ``disabled`` are the same configuration: a runner
  with no trace sink, which times every batch and drops the spans into
  a ``NullTraceSink``.  They run back to back, so their difference is
  the measurement's own noise, and ``--budget PCT`` fails the run when
  the disabled leg is more than PCT percent slower than the reference.
* ``traced`` writes every span to a JSONL file; its overhead against
  the reference is the cost of keeping the spans.

Each leg builds its runners with ``cache=None`` and distinct job notes,
so no memoization crosses legs.

Exit status: 0 on success, 1 when the budget is blown.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

from repro.engine import Job, ParallelRunner
from repro.obs.trace import JsonlTraceSink


def batch(tag: str, jobs: int) -> list[Job]:
    """Distinct trivial jobs (no sleep) so nothing memoizes across legs."""
    return [Job(kind="engine-selftest-sleep",
                options=(("note", f"{tag}-{index}"),))
            for index in range(jobs)]


def time_leg(jobs: int, repeat: int, tag: str, sink_path=None) -> float:
    """Best-of-``repeat`` wall clock for one telemetry configuration."""
    best = None
    for attempt in range(repeat):
        sink = None if sink_path is None else JsonlTraceSink(sink_path)
        runner = ParallelRunner(workers=1, cache=None, trace_sink=sink)
        work = batch(f"{tag}-{attempt}", jobs)
        start = time.perf_counter()
        runner.run(work, label=tag)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=400,
                        help="trivial jobs per leg (default 400)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions; best-of wins (default 3)")
    parser.add_argument("--budget", type=float, default=None, metavar="PCT",
                        help="fail if the disabled leg is more than PCT%% "
                             "slower than the reference leg")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON record here")
    args = parser.parse_args(argv)

    # Two identical untraced legs: the first is the reference, the
    # second is held to the budget, so the check compares like with like
    # (same process, same warmed interpreter) instead of absolute wall
    # clocks.
    reference_s = time_leg(args.jobs, args.repeat, "ref")
    disabled_s = time_leg(args.jobs, args.repeat, "off")
    with tempfile.TemporaryDirectory() as tmp:
        traced_s = time_leg(args.jobs, args.repeat, "on",
                            sink_path=pathlib.Path(tmp) / "spans.jsonl")

    overhead_pct = 100.0 * (disabled_s - reference_s) / reference_s
    traced_pct = 100.0 * (traced_s - reference_s) / reference_s
    record = {
        "jobs": args.jobs,
        "repeat": args.repeat,
        "reference_s": reference_s,
        "disabled_s": disabled_s,
        "traced_s": traced_s,
        "disabled_overhead_pct": overhead_pct,
        "traced_overhead_pct": traced_pct,
    }
    print(f"obs overhead: reference {reference_s:.4f}s, "
          f"disabled {disabled_s:.4f}s ({overhead_pct:+.1f}%), "
          f"traced {traced_s:.4f}s ({traced_pct:+.1f}%)")
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    if args.budget is not None and overhead_pct > args.budget:
        print(f"FAIL: disabled-telemetry leg {overhead_pct:.1f}% over "
              f"the reference (budget {args.budget:.1f}%)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
