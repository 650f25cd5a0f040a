"""Pool speedup on a many-trace grid: serial against a worker pool.

Simulates an 8-trace x 2-point grid (four standard profiles, two seeds
each, 6000-instruction traces, 500 mV baseline and IRAW) serially and
through a pool of ``WORKERS`` processes, with no result cache,
alternating ``REPEAT`` times, and reports the best wall clock of each
and their ratio::

    PYTHONPATH=src python benchmarks/pool_speedup.py

On two or more CPUs the run fails when the pool takes more than
``MAX_RATIO`` times the serial wall clock; on one CPU there is no
speedup to expect, so the ratio is only reported.  The grid is sized
so simulation dominates pool start-up.  This is a wall-clock
measurement, so it lives here rather than in the tier-1 suite, which
checks the same grid's results and worker spread.

Exit status: 0 on success, 1 when the pool's results differ from the
serial ones or the ratio bound is blown.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.engine import ParallelRunner
from repro.experiments import Experiment, ExperimentSpec
from repro.workloads.profiles import STANDARD_PROFILES

#: The grid: four standard profiles, two seeds each, at one Vcc.
SPEC = ExperimentSpec(name="pool-speedup",
                      profiles=tuple(p.name for p in STANDARD_PROFILES[:4]),
                      seeds_per_profile=2, trace_length=6000,
                      vcc_mv=(500.0,), artifacts=())
WORKERS = 4
REPEAT = 3
#: Largest pool/serial wall-clock ratio accepted on >= 2 CPUs.
MAX_RATIO = 0.85


def timed_grid(runner: ParallelRunner):
    """(results, wall seconds) of the grid through ``runner``."""
    jobs = Experiment(SPEC, runner=runner).plan()
    start = time.perf_counter()
    results = runner.run(jobs)
    return results, time.perf_counter() - start


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]
                            ).parse_args(argv)
    serial_s = pool_s = float("inf")
    for _ in range(REPEAT):
        serial, elapsed = timed_grid(ParallelRunner(workers=1, cache=None))
        serial_s = min(serial_s, elapsed)
        pooled, elapsed = timed_grid(ParallelRunner(workers=WORKERS,
                                                    cache=None))
        pool_s = min(pool_s, elapsed)
        if pooled != serial:
            print("FAIL: pool results differ from serial", file=sys.stderr)
            return 1
    cpus = os.cpu_count() or 1
    ratio = pool_s / serial_s
    print(f"pool speedup: serial {serial_s:.2f}s, {WORKERS} workers "
          f"{pool_s:.2f}s (ratio {ratio:.2f}, {cpus} CPUs)")
    if cpus >= 2 and ratio > MAX_RATIO:
        print(f"FAIL: pool/serial ratio {ratio:.2f} above {MAX_RATIO:.2f}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
