"""Blocked vs per-die Monte-Carlo campaign throughput.

Times the same yield campaign through both planning shapes — one
``mc-block`` job per die (the plan without a block size) and
``mc-block`` jobs of many dies — on a serial, cache-less runner, checks
that both shapes reduce to identical ``yield_curve`` rows (one sampler
and one evaluation path, so the block partition must not show in the
rows), and writes a ``BENCH_mc.json`` record::

    python benchmarks/mc_scaling.py --dies 10000 --block 4096 \
        --out benchmarks/results/BENCH_mc.json

For big blocked campaigns the per-die leg would dominate the wall
clock, so ``--compare-dies`` caps it (both legs are reduced to
dies/second before the speedup is computed, which is fair: every die
costs the same).  ``--budget`` fails the run if the *blocked* leg
exceeds a wall-clock budget — the CI guard for throughput regressions.

Exit status: 0 on success, 1 if the two plan shapes disagree or the
budget is blown.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.api import (
    Experiment,
    ExperimentSpec,
    MonteCarloSpec,
    ParallelRunner,
)

#: Dies of the partition cross-check (both plan shapes, always run).
EQUALITY_DIES = 256


def campaign_spec(dies: int, block: int | None, vcc: list[float],
                  schemes: list[str], seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"mc-scaling-{'block' if block else 'die'}-{dies}",
        profiles=(),
        vcc_mv=tuple(vcc),
        schemes=tuple(schemes),
        montecarlo=MonteCarloSpec(dies=dies, seed=seed, block=block),
        artifacts=("yield_curve",),
    )


def run_campaign(dies: int, block: int | None, vcc, schemes, seed):
    """One serial, cache-less campaign: (elapsed_s, yield_curve rows)."""
    spec = campaign_spec(dies, block, vcc, schemes, seed)
    experiment = Experiment(spec, runner=ParallelRunner(workers=1))
    start = time.perf_counter()
    experiment.run()
    rows = experiment.artifact("yield_curve")
    return time.perf_counter() - start, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dies", type=int, default=10_000,
                        help="dies of the blocked leg (default 10000)")
    parser.add_argument("--block", type=int, default=4096,
                        help="dies per mc-block job (default 4096)")
    parser.add_argument("--compare-dies", type=int, default=None,
                        metavar="N",
                        help="cap the per-die leg at N dies "
                             "(default: same as --dies)")
    parser.add_argument("--vcc", type=float, nargs="+",
                        default=[500.0], help="Vcc grid in mV")
    parser.add_argument("--schemes", nargs="+",
                        default=["baseline", "iraw"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=None, metavar="S",
                        help="fail if the blocked leg exceeds S seconds")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON record here (default stdout)")
    args = parser.parse_args(argv)

    compare_dies = args.compare_dies or args.dies

    # Partition cross-check on a small common slice first: blocks of
    # one and blocks of many must reduce to the same rows, or the
    # speedup number is meaningless.
    check = min(EQUALITY_DIES, args.dies)
    _, die_rows = run_campaign(check, None, args.vcc, args.schemes,
                               args.seed)
    _, block_rows = run_campaign(check, min(args.block, check), args.vcc,
                                 args.schemes, args.seed)
    rows_equal = die_rows == block_rows

    per_die_s, _ = run_campaign(compare_dies, None, args.vcc,
                                args.schemes, args.seed)
    blocked_s, _ = run_campaign(args.dies, args.block, args.vcc,
                                args.schemes, args.seed)

    per_die_rate = compare_dies / per_die_s
    blocked_rate = args.dies / blocked_s
    record = {
        "dies": args.dies,
        "block": args.block,
        "compare_dies": compare_dies,
        "vcc_mv": args.vcc,
        "schemes": args.schemes,
        "seed": args.seed,
        "per_die_s": round(per_die_s, 3),
        "blocked_s": round(blocked_s, 3),
        "per_die_dies_per_s": round(per_die_rate, 1),
        "blocked_dies_per_s": round(blocked_rate, 1),
        "speedup": round(blocked_rate / per_die_rate, 2),
        "rows_equal": rows_equal,
        "budget_s": args.budget,
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(text, end="")

    if not rows_equal:
        print("FAIL: blocked and per-die yield_curve rows differ",
              file=sys.stderr)
        return 1
    if args.budget is not None and blocked_s > args.budget:
        print(f"FAIL: blocked leg took {blocked_s:.1f}s "
              f"(budget {args.budget:g}s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
