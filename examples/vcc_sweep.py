#!/usr/bin/env python3
"""Full Vcc sweep: regenerate Figures 11(a), 11(b) and 12 as ASCII tables.

This is the paper's whole evaluation story in one run: cycle times,
frequency/performance gains and energy-delay product from 700 mV down to
400 mV on the standard six-profile workload population.

Since the ``repro.experiments`` redesign the simulated figures are one
declarative :class:`ExperimentSpec` — the same thing a
``python -m repro run sweep.toml`` spec file expresses — compiled by the
``Experiment`` driver into a single engine batch: every (Vcc, scheme)
point shards into one job per trace, ``--workers N`` spreads the shards
across N processes, and completed shards persist in the on-disk result
cache (bounded by ``$REPRO_CACHE_MAX_BYTES`` when set), so a re-run (or
the energy-explorer example on the same population) replays instantly.
``--backend queue --queue DIR`` spools the shards for detached
``python -m repro worker --queue DIR`` processes instead — on this
machine or any other sharing the directory.

Run:  python examples/vcc_sweep.py [--step 50] [--length 6000]
                                   [--workers 4] [--no-cache]
                                   [--backend serial|pool|queue]
                                   [--save-spec sweep.toml]
"""

import argparse

from repro.analysis.figures import figure1_series
from repro.analysis.reporting import format_table
from repro.circuits.frequency import FrequencySolver
from repro.engine import add_engine_arguments, runner_from_args
from repro.experiments import Experiment, ExperimentSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--step", type=float, default=50.0,
                        help="Vcc step in mV (default 50)")
    parser.add_argument("--length", type=int, default=6000,
                        help="instructions per trace (default 6000)")
    parser.add_argument("--save-spec", metavar="PATH", default=None,
                        help="also write this sweep as a reusable "
                             "experiment spec file (.toml or .json)")
    add_engine_arguments(parser)
    args = parser.parse_args()

    print(format_table(
        figure1_series(step_mv=args.step),
        title="Figure 1: clock-phase delays (normalized to 12 FO4 @700mV)"))
    print()
    print(format_table(
        FrequencySolver().figure11a_series(args.step),
        title="Figure 11(a): cycle time (normalized to 24 FO4 @700mV)"))
    print()

    spec = ExperimentSpec(name="vcc-sweep",
                          trace_length=args.length,
                          step_mv=args.step,
                          artifacts=("fig11b", "fig12"))
    if args.save_spec:
        spec.save(args.save_spec)
        print(f"spec written to {args.save_spec} "
              f"(rerun with: python -m repro run {args.save_spec})\n")
    experiment = Experiment(spec, runner=runner_from_args(args))
    print("Simulating the workload population at each Vcc "
          "(this is the slow part)...")
    print()
    experiment.run()
    print(format_table(
        experiment.artifact("fig11b"),
        columns=["vcc_mv", "frequency_gain", "performance_gain",
                 "ipc_ratio", "stabilization_cycles", "iraw_delay_fraction"],
        title="Figure 11(b): IRAW gains over the baseline "
              "(paper: +57%/+48% @500mV, +99%/+90% @400mV)"))
    print()
    print(format_table(
        experiment.artifact("fig12"),
        title="Figure 12: relative energy / delay / EDP "
              "(paper: EDP 0.61 @500mV, 0.33 @400mV)"))

    stats = experiment.stats
    runner = experiment.runner
    print(f"\nengine: {stats.simulated} trace shards simulated, "
          f"{stats.memory_hits} memo hits, {stats.disk_hits} cache hits "
          f"({runner.workers} worker{'s' if runner.workers != 1 else ''})")


if __name__ == "__main__":
    main()
