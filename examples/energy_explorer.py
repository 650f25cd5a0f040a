#!/usr/bin/env python3
"""Energy explorer: find the best operating point for an energy budget.

Mobile parts pick Vcc/frequency pairs at run time (DVFS).  This example
sweeps the modeled range and reports, for the baseline and IRAW clockings:
execution time, energy and EDP — then answers two planning questions:

* Which Vcc minimizes EDP under each clocking scheme?
* At a fixed performance target, how much energy does IRAW save?

The (Vcc x scheme) grid is one declarative :class:`ExperimentSpec` run
through the ``Experiment`` driver as a single engine batch sharded per
trace: ``--workers N`` runs the shards across N processes (or
``--backend queue --queue DIR`` dispatches them to detached
``repro worker`` processes) and the on-disk result cache makes
re-exploration free (``--no-cache`` opts out).  The exploration itself
is ordinary post-processing on the experiment's structured
:class:`ResultSet` — filter/pivot on flat records, export with
``--export-csv``.

Run:  python examples/energy_explorer.py [--workers 4] [--no-cache]
                                         [--backend serial|pool|queue]
                                         [--export-csv points.csv]
"""

import argparse

from repro.analysis.reporting import format_table
from repro.circuits.energy import IRAW_DYNAMIC_OVERHEAD
from repro.engine import add_engine_arguments, runner_from_args
from repro.experiments import Experiment, ExperimentSpec
from repro.experiments.artifacts import calibrated_energy_model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--export-csv", metavar="PATH", default=None,
                        help="write the per-point records as CSV")
    add_engine_arguments(parser)
    args = parser.parse_args()

    # 25 mV steps: iso-performance Vcc reductions are finer than 50 mV.
    # No named artifacts: this exploration consumes the raw ResultSet.
    spec = ExperimentSpec(name="energy-explorer",
                          trace_length=5000,
                          step_mv=25.0,
                          artifacts=())
    experiment = Experiment(spec, runner=runner_from_args(args))
    print("Simulating the population across the Vcc grid...\n")
    # One batch for the whole grid (parallelizes); the 600 mV baseline
    # calibration point is part of the grid, so the energy model finds
    # it memoized.
    results = experiment.run()
    energy_model = calibrated_energy_model(experiment)

    rows = []
    for record in results:
        overhead = IRAW_DYNAMIC_OVERHEAD if record.scheme == "iraw" \
            else 0.0
        breakdown = energy_model.task_energy(
            record.vcc_mv, record["execution_time_s"],
            dynamic_overhead=overhead)
        rows.append({
            "vcc_mv": record.vcc_mv,
            "scheme": record.scheme,
            "frequency_mhz": record["frequency_mhz"],
            "time_ms": record["execution_time_s"] * 1e3,
            "energy_j": breakdown.total_j,
            "leakage_share": breakdown.leakage_share,
            "edp": breakdown.edp,
        })
    print(format_table(rows, title="Operating points "
                                   "(reference task energy units)"))

    if args.export_csv:
        results.to_csv(args.export_csv)
        print(f"\nwrote {len(results)} records to {args.export_csv}")

    for scheme in ("baseline", "iraw"):
        candidates = [r for r in rows if r["scheme"] == scheme]
        best = min(candidates, key=lambda r: r["edp"])
        print(f"\nEDP-optimal point for {scheme}: {best['vcc_mv']:.0f} mV "
              f"({best['frequency_mhz']:.0f} MHz, {best['energy_j']:.3f} J, "
              f"EDP {best['edp']:.4g})")

    # Fixed performance target: a device throttled to the 550 mV baseline
    # clock.  IRAW meets the same deadline from a *lower* Vcc, which is
    # where the energy savings come from (Figure 12's story).
    reference = next(r for r in rows
                     if r["scheme"] == "baseline" and r["vcc_mv"] == 550.0)
    eligible = [r for r in rows if r["scheme"] == "iraw"
                and r["time_ms"] <= reference["time_ms"]
                and r["vcc_mv"] < 550.0]
    if eligible:
        frugal = min(eligible, key=lambda r: r["energy_j"])
        saved = 1.0 - frugal["energy_j"] / reference["energy_j"]
        print(f"\nIso-performance planning: the 550 mV baseline finishes in "
              f"{reference['time_ms']:.3f} ms using "
              f"{reference['energy_j']:.3f} J.")
        print(f"IRAW meets that deadline from {frugal['vcc_mv']:.0f} mV "
              f"({frugal['time_ms']:.3f} ms) using "
              f"{frugal['energy_j']:.3f} J — {100 * saved:.1f}% less "
              f"energy at equal-or-better performance.")
    else:
        print("\nNo lower-Vcc IRAW point meets the 550 mV baseline "
              "deadline on this population.")

    stats = experiment.stats
    print(f"\nengine: {stats.simulated} trace shards simulated, "
          f"{stats.memory_hits} memo hits, {stats.disk_hits} cache hits")


if __name__ == "__main__":
    main()
