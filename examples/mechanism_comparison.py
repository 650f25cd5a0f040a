#!/usr/bin/env python3
"""Table 1, live: IRAW vs Faulty Bits vs Extra Bypass on equal terms.

Evaluates all techniques at one Vcc on the same workload population and
prints the quantified Table 1 plus the IRAW + Faulty Bits combination the
paper sketches in Section 4.4.

Run:  python examples/mechanism_comparison.py [--vcc 500]
"""

import argparse

from repro.analysis.reporting import format_table, percent
from repro.baselines.faulty_bits import FaultyBitsBaseline
from repro.circuits.frequency import ClockScheme
from repro.experiments import Experiment, ExperimentSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vcc", type=float, default=500.0)
    args = parser.parse_args()

    experiment = Experiment(ExperimentSpec(
        name="mechanism-comparison", trace_length=5000,
        table1_vcc_mv=args.vcc, artifacts=("table1",)))
    print(f"Evaluating all techniques at {args.vcc:.0f} mV "
          f"(simulating, ~1 minute)...\n")
    rows = experiment.artifact("table1")
    print(format_table(
        rows,
        columns=["technique", "works_all_blocks", "adapts_multiple_vcc",
                 "honest_freq_gain", "hypothetical_freq_gain",
                 "ipc_impact", "area_overhead", "hard_to_test"],
        title=f"Table 1 quantified at {args.vcc:.0f} mV"))

    faulty = next(r for r in rows if "Faulty" in r["technique"])
    print(f"\nFaulty Bits detail: {percent(faulty['disabled_lines'])} of "
          f"DL0 lines disabled at the 4-sigma margin; honest frequency "
          f"gain is zero because the register file cannot tolerate "
          f"disabled entries.")

    solver = experiment.solver
    combo = FaultyBitsBaseline(solver, design_sigma=4.0)
    base = solver.operating_point(args.vcc, ClockScheme.BASELINE)
    iraw = solver.operating_point(args.vcc, ClockScheme.IRAW)
    combined = combo.combined_with_iraw_point(args.vcc)
    print(f"\nSection 4.4 combination (IRAW + faulty bits on the caches):")
    print(f"  IRAW alone:      +{percent(iraw.frequency_mhz / base.frequency_mhz - 1)}")
    print(f"  IRAW + 4-sigma:  +{percent(combined.frequency_mhz / base.frequency_mhz - 1)}")


if __name__ == "__main__":
    main()
