"""In-text statistics of Section 5.2: the IRAW stall anatomy.

Paper: 13.2% of instructions are delayed one cycle by the register-file
IRAW bubble; IRAW stalls cost 8-10% performance, decomposed at 575 mV as
8.86% total = 8.52% register file + 0.30% DL0 + 0.04% everything else.

The decomposition is measured the same way: the IRAW point is re-run with
each mechanism's stalls disabled in turn (timing-only what-if).
"""

from conftest import record_table, run_point

from repro.analysis.reporting import format_table
from repro.circuits.frequency import ClockScheme
from repro.experiments.artifacts import stalls_rows


def test_stall_decomposition_575mv(benchmark, session_experiment):
    (decomp,) = benchmark.pedantic(
        stalls_rows, args=(session_experiment,), rounds=1, iterations=1)

    # Shape: RF dominates by an order of magnitude; DL0 is small; the
    # total sits in the high single digits.
    assert decomp["rf_drop"] > 3 * decomp["dl0_drop"]
    assert decomp["rf_drop"] > decomp["other_drop"]
    assert 0.0 <= decomp["dl0_drop"] < 0.03
    assert 0.03 < decomp["total_drop"] < 0.20
    # Delayed-instruction fraction in the paper's ballpark (13.2%).
    assert 0.08 < decomp["iraw_delay_fraction"] < 0.25

    rows = [
        {"component": "total IRAW stall drop", "measured": decomp["total_drop"],
         "paper": 0.0886},
        {"component": "register file (issue stalls)",
         "measured": decomp["rf_drop"], "paper": 0.0852},
        {"component": "DL0 (STable + fill stalls)",
         "measured": decomp["dl0_drop"], "paper": 0.0030},
        {"component": "remaining blocks (IQ gate, guards)",
         "measured": decomp["other_drop"], "paper": 0.0004},
        {"component": "instructions delayed by RF bubble",
         "measured": decomp["iraw_delay_fraction"], "paper": 0.132},
    ]
    record_table("intext_stall_decomposition_575mv", format_table(
        rows, title="Section 5.2 stall anatomy at 575 mV "
                    "(performance drop per mechanism)"))


def test_delayed_fraction_stable_across_vcc(benchmark, session_experiment):
    """The delayed fraction is a property of the workload + N, not of the
    frequency, so it should barely move across the active Vcc range."""
    def collect():
        return [
            run_point(session_experiment, vcc, ClockScheme.IRAW)
            .mean_iraw_delay_fraction
            for vcc in (550.0, 500.0, 450.0)
        ]

    fractions = benchmark.pedantic(collect, rounds=1, iterations=1)
    assert max(fractions) - min(fractions) < 0.02
