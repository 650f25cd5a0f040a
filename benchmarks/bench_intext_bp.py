"""In-text statistics of Section 4.5: prediction-only blocks under IRAW.

Paper: ignoring IRAW on the BP can corrupt a prediction only when the
colliding write flips the counter's uppermost bit — a negligible 0.0017%
average potential extra misprediction rate — and no short call->return
pairs hit the RSB window at all.  The determinism-mode extension removes
even those at a measured (small) cost.
"""

from conftest import record_table, run_point

from repro.analysis.figures import prediction_hazard_report
from repro.analysis.reporting import format_table
from repro.branch.iraw_effects import DeterminismMode
from repro.circuits.frequency import ClockScheme
from repro.analysis.metrics import speedup


def test_bp_rsb_hazards(benchmark, session_experiment):
    point = run_point(session_experiment, 500.0, ClockScheme.IRAW)
    report = benchmark.pedantic(
        prediction_hazard_report, args=(point,), rounds=1, iterations=1)

    # Potential BP corruption must be rare (paper: 0.0017%).
    assert report["bp_potential_extra_misprediction_rate"] < 0.005
    assert report["bp_hazard_reads"] <= report["bp_predictions"]
    # RSB: short call->return windows are rare to nonexistent.
    assert report["rsb_hazard_pops"] <= 0.02 * max(1, report["rsb_pops"])

    record_table("intext_bp_rsb_hazards", format_table(
        [report], title="Section 4.5: prediction-only block hazards at "
                        "500 mV (paper: 0.0017% potential extra "
                        "mispredictions, no short call/return pairs)"))


def test_determinism_mode_cost(benchmark, session_experiment):
    """Extension: deterministic predictions cost nearly nothing."""
    ignore = run_point(session_experiment, 500.0, ClockScheme.IRAW)
    deterministic = benchmark.pedantic(
        run_point, args=(session_experiment, 500.0, ClockScheme.IRAW),
        kwargs={"determinism_mode": DeterminismMode.DETERMINISTIC},
        rounds=1, iterations=1)
    cost = 1.0 - speedup(ignore, deterministic)
    assert -0.01 < cost < 0.02  # within noise of free

    record_table("intext_determinism_cost", format_table(
        [{"mode": "ignore (paper default)", "ipc": ignore.ipc},
         {"mode": "deterministic (extension)", "ipc": deterministic.ipc},
         {"mode": "slowdown", "ipc": cost}],
        title="Determinism-mode extension cost at 500 mV"))
