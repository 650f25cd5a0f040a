"""Circuit-only figures and the Section 4.5 prediction-hazard report.

Each function returns the data rows of one paper artifact; the benchmarks
print them and assert the qualitative shape (who wins, where crossovers
fall).  Figure 1 involves no simulation, nor does Figure 11(a), whose rows
:meth:`~repro.circuits.frequency.FrequencySolver.figure11a_series`
builds.

The simulated artifacts (Table 1, Figures 11b and 12, the 450 mV energy
example, the overhead report) render through the named-artifact registry
in :mod:`repro.experiments.artifacts`: its ``*_rows`` builders take the
:class:`~repro.experiments.experiment.Experiment` that an
:class:`~repro.experiments.spec.ExperimentSpec` is bound to.
"""

from __future__ import annotations

from repro.analysis.metrics import PointResult
from repro.circuits.constants import default_delay_model
from repro.circuits.delay import DelayModel
from repro.circuits.ekv import voltage_grid


def figure1_series(model: DelayModel | None = None,
                   step_mv: float = 25.0) -> list[dict[str, float]]:
    """Figure 1: phase delays vs Vcc, normalized to 12 FO4 at 700 mV."""
    model = model or default_delay_model()
    return [model.figure1_row(vcc) for vcc in voltage_grid(step_mv)]


def prediction_hazard_report(point: PointResult) -> dict[str, float]:
    """Section 4.5: BP/RSB potential-corruption statistics of one IRAW
    population point."""
    predictions = hazard_reads = flips = pops = hazard_pops = 0
    full = set_only = 0
    for result in point.results:
        hazards = result.prediction_hazards
        predictions += hazards["bp_predictions"]
        hazard_reads += hazards["bp_hazard_reads"]
        flips += hazards["bp_potential_flips"]
        pops += hazards["rsb_pops"]
        hazard_pops += hazards["rsb_hazard_pops"]
        full += hazards["stable_full_matches"]
        set_only += hazards["stable_set_matches"]
    return {
        "vcc_mv": point.vcc_mv,
        "bp_predictions": predictions,
        "bp_hazard_reads": hazard_reads,
        "bp_potential_flips": flips,
        "bp_potential_extra_misprediction_rate":
            flips / predictions if predictions else 0.0,
        "rsb_pops": pops,
        "rsb_hazard_pops": hazard_pops,
        "stable_full_matches": full,
        "stable_set_matches": set_only,
    }
