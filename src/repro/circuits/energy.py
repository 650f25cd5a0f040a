"""Energy, delay and EDP model (paper Figure 12 and the 450 mV example).

The paper's energy accounting (Section 5.3) rests on three rules:

1. **Dynamic energy** for a fixed task scales quadratically with Vcc and is
   independent of how long the task takes.
2. **Leakage power**: leakage current grows "around 10% per 25 mV decrease"
   of Vcc (threshold voltage is scaled down together with Vcc for near-Vth
   operation, reference [8] of the paper); leakage *power* is that current
   times Vcc.  Leakage *energy* is leakage power times execution time —
   which is why the slow, write-delay-limited baseline burns so much more
   leakage than IRAW at low Vcc.
3. At 600 mV the whole-processor leakage is calibrated to **10% of total
   energy** for the baseline.

IRAW adds a constant 1% (:data:`IRAW_DYNAMIC_OVERHEAD`, the paper's
pessimistic 20x-activity-factor estimate) to dynamic energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.ekv import check_voltage

#: Calibration voltage for the leakage share (paper Section 5.1).
LEAKAGE_CALIBRATION_MV = 600.0
#: Leakage share of total energy at the calibration point.
LEAKAGE_SHARE_AT_CALIBRATION = 0.10
#: Leakage current growth factor per 25 mV of Vcc decrease.
LEAKAGE_GROWTH_PER_STEP = 1.10
LEAKAGE_STEP_MV = 25.0
#: IRAW's relative dynamic-energy adder (the shift-register bits).
IRAW_DYNAMIC_OVERHEAD = 0.01
#: Vcc of the Section 5.3 joule-accounting example.
ENERGY_EXAMPLE_MV = 450.0
#: Energy the example assumes for the unconstrained execution.
ENERGY_EXAMPLE_UNCONSTRAINED_J = 5.0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one task execution, split the way the paper reports it."""

    vcc_mv: float
    dynamic_j: float
    leakage_j: float
    execution_time_s: float

    @property
    def total_j(self) -> float:
        return self.dynamic_j + self.leakage_j

    @property
    def leakage_share(self) -> float:
        return self.leakage_j / self.total_j

    @property
    def edp(self) -> float:
        """Energy-delay product in J*s."""
        return self.total_j * self.execution_time_s


class EnergyModel:
    """Whole-processor energy model calibrated per the paper's Section 5.

    Parameters
    ----------
    reference_dynamic_j:
        Dynamic energy of the reference task at the calibration voltage
        (600 mV).  Only ratios matter for the reproduced figures, so the
        default of 0.9 J (with 0.1 J of leakage at the 600 mV reference
        execution time) gives a 1 J reference task.
    reference_time_s:
        Execution time of the reference task at 600 mV on the baseline
        clock.  Together with the leakage share this pins leakage power.
    """

    def __init__(self, reference_dynamic_j: float = 0.9,
                 reference_time_s: float = 1.0):
        if reference_dynamic_j <= 0 or reference_time_s <= 0:
            raise ValueError("reference energy and time must be positive")
        self._ref_dynamic_j = reference_dynamic_j
        self._ref_time_s = reference_time_s
        share = LEAKAGE_SHARE_AT_CALIBRATION
        reference_leakage_j = reference_dynamic_j * share / (1.0 - share)
        self._leakage_power_at_ref_w = reference_leakage_j / reference_time_s

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------

    def dynamic_energy_j(self, vcc_mv: float, work_fraction: float = 1.0,
                         overhead: float = 0.0) -> float:
        """Dynamic energy for ``work_fraction`` of the reference task.

        ``overhead`` is a relative adder (0.01 = +1%) for extra hardware
        such as the IRAW shift-register bits.
        """
        check_voltage(vcc_mv)
        scale = (vcc_mv / LEAKAGE_CALIBRATION_MV) ** 2
        return self._ref_dynamic_j * work_fraction * scale * (1.0 + overhead)

    def leakage_power_w(self, vcc_mv: float) -> float:
        """Leakage power at ``vcc_mv`` (current growth x Vcc)."""
        check_voltage(vcc_mv)
        steps = (LEAKAGE_CALIBRATION_MV - vcc_mv) / LEAKAGE_STEP_MV
        current_growth = LEAKAGE_GROWTH_PER_STEP ** steps
        return (self._leakage_power_at_ref_w * current_growth
                * vcc_mv / LEAKAGE_CALIBRATION_MV)

    # ------------------------------------------------------------------
    # Task-level accounting
    # ------------------------------------------------------------------

    def task_energy(self, vcc_mv: float, execution_time_s: float,
                    work_fraction: float = 1.0,
                    dynamic_overhead: float = 0.0) -> EnergyBreakdown:
        """Energy breakdown of a task run at ``vcc_mv``.

        Parameters
        ----------
        execution_time_s:
            Wall-clock execution time (cycle count / frequency); drives
            the leakage term.
        work_fraction:
            Task size relative to the reference task (same at any Vcc).
        dynamic_overhead:
            Relative dynamic-energy adder (e.g. 0.01 for IRAW hardware).
        """
        if execution_time_s <= 0:
            raise ValueError("execution_time_s must be positive")
        dynamic = self.dynamic_energy_j(vcc_mv, work_fraction, dynamic_overhead)
        leakage = self.leakage_power_w(vcc_mv) * execution_time_s
        return EnergyBreakdown(vcc_mv, dynamic, leakage, execution_time_s)

    def relative_metrics(self, vcc_mv: float, baseline_time_s: float,
                         iraw_time_s: float) -> dict[str, float]:
        """Figure 12 row: IRAW energy / delay / EDP relative to baseline."""
        base = self.task_energy(vcc_mv, baseline_time_s)
        iraw = self.task_energy(vcc_mv, iraw_time_s,
                                dynamic_overhead=IRAW_DYNAMIC_OVERHEAD)
        return {
            "vcc_mv": vcc_mv,
            "energy_ratio": iraw.total_j / base.total_j,
            "delay_ratio": iraw_time_s / baseline_time_s,
            "edp_ratio": iraw.edp / base.edp,
        }


def paper_450mv_example(model: EnergyModel, unconstrained_time_s: float,
                        baseline_time_s: float, iraw_time_s: float
                        ) -> dict[str, EnergyBreakdown]:
    """Reproduce the paper's 450 mV joule-accounting example.

    The paper assumes the unconstrained (no write-delay limit) execution
    consumes 5 J at 450 mV, then reports the baseline at 8.50 J (4.74 J
    leakage) and IRAW at 6.40 J (2.64 J leakage).  We scale our
    reference task so the unconstrained case matches 5 J and report all
    three breakdowns.
    """
    vcc = ENERGY_EXAMPLE_MV
    probe = model.task_energy(vcc, unconstrained_time_s)
    scale = ENERGY_EXAMPLE_UNCONSTRAINED_J / probe.total_j
    scaled = EnergyModel(
        reference_dynamic_j=model._ref_dynamic_j * scale,
        reference_time_s=model._ref_time_s,
    )
    return {
        "unconstrained": scaled.task_energy(vcc, unconstrained_time_s),
        "baseline": scaled.task_energy(vcc, baseline_time_s),
        "iraw": scaled.task_energy(vcc, iraw_time_s,
                                   dynamic_overhead=IRAW_DYNAMIC_OVERHEAD),
    }
