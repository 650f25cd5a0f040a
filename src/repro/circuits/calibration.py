"""Calibration of the delay model against the paper's published anchors.

The paper's delay data comes from Intel electrical simulations we cannot
run.  It does, however, publish enough numeric anchor points to pin down an
analytical model:

* (A1) bitcell write delay alone crosses the 12 FO4 phase at **525 mV**;
* (A2) write + wordline activation crosses at **600 mV**, where IRAW would
  buy only "a modest 1%" frequency;
* (A3) at **550 mV** the baseline frequency drops to **77%** of the
  logic-allowed frequency;
* (A4) at **450 mV** it drops to **24%** (the 450 mV energy example implies
  the slightly softer 1/3.82, both are fitted with weights);
* (A5) at **500 mV** the cycle time "almost doubles";
* (A6) IRAW raises frequency by **57% at 500 mV**;
* (A7) IRAW raises frequency by **99% at 400 mV**;
* (A8) IRAW is not worth using at or above 600 mV, and a **single**
  stabilization cycle suffices everywhere below.

``fit_model`` performs a two-stage least-squares fit (write cell first,
then the interrupted-write flip path) and returns a calibrated
:class:`~repro.circuits.delay.DelayModel`.  The resulting parameters are
pinned in :mod:`repro.circuits.constants`; a unit test re-runs the fit and
checks it still lands on the pinned values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from repro.circuits.delay import DelayModel
from repro.circuits.ekv import Device
from repro.errors import CalibrationError

#: Logic path parameters (fixed, not fitted): a 45 nm device with the
#: threshold scaled for near-Vth operation per the paper's reference [8].
LOGIC_VTH_MV = 220.0
LOGIC_N = 1.5

#: Read path: fraction of the logic delay (8-T read ports are sized so the
#: read bitline stays comfortably below 12 FO4 — paper Section 2.1).
READ_FRACTION = 0.55


@dataclass(frozen=True)
class AnchorReport:
    """How well a calibrated model reproduces each paper anchor."""

    name: str
    vcc_mv: float
    target: float
    achieved: float

    @property
    def relative_error(self) -> float:
        return abs(self.achieved - self.target) / abs(self.target)


def make_logic_device() -> Device:
    """The 12 FO4 logic path, normalized to delay 1.0 at 700 mV."""
    raw = Device("logic-12fo4", LOGIC_VTH_MV, LOGIC_N, kd=1.0)
    return raw.scaled_to(700.0, 1.0)


def _write_residuals(params: np.ndarray, logic: Device) -> np.ndarray:
    """Log-space residuals of the write-cell fit (anchors A1-A5)."""
    vth_w, n_w, log_kd, wl_frac = params
    write = Device("bitcell-write-6sigma", vth_w, n_w, math.exp(log_kd))

    def total(vcc: float) -> float:
        return write.delay(vcc) + wl_frac * logic.delay(vcc)

    res = [
        # A1: write-only crossover at 525 mV.
        1.0 * (math.log(write.delay(525.0)) - math.log(logic.delay(525.0))),
        # A2: write+WL is ~1% above logic at 600 mV.
        1.0 * (math.log(total(600.0)) - math.log(1.01 * logic.delay(600.0))),
        # A3: frequency down to 77% at 550 mV.
        1.0 * (math.log(total(550.0)) - math.log(logic.delay(550.0) / 0.77)),
        # A5 (soft): cycle "almost doubles" at 500 mV.
        0.5 * (math.log(total(500.0)) - math.log(2.0 * logic.delay(500.0))),
        # A4: frequency down to 24% at 450 mV ...
        0.7 * (math.log(total(450.0)) - math.log(logic.delay(450.0) / 0.24)),
        # ... softened toward the 3.82x implied by the 450 mV energy example.
        0.3 * (math.log(total(450.0)) - math.log(3.82 * logic.delay(450.0))),
    ]
    return np.asarray(res)


def _flip_residuals(
    params: np.ndarray, logic: Device, write: Device, wl_frac: float
) -> np.ndarray:
    """Log-space residuals of the interrupted-write (flip) fit (A6-A8)."""
    vth_f, n_f, log_kd = params
    flip = Device("bitcell-flip", vth_f, n_f, math.exp(log_kd))

    def gain_anchor(vcc: float, gain: float, weight: float) -> float:
        baseline_phase = write.delay(vcc) + wl_frac * logic.delay(vcc)
        target_phase = baseline_phase / (1.0 + gain)
        iraw_write_phase = flip.delay(vcc) + wl_frac * logic.delay(vcc)
        return weight * (math.log(iraw_write_phase) - math.log(target_phase))

    res = [
        # A6: +57% frequency at 500 mV.
        gain_anchor(500.0, 0.57, 1.0),
        # A7: +99% frequency at 400 mV.
        gain_anchor(400.0, 0.99, 1.0),
        # Soft interior anchor implied by the energy example: ~+79% at 450 mV.
        gain_anchor(450.0, 0.79, 0.4),
        # A8 (soft): at 600 mV the flip path must not exceed the logic phase,
        # so deactivating IRAW there costs nothing.
        0.5
        * max(
            0.0,
            math.log(
                (flip.delay(600.0) + wl_frac * logic.delay(600.0))
                / logic.delay(600.0)
            ),
        ),
    ]
    return np.asarray(res)


def fit_model(stabilization_cycles_target: int = 1) -> DelayModel:
    """Calibrate the full delay model to the paper's anchors.

    Returns a :class:`DelayModel` whose ``stabilization_slowdown`` is chosen
    as large as physically plausible while still letting
    ``stabilization_cycles_target`` cycles suffice across [400, 575] mV
    (the paper: "one stabilization cycle suffices below 600mV").

    Raises
    ------
    CalibrationError
        If either least-squares stage fails to converge.
    """
    logic = make_logic_device()

    write_fit = least_squares(
        _write_residuals,
        x0=np.array([470.0, 1.2, math.log(0.007), 0.30]),
        bounds=([380.0, 0.7, math.log(1e-5), 0.10], [560.0, 2.5, math.log(1.0), 0.40]),
        args=(logic,),
    )
    if not write_fit.success:
        raise CalibrationError(f"write-cell fit failed: {write_fit.message}")
    vth_w, n_w, log_kd_w, wl_frac = write_fit.x
    write = Device("bitcell-write-6sigma", float(vth_w), float(n_w), math.exp(log_kd_w))

    flip_fit = least_squares(
        _flip_residuals,
        x0=np.array([420.0, 1.2, math.log(0.004)]),
        bounds=([300.0, 0.7, math.log(1e-6)], [520.0, 2.5, math.log(1.0)]),
        args=(logic, write, float(wl_frac)),
    )
    if not flip_fit.success:
        raise CalibrationError(f"flip-path fit failed: {flip_fit.message}")
    vth_f, n_f, log_kd_f = flip_fit.x
    flip = Device("bitcell-flip", float(vth_f), float(n_f), math.exp(log_kd_f))

    slowdown = _max_stabilization_slowdown(
        logic, write, flip, float(wl_frac), stabilization_cycles_target
    )
    return DelayModel(
        logic_device=logic,
        write_device=write,
        flip_device=flip,
        wordline_fraction=float(wl_frac),
        read_fraction=READ_FRACTION,
        stabilization_slowdown=slowdown,
    )


def _max_stabilization_slowdown(
    logic: Device,
    write: Device,
    flip: Device,
    wl_frac: float,
    cycles: int,
) -> float:
    """Largest gamma such that ``cycles`` stabilization cycles suffice.

    After the interruption, the cell got ``phase - wordline`` of assisted
    write time and must complete the remaining swing unassisted, slowed by
    gamma.  That remainder has to fit in ``cycles`` full IRAW cycles for
    every Vcc in the active range [400, 575] mV.
    """
    bound = math.inf
    for vcc in np.arange(400.0, 575.0 + 1e-9, 5.0):
        wl = wl_frac * logic.delay(vcc)
        phase = max(
            logic.delay(vcc),
            wl + flip.delay(vcc),
            wl + READ_FRACTION * logic.delay(vcc),
        )
        assisted = phase - wl
        remaining = write.delay(vcc) - assisted
        if remaining <= 0.0:
            continue
        bound = min(bound, cycles * 2.0 * phase / remaining)
    if not math.isfinite(bound):
        raise CalibrationError("stabilization never needed; check write fit")
    # Leave 5% margin below the bound, and never model the unassisted flip
    # as faster than the assisted one.
    return max(1.0, 0.95 * bound)


def anchor_report(model: DelayModel) -> list[AnchorReport]:
    """Evaluate every paper anchor against a calibrated model."""
    logic = model.logic
    rows = [
        AnchorReport(
            "write-only crossover (W/L at 525mV)",
            525.0,
            1.0,
            model.write(525.0) / logic(525.0),
        ),
        AnchorReport(
            "write+WL vs logic at 600mV",
            600.0,
            1.01,
            model.write_with_wordline(600.0) / logic(600.0),
        ),
        AnchorReport(
            "baseline frequency fraction at 550mV",
            550.0,
            0.77,
            logic(550.0) / model.write_with_wordline(550.0),
        ),
        AnchorReport(
            "baseline frequency fraction at 450mV",
            450.0,
            0.24,
            logic(450.0) / model.write_with_wordline(450.0),
        ),
        AnchorReport(
            "cycle-time ratio at 500mV",
            500.0,
            2.0,
            model.write_with_wordline(500.0) / logic(500.0),
        ),
    ]
    return rows


def main() -> None:
    """Fit and print pinned-constant source for repro.circuits.constants."""
    model = fit_model()
    print("# Fitted parameters (paste into constants.py):")
    print(f"WRITE_VTH_MV = {model.write_device.vth_mv!r}")
    print(f"WRITE_N = {model.write_device.n!r}")
    print(f"WRITE_KD = {model.write_device.kd!r}")
    print(f"FLIP_VTH_MV = {model.flip_device.vth_mv!r}")
    print(f"FLIP_N = {model.flip_device.n!r}")
    print(f"FLIP_KD = {model.flip_device.kd!r}")
    print(f"WORDLINE_FRACTION = {model.wordline_fraction!r}")
    print(f"STABILIZATION_SLOWDOWN = {model.stabilization_slowdown!r}")
    print()
    print("# Anchor check:")
    for row in anchor_report(model):
        print(
            f"#   {row.name}: target={row.target:.3f} "
            f"achieved={row.achieved:.3f} (err {100 * row.relative_error:.1f}%)"
        )


if __name__ == "__main__":
    main()
