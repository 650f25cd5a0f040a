"""Cycle-time and operating-frequency solver (paper Figures 11a / 11b input).

Three clocking schemes are modeled, all as functions of Vcc:

``logic``
    The unconstrained ideal: cycle time set only by the 24 FO4 logic path
    (two 12 FO4 phases).  Writes are assumed to fit magically — this is the
    reference the paper normalizes Figure 11(a) against.
``baseline``
    The realistic baseline the paper compares against: the frequency is
    lowered until a full bitcell write (plus wordline activation) fits in
    one clock phase.
``iraw``
    The paper's proposal: writes are interrupted once the cell is past its
    flip point, so the phase must only fit wordline activation plus the
    flip delay (and the read path, and the logic path).  The cell then
    stabilizes over N further cycles, during which the IRAW avoidance
    mechanisms forbid reads of that entry.

A full cycle is two phases; wordline activation and the effective bitcell
write share the second phase (paper Section 2.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.circuits import constants
from repro.circuits.delay import DelayModel
from repro.circuits.ekv import check_voltage, voltage_grid


class ClockScheme(str, Enum):
    """Which path constrains the cycle time."""

    LOGIC = "logic"
    BASELINE = "baseline"
    IRAW = "iraw"


@dataclass(frozen=True)
class OperatingPoint:
    """A resolved (Vcc, scheme) clocking decision.

    Attributes
    ----------
    vcc_mv:
        Supply voltage in millivolts.
    scheme:
        Which :class:`ClockScheme` produced this point.
    phase_delay:
        Clock-phase delay in normalized units (12 FO4 at 700 mV = 1.0).
    frequency_mhz:
        Absolute operating frequency.
    stabilization_cycles:
        N, the number of cycles a freshly written SRAM entry needs before
        it may be read.  Zero means IRAW avoidance is inactive (writes
        complete within their cycle).
    """

    vcc_mv: float
    scheme: ClockScheme
    phase_delay: float
    frequency_mhz: float
    stabilization_cycles: int

    @property
    def cycle_time_normalized(self) -> float:
        """Cycle time in the paper's Figure 11(a) units (24 FO4 @700mV = 2.0)."""
        return 2.0 * self.phase_delay

    @property
    def cycle_time_ns(self) -> float:
        return 1e3 / self.frequency_mhz

    def memory_latency_cycles(self, latency_ns: float) -> int:
        """Fixed-time off-chip latency expressed in (frequency-dependent) cycles."""
        return max(1, math.ceil(latency_ns / self.cycle_time_ns))

    def __reduce__(self):
        # The scheme travels by name: a pickled member is rebuilt by a
        # lookup by value, through the enum's constructor.
        return (_operating_point, (self.vcc_mv, self.scheme.name,
                                   self.phase_delay, self.frequency_mhz,
                                   self.stabilization_cycles))


def _operating_point(vcc_mv: float, scheme: str, phase_delay: float,
                     frequency_mhz: float,
                     stabilization_cycles: int) -> OperatingPoint:
    """A pickled :class:`OperatingPoint` (see its ``__reduce__``)."""
    return OperatingPoint(vcc_mv, ClockScheme[scheme], phase_delay,
                          frequency_mhz, stabilization_cycles)


class FrequencySolver:
    """Resolve operating points for each clocking scheme and Vcc."""

    def __init__(self, delay_model: DelayModel | None = None,
                 nominal_frequency_mhz: float = constants.NOMINAL_FREQUENCY_MHZ):
        self._delays = delay_model or constants.default_delay_model()
        self._nominal_mhz = nominal_frequency_mhz
        # Normalization: the logic scheme at 700 mV runs at the nominal
        # frequency with phase delay exactly 1.0.
        self._phase_time_ns = 1e3 / nominal_frequency_mhz / 2.0

    @property
    def delay_model(self) -> DelayModel:
        return self._delays

    @property
    def nominal_frequency_mhz(self) -> float:
        """The 700 mV logic-scheme frequency the model is normalized to."""
        return self._nominal_mhz

    # ------------------------------------------------------------------
    # Phase-delay resolution per scheme
    # ------------------------------------------------------------------

    def _logic_phase(self, vcc_mv: float) -> float:
        return self._delays.logic(vcc_mv)

    def _baseline_phase(self, vcc_mv: float) -> float:
        d = self._delays
        return max(d.logic(vcc_mv), d.write_with_wordline(vcc_mv),
                   d.read_with_wordline(vcc_mv))

    def _iraw_phase(self, vcc_mv: float) -> float:
        d = self._delays
        return max(d.logic(vcc_mv),
                   d.wordline(vcc_mv) + d.flip(vcc_mv),
                   d.read_with_wordline(vcc_mv))

    def _stabilization_cycles(self, vcc_mv: float, phase: float) -> int:
        """Cycles a written cell needs before reads, at an IRAW phase."""
        d = self._delays
        assisted = phase - d.wordline(vcc_mv)
        remaining = d.stabilization_time(vcc_mv, assisted)
        if remaining <= 0.0:
            return 0
        return math.ceil(remaining / (2.0 * phase))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def stabilization_cycles_at(self, vcc_mv: float, phase: float) -> int:
        """Cycles a written cell needs before reads at an arbitrary phase.

        The same rule :meth:`operating_point` applies to the IRAW phase,
        exposed for consumers that clock one delay model at another
        model's schedule (e.g. Monte-Carlo die binning, which asks what
        a sampled die's worst cell needs at the *design* clock).
        """
        return self._stabilization_cycles(vcc_mv, phase)

    def operating_point(self, vcc_mv: float, scheme: ClockScheme) -> OperatingPoint:
        """Resolve the operating point for one (Vcc, scheme) pair."""
        check_voltage(vcc_mv)
        if scheme is ClockScheme.LOGIC:
            phase = self._logic_phase(vcc_mv)
            stab = 0
        elif scheme is ClockScheme.BASELINE:
            phase = self._baseline_phase(vcc_mv)
            stab = 0
        else:
            phase = self._iraw_phase(vcc_mv)
            stab = self._stabilization_cycles(vcc_mv, phase)
            if vcc_mv >= constants.IRAW_DEACTIVATION_MV or stab == 0:
                # Not worth the stalls: fall back to the baseline clock with
                # the mechanisms disabled (paper Section 5.2).
                phase = self._baseline_phase(vcc_mv)
                stab = 0
        frequency = 1e3 / (2.0 * phase * self._phase_time_ns)
        return OperatingPoint(
            vcc_mv=vcc_mv,
            scheme=scheme,
            phase_delay=phase,
            frequency_mhz=frequency,
            stabilization_cycles=stab,
        )

    def frequency_gain(self, vcc_mv: float) -> float:
        """IRAW frequency increase over the baseline, e.g. 0.57 at 500 mV."""
        base = self.operating_point(vcc_mv, ClockScheme.BASELINE)
        iraw = self.operating_point(vcc_mv, ClockScheme.IRAW)
        return iraw.frequency_mhz / base.frequency_mhz - 1.0

    def figure11a_series(self, step_mv: float = 25.0) -> list[dict[str, float]]:
        """Cycle-time series of Figure 11(a), normalized to 24 FO4 at 700 mV."""
        rows = []
        for vcc in voltage_grid(step_mv):
            logic = self.operating_point(vcc, ClockScheme.LOGIC)
            base = self.operating_point(vcc, ClockScheme.BASELINE)
            iraw = self.operating_point(vcc, ClockScheme.IRAW)
            rows.append({
                "vcc_mv": vcc,
                "logic_24fo4": logic.cycle_time_normalized,
                "baseline_write_limited": base.cycle_time_normalized,
                "iraw_cycle_time": iraw.cycle_time_normalized,
            })
        return rows
