"""Configuration of the IRAW avoidance mechanisms.

One :class:`IrawConfig` describes which mechanisms are active and with what
stabilization depth N.  The usual way to obtain one is
:meth:`IrawConfig.for_operating_point`, which takes the
:class:`~repro.circuits.frequency.OperatingPoint` resolved by the frequency
solver: N comes straight from the circuit model, and everything is disabled
when N is zero (writes complete in-cycle, paper Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.branch.iraw_effects import DeterminismMode
from repro.circuits.frequency import OperatingPoint
from repro.errors import ConfigError


@dataclass(frozen=True)
class IrawConfig:
    """Active IRAW avoidance mechanisms and their shared parameters.

    Attributes
    ----------
    stabilization_cycles:
        N — cycles a freshly written SRAM entry needs before it is
        readable.  Zero disables everything.
    bypass_levels:
        Depth of the bypass network (the paper's running example uses 1).
    rf_enabled / iq_enabled / cache_guards_enabled / stable_enabled:
        Per-structure-class switches, normally all-on when N > 0.  They
        exist separately so ablation studies can turn mechanisms off and
        observe the resulting correctness violations.
    determinism_mode:
        Strategy for the prediction-only blocks (paper Section 4.5).
    max_stabilization_cycles:
        Physical sizing of the shift registers/STable: the deepest N
        the hardware supports at any of its Vcc levels (multi-Vcc
        operation, paper Section 4.1.3).  ``stabilization_cycles`` may
        not exceed it.
    """

    stabilization_cycles: int = 0
    bypass_levels: int = 1
    rf_enabled: bool = True
    iq_enabled: bool = True
    cache_guards_enabled: bool = True
    stable_enabled: bool = True
    determinism_mode: DeterminismMode = DeterminismMode.IGNORE
    max_stabilization_cycles: int = 2

    def __post_init__(self) -> None:
        if self.stabilization_cycles < 0:
            raise ConfigError("stabilization_cycles cannot be negative")
        if self.stabilization_cycles > self.max_stabilization_cycles:
            raise ConfigError(
                f"N={self.stabilization_cycles} exceeds the hardware sizing "
                f"max_stabilization_cycles={self.max_stabilization_cycles}"
            )
        if self.bypass_levels < 0:
            raise ConfigError("bypass_levels cannot be negative")

    @property
    def active(self) -> bool:
        """True when any IRAW avoidance is needed."""
        return self.stabilization_cycles > 0

    def effective(self) -> "IrawConfig":
        """The configuration as the core it builds sees it.

        At N = 0 the four mechanism switches do nothing:
        :class:`~repro.core.policy.IrawPolicy` builds each mechanism for
        N when its switch is on and for 0 when it is off, and the
        prediction hazard tracker needs N > 0 as well.  So at N = 0
        every switch counts as on, and an ablation at an N = 0 point
        builds the baseline machine.  The engine simulates a trace once per
        distinct effective configuration, so a change to what a switch
        does at N = 0 must change this rule too.
        """
        if self.active:
            return self
        return replace(self, rf_enabled=True, iq_enabled=True,
                       cache_guards_enabled=True, stable_enabled=True)

    @classmethod
    def disabled(cls) -> "IrawConfig":
        """Baseline configuration: writes complete within their cycle."""
        return cls(stabilization_cycles=0)

    @classmethod
    def for_operating_point(cls, point: OperatingPoint,
                            **overrides) -> "IrawConfig":
        """The configuration of a core built for ``point``.

        N is the point's unless ``overrides`` (the ablation switches)
        replace it or any other field.  Each phase of a DVFS schedule,
        like each sweep point, runs on a core built this way for its own
        point.
        """
        base = cls(stabilization_cycles=point.stabilization_cycles)
        return replace(base, **overrides) if overrides else base
