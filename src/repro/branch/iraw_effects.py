"""IRAW effects on prediction-only blocks (paper Section 4.5).

The paper's strategy for BP and RSB is *do nothing*: reading a
not-yet-stabilized entry can only corrupt a prediction, never architectural
state.  What matters is quantifying how often that can happen:

* **BP**: an entry read within N cycles of a write is only at risk if the
  write flipped the counter's uppermost (direction) bit — otherwise even a
  garbled read returns the same direction.  The paper reports a negligible
  0.0017% average *potential extra misprediction* rate.
* **RSB**: only a return predicted within 1-2 cycles of its matching call
  can pop a stabilizing entry; the paper found no such short functions.

:class:`PredictionHazardTracker` implements the bookkeeping on top of the
predictor/RSB models, plus the optional *determinism mode* extensions the
paper sketches (a DL0-style recent-update tracker for the BP and
stall-after-call for the RSB).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.branch.predictor import BimodalPredictor


class DeterminismMode(str, Enum):
    """How prediction-only blocks treat IRAW hazards."""

    #: Paper default: allow the read, count the potential corruption.
    IGNORE = "ignore"
    #: Paper's post-silicon-testing extension: make predictions
    #: deterministic (BP recent-update tracker, RSB stall-after-call).
    DETERMINISTIC = "deterministic"


@dataclass
class HazardCounts:
    """Potential-corruption statistics for the prediction-only blocks."""

    bp_predictions: int = 0
    bp_hazard_reads: int = 0
    bp_potential_flips: int = 0
    rsb_pops: int = 0
    rsb_hazard_pops: int = 0
    rsb_stall_cycles: int = 0
    bp_tracker_hits: int = 0

    @property
    def bp_potential_extra_misprediction_rate(self) -> float:
        """The paper's 0.0017% statistic."""
        if not self.bp_predictions:
            return 0.0
        return self.bp_potential_flips / self.bp_predictions


@dataclass
class PredictionHazardTracker:
    """Counts IRAW hazards on BP reads; optionally enforces determinism."""

    predictor: BimodalPredictor
    stabilization_cycles: int = 1
    mode: DeterminismMode = DeterminismMode.IGNORE
    counts: HazardCounts = field(default_factory=HazardCounts)
    #: Determinism mode: recent BP updates tracked STable-style, keyed by
    #: entry index -> (cycle, counter-after-write).
    _recent_updates: dict[int, int] = field(default_factory=dict)

    def predict(self, pc: int, cycle: int) -> bool:
        """Predict a direction, accounting for stabilization hazards."""
        index = self.predictor.index_of(pc)
        counter, written_at, flipped = self.predictor.entry_state(index)
        prediction = self.predictor.predict(pc)
        self.counts.bp_predictions += 1
        in_window = (self.stabilization_cycles > 0
                     and cycle - written_at <= self.stabilization_cycles
                     and cycle >= written_at)
        if not in_window:
            return prediction
        if self.mode is DeterminismMode.DETERMINISTIC:
            # The tracker (latch-based, like the STable) provides the
            # just-written value: deterministic and hazard-free.
            self.counts.bp_tracker_hits += 1
            return prediction
        self.counts.bp_hazard_reads += 1
        if flipped:
            # Only writes that flip the uppermost bit can corrupt the
            # predicted direction (paper Section 4.5).
            self.counts.bp_potential_flips += 1
        return prediction

    def update(self, pc: int, taken: bool, cycle: int) -> None:
        self.predictor.update(pc, taken, cycle)

    def note_rsb_pop(self, hazardous: bool, stalled_cycles: int = 0) -> None:
        """Record a return-stack pop observed by the pipeline."""
        self.counts.rsb_pops += 1
        if hazardous:
            self.counts.rsb_hazard_pops += 1
        self.counts.rsb_stall_cycles += stalled_cycles
