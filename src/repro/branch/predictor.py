"""Branch direction predictor (the BP block of Figure 3).

Silverthorne uses a two-level scheme; the core models it as a bimodal
table of 2-bit saturating counters.

For the IRAW study (paper Section 4.5) the predictor also records *when*
each entry was last written and whether that write flipped the counter's
uppermost (direction) bit: a prediction that reads an entry inside its
stabilization window could return a corrupted direction, which affects
performance but never correctness.  The paper measured a negligible
0.0017% average potential extra misprediction rate; see
:mod:`repro.branch.iraw_effects` for the bookkeeping.
"""

from __future__ import annotations

from repro.errors import ConfigError

#: 2-bit saturating counter limits.
_COUNTER_MAX = 3
_TAKEN_THRESHOLD = 2


class BimodalPredictor:
    """PC-indexed 2-bit counter table."""

    def __init__(self, entries: int = 4096):
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError(f"predictor entries must be a power of two, got {entries}")
        self.entries = entries
        self._counters = [1] * entries  # weakly not-taken
        self._written_at = [-(10 ** 9)] * entries
        self._write_flipped_msb = [False] * entries
        self.predictions = 0
        self.mispredictions = 0

    def index_of(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def entry_state(self, index: int) -> tuple[int, int, bool]:
        """(counter, last write cycle, did last write flip the MSB)."""
        return (self._counters[index], self._written_at[index],
                self._write_flipped_msb[index])

    def predict(self, pc: int) -> bool:
        self.predictions += 1
        return self._counters[self.index_of(pc)] >= _TAKEN_THRESHOLD

    def update(self, pc: int, taken: bool, cycle: int) -> None:
        index = self.index_of(pc)
        old = self._counters[index]
        if taken != (old >= _TAKEN_THRESHOLD):
            self.mispredictions += 1
        new = min(_COUNTER_MAX, old + 1) if taken else max(0, old - 1)
        self._counters[index] = new
        self._written_at[index] = cycle
        self._write_flipped_msb[index] = (
            (old >= _TAKEN_THRESHOLD) != (new >= _TAKEN_THRESHOLD))
