"""Tests for the branch predictors, RSB and IRAW hazard tracking."""

import pytest

from repro.branch.iraw_effects import (
    DeterminismMode,
    PredictionHazardTracker,
)
from repro.branch.predictor import BimodalPredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.errors import ConfigError


class TestBimodal:
    def test_learns_steady_taken(self):
        bp = BimodalPredictor(entries=64)
        pc = 0x40
        for cycle in range(4):
            bp.update(pc, True, cycle)
        assert bp.predict(pc) is True

    def test_learns_steady_not_taken(self):
        bp = BimodalPredictor(entries=64)
        pc = 0x40
        for cycle in range(4):
            bp.update(pc, False, cycle)
        assert bp.predict(pc) is False

    def test_hysteresis_survives_single_flip(self):
        bp = BimodalPredictor(entries=64)
        pc = 0x40
        for cycle in range(4):
            bp.update(pc, True, cycle)
        bp.update(pc, False, 10)  # one not-taken (loop exit)
        assert bp.predict(pc) is True  # still predicts taken

    def test_entry_state_tracks_writes(self):
        bp = BimodalPredictor(entries=64)
        pc = 0x40
        bp.update(pc, True, cycle=7)
        counter, written_at, flipped = bp.entry_state(bp.index_of(pc))
        assert written_at == 7
        assert flipped  # 1 -> 2 crosses the direction threshold

    def test_msb_flip_detection(self):
        bp = BimodalPredictor(entries=64)
        index = bp.index_of(0x40)
        bp.update(0x40, True, 0)   # 1->2: flip
        assert bp.entry_state(index)[2]
        bp.update(0x40, True, 1)   # 2->3: no flip
        assert not bp.entry_state(index)[2]

    def test_entries_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            BimodalPredictor(entries=1000)


class TestRsb:
    def test_push_pop_lifo(self):
        rsb = ReturnStackBuffer(entries=4)
        rsb.push(0x100, cycle=0)
        rsb.push(0x200, cycle=1)
        assert rsb.pop(cycle=10)[0] == 0x200
        assert rsb.pop(cycle=10)[0] == 0x100

    def test_overflow_drops_oldest(self):
        rsb = ReturnStackBuffer(entries=2)
        for i in range(3):
            rsb.push(0x100 * (i + 1), cycle=i)
        assert rsb.pop(10)[0] == 0x300
        assert rsb.pop(10)[0] == 0x200
        assert rsb.pop(10)[0] is None  # 0x100 was overwritten

    def test_underflow_counts(self):
        rsb = ReturnStackBuffer(entries=2)
        predicted, hazardous = rsb.pop(0)
        assert predicted is None and not hazardous
        assert rsb.underflows == 1

    def test_hazard_window_detection(self):
        """A pop within N cycles of its push reads a stabilizing entry."""
        rsb = ReturnStackBuffer(entries=4)
        rsb.push(0x100, cycle=10)
        _, hazardous = rsb.pop(cycle=11, hazard_window=1)
        assert hazardous
        rsb.push(0x200, cycle=20)
        _, hazardous = rsb.pop(cycle=25, hazard_window=1)
        assert not hazardous
        assert rsb.hazard_pops == 1


class TestHazardTracker:
    def test_window_read_counts_hazard(self):
        bp = BimodalPredictor(entries=64)
        tracker = PredictionHazardTracker(bp, stabilization_cycles=1)
        pc = 0x40
        tracker.update(pc, True, cycle=10)     # write at 10 (flips MSB)
        tracker.predict(pc, cycle=11)          # read inside the window
        assert tracker.counts.bp_hazard_reads == 1
        assert tracker.counts.bp_potential_flips == 1

    def test_non_flipping_write_is_harmless(self):
        bp = BimodalPredictor(entries=64)
        tracker = PredictionHazardTracker(bp, stabilization_cycles=1)
        pc = 0x40
        tracker.update(pc, True, 0)
        tracker.update(pc, True, 5)  # saturating: 2->3, no MSB flip
        tracker.predict(pc, cycle=6)
        assert tracker.counts.bp_hazard_reads == 1
        assert tracker.counts.bp_potential_flips == 0

    def test_outside_window_is_clean(self):
        bp = BimodalPredictor(entries=64)
        tracker = PredictionHazardTracker(bp, stabilization_cycles=1)
        tracker.update(0x40, True, 0)
        tracker.predict(0x40, cycle=10)
        assert tracker.counts.bp_hazard_reads == 0

    def test_deterministic_mode_uses_tracker(self):
        bp = BimodalPredictor(entries=64)
        tracker = PredictionHazardTracker(
            bp, stabilization_cycles=1, mode=DeterminismMode.DETERMINISTIC)
        tracker.update(0x40, True, 0)
        tracker.predict(0x40, cycle=1)
        assert tracker.counts.bp_tracker_hits == 1
        assert tracker.counts.bp_hazard_reads == 0

    def test_rate_property(self):
        bp = BimodalPredictor(entries=64)
        tracker = PredictionHazardTracker(bp, stabilization_cycles=1)
        assert tracker.counts.bp_potential_extra_misprediction_rate == 0.0
        tracker.update(0x40, True, 0)
        tracker.predict(0x40, 1)
        assert tracker.counts.bp_potential_extra_misprediction_rate > 0
