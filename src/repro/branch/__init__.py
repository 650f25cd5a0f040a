"""Branch prediction substrate: BP, RSB and IRAW hazard tracking."""

from repro.branch.iraw_effects import (
    DeterminismMode,
    HazardCounts,
    PredictionHazardTracker,
)
from repro.branch.predictor import BimodalPredictor
from repro.branch.rsb import ReturnStackBuffer

__all__ = [
    "BimodalPredictor",
    "DeterminismMode",
    "HazardCounts",
    "PredictionHazardTracker",
    "ReturnStackBuffer",
]
