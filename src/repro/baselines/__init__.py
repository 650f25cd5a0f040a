"""State-of-the-art comparators from the paper's Table 1."""

from repro.baselines.extra_bypass import ExtraBypassBaseline
from repro.baselines.faulty_bits import FaultyBitsBaseline

__all__ = [
    "ExtraBypassBaseline",
    "FaultyBitsBaseline",
]
