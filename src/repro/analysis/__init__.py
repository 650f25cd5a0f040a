"""Evaluation harness: sweeps, metrics, figure/table regeneration."""

from repro.analysis.dvfs import DvfsOutcome, DvfsPhase, DvfsScenario
from repro.analysis.figures import (
    figure1_series,
    prediction_hazard_report,
)
from repro.analysis.metrics import PointResult, geometric_mean, speedup
from repro.analysis.reporting import format_table, percent
from repro.analysis.sweep import SweepSettings, VccSweep, warm_caches

__all__ = [
    "DvfsOutcome",
    "DvfsPhase",
    "DvfsScenario",
    "PointResult",
    "SweepSettings",
    "VccSweep",
    "figure1_series",
    "format_table",
    "geometric_mean",
    "percent",
    "prediction_hazard_report",
    "speedup",
    "warm_caches",
]
