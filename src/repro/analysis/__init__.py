"""Evaluation helpers: metrics, DVFS scenarios, reporting and the
circuit-only figures (:mod:`repro.experiments` renders the simulated
artifacts with them)."""

from repro.analysis.dvfs import DvfsOutcome, DvfsPhase, DvfsScenario
from repro.analysis.figures import (
    figure1_series,
    prediction_hazard_report,
)
from repro.analysis.metrics import PointResult, geometric_mean, speedup
from repro.analysis.reporting import format_table, percent

__all__ = [
    "DvfsOutcome",
    "DvfsPhase",
    "DvfsScenario",
    "PointResult",
    "figure1_series",
    "format_table",
    "geometric_mean",
    "percent",
    "prediction_hazard_report",
    "speedup",
]
