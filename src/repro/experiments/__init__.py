"""Declarative experiment API: specs, one driver, structured results.

This package is the consumer-facing seam over :mod:`repro.engine`:

* :class:`~repro.experiments.spec.ExperimentSpec` — a frozen,
  serializable description of one evaluation campaign (trace
  population, Vcc grid, clock schemes, ablations, DVFS schedules,
  artifact list).  Specs round-trip through TOML and JSON files, so new
  scenario grids need a spec file, not new harness code.
* :class:`~repro.experiments.experiment.Experiment` — the single driver
  compiling a spec into one engine job batch (it builds every
  population job itself, through ``population_job``) and folding the
  results into a :class:`~repro.experiments.resultset.ResultSet` of
  flat, typed records with ``filter``/``group_by``/``pivot`` helpers
  and CSV/JSON export.
* :data:`~repro.experiments.artifacts.ARTIFACTS` — the named-artifact
  registry (``table1``, ``fig11b``, ``fig12``, ``energy450``,
  ``overheads``, ``dvfs``, ``stalls`` and the Monte-Carlo artifacts).
  Its row builders take the experiment and are the single
  implementation of each artifact; ``repro.analysis`` keeps only the
  point-level pieces they build on (metrics, DVFS scenarios,
  circuit-only figures).

Typical use::

    from repro.experiments import ExperimentSpec, Experiment

    spec = ExperimentSpec.load("examples/table1.toml")
    experiment = Experiment(spec, runner=ParallelRunner(workers=4))
    results = experiment.run()                   # one engine batch
    print(results.pivot("vcc_mv", "scheme", "ipc"))
    print(experiment.artifact("table1"))         # pure memo-lookup

or, from the command line::

    python -m repro run examples/table1.toml --workers 4
"""

from repro.experiments.artifacts import ARTIFACTS, Artifact, artifact
from repro.experiments.experiment import Experiment, run_spec
from repro.experiments.resultset import Record, ResultSet
from repro.experiments.spec import (
    KNOWN_ARTIFACTS,
    AblationSpec,
    DvfsScheduleSpec,
    ExperimentSpec,
    RiscvProgramRef,
)
from repro.montecarlo.spec import MonteCarloSpec

__all__ = [
    "ARTIFACTS",
    "AblationSpec",
    "Artifact",
    "DvfsScheduleSpec",
    "Experiment",
    "ExperimentSpec",
    "KNOWN_ARTIFACTS",
    "MonteCarloSpec",
    "Record",
    "ResultSet",
    "RiscvProgramRef",
    "artifact",
    "run_spec",
]
