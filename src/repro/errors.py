"""Exception hierarchy for the repro package.

Every exception raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class CalibrationError(ReproError):
    """The circuit model could not be calibrated to the paper's anchors."""


class VoltageRangeError(ConfigError):
    """A voltage is outside the modeled [400 mV, 700 mV] operating range."""


class TraceError(ReproError):
    """A workload trace is malformed or violates ISA constraints."""


class AssemblyError(ReproError):
    """A kernel program failed to assemble."""


class PipelineError(ReproError):
    """The pipeline model reached an inconsistent state (simulator bug)."""


class MemoryModelError(ReproError):
    """The memory-hierarchy model reached an inconsistent state."""


class EngineError(ReproError, RuntimeError):
    """A job failed while the engine executed it, on any backend.

    The message names the job's label and canonical key; the original
    exception is chained as ``__cause__``.
    """
