"""The declarative ``[montecarlo]`` section of an experiment spec.

:class:`MonteCarloSpec` is the user-authored description of one
sampling campaign: how many dies, which seed, and the variation-model
knobs.  It splits into two identities:

* :meth:`MonteCarloSpec.config` — the :class:`~repro.montecarlo.sampling.MonteCarloConfig`
  folded into every ``mc-block`` job key (seed and physics knobs only);
* presentation knobs (``dies``, ``confidence``) that deliberately stay
  *out* of the job key, so growing a campaign from 64 to 256 dies
  reuses all 64 cached dies, and re-rendering at a different confidence
  level simulates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.circuits.variation import VTH_MV_PER_SIGMA
from repro.errors import ConfigError
from repro.montecarlo.importance import ImportanceSpec
from repro.montecarlo.sampling import (
    DIE_SIGMA_MV,
    MAX_SLOWDOWN,
    MonteCarloConfig,
)
from repro.specfields import read_fields, write_fields


@dataclass(frozen=True)
class MonteCarloSpec:
    """One die-sampling campaign (population of dies + physics knobs)."""

    dies: int = 64
    seed: int = 0
    confidence: float = 0.95
    #: Dies per vectorized ``mc-block`` job; ``None`` plans one die per
    #: job, the same as ``1``.  The block size partitions the die range
    #: into job keys, so changing it re-simulates (sampling is
    #: unaffected: per-die draws depend only on seed and die index, and
    #: the reduced artifacts are invariant under partitioning).
    block: int | None = None
    sigma_mv: float = VTH_MV_PER_SIGMA
    design_sigma: float = 6.0
    die_sigma_mv: float = DIE_SIGMA_MV
    max_slowdown: float = MAX_SLOWDOWN
    arrays: tuple[str, ...] = ()
    #: Deep-tail importance sampling (``[montecarlo.importance]``).
    #: The *resolved* proposal shift is physics and folds into
    #: :meth:`config`; the ESS warning threshold is presentation.
    importance: ImportanceSpec | None = None

    def __post_init__(self) -> None:
        # Same canonical order as MonteCarloConfig: author order of the
        # array subset is presentation, not identity.
        object.__setattr__(self, "arrays",
                           tuple(sorted({str(name)
                                         for name in self.arrays})))
        if self.dies < 1:
            raise ConfigError(f"montecarlo needs at least one die "
                              f"(got {self.dies})")
        if self.block is not None and self.block < 1:
            raise ConfigError(f"montecarlo block must be >= 1 "
                              f"(got {self.block})")
        if not 0 < self.confidence < 1:
            raise ConfigError(f"montecarlo confidence must be in (0, 1), "
                              f"got {self.confidence}")
        if self.importance is not None \
                and not isinstance(self.importance, ImportanceSpec):
            raise ConfigError("montecarlo importance must be an "
                              "ImportanceSpec")
        # Physics-knob validation lives in MonteCarloConfig; building it
        # eagerly surfaces bad values at spec-load time.
        self.config()

    def config(self) -> MonteCarloConfig:
        """The job-key subset of this campaign (see module docstring).

        An ``[montecarlo.importance]`` section folds its *resolved*
        proposal shift in — the shift changes the sampled population,
        so it must invalidate cached dies — while the section's
        ``ess_warn`` diagnostic threshold stays out.
        """
        config = MonteCarloConfig(
            seed=self.seed,
            sigma_mv=self.sigma_mv,
            design_sigma=self.design_sigma,
            die_sigma_mv=self.die_sigma_mv,
            max_slowdown=self.max_slowdown,
            arrays=self.arrays,
        )
        if self.importance is not None:
            shift = self.importance.resolved_shift(config)
            config = replace(config, shift_sigma=shift)
        return config

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return write_fields(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MonteCarloSpec":
        return cls(**read_fields(cls, data, "montecarlo"))
