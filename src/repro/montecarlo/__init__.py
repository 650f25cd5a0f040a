"""Monte-Carlo die sampling: yield, Vccmin and frequency binning.

The paper's low-Vcc argument is statistical — the baseline cycle time is
set for **6-sigma** weak cells, and the alternatives trade margin for
disabled capacity — but deterministic sigma margins
(:mod:`repro.circuits.variation`) only reproduce the *means*.  This
package samples whole dies: each die draws a seeded Gaussian Vth map
over the paper's SRAM arrays (a die-to-die mean shift plus the
within-die worst-case cell of every array, derived from the calibrated
:class:`~repro.circuits.variation.VariationModel`), and is then
evaluated against the *design* clock schedule at every (Vcc, scheme)
point of a campaign grid.

Dies are drawn from a counter-based Philox stream, so a die's sample is
a pure function of (campaign seed, die index), and evaluated as NumPy
arrays.  Each sampled (die block, Vcc, scheme) point is an ordinary
``mc-block`` engine job (a block of one die when the spec sets no
block size): the campaign config and die range fold into the canonical
job key, so deduplication, on-disk caching and all three execution
backends work unchanged.  Reduction folds arrays in die-aligned chunks
(:mod:`repro.montecarlo.stats`): yields with Wilson confidence
intervals, per-die Vccmin distributions, and frequency-bin statistics,
never materialising per-die populations beyond O(dies) arrays.

Layering: :mod:`repro.montecarlo.sampling` sits beside ``circuits``
(imported lazily by the engine executor); :mod:`repro.montecarlo.spec`
and :mod:`repro.montecarlo.campaign` serve the declarative experiment
layer on top.
"""

from repro.montecarlo.campaign import (
    montecarlo_jobs,
    per_die_rows,
    vccmin_rows,
    yield_curve_rows,
)
from repro.montecarlo.importance import (
    EffectiveSampleSizeWarning,
    ImportanceSpec,
    deep_tail_rows,
)
from repro.montecarlo.sampling import (
    DieBlock,
    DieBlockResult,
    MonteCarloConfig,
    evaluate_block,
    shifted_offset,
)
from repro.montecarlo.spec import MonteCarloSpec
from repro.montecarlo.stats import (
    DiscreteDistribution,
    StreamingStats,
    WeightedIndicator,
    WeightedStats,
    weighted_wilson_interval,
    wilson_interval,
)

__all__ = [
    "DieBlock",
    "DieBlockResult",
    "DiscreteDistribution",
    "EffectiveSampleSizeWarning",
    "ImportanceSpec",
    "MonteCarloConfig",
    "MonteCarloSpec",
    "StreamingStats",
    "WeightedIndicator",
    "WeightedStats",
    "deep_tail_rows",
    "evaluate_block",
    "montecarlo_jobs",
    "per_die_rows",
    "shifted_offset",
    "vccmin_rows",
    "weighted_wilson_interval",
    "wilson_interval",
    "yield_curve_rows",
]
