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
layer on top.  NumPy loads only for a Monte-Carlo campaign: ``spec``
never imports it, and ``sampling`` and ``importance`` import it inside
the functions that build arrays, so ``import repro.api`` and every
campaign without a ``[montecarlo]`` section run without it.  This
package re-exports only those three modules' names.  ``campaign`` (the
planner and reducers) and ``stats`` (the streaming statistics) import
NumPy at load; import their names from those modules.
"""

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

__all__ = [
    "DieBlock",
    "DieBlockResult",
    "EffectiveSampleSizeWarning",
    "ImportanceSpec",
    "MonteCarloConfig",
    "MonteCarloSpec",
    "deep_tail_rows",
    "evaluate_block",
    "shifted_offset",
]
