"""Deep-tail yield estimation via self-normalized importance sampling.

Brute-force die sampling cannot resolve the paper's design point: the
baseline margins for 6-sigma worst cells, so the failure events that
set yield at aggressive Vcc have probabilities far below anything a
feasible die count observes — ``yield_curve`` reads 100% or 0% with
nothing in between.  This module shifts the *proposal*: the die-to-die
mean Vth offset (the model's Gaussian component, shared by every cell
of the die) is mean-shifted so each sampled die's effective worst-cell
sigma moves ``shift_sigma`` cell sigmas toward the failure region, and
each die carries the exact Gaussian log likelihood ratio of the
nominal offset density against that proposal
(:func:`repro.montecarlo.sampling.shifted_offset`).  The reducers then
form self-normalized estimates ``sum(w*f)/sum(w)`` whose precision is
governed by the Kish effective sample size (ESS) rather than the raw
die count — a 100k-die shifted campaign resolves failure probabilities
below 1e-7 that brute force would need 1e9+ dies to see.

The die offset is the *only* component that supports a mean shift:
tilting the per-array max draw ``Phi^-1(u^(1/N))`` instead gives a
likelihood ratio ``f(b+s)/f(b)`` of the max-of-N density whose second
moment diverges — the max density falls doubly-exponentially on its
left flank, so dies whose shifted draw lands in the nominal bulk carry
astronomically large exact weights and the empirical ESS collapses to
a handful of dies regardless of the budget.  The Gaussian offset shift
has exactly lognormal weights with ``ESS/dies = exp(-lambda**2)``,
``lambda = shift_sigma * sigma_mv / die_sigma_mv`` — predictable,
bounded, and deep enough (the shift moves the whole die) to reach the
design point.

Trust comes from three locked properties (``tests/test_importance.py``):
``shift_sigma = 0`` degenerates bit-identically to the brute-force
estimator for any block partition, a block of one die included;
the weights are the exact Gaussian density ratio for arbitrary shifts;
and in the 3-4 sigma region where both estimators converge their
confidence intervals must overlap (z-test cross-validation).  ESS
diagnostics ride in every reduced row, and an
:class:`EffectiveSampleSizeWarning` fires when ``ESS/dies`` falls
below the spec's threshold — a shifted campaign whose weights
collapsed is noise, not data.

Layering: this module sits beside ``campaign`` (which imports it for
the ESS warning) and loads without NumPy, because ``spec`` builds an
:class:`ImportanceSpec`; :func:`deep_tail_rows` imports NumPy, the
weighted reducer and campaign's plan-order grouping and chunking where
it runs, which also avoids an import cycle through ``spec``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

from repro.errors import ConfigError
from repro.specfields import read_fields, write_fields

_STANDARD_NORMAL = NormalDist()

#: ``shift_sigma = "auto"`` aims the *median* shifted worst cell of the
#: largest sampled array this many cell sigmas past the design margin —
#: deep enough that design-point failures become common under the
#: proposal.
AUTO_TAIL_MARGIN_SIGMA = 2.0

#: ``"auto"`` never tilts the Gaussian offset beyond this many of its
#: own sigmas: the expected ESS fraction is ``exp(-lambda**2)``, so
#: ``lambda = 2`` keeps ~1.8% of the dies effective (1.8k ESS per 100k
#: dies) while buying a two-offset-sigma reach into the tail.
AUTO_MAX_LAMBDA = 2.0

#: Default ``ESS/dies`` floor below which the reducers warn.
DEFAULT_ESS_WARN = 0.1


class EffectiveSampleSizeWarning(UserWarning):
    """The importance weights collapsed: ESS/dies fell below the
    configured threshold, so the self-normalized estimate is dominated
    by a handful of dies and its intervals are untrustworthy."""


@dataclass(frozen=True)
class ImportanceSpec:
    """The ``[montecarlo.importance]`` section of an experiment spec.

    ``shift_sigma`` is physics — it changes the sampled population and
    folds into :class:`~repro.montecarlo.sampling.MonteCarloConfig`
    (and therefore into every job key); ``"auto"`` resolves to a
    deterministic shift from the design margin and the sampled arrays,
    so two specs that resolve to the same float share a cache.
    ``ess_warn`` is presentation only (a reducer-side diagnostic
    threshold) and deliberately stays *out* of the job key: tightening
    the warning must not re-simulate a single die.
    """

    shift_sigma: float | str = "auto"
    ess_warn: float = DEFAULT_ESS_WARN

    def __post_init__(self) -> None:
        shift = self.shift_sigma
        if isinstance(shift, str):
            if shift != "auto":
                raise ConfigError(
                    f"montecarlo.importance.shift_sigma must be a "
                    f"sigma count or 'auto' (got {shift!r})")
        else:
            shift = float(shift)
            object.__setattr__(self, "shift_sigma", shift)
            if not (math.isfinite(shift) and shift >= 0.0):
                raise ConfigError(
                    f"montecarlo.importance.shift_sigma must be a "
                    f"finite sigma count >= 0 (got {shift})")
        if not 0.0 <= float(self.ess_warn) < 1.0:
            raise ConfigError(
                f"montecarlo.importance.ess_warn must be in [0, 1) "
                f"(got {self.ess_warn})")
        object.__setattr__(self, "ess_warn", float(self.ess_warn))

    def resolved_shift(self, config) -> float:
        """The concrete proposal shift for one campaign.

        ``config`` is the campaign's *unshifted*
        :class:`~repro.montecarlo.sampling.MonteCarloConfig`.  Explicit
        floats pass through; ``"auto"`` lands the median shifted die
        (largest array's median max draw ``Phi^-1(0.5^(1/N))`` plus the
        shift) at ``design_sigma + AUTO_TAIL_MARGIN_SIGMA``, but never
        tilts the offset Gaussian beyond :data:`AUTO_MAX_LAMBDA` of its
        own sigmas — past that the weights collapse faster than the
        tail deepens.  Clamped at 0; a campaign without die-to-die
        variation (``die_sigma_mv == 0``) has no Gaussian to shift and
        resolves to plain Monte-Carlo.
        """
        if not isinstance(self.shift_sigma, str):
            return self.shift_sigma
        if config.die_sigma_mv == 0.0:
            return 0.0
        largest = max(bits for _, bits in config.array_bits())
        median_max = _STANDARD_NORMAL.inv_cdf(0.5 ** (1.0 / largest))
        target = config.design_sigma + AUTO_TAIL_MARGIN_SIGMA \
            - median_max
        ess_safe = AUTO_MAX_LAMBDA * config.die_sigma_mv \
            / config.sigma_mv
        return max(0.0, min(target, ess_safe))

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return write_fields(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ImportanceSpec":
        return cls(**read_fields(cls, data, "montecarlo.importance"))


def warn_low_ess(ess: float, dies: int, threshold: float,
                 vcc_mv: float, scheme: str) -> None:
    """Fire :class:`EffectiveSampleSizeWarning` when the weights
    collapsed below ``threshold * dies`` at one grid point."""
    if dies < 1 or threshold <= 0.0:
        return
    if ess / dies < threshold:
        warnings.warn(
            f"importance sampling at ({vcc_mv:g} mV, {scheme}): "
            f"ESS {ess:.1f} of {dies} dies is below the "
            f"{threshold:g} threshold — the shifted proposal is "
            f"poorly matched here and the weighted estimate is "
            f"dominated by a few dies",
            EffectiveSampleSizeWarning, stacklevel=3)


def _log10_or_none(probability: float) -> float | None:
    """``log10(p)`` with JSON-safe censoring: ``None`` when the
    campaign observed no failure mass at all (p == 0) or is empty."""
    if math.isnan(probability) or probability <= 0.0:
        return None
    return math.log10(probability)


def deep_tail_rows(results, grid, schemes, dies: int, importance,
                   confidence: float = 0.95) -> list[dict]:
    """Per-(Vcc, scheme) deep-tail failure probabilities, streaming.

    The importance-sampled counterpart of
    :func:`repro.montecarlo.campaign.yield_curve_rows`, reporting the
    *failure* side of the distribution: self-normalized functional and
    top-bin failure probabilities with delta-method intervals, their
    log10 magnitudes (``None`` where no failure mass was observed),
    and the ESS diagnostics that qualify them.  ``results`` must be
    the campaign results in plan order; any block partition reduces
    identically (weights are ``exp`` of the per-die log weights, folded
    in die-aligned chunks).
    """
    # Lazy imports: campaign imports this module for the ESS warning,
    # and the spec types must load without NumPy.
    import numpy as np

    from repro.montecarlo.campaign import _chunks, _grouped
    from repro.montecarlo.stats import WeightedIndicator, checked_weights

    if importance is None:
        raise ConfigError("deep_tail needs a [montecarlo.importance] "
                          "section")
    rows = []
    for vcc, scheme, group in _grouped(results, grid, schemes, dies):
        functional = WeightedIndicator()
        meets = WeightedIndicator()
        for chunk in _chunks(group, ("functional", "meets_design",
                                     "log_weight")):
            weight = checked_weights(np.exp(chunk["log_weight"]))
            functional.fold(~chunk["functional"], weight)
            meets.fold(~chunk["meets_design"], weight)
        ess = functional.ess
        warn_low_ess(ess, dies, importance.ess_warn, vcc, scheme)
        f_low, f_high = functional.interval(confidence)
        m_low, m_high = meets.interval(confidence)
        rows.append({
            "vcc_mv": float(vcc),
            "scheme": str(scheme),
            "dies": dies,
            "ess": ess,
            "ess_fraction": ess / dies,
            "functional_fail": functional.estimate,
            "functional_fail_low": f_low,
            "functional_fail_high": f_high,
            "log10_functional_fail":
                _log10_or_none(functional.estimate),
            "frequency_fail": meets.estimate,
            "frequency_fail_low": m_low,
            "frequency_fail_high": m_high,
            "log10_frequency_fail": _log10_or_none(meets.estimate),
        })
    return rows
