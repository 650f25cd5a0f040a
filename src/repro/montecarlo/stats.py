"""Array statistics for die-sample reductions.

Campaign reducers fold per-die result arrays into aggregates chunk by
chunk, never holding a whole (Vcc, scheme) group:
:class:`WeightedStats` sums each chunk with NumPy and merges it into
running weighted moments (mean/std/min/max) with Chan et al.'s pairwise
update, and :class:`StreamingStats` is the same fold at unit weights;
:class:`WeightedIndicator` accumulates a self-normalized probability
estimate with its delta-method variance and Kish effective sample size;
:class:`DiscreteDistribution` counts values drawn from a small known
set (per-die Vccmin lives on the campaign's Vcc grid) and answers exact
nearest-rank percentiles from the counts; and :func:`wilson_interval`
puts a confidence interval on yield fractions — the Wilson score
interval, which stays inside [0, 1] and behaves at the 0%/100% yields
small campaigns actually produce (:func:`weighted_wilson_interval` is
its analogue at an effective sample size).

A fold's last bits depend on where the values were cut into chunks,
so the reducers always cut at fixed die-aligned boundaries
(:data:`repro.montecarlo.campaign.FOLD_CHUNK`).  Unit weights take
exactly the arithmetic real weights take, so an unshifted
importance-sampled campaign reports weighted columns bit-identical to
the unweighted ones.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from repro.errors import ConfigError

_STANDARD_NORMAL = NormalDist()


def checked_weights(weights) -> np.ndarray:
    """``weights`` as a float array, every element finite and >= 0.

    The reducers check each chunk's weights once with this and hand the
    array to every accumulator's ``fold``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    invalid = ~(np.isfinite(weights) & (weights >= 0.0))
    if invalid.any():
        raise ConfigError(f"weights must be finite and >= 0 "
                          f"(got {weights[invalid][0]})")
    return weights


class WeightedStats:
    """Weighted moments (count, mean, std, min, max), folded by arrays.

    :meth:`extend` reduces one array of values and weights with NumPy
    sums, then merges it into the running moments with Chan et al.'s
    pairwise update.  Zero-weight observations are skipped entirely
    (they carry no information).
    """

    __slots__ = ("count", "wsum", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.wsum = 0.0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def extend(self, values, weights) -> None:
        """Fold one array of values with their weights."""
        self.fold(np.asarray(values, dtype=np.float64),
                  checked_weights(weights))

    def fold(self, values: np.ndarray, weights: np.ndarray) -> None:
        """:meth:`extend` of a float array, with weights that passed
        :func:`checked_weights`."""
        if not weights.all():
            kept = weights > 0.0
            values, weights = values[kept], weights[kept]
        if not values.size:
            return
        wsum = float(weights.sum())
        mean = float((weights * values).sum()) / wsum
        delta = values - mean
        m2 = float((weights * delta * delta).sum())
        total = self.wsum + wsum
        shift = mean - self.mean
        self.mean += shift * (wsum / total)
        self._m2 += m2 + shift * shift * (self.wsum * wsum / total)
        self.wsum = total
        self.count += values.size
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))

    @property
    def std(self) -> float:
        """Weight-normalised population standard deviation (0.0 below
        two counted samples)."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / self.wsum)

    def as_dict(self, prefix: str = "") -> dict[str, float]:
        """The accumulated moments as flat row columns."""
        if not self.count:
            return {f"{prefix}mean": math.nan, f"{prefix}std": math.nan,
                    f"{prefix}min": math.nan, f"{prefix}max": math.nan}
        return {
            f"{prefix}mean": self.mean,
            f"{prefix}std": self.std,
            f"{prefix}min": self.minimum,
            f"{prefix}max": self.maximum,
        }


class StreamingStats(WeightedStats):
    """Unweighted moments: :class:`WeightedStats` at unit weights."""

    __slots__ = ()

    def extend(self, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        self.fold(values, np.ones(values.size))


class DiscreteDistribution:
    """Counting distribution over a small set of discrete values.

    Per-die Vccmin takes values on the campaign's Vcc grid, so exact
    percentiles need only a counter per grid point — never a list of
    samples.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[float, int] = {}

    def add(self, value: float, count: int = 1) -> None:
        value = float(value)
        self._counts[value] = self._counts.get(value, 0) + count

    @property
    def count(self) -> int:
        return sum(self._counts.values())

    @property
    def mean(self) -> float:
        total = self.count
        if not total:
            return math.nan
        return sum(v * n for v, n in self._counts.items()) / total

    @property
    def std(self) -> float:
        total = self.count
        if total < 2:
            return 0.0 if total else math.nan
        mean = self.mean
        return math.sqrt(sum(n * (v - mean) ** 2
                             for v, n in self._counts.items()) / total)

    def percentile(self, p: float) -> float:
        """Exact nearest-rank percentile (``p`` in [0, 100])."""
        if not 0 <= p <= 100:
            raise ConfigError(f"percentile must be in [0, 100], got {p}")
        total = self.count
        if not total:
            return math.nan
        rank = max(1, math.ceil(p / 100.0 * total))
        seen = 0
        for value in sorted(self._counts):
            seen += self._counts[value]
            if seen >= rank:
                return value
        return max(self._counts)  # pragma: no cover - defensive

    @property
    def minimum(self) -> float:
        return min(self._counts) if self._counts else math.nan

    @property
    def maximum(self) -> float:
        return max(self._counts) if self._counts else math.nan


class WeightedIndicator:
    """Self-normalized importance-sampling estimator of an event
    probability.

    Accumulates ``(hit, weight)`` observations and answers the
    self-normalized estimate ``sum(w * hit) / sum(w)``, its
    delta-method variance, the Kish effective sample size
    ``sum(w)^2 / sum(w^2)``, and a clamped normal confidence interval.
    With unit weights the estimate is exactly ``hits / count`` and the
    ESS exactly ``count`` (both ratios of exactly-represented float
    integers), so shift-0 campaigns reduce identically to the plain
    counters.
    """

    __slots__ = ("count", "wsum", "w2sum", "hit_wsum", "hit_w2sum")

    def __init__(self) -> None:
        self.count = 0
        self.wsum = 0.0
        self.w2sum = 0.0
        self.hit_wsum = 0.0
        self.hit_w2sum = 0.0

    def extend(self, hits, weights) -> None:
        """Fold one array of ``(hit, weight)`` observations."""
        self.fold(hits, checked_weights(weights))

    def fold(self, hits, weights: np.ndarray) -> None:
        """:meth:`extend` with weights that passed
        :func:`checked_weights`."""
        hit_weights = np.where(hits, weights, 0.0)
        self.count += weights.size
        self.wsum += float(weights.sum())
        self.w2sum += float((weights * weights).sum())
        self.hit_wsum += float(hit_weights.sum())
        self.hit_w2sum += float((hit_weights * hit_weights).sum())

    @property
    def estimate(self) -> float:
        """The self-normalized probability estimate (NaN when empty)."""
        if self.wsum == 0.0:
            return math.nan
        return self.hit_wsum / self.wsum

    @property
    def ess(self) -> float:
        """Kish effective sample size of the accumulated weights."""
        if self.w2sum == 0.0:
            return 0.0
        return self.wsum * self.wsum / self.w2sum

    def variance(self) -> float:
        """Delta-method variance of the self-normalized estimate:
        ``sum(w_i^2 * (hit_i - p)^2) / sum(w)^2``."""
        if self.wsum == 0.0:
            return math.nan
        p = self.estimate
        miss_w2 = self.w2sum - self.hit_w2sum
        return (self.hit_w2sum * (1.0 - p) * (1.0 - p)
                + miss_w2 * p * p) / (self.wsum * self.wsum)

    def interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """Delta-method normal interval, clamped to [0, 1]."""
        if not 0 < confidence < 1:
            raise ConfigError(
                f"confidence must be in (0, 1), got {confidence}")
        if self.wsum == 0.0:
            return (0.0, 1.0)
        z = _STANDARD_NORMAL.inv_cdf(0.5 + confidence / 2.0)
        half = z * math.sqrt(max(self.variance(), 0.0))
        p = self.estimate
        return (max(0.0, p - half), min(1.0, p + half))


def _wilson(phat: float, trials: float,
            confidence: float) -> tuple[float, float]:
    """The Wilson score core over a float proportion and trial count.

    ``trials`` may be an exact integer count or a (fractional)
    effective sample size; the integer path is bit-identical to the
    historical all-int formula because int operands convert to float
    exactly before every operation involved.
    """
    z = _STANDARD_NORMAL.inv_cdf(0.5 + confidence / 2.0)
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2.0 * trials)
    spread = z * math.sqrt(phat * (1.0 - phat) / trials
                           + z * z / (4.0 * trials * trials))
    low = (centre - spread) / denom
    high = (centre + spread) / denom
    return (max(0.0, low), min(1.0, high))


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Returns ``(low, high)`` bounds on the true yield given
    ``successes`` out of ``trials``; ``(0.0, 1.0)`` for an empty
    campaign.  Unlike the normal approximation it never leaves [0, 1]
    and stays informative at observed yields of exactly 0 or 1.
    """
    if not 0 < confidence < 1:
        raise ConfigError(
            f"confidence must be in (0, 1), got {confidence}")
    if trials < 0 or successes < 0 or successes > trials:
        raise ConfigError(
            f"wilson_interval needs 0 <= successes <= trials "
            f"(got {successes}/{trials})")
    if trials == 0:
        return (0.0, 1.0)
    return _wilson(successes / trials, trials, confidence)


def weighted_wilson_interval(phat: float, ess: float,
                             confidence: float = 0.95,
                             ) -> tuple[float, float]:
    """Wilson score interval at an *effective* sample size.

    The importance-sampled analogue of :func:`wilson_interval`: the
    self-normalized yield estimate ``phat`` is treated as a binomial
    proportion observed over ``ess`` (Kish) effective trials.  With
    unit weights ``ess`` equals the integer die count exactly and the
    bounds are bit-identical to the unweighted interval.
    """
    if not 0 < confidence < 1:
        raise ConfigError(
            f"confidence must be in (0, 1), got {confidence}")
    if not (math.isfinite(ess) and ess >= 0.0):
        raise ConfigError(f"effective sample size must be finite and "
                          f">= 0 (got {ess})")
    if ess == 0.0:
        # No effective mass at all (e.g. every weight underflowed):
        # the estimate is vacuous, like an empty campaign.
        return (0.0, 1.0)
    if math.isnan(phat) or not 0.0 <= phat <= 1.0:
        raise ConfigError(f"proportion must be in [0, 1] (got {phat})")
    return _wilson(float(phat), float(ess), confidence)
