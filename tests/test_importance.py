"""Cross-validation and property suite for deep-tail importance sampling.

The estimator is only as trustworthy as its contracts, so each one is
locked independently:

* **exact weights** — the per-die log weight is the exact Gaussian
  likelihood ratio of the nominal die-offset density against the
  mean-shifted proposal, for arbitrary shifts (hypothesis property);
* **shift-zero degeneracy** — ``shift_sigma = 0`` is bit-identical to
  plain Monte-Carlo for blocks of one die and for whole blocks alike,
  down to the weighted reducer columns;
* **cross-validation** — in the 3-4 sigma region where brute force
  still converges, the shifted estimator must agree with it (overlapping
  confidence intervals and a two-estimator z-test);
* **ESS diagnostics** — the Kish effective sample size is invariant
  under block partitioning and collapses trigger the warning;
* **deep-tail acceptance** — a 100k-die shifted campaign resolves a
  failure probability at or below 1e-7 with ESS >= 1000, which brute
  force would need ~1e9 dies to see.
"""

import dataclasses
import math
from statistics import NormalDist

import mc_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.frequency import ClockScheme
from repro.engine.jobs import job_key
from repro.errors import ConfigError
from repro.montecarlo import (
    EffectiveSampleSizeWarning,
    ImportanceSpec,
    MonteCarloSpec,
    deep_tail_rows,
    shifted_offset,
)
from repro.montecarlo.campaign import montecarlo_jobs, yield_curve_rows
from repro.montecarlo.importance import AUTO_MAX_LAMBDA
from repro.montecarlo.sampling import (
    DieBlock,
    MonteCarloConfig,
    evaluate_block,
)
from repro.montecarlo.stats import (
    StreamingStats,
    WeightedIndicator,
    WeightedStats,
    weighted_wilson_interval,
    wilson_interval,
)

#: The cross-validation point: deep enough that IRAW failures are a
#: genuine tail event, shallow enough that a 4000-die brute-force
#: campaign still observes dozens of them (p ~ 1.3e-2 at 500 mV).
XVAL_VCC = 500.0
XVAL_DIES = 4000

#: The deep-tail acceptance point (see TestDeepTailAcceptance).
DEEP_VCC = 565.0
DEEP_DIES = 100_000
DEEP_SHIFT = 2.0


def block_results(config, dies, vcc, scheme, block=None):
    """Campaign results for one (vcc, scheme) point, in plan order."""
    block = block or dies
    results = []
    for start in range(0, dies, block):
        count = min(block, dies - start)
        results.append(evaluate_block(config, start, count, vcc, scheme))
    return results


def bits(row: dict) -> dict:
    """A reduced row with every float as its exact hex spelling."""
    return {key: value.hex() if isinstance(value, float) else value
            for key, value in row.items()}


def failure_indicator(results) -> WeightedIndicator:
    """Fold functional-failure mass block by block."""
    indicator = WeightedIndicator()
    for result in results:
        indicator.extend(~result.functional, np.exp(result.log_weight))
    return indicator


class TestExactWeights:
    """The log weight is the exact Gaussian likelihood ratio."""

    @given(shift=st.floats(1e-3, 3.0), z=st.floats(-4.0, 4.0),
           sigma=st.floats(5.0, 15.0), die_sigma=st.floats(5.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_weight_is_the_exact_likelihood_ratio(self, shift, z, sigma,
                                                  die_sigma):
        """For arbitrary shifts, ``exp(log_weight)`` equals the density
        ratio nominal/proposal evaluated at the reported offset."""
        config = MonteCarloConfig(shift_sigma=shift, sigma_mv=sigma,
                                  die_sigma_mv=die_sigma)
        offset = z * die_sigma
        reported, log_weight = shifted_offset(offset, config)
        assert reported == offset + shift * sigma
        nominal = NormalDist(0.0, die_sigma)
        proposal = NormalDist(shift * sigma, die_sigma)
        expected = nominal.pdf(reported) / proposal.pdf(reported)
        assert math.isclose(math.exp(log_weight), expected, rel_tol=1e-9)

    @given(offset=st.floats(-100.0, 100.0),
           die_sigma=st.floats(0.5, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_zero_shift_is_an_exact_identity(self, offset, die_sigma):
        config = MonteCarloConfig(die_sigma_mv=die_sigma)
        reported, log_weight = shifted_offset(offset, config)
        assert reported == offset          # same object-level float
        assert log_weight == 0.0

    def test_shift_without_die_variation_is_rejected(self):
        """A zero-sigma campaign has no Gaussian to shift: the config
        must refuse rather than silently sample the nominal population
        with unit weights labelled as a shifted proposal."""
        with pytest.raises(ConfigError):
            MonteCarloConfig(shift_sigma=1.0, die_sigma_mv=0.0)


class TestShiftZeroDegeneracy:
    """``shift_sigma = 0`` degenerates bit-identically to brute force."""

    def test_scalar_and_block_paths_match_bitwise(self):
        """Single dies (blocks of one) and a 32-die block draw the same
        samples and weights, shifted or not; the weights are the
        oracle's exact tilt."""
        for shift in (0.0, 1.5):
            config = MonteCarloConfig(seed=3, shift_sigma=shift)
            sample = DieBlock(config, 0, 32).build()
            for die in range(32):
                single = DieBlock(config, die, 1).build()
                assert single.effective[0] == sample.effective[die]
                assert single.log_weight[0] == sample.log_weight[die]
                assert sample.log_weight[die] == pytest.approx(
                    mc_oracle.draw_die(config, die).log_weight,
                    rel=1e-12, abs=1e-12)

    def test_zero_shift_weights_are_exactly_zero(self):
        config = MonteCarloConfig(seed=1)
        sample = DieBlock(config, 0, 64).build()
        assert sample.log_weight.tolist() == [0.0] * 64
        result = evaluate_block(config, 5, 1, XVAL_VCC, ClockScheme.IRAW)
        assert result.log_weight.tolist() == [0.0]

    @pytest.mark.parametrize("block", [None, 16])
    def test_weighted_columns_degenerate_bitwise(self, block):
        """At shift 0 every weight is exactly 1.0, so the weighted
        yield-curve columns equal the unweighted ones bit for bit —
        on the per-die path and the vectorized block path alike."""
        mc = MonteCarloSpec(dies=48, seed=0, block=block,
                            importance=ImportanceSpec(shift_sigma=0.0))
        config = mc.config()
        grid, schemes = (XVAL_VCC,), ("iraw",)
        if block is None:
            results = [evaluate_block(config, die, 1, XVAL_VCC,
                                      ClockScheme.IRAW)
                       for die in range(mc.dies)]
        else:
            results = block_results(config, mc.dies, XVAL_VCC,
                                    ClockScheme.IRAW, block=block)
        [row] = yield_curve_rows(results, grid, schemes, mc.dies,
                                 mc.confidence, importance=mc.importance)
        assert row["weighted_functional_yield"] == row["functional_yield"]
        assert row["weighted_frequency_yield"] == row["frequency_yield"]
        assert row["weighted_functional_low"] == row["functional_low"]
        assert row["weighted_functional_high"] == row["functional_high"]
        assert row["weighted_frequency_mhz_mean"] \
            == row["frequency_mhz_mean"]
        assert row["weighted_slowdown_mean"] == row["slowdown_mean"]
        assert row["ess"] == float(mc.dies)
        assert row["ess_fraction"] == 1.0

    def test_deep_tail_estimate_degenerates_to_the_count(self):
        mc = MonteCarloSpec(dies=64, seed=0, block=64,
                            importance=ImportanceSpec(shift_sigma=0.0))
        results = block_results(mc.config(), mc.dies, 450.0,
                                ClockScheme.IRAW)
        [row] = deep_tail_rows(results, (450.0,), ("iraw",), mc.dies,
                               mc.importance, mc.confidence)
        failures = sum(1 for r in results
                       for f in r.functional.tolist() if not f)
        assert row["functional_fail"] == failures / mc.dies
        assert row["ess"] == float(mc.dies)


class TestChunkedReduction:
    def test_rows_match_the_scalar_welford(self):
        """A shifted 9000-die campaign (three fold chunks, odd blocks)
        reduces to the rows a scalar per-die fold computes, to 1e-12."""
        mc = MonteCarloSpec(dies=9000, seed=4, block=1000,
                            importance=ImportanceSpec(shift_sigma=1.0,
                                                      ess_warn=0.0))
        grid, schemes = (XVAL_VCC,), ("iraw",)
        results = block_results(mc.config(), mc.dies, XVAL_VCC,
                                ClockScheme.IRAW, block=mc.block)
        [row] = yield_curve_rows(results, grid, schemes, mc.dies,
                                 mc.confidence, importance=mc.importance)
        frequency, w_frequency = mc_oracle.Welford(), mc_oracle.Welford()
        w_slowdown = mc_oracle.Welford()
        wsum = w2sum = hit_wsum = 0.0
        for die in mc_oracle.block_points(results):
            weight = math.exp(die.log_weight)
            frequency.add(die.die_frequency_mhz)
            w_frequency.add(die.die_frequency_mhz, weight)
            w_slowdown.add(die.slowdown, weight)
            wsum += weight
            w2sum += weight * weight
            hit_wsum += weight if die.functional else 0.0
        expected = {
            "frequency_mhz_mean": frequency.mean,
            "frequency_mhz_std": frequency.std,
            "weighted_frequency_mhz_mean": w_frequency.mean,
            "weighted_slowdown_mean": w_slowdown.mean,
            "weighted_functional_yield": hit_wsum / wsum,
            "ess": wsum * wsum / w2sum,
        }
        for name, value in expected.items():
            assert row[name] == pytest.approx(value, rel=1e-12), name


class TestCrossValidation:
    """Brute force and the shifted estimator agree where both converge."""

    def setup_method(self):
        self.scheme = ClockScheme.IRAW
        brute = MonteCarloConfig(seed=0)
        shifted = MonteCarloConfig(seed=7, shift_sigma=1.0)
        self.brute = block_results(brute, XVAL_DIES, XVAL_VCC, self.scheme)
        self.shifted = block_results(shifted, XVAL_DIES, XVAL_VCC,
                                     self.scheme)

    def test_confidence_intervals_overlap(self):
        hits = sum(1 for r in self.brute
                   for f in r.functional.tolist() if not f)
        assert hits >= 20  # the point really is brute-observable
        b_low, b_high = wilson_interval(hits, XVAL_DIES, 0.95)
        indicator = failure_indicator(self.shifted)
        i_low, i_high = indicator.interval(0.95)
        assert indicator.ess >= 1000.0
        assert max(b_low, i_low) <= min(b_high, i_high), \
            f"brute [{b_low}, {b_high}] vs IS [{i_low}, {i_high}]"

    def test_two_estimator_z_test(self):
        hits = sum(1 for r in self.brute
                   for f in r.functional.tolist() if not f)
        p_brute = hits / XVAL_DIES
        var_brute = p_brute * (1.0 - p_brute) / XVAL_DIES
        indicator = failure_indicator(self.shifted)
        z = abs(indicator.estimate - p_brute) \
            / math.sqrt(indicator.variance() + var_brute)
        assert z < 4.0, (f"z = {z:.2f}: IS {indicator.estimate:.4g} vs "
                         f"brute {p_brute:.4g}")


class TestEssDiagnostics:
    def test_ess_is_invariant_under_block_partitioning(self):
        """The reducers fold weights in die-aligned chunks, so how the
        campaign was cut into jobs must not change a single bit of any
        weighted ``yield_curve`` or ``deep_tail`` column — across chunk
        boundaries too (9000 dies span three chunks).  Blocks of 9000
        and 4096 dies hand each chunk over as one block's slice; blocks
        of 1000 and 7 join several blocks per chunk."""
        config = MonteCarloConfig(seed=0, shift_sigma=1.0)
        importance = ImportanceSpec(shift_sigma=1.0, ess_warn=0.0)
        references = None
        for block in (9000, 4096, 1000, 7):
            results = block_results(config, 9000, XVAL_VCC,
                                    ClockScheme.IRAW, block=block)
            [curve] = yield_curve_rows(results, (XVAL_VCC,), ("iraw",),
                                       9000, importance=importance)
            [tail] = deep_tail_rows(results, (XVAL_VCC,), ("iraw",), 9000,
                                    importance)
            rows = (bits(curve), bits(tail))
            if references is None:
                references = rows
                assert "weighted_slowdown_mean" in curve
            assert rows == references

    def test_collapsed_weights_warn(self):
        """An over-aggressive shift spreads the weights so far that a
        few dies dominate; the diagnostic must fire with the grid point
        in the message (seeded campaign: ESS/dies ~ 0.23 here)."""
        mc = MonteCarloSpec(dies=16, seed=0, block=16,
                            importance=ImportanceSpec(shift_sigma=3.0,
                                                      ess_warn=0.5))
        results = block_results(mc.config(), mc.dies, XVAL_VCC,
                                ClockScheme.IRAW)
        with pytest.warns(EffectiveSampleSizeWarning, match="500 mV"):
            deep_tail_rows(results, (XVAL_VCC,), ("iraw",), mc.dies,
                           mc.importance, mc.confidence)


class TestJobKeyDirections:
    """What re-simulates and what must not, pinned both ways."""

    @staticmethod
    def keys(mc: MonteCarloSpec) -> list[str]:
        return [job_key(job)
                for job in montecarlo_jobs(mc, (XVAL_VCC,), ("iraw",))]

    def test_presentation_knobs_stay_out_of_the_job_key(self):
        base = MonteCarloSpec(
            dies=8, importance=ImportanceSpec(shift_sigma=1.0))
        ess = MonteCarloSpec(
            dies=8, importance=ImportanceSpec(shift_sigma=1.0,
                                              ess_warn=0.5))
        confidence = MonteCarloSpec(
            dies=8, confidence=0.5,
            importance=ImportanceSpec(shift_sigma=1.0))
        assert self.keys(base) == self.keys(ess) == self.keys(confidence)

    def test_growing_the_campaign_reuses_every_key(self):
        small = MonteCarloSpec(
            dies=8, importance=ImportanceSpec(shift_sigma=1.0))
        grown = MonteCarloSpec(
            dies=16, importance=ImportanceSpec(shift_sigma=1.0))
        assert self.keys(grown)[:8] == self.keys(small)

    def test_the_shift_is_physics_and_changes_every_key(self):
        base = MonteCarloSpec(
            dies=8, importance=ImportanceSpec(shift_sigma=1.0))
        deeper = MonteCarloSpec(
            dies=8, importance=ImportanceSpec(shift_sigma=1.5))
        assert not set(self.keys(base)) & set(self.keys(deeper))

    def test_zero_shift_shares_the_brute_force_cache(self):
        """An importance section resolving to shift 0 is the brute
        campaign: every cached die must be reusable."""
        brute = MonteCarloSpec(dies=8)
        degenerate = MonteCarloSpec(
            dies=8, importance=ImportanceSpec(shift_sigma=0.0))
        assert self.keys(brute) == self.keys(degenerate)

    def test_auto_resolves_deterministically(self):
        """``"auto"`` with the stock arrays lands on the ESS-safe cap
        (the design-margin target is deeper), so two auto specs and the
        equivalent explicit float all share one cache."""
        auto = MonteCarloSpec(dies=8, importance=ImportanceSpec())
        assert auto.config().shift_sigma == AUTO_MAX_LAMBDA
        explicit = MonteCarloSpec(
            dies=8,
            importance=ImportanceSpec(shift_sigma=AUTO_MAX_LAMBDA))
        assert self.keys(auto) == self.keys(explicit)


class TestDeepTailAcceptance:
    """The headline capability: p <= 1e-7 resolved from 100k dies."""

    def test_deep_tail_resolves_1e7_with_healthy_ess(self):
        mc = MonteCarloSpec(dies=DEEP_DIES, seed=0, block=DEEP_DIES,
                            importance=ImportanceSpec(
                                shift_sigma=DEEP_SHIFT, ess_warn=0.01))
        results = block_results(mc.config(), mc.dies, DEEP_VCC,
                                ClockScheme.IRAW)
        [row] = deep_tail_rows(results, (DEEP_VCC,), ("iraw",), mc.dies,
                               mc.importance, mc.confidence)
        assert 0.0 < row["functional_fail"] <= 1e-7
        assert row["functional_fail_low"] > 0.0  # CI excludes zero
        assert row["ess"] >= 1000.0
        assert row["log10_functional_fail"] is not None
        assert row["log10_functional_fail"] <= -7.0


class TestWeightedAccumulatorUnits:
    def test_unit_weights_degenerate_to_streaming_stats_bitwise(self):
        values = [3.25, -1.5, 0.0, 7.125, 2.0, -8.75]
        plain = StreamingStats()
        weighted = WeightedStats()
        for chunk in (values[:2], values[2:5], values[5:]):
            plain.extend(chunk)
            weighted.extend(chunk, [1.0] * len(chunk))
        assert weighted.mean == plain.mean
        assert weighted.std == plain.std
        assert weighted.minimum == plain.minimum
        assert weighted.maximum == plain.maximum

    def test_zero_weights_carry_no_mass(self):
        stats = WeightedStats()
        stats.extend([100.0], [0.0])
        assert stats.count == 0  # never enters the moments
        stats.extend([1.0, 100.0], [2.0, 0.0])
        assert (stats.count, stats.mean, stats.maximum) == (1, 1.0, 1.0)
        indicator = WeightedIndicator()
        indicator.extend([True], [0.0])
        assert indicator.count == 1  # observed, but weightless:
        assert math.isnan(indicator.estimate)
        assert indicator.ess == 0.0

    def test_invalid_weights_are_rejected(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                WeightedStats().extend([1.0], [bad])
            with pytest.raises(ConfigError):
                WeightedIndicator().extend([True], [bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_reducers_reject_invalid_log_weights(self, bad):
        """A block result whose log weight is NaN or +inf (a weight of
        NaN or +inf) fails both weighted reducers loudly."""
        config = MonteCarloConfig(seed=0, shift_sigma=1.0)
        importance = ImportanceSpec(shift_sigma=1.0, ess_warn=0.0)
        result = evaluate_block(config, 0, 16, XVAL_VCC, ClockScheme.IRAW)
        log_weight = result.log_weight.copy()
        log_weight[5] = bad
        results = [dataclasses.replace(result, log_weight=log_weight)]
        with pytest.raises(ConfigError, match="weights must be finite"):
            yield_curve_rows(results, (XVAL_VCC,), ("iraw",), 16,
                             importance=importance)
        with pytest.raises(ConfigError, match="weights must be finite"):
            deep_tail_rows(results, (XVAL_VCC,), ("iraw",), 16, importance)

    @given(data=st.lists(st.tuples(st.floats(-1e3, 1e3),
                                   st.just(0.0) | st.floats(1e-3, 10.0),
                                   st.booleans()),
                         min_size=1, max_size=60),
           cuts=st.lists(st.integers(0, 60), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_chunked_fold_matches_scalar_welford(self, data, cuts):
        """Folding arrays chunk by chunk (Chan's merge) agrees with the
        scalar weighted Welford oracle to 1e-12, for any chunking."""
        values, weights, hits = (list(column) for column in zip(*data))
        stats = WeightedStats()
        indicator = WeightedIndicator()
        edges = sorted({0, len(data), *(c for c in cuts if c < len(data))})
        for start, stop in zip(edges, edges[1:]):
            stats.extend(values[start:stop], weights[start:stop])
            indicator.extend(hits[start:stop], weights[start:stop])
        oracle = mc_oracle.Welford()
        for value, weight in zip(values, weights):
            oracle.add(value, weight)
        scale = max(1.0, max(abs(v) for v in values))
        assert stats.count == oracle.count
        assert stats.mean == pytest.approx(oracle.mean, rel=1e-12,
                                           abs=1e-12 * scale)
        # Variances: sqrt would amplify rounding of a zero spread.
        assert stats.std ** 2 == pytest.approx(
            oracle.std ** 2, rel=1e-12, abs=1e-12 * scale * scale)
        wsum = sum(weights)
        hit_wsum = sum(w for w, hit in zip(weights, hits) if hit)
        assert indicator.wsum == pytest.approx(wsum, rel=1e-12)
        assert indicator.hit_wsum == pytest.approx(hit_wsum, rel=1e-12,
                                                   abs=1e-12)

    def test_empty_indicator_reports_nan_and_full_interval(self):
        indicator = WeightedIndicator()
        assert math.isnan(indicator.estimate)
        assert indicator.ess == 0.0
        assert weighted_wilson_interval(indicator.estimate, indicator.ess,
                                        0.95) == (0.0, 1.0)
