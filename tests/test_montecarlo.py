"""Tests for the Monte-Carlo die-sampling subsystem.

Covers the sampling primitives (counter-based, order-independent die
draws; exact max-of-N inverse-CDF sampling; Kolmogorov-Smirnov checks
of the stream), the array statistics, the spec/TOML surface, the engine
integration (an ``mc-block`` job is an ordinary cacheable unit), and the
headline acceptance property: a 64-die ``yield_curve`` campaign
reproduces **bit-identically** through the serial, pool and queue
backends, and a warm-cache rerun simulates nothing.
"""

import math
import statistics

import mc_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.frequency import ClockScheme
from repro.engine import (
    Job,
    ParallelRunner,
    QueueBackend,
    ResultCache,
    job_key,
)
from repro.errors import ConfigError
from repro.experiments import Experiment, ExperimentSpec
from repro.montecarlo import (
    DieBlock,
    MonteCarloConfig,
    MonteCarloSpec,
    evaluate_block,
)
from repro.montecarlo.campaign import (
    montecarlo_jobs,
    per_die_rows,
    vccmin_rows,
    yield_curve_rows,
)
from repro.montecarlo.stats import (
    DiscreteDistribution,
    StreamingStats,
    weighted_wilson_interval,
    wilson_interval,
)

pytestmark = pytest.mark.engine


# ----------------------------------------------------------------------
# Sampling primitives
# ----------------------------------------------------------------------

def sample(config, die):
    """One die's (effective sigma, log weight), drawn as a block of one."""
    block = DieBlock(config, die, 1).build()
    return block.effective[0], block.log_weight[0]


def die_point(config, die, vcc, scheme):
    """One die evaluated at one point (a block of one die)."""
    return mc_oracle.block_point(
        evaluate_block(config, die, 1, vcc, scheme), 0)


class TestSampling:
    def test_sample_is_deterministic_and_per_die_independent(self):
        config = MonteCarloConfig(seed=7)
        first = sample(config, 3)
        again = sample(config, 3)
        assert first == again
        other = sample(config, 4)
        assert other != first
        reseeded = sample(MonteCarloConfig(seed=8), 3)
        assert reseeded != first

    def test_samples_do_not_depend_on_evaluation_order(self):
        config = MonteCarloConfig(seed=1)
        forward = [sample(config, die) for die in range(16)]
        backward = [sample(config, die) for die in reversed(range(16))]
        assert forward == list(reversed(backward))

    def test_worst_cell_sigma_grows_with_array_size(self):
        # Single-array campaigns read the same word per die, so the
        # bigger array's worst cell is further out die by die.
        def worst(name):
            config = MonteCarloConfig(seed=0, arrays=(name,),
                                      die_sigma_mv=0.0)
            return DieBlock(config, 0, 64).build().effective

        assert (worst("UL1") > worst("BP")).all()
        assert (worst("BP") > worst("RSB")).all()
        # The max of one cell is just that cell's quantile.
        assert mc_oracle.worst_cell_sigma(0.5, 1) \
            == pytest.approx(0.0, abs=1e-12)

    def test_worst_cell_sigma_is_in_a_physical_range(self):
        # E[max of ~5M Gaussians] sits near 5.1 sigma; the sampled
        # worst cells must live in that neighbourhood, not at 0 or 20.
        config = MonteCarloConfig(seed=0, die_sigma_mv=0.0)
        worst = DieBlock(config, 0, 64).build().effective
        assert 4.0 < worst.mean() < 6.5
        assert worst.max() < 9.0

    def test_effective_sigma_folds_die_offset(self):
        config = MonteCarloConfig(seed=0)
        draw = mc_oracle.draw_die(config, 0)
        base = max(s for _, s in draw.worst_sigma)
        assert sample(config, 0)[0] == pytest.approx(
            base + draw.offset_mv / config.sigma_mv, rel=1e-12)
        assert draw.offset_mv != 0.0

    def test_arrays_subset_restricts_sampling(self):
        config = MonteCarloConfig(seed=0, arrays=("RF", "IQ"))
        names = [name for name, _ in config.array_bits()]
        assert names == ["IQ", "RF"]  # sorted by name
        assert sample(config, 0) != sample(MonteCarloConfig(seed=0), 0)

    def test_unknown_array_rejected(self):
        with pytest.raises(ConfigError, match="unknown SRAM array"):
            MonteCarloConfig(arrays=("L3",))

    @given(seed=st.integers(-2**63, 2**63), die=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_rng_streams_are_pure_functions_of_seed_and_die(self, seed,
                                                           die):
        """A die's draw depends on (seed, die) and nothing else — not
        on the block around it nor on what was drawn before: the
        invariant that makes worker count, backend and evaluation order
        irrelevant to the sampled physics.  Negative seeds are legal."""
        config = MonteCarloConfig(seed=seed)
        alone = sample(config, die)
        sample(config, die + 1)
        sample(config, 0)
        assert sample(config, die) == alone
        start = max(0, die - 3)
        block = DieBlock(config, start, 5).build()
        assert (block.effective[die - start],
                block.log_weight[die - start]) == alone


def ks_distance(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance of ``samples`` from ``cdf``."""
    x = np.sort(np.asarray(samples))
    n = x.size
    f = np.array([cdf(value) for value in x.tolist()])
    return max(float((np.arange(1, n + 1) / n - f).max()),
               float((f - np.arange(n) / n).max()))


class TestStreamStatistics:
    """The Philox stream has the intended distributions (4096 dies)."""

    DIES = 4096
    #: The 0.1% critical value of the one-sample KS statistic.
    CRITICAL = 1.95 / math.sqrt(DIES)

    def test_die_offsets_are_normal(self):
        """Recover each offset draw from its exact log weight
        (``-lambda * (z + lambda / 2)``) and test ``z ~ N(0, 1)``."""
        config = MonteCarloConfig(seed=0, shift_sigma=1.0)
        lam = config.shift_sigma * config.sigma_mv / config.die_sigma_mv
        log_weight = DieBlock(config, 0, self.DIES).build().log_weight
        z = -log_weight / lam - lam / 2.0
        assert ks_distance(z, statistics.NormalDist().cdf) < self.CRITICAL

    @pytest.mark.parametrize("name", ["RF", "UL1"])
    def test_worst_cell_quantile_is_uniform(self, name):
        """With one array and no die offset, ``Phi(worst) ** N`` is the
        array's uniform draw (computed via the upper tail)."""
        config = MonteCarloConfig(seed=0, arrays=(name,), die_sigma_mv=0.0)
        [(_, bits)] = config.array_bits()
        worst = DieBlock(config, 0, self.DIES).build().effective
        tail = statistics.NormalDist().cdf
        u = [math.exp(bits * math.log1p(-tail(-value)))
             for value in worst.tolist()]
        assert ks_distance(u, lambda value: value) < self.CRITICAL


class TestDieEvaluation:
    def test_strong_die_meets_design_weak_die_does_not(self):
        config = MonteCarloConfig(seed=0, die_sigma_mv=0.0)
        # All-array within-die max sits near ~5 sigma < 6 design sigma,
        # so with no die-to-die offset every die makes the top bin.
        result = die_point(config, 0, 450.0, ClockScheme.BASELINE)
        assert result.meets_design and result.functional
        assert result.slowdown <= 1.0 + 1e-9
        assert result.die_frequency_mhz >= result.design_frequency_mhz

    def test_slowdown_grows_as_vcc_drops(self):
        config = MonteCarloConfig(seed=0)
        weak = next(die for die in range(64)
                    if sample(config, die)[0] > config.design_sigma + 0.5)
        slowdowns = [
            die_point(config, weak, vcc, ClockScheme.BASELINE).slowdown
            for vcc in (650.0, 550.0, 450.0, 400.0)]
        assert slowdowns == sorted(slowdowns)
        assert slowdowns[-1] > slowdowns[0]

    def test_iraw_weak_die_needs_more_stabilization(self):
        config = MonteCarloConfig(seed=0)
        weak = next(die for die in range(256)
                    if sample(config, die)[0] > config.design_sigma + 1.0)
        result = die_point(config, weak, 450.0, ClockScheme.IRAW)
        assert result.required_stabilization \
            >= result.design_stabilization >= 1

    def test_result_is_plain_picklable_data(self):
        import pickle

        result = evaluate_block(MonteCarloConfig(), 1, 1, 500.0,
                                ClockScheme.IRAW)
        again = pickle.loads(pickle.dumps(result))
        assert mc_oracle.block_points([again]) \
            == mc_oracle.block_points([result])


# ----------------------------------------------------------------------
# Streaming statistics
# ----------------------------------------------------------------------

class TestStreamingStats:
    def test_matches_batch_statistics(self):
        values = [3.0, 1.5, -2.0, 8.25, 0.125, 7.0]
        stats = StreamingStats()
        stats.extend(values[:2])
        stats.extend(values[2:])
        assert stats.count == len(values)
        assert stats.mean == pytest.approx(statistics.fmean(values))
        assert stats.std == pytest.approx(statistics.pstdev(values))
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    def test_empty_reports_nan(self):
        columns = StreamingStats().as_dict("x_")
        assert all(math.isnan(value) for value in columns.values())

    def test_discrete_percentiles_are_exact(self):
        dist = DiscreteDistribution()
        for value, count in ((400.0, 7), (425.0, 2), (500.0, 1)):
            for _ in range(count):
                dist.add(value)
        assert dist.count == 10
        assert dist.percentile(0.0) == 400.0
        assert dist.percentile(50.0) == 400.0
        assert dist.percentile(80.0) == 425.0
        assert dist.percentile(95.0) == 500.0
        assert dist.percentile(100.0) == 500.0
        assert dist.minimum == 400.0 and dist.maximum == 500.0
        assert dist.mean == pytest.approx(415.0)

    def test_wilson_interval_brackets_the_proportion(self):
        low, high = wilson_interval(9, 10, 0.95)
        assert low < 0.9 < high
        assert 0.0 <= low and high <= 1.0
        # Degenerate yields stay informative (no 0-width intervals).
        low, high = wilson_interval(10, 10, 0.95)
        assert low < 1.0 and high == 1.0
        low, high = wilson_interval(0, 10, 0.95)
        assert low == pytest.approx(0.0, abs=1e-12) and high > 0.1
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_tightens_with_trials_and_confidence(self):
        narrow = wilson_interval(50, 100, 0.95)
        wide = wilson_interval(5, 10, 0.95)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]
        strict = wilson_interval(50, 100, 0.99)
        assert strict[0] < narrow[0] and strict[1] > narrow[1]

    def test_validation(self):
        with pytest.raises(ConfigError):
            wilson_interval(5, 3)
        with pytest.raises(ConfigError):
            wilson_interval(1, 2, confidence=1.0)
        with pytest.raises(ConfigError):
            DiscreteDistribution().percentile(101.0)


class TestStatsEdgeCases:
    """Boundary inputs the campaign reducers can legitimately produce."""

    def test_wilson_at_observed_zero_and_full_yield(self):
        """0/N and N/N campaigns: bounds stay in [0, 1], the observed
        endpoint is pinned exactly, and the far bound stays informative
        (a zero-failure campaign never claims certainty)."""
        for trials in (1, 16, 4096):
            low, high = wilson_interval(0, trials, 0.95)
            assert low == 0.0
            assert 0.0 < high < 1.0
            low, high = wilson_interval(trials, trials, 0.95)
            assert high == 1.0
            assert 0.0 < low < 1.0
            # Symmetry of the score interval around p -> 1 - p.
            zero = wilson_interval(0, trials, 0.95)
            full = wilson_interval(trials, trials, 0.95)
            assert full[0] == pytest.approx(1.0 - zero[1], abs=1e-15)

    def test_weighted_wilson_is_bit_identical_at_integer_ess(self):
        """The refactor onto the shared float core must not move the
        historical integer-path bounds by a single bit."""
        for successes, trials in ((0, 16), (9, 10), (16, 16), (1, 4096)):
            reference = wilson_interval(successes, trials, 0.95)
            weighted = weighted_wilson_interval(successes / trials,
                                                float(trials), 0.95)
            assert weighted == reference

    def test_percentile_of_a_single_observation(self):
        dist = DiscreteDistribution()
        dist.add(450.0)
        for p in (0.0, 25.0, 50.0, 99.9, 100.0):
            assert dist.percentile(p) == 450.0
        assert dist.minimum == dist.maximum == 450.0
        assert dist.std == 0.0

    def test_percentile_when_every_observation_is_equal(self):
        dist = DiscreteDistribution()
        for _ in range(10):
            dist.add(425.0)
        for p in (0.0, 10.0, 50.0, 90.0, 100.0):
            assert dist.percentile(p) == 425.0
        assert dist.mean == 425.0
        assert dist.std == 0.0

    def test_streaming_extend_with_an_empty_iterable(self):
        stats = StreamingStats()
        stats.extend([])
        assert stats.count == 0
        assert all(math.isnan(value)
                   for value in stats.as_dict("x_").values())
        stats.extend([2.5])
        before = (stats.count, stats.mean, stats.std,
                  stats.minimum, stats.maximum)
        stats.extend(np.empty(0))  # and mid-stream: a pure no-op
        assert (stats.count, stats.mean, stats.std,
                stats.minimum, stats.maximum) == before


# ----------------------------------------------------------------------
# Spec surface
# ----------------------------------------------------------------------

class TestMonteCarloSpec:
    def test_round_trips_through_dict(self):
        spec = MonteCarloSpec(dies=32, seed=5, confidence=0.9,
                              design_sigma=5.0, arrays=("RF",))
        assert MonteCarloSpec.from_dict(spec.to_dict()) == spec

    def test_presentation_knobs_stay_out_of_the_job_key(self):
        base = MonteCarloSpec(dies=16, confidence=0.95)
        grown = MonteCarloSpec(dies=64, confidence=0.5)
        assert base.config() == grown.config()

    def test_validation(self):
        with pytest.raises(ConfigError, match="at least one die"):
            MonteCarloSpec(dies=0)
        with pytest.raises(ConfigError, match="confidence"):
            MonteCarloSpec(confidence=1.5)
        with pytest.raises(ConfigError, match="max_slowdown"):
            MonteCarloSpec(max_slowdown=0.5)
        with pytest.raises(ConfigError, match="unknown montecarlo"):
            MonteCarloSpec.from_dict({"die_count": 4})

    def test_experiment_spec_requires_mc_for_mc_artifacts(self):
        with pytest.raises(ConfigError, match="yield_curve"):
            ExperimentSpec(name="x", profiles=("kernel-like",),
                           vcc_mv=(500.0,), artifacts=("yield_curve",))

    def test_population_less_spec_allowed_with_montecarlo(self):
        spec = ExperimentSpec(name="mc", profiles=(), vcc_mv=(500.0,),
                              montecarlo=MonteCarloSpec(dies=2),
                              artifacts=("yield_curve",))
        assert spec.grid() == (500.0,)

    def test_toml_round_trip_preserves_plan_keys(self):
        spec = ExperimentSpec(
            name="mc-keys", profiles=(), vcc_mv=(550.0, 450.0),
            montecarlo=MonteCarloSpec(dies=6, seed=11, die_sigma_mv=8.0),
            artifacts=("yield_curve", "vccmin_dist"))
        via_toml = ExperimentSpec.from_toml(spec.to_toml())
        via_json = ExperimentSpec.from_json(spec.to_json())
        assert via_toml == spec and via_json == spec
        reference = Experiment(spec).plan_keys()
        assert Experiment(via_toml).plan_keys() == reference
        assert Experiment(via_json).plan_keys() == reference


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------

def small_campaign(dies=8, grid=(550.0, 450.0),
                   schemes=("baseline", "iraw")):
    mc = MonteCarloSpec(dies=dies, seed=2)
    jobs = montecarlo_jobs(mc, grid, schemes)
    return mc, list(grid), list(schemes), jobs


class TestEngineIntegration:
    def test_job_keys_are_unique_and_die_scoped(self):
        mc, grid, schemes, jobs = small_campaign()
        keys = [job_key(job) for job in jobs]
        assert len(set(keys)) == len(jobs)
        # Growing the campaign keeps every existing die's keys.
        bigger = montecarlo_jobs(MonteCarloSpec(dies=16, seed=2),
                                 grid, schemes)
        assert set(keys) <= {job_key(job) for job in bigger}

    def test_mc_die_jobs_are_atomic_units(self):
        from repro.engine import shard_jobs

        _, _, _, jobs = small_campaign()
        assert all(shard_jobs(job) is None for job in jobs)

    def test_runner_deduplicates_and_caches(self, tmp_path):
        _, _, _, jobs = small_campaign(dies=4, grid=(500.0,),
                                       schemes=("iraw",))
        runner = ParallelRunner(cache=ResultCache(root=tmp_path))
        first = runner.run(jobs + jobs)
        assert runner.stats.simulated == len(jobs)
        assert runner.stats.deduplicated == len(jobs)
        warm = ParallelRunner(cache=ResultCache(root=tmp_path))
        again = warm.run(jobs)
        assert warm.stats.simulated == 0
        assert mc_oracle.block_points(again) \
            == mc_oracle.block_points(first[:len(jobs)])

    def test_executor_validates_options(self):
        job = Job(kind="mc-block", vcc_mv=500.0, scheme="iraw")
        from repro.engine.executors import execute_job

        with pytest.raises(ConfigError, match="mc-block job needs"):
            execute_job(job)


class TestBackendEquivalence:
    """Acceptance: 64 dies bit-identical across serial, pool and queue."""

    GRID = (550.0, 450.0)
    SCHEMES = ("baseline", "iraw")
    DIES = 64

    def campaign_rows(self, runner):
        mc, grid, schemes, jobs = small_campaign(
            dies=self.DIES, grid=self.GRID, schemes=self.SCHEMES)
        results = runner.run(jobs, label="mc-equivalence")
        return (yield_curve_rows(results, grid, schemes, mc.dies,
                                 mc.confidence),
                vccmin_rows(results, grid, schemes, mc.dies),
                per_die_rows(results, grid, schemes, mc.dies))

    def test_serial_pool_and_queue_are_bit_identical(self, tmp_path):
        serial = self.campaign_rows(ParallelRunner(workers=1))
        pool = self.campaign_rows(ParallelRunner(workers=2))
        queue = self.campaign_rows(ParallelRunner(
            backend=QueueBackend(tmp_path / "spool", local_workers=2,
                                 lease_timeout=60.0, poll_interval=0.01)))
        assert serial == pool == queue  # bit-identical, not approx

    def test_warm_cache_rerun_simulates_nothing(self, tmp_path):
        cold = ParallelRunner(workers=1,
                              cache=ResultCache(root=tmp_path / "cache"))
        reference = self.campaign_rows(cold)
        assert cold.stats.simulated > 0
        warm = ParallelRunner(workers=1,
                              cache=ResultCache(root=tmp_path / "cache"))
        assert self.campaign_rows(warm) == reference
        assert warm.stats.simulated == 0

    @given(workers=st.sampled_from([1, 2, 3]),
           dies=st.integers(1, 12),
           seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_worker_count_never_changes_the_physics(self, workers, dies,
                                                    seed):
        """Hypothesis property: for arbitrary campaign shapes, the
        per-die results are identical whatever the worker count —
        the sampled RNG streams cannot observe the execution layout."""
        mc = MonteCarloSpec(dies=dies, seed=seed)
        jobs = montecarlo_jobs(mc, (500.0,), ("iraw",))
        serial = ParallelRunner(workers=1).run(jobs)
        parallel = ParallelRunner(workers=workers).run(jobs)
        assert mc_oracle.block_points(serial) \
            == mc_oracle.block_points(parallel)


# ----------------------------------------------------------------------
# Experiment driver integration
# ----------------------------------------------------------------------

class TestExperimentIntegration:
    SPEC = ExperimentSpec(
        name="mc-driver", profiles=(), vcc_mv=(550.0, 450.0),
        montecarlo=MonteCarloSpec(dies=6, seed=4),
        artifacts=("yield_curve", "vccmin_dist"))

    def test_run_produces_per_die_and_aggregate_records(self):
        experiment = Experiment(self.SPEC)
        results = experiment.run()
        yields = results.filter(kind="mc-yield")
        dies = results.filter(kind="mc-die")
        assert len(yields) == 2 * 2          # grid x schemes
        assert len(dies) == 2 * 6            # schemes x dies
        row = yields[0]
        assert 0.0 <= row["functional_yield"] <= 1.0
        assert row["functional_low"] <= row["functional_yield"] \
            <= row["functional_high"]
        die_row = dies[0]
        assert die_row.variant.startswith("die")
        assert "worst_sigma" in die_row

    def test_artifacts_render_from_the_memo(self):
        experiment = Experiment(self.SPEC)
        experiment.run()
        simulated = experiment.stats.simulated
        curve = experiment.artifact("yield_curve")
        dist = experiment.artifact("vccmin_dist")
        assert experiment.stats.simulated == simulated  # pure lookup
        assert [row["vcc_mv"] for row in curve] == [550.0, 550.0,
                                                    450.0, 450.0]
        assert {row["scheme"] for row in dist} == {"baseline", "iraw"}

    def test_mc_jobs_planned_even_without_mc_artifacts(self):
        spec = ExperimentSpec(
            name="mixed", profiles=("kernel-like",), trace_length=300,
            vcc_mv=(500.0,), montecarlo=MonteCarloSpec(dies=2),
            artifacts=("overheads",))
        experiment = Experiment(spec)
        kinds = {job.kind for job in experiment.plan()}
        assert "mc-block" in kinds
        results = experiment.run()
        assert len(results.filter(kind="mc-yield")) == 2

    def test_montecarlo_artifact_without_section_fails_cleanly(self):
        spec = ExperimentSpec(name="plain", profiles=("kernel-like",),
                              trace_length=300, vcc_mv=(500.0,),
                              artifacts=("overheads",))
        experiment = Experiment(spec)
        with pytest.raises(ConfigError, match="montecarlo"):
            experiment.artifact("yield_curve")

    def test_censored_dies_export_valid_json(self, tmp_path):
        """Dies functional nowhere on the grid export vccmin null, not
        a bare NaN token that no strict JSON parser accepts."""
        import json

        spec = ExperimentSpec(
            name="censored", profiles=(), vcc_mv=(400.0,),
            montecarlo=MonteCarloSpec(dies=32, seed=0,
                                      max_slowdown=1.0),
            artifacts=("vccmin_dist",))
        results = Experiment(spec).run()
        rows = json.loads(results.to_json())     # must parse strictly
        censored = [row for row in rows if row.get("censored")]
        assert censored                          # the fixture censors
        assert all(row["vccmin_mv"] is None for row in censored)
        path = tmp_path / "mc.json"
        results.to_json(path)
        json.loads(path.read_text())

    def test_artifact_builds_share_one_resolved_batch(self):
        """yield_curve and vccmin_dist must not re-submit the mc batch
        after run() — one resolution, shared by records and builds."""
        experiment = Experiment(self.SPEC)
        experiment.run()
        submitted = experiment.stats.submitted
        experiment.artifact("yield_curve")
        experiment.artifact("vccmin_dist")
        assert experiment.stats.submitted == submitted

    def test_growing_dies_reuses_cached_samples(self, tmp_path):
        small = ExperimentSpec(
            name="grow", profiles=(), vcc_mv=(500.0,),
            montecarlo=MonteCarloSpec(dies=4, seed=9),
            artifacts=("yield_curve",))
        import dataclasses

        cold = ParallelRunner(cache=ResultCache(root=tmp_path))
        Experiment(small, runner=cold).run()
        grown = dataclasses.replace(
            small, montecarlo=dataclasses.replace(small.montecarlo,
                                                  dies=8))
        warm = ParallelRunner(cache=ResultCache(root=tmp_path))
        Experiment(grown, runner=warm).run()
        # Only the 4 new dies (x 1 grid point x 2 schemes) simulate.
        assert warm.stats.simulated == 4 * 2


class TestRoundFourRegressions:
    def test_array_order_does_not_change_campaign_identity(self):
        """['RF', 'DL0'] and ['DL0', 'RF'] are the same campaign: same
        samples, same canonical job keys, same cache."""
        a = MonteCarloSpec(dies=2, arrays=("RF", "DL0"))
        b = MonteCarloSpec(dies=2, arrays=("DL0", "RF"))
        assert a == b and a.config() == b.config()
        keys_a = [job_key(j) for j in montecarlo_jobs(a, (500.0,),
                                                      ("iraw",))]
        keys_b = [job_key(j) for j in montecarlo_jobs(b, (500.0,),
                                                      ("iraw",))]
        assert keys_a == keys_b

    def test_plan_counts_the_die_batch_once(self):
        """Both mc artifacts share one batch; the dry-run plan must
        size the campaign, not double it."""
        both = ExperimentSpec(
            name="both", profiles=(), vcc_mv=(500.0,),
            montecarlo=MonteCarloSpec(dies=4),
            artifacts=("yield_curve", "vccmin_dist"))
        one = dataclasses_replace(both, artifacts=("yield_curve",))
        assert len(Experiment(both).plan()) == len(Experiment(one).plan())
        assert len(Experiment(both).plan()) == 4 * 2  # dies x schemes

    def test_plan_evictions_never_writes_even_on_corrupt_index(self,
                                                               tmp_path):
        cache = ResultCache(root=tmp_path)      # unbounded writer
        for key in ("a", "b", "c"):
            cache.put(key, b"x" * 64)

        def listing():
            found = {}
            for path in cache.version_dir.iterdir():
                stat = path.stat()
                found[path.name] = (stat.st_size, stat.st_mtime_ns)
            return found

        fresh = ResultCache(root=tmp_path, max_bytes=1)
        assert fresh.get("a") == b"x" * 64      # a hit: "a" is now newest
        before = listing()
        planned = fresh.plan_evictions()
        assert [key for key, _ in planned] == ["b", "c", "a"]
        assert listing() == before  # nothing deleted, stamped or created

    def test_censored_metric_membership(self):
        from repro.experiments import Record

        record = Record(kind="mc-die", scheme="iraw", vcc_mv=0.0,
                        metrics={"vccmin_mv": None, "die": 3})
        assert "vccmin_mv" in record
        assert record["vccmin_mv"] is None
        assert "absent_column" not in record


from dataclasses import replace as dataclasses_replace  # noqa: E402


class TestReductionShapeChecks:
    def test_mismatched_results_fail_loudly(self):
        mc, grid, schemes, jobs = small_campaign(dies=4, grid=(500.0,),
                                                 schemes=("iraw",))
        results = ParallelRunner().run(jobs)
        with pytest.raises(ConfigError, match="expected 8 die results"):
            yield_curve_rows(results, grid, schemes, dies=8)
        with pytest.raises(ConfigError, match="more results than"):
            list(yield_curve_rows(results, grid, schemes, dies=2))
