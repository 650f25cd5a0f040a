"""Tests for the vectorized ``mc-block`` Monte-Carlo tier.

Locks the contracts of the one array path: a die's sample and its
evaluation are bit-identical whatever block holds it (a block of one —
the plan of a campaign without a block size — included), every die
agrees with the scalar per-die oracle in ``tests/mc_oracle.py``
(hypothesis property), block partitioning is invariant (any block size
reduces to the same rows — the hypothesis property), blocks ride the
engine as ordinary cacheable jobs through every backend, and the
dispatch tier underneath (auto-sized pool chunks, one-shard spool
claims, the worker supervisor) preserves results.
"""

import math
import os
import shlex
import threading
from statistics import NormalDist

import mc_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.frequency import ClockScheme
from repro.engine import (
    Job,
    ParallelRunner,
    PoolBackend,
    QueueBackend,
    ResultCache,
    job_key,
    shard_jobs,
)
from repro.engine.broker import SpoolBroker, WireResult, \
    WorkerSupervisor, run_worker_loop
from repro.engine.executors import execute_chunk, execute_job
from repro.errors import ConfigError
from repro.circuits.sram import silverthorne_arrays
from repro.montecarlo import MonteCarloConfig, MonteCarloSpec
from repro.montecarlo.campaign import (
    montecarlo_jobs,
    vccmin_rows,
    yield_curve_rows,
)
from repro.montecarlo.stats import StreamingStats
from repro.montecarlo.sampling import (
    DieBlock,
    _inv_cdf,
    _unit_interval,
    evaluate_block,
)

pytestmark = pytest.mark.engine

GRID = (550.0, 450.0)
SCHEMES = ("baseline", "iraw")


def campaign_rows(dies, block, grid=GRID, schemes=SCHEMES, seed=2,
                  runner=None):
    """Reduced (yield_curve, vccmin) rows of one campaign shape."""
    mc = MonteCarloSpec(dies=dies, seed=seed, block=block)
    jobs = montecarlo_jobs(mc, grid, schemes)
    if runner is None:
        results = [execute_job(job) for job in jobs]
    else:
        results = runner.run(jobs, label="mc-block-test")
    return (yield_curve_rows(results, grid, schemes, dies, mc.confidence),
            vccmin_rows(results, grid, schemes, dies))


# ----------------------------------------------------------------------
# One path: any block, a block of one, and the scalar oracle
# ----------------------------------------------------------------------

ARRAY_NAMES = sorted(array.name for array in silverthorne_arrays())


class TestBlockKernel:
    def test_block_build_matches_scalar_sampling_bit_for_bit(self):
        """A die's sample is a pure function of (seed, die): drawn inside
        a 32-die block or as a block of one, it is the same double."""
        config = MonteCarloConfig(seed=3, shift_sigma=1.5)
        block = DieBlock(config, die_start=5, dies=32).build()
        alone = [DieBlock(config, die, 1).build() for die in range(5, 37)]
        assert block.effective.tolist() \
            == [sample.effective[0] for sample in alone]  # exact
        assert block.log_weight.tolist() \
            == [sample.log_weight[0] for sample in alone]
        for index, die in enumerate(range(5, 37)):
            draw = mc_oracle.draw_die(config, die)
            assert block.effective[index] == pytest.approx(
                draw.effective_sigma(config.sigma_mv), rel=1e-12)

    def test_block_build_honours_array_subset_and_zero_offset(self):
        config = MonteCarloConfig(seed=1, arrays=("RF", "DL0"),
                                  die_sigma_mv=0.0)
        block = DieBlock(config, die_start=0, dies=16).build()
        oracle = [mc_oracle.draw_die(config, die) for die in range(16)]
        assert all(draw.offset_mv == 0.0 for draw in oracle)
        assert block.effective.tolist() == pytest.approx(
            [draw.effective_sigma(config.sigma_mv) for draw in oracle],
            rel=1e-12)
        assert block.log_weight.tolist() == [0.0] * 16

    @pytest.mark.parametrize("scheme", list(ClockScheme))
    def test_block_evaluation_is_bit_equal_per_die(self, scheme):
        """Every die's result is identical in a 12-die block and in its
        own block of one — including at 600 mV, the IRAW deactivation
        boundary."""
        config = MonteCarloConfig(seed=0)
        for vcc in (600.0, 500.0, 420.0):
            result = evaluate_block(config, 0, 12, vcc, scheme)
            alone = [evaluate_block(config, die, 1, vcc, scheme)
                     for die in range(12)]
            assert mc_oracle.block_points([result]) \
                == mc_oracle.block_points(alone)

    def test_block_arrays_are_read_only(self):
        config = MonteCarloConfig(seed=0)
        sampled = DieBlock(config, 0, 4).build()
        with pytest.raises(ValueError):
            sampled.effective[0] = 0.0
        with pytest.raises(ValueError):
            sampled.log_weight[0] = 0.0
        result = evaluate_block(config, 0, 4, 500.0, ClockScheme.IRAW)
        with pytest.raises(ValueError):
            result.slowdown[0] = 0.0

    def test_block_validation(self):
        config = MonteCarloConfig(seed=0)
        with pytest.raises(ConfigError, match="die index"):
            DieBlock(config, die_start=-1, dies=4)
        with pytest.raises(ConfigError, match="at least one die"):
            DieBlock(config, die_start=0, dies=0)
        bad_shape = DieBlock(config, 0, 4).build()
        with pytest.raises(ConfigError, match="shape"):
            evaluate_block(config, 0, 8, 500.0, ClockScheme.BASELINE,
                           sample=bad_shape)


class TestQuantile:
    """The sampler's quantile is ``NormalDist().inv_cdf``, bit for bit."""

    #: The largest p whose ``sqrt(-log(p))`` rounds above 5, where
    #: AS241 switches tail polynomials: 46 doubles below ``exp(-25)``.
    FAR_TAIL = 1.3887943864963947e-11
    #: AS241's branch edges and the sampler's extremes: subnormal and
    #: tiny tails, both sides of the tail switch and ``exp(-25)``, both
    #: sides of ``|p - 0.5| <= 0.425`` (central versus tail; it holds at
    #: 0.075 but not at 0.925), the centre, and the ends of
    #: ``_unit_interval``.
    EDGES = (5e-324, 1e-300,
             FAR_TAIL, math.nextafter(FAR_TAIL, 1.0),
             math.exp(-25.0), math.nextafter(math.exp(-25.0), 1.0),
             math.nextafter(0.075, 0.0), 0.075,
             math.nextafter(0.925, 0.0), 0.925, math.nextafter(0.925, 1.0),
             0.5,
             2.0 ** -53, 1.0 - 2.0 ** -53)
    #: Sampled uniforms whose quantile a NumPy port of AS241 gets wrong
    #: by 1-3 ulps, because NumPy 2.4's AVX-512 ``log`` is not libm's.
    VECTOR_LOG_STRAYS = (0.006046768827579485, 0.060220787741263604,
                         0.9287672562915171, 0.9406360248406546)

    def test_far_tail_is_the_tail_polynomial_switch(self):
        assert math.sqrt(-math.log(self.FAR_TAIL)) > 5.0
        above = math.nextafter(self.FAR_TAIL, 1.0)
        assert math.sqrt(-math.log(above)) == 5.0

    def test_matches_normal_dist_bit_for_bit(self):
        """On the edges, the strays and a block's worth of sampled
        uniforms."""
        sampled = _unit_interval(np.random.Philox(key=7).random_raw(4096))
        probabilities = np.concatenate([self.EDGES, self.VECTOR_LOG_STRAYS,
                                        sampled])
        assert [q.hex() for q in _inv_cdf(probabilities).tolist()] \
            == [NormalDist().inv_cdf(p).hex()
                for p in probabilities.tolist()]

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_closed_ends_raise(self, p):
        with pytest.raises(ValueError):
            _inv_cdf(np.array([0.25, p]))


class TestScalarOracle:
    @given(seed=st.integers(-2**63, 2**63), die_start=st.integers(0, 10**6),
           dies=st.integers(1, 4),
           vcc=st.sampled_from([600.0, 420.0]) | st.floats(400.0, 700.0),
           scheme=st.sampled_from(list(ClockScheme)),
           arrays=st.lists(st.sampled_from(ARRAY_NAMES), unique=True,
                           max_size=4),
           die_sigma=st.sampled_from([0.0, 10.0]) | st.floats(0.5, 20.0),
           shift=st.sampled_from([0.0, 2.0]) | st.floats(0.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_block_matches_the_per_die_oracle(self, seed, die_start, dies,
                                              vcc, scheme, arrays,
                                              die_sigma, shift):
        """Property: every die of an evaluated block agrees with the
        scalar oracle — its own Philox words, ``math``/``NormalDist``
        draws and the scalar frequency solver — ints and booleans
        exactly, floats to 1e-12."""
        config = MonteCarloConfig(seed=seed, arrays=tuple(arrays),
                                  die_sigma_mv=die_sigma,
                                  shift_sigma=shift if die_sigma else 0.0)
        result = evaluate_block(config, die_start, dies, vcc, scheme)
        for index in range(dies):
            die = die_start + index
            mc_oracle.assert_points_close(
                mc_oracle.block_point(result, index),
                mc_oracle.evaluate_die(config, die, vcc, scheme),
                context=f"die {die} @ {vcc} mV {scheme.value}")


# ----------------------------------------------------------------------
# Planning: mc-block jobs are ordinary engine units
# ----------------------------------------------------------------------

class TestBlockPlanning:
    def test_spans_tile_the_die_range_in_order(self):
        mc = MonteCarloSpec(dies=10, seed=2, block=4)
        jobs = montecarlo_jobs(mc, (500.0,), ("iraw",))
        spans = [(job.option("die_start"), job.option("dies"))
                 for job in jobs]
        assert spans == [(0, 4), (4, 4), (8, 2)]
        assert all(job.kind == "mc-block" for job in jobs)

    def test_block_size_is_part_of_the_job_key(self):
        grid, schemes = (500.0,), ("iraw",)
        four = montecarlo_jobs(MonteCarloSpec(dies=8, seed=2, block=4),
                               grid, schemes)
        eight = montecarlo_jobs(MonteCarloSpec(dies=8, seed=2, block=8),
                                grid, schemes)
        per_die = montecarlo_jobs(MonteCarloSpec(dies=8, seed=2),
                                  grid, schemes)
        keys = {job_key(job) for job in four + eight + per_die}
        assert len(keys) == len(four) + len(eight) + len(per_die)

    def test_mc_block_jobs_are_atomic_units(self):
        mc = MonteCarloSpec(dies=8, seed=2, block=4)
        jobs = montecarlo_jobs(mc, GRID, SCHEMES)
        assert all(shard_jobs(job) is None for job in jobs)

    def test_executor_validates_options(self):
        job = Job(kind="mc-block", vcc_mv=500.0, scheme="iraw")
        with pytest.raises(ConfigError, match="mc-block job needs"):
            execute_job(job)


# ----------------------------------------------------------------------
# Satellite: block partitioning invariance (hypothesis)
# ----------------------------------------------------------------------

class TestBlockPartitionInvariance:
    @given(dies=st.integers(1, 16), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_any_block_size_reduces_to_the_per_die_rows(self, dies, data):
        """Property: for arbitrary campaign sizes and block sizes, the
        blocked plan yields the same per-die samples and the same
        reduced yield_curve / vccmin_dist rows as the per-die plan —
        the block is an evaluation batch, never a sampling contract."""
        block = data.draw(st.integers(1, dies), label="block")
        reference = campaign_rows(dies, None, seed=5)
        assert campaign_rows(dies, block, seed=5) == reference

    def test_named_block_sizes_match_per_die(self):
        """The spec-level anchors: 1, 7, 64 (= dies) on a 64-die
        campaign, plus per-die result equality block by block."""
        reference = campaign_rows(64, None)
        for block in (1, 7, 64):
            assert campaign_rows(64, block) == reference
        mc = MonteCarloSpec(dies=64, seed=2, block=7)
        blocked = [execute_job(job)
                   for job in montecarlo_jobs(mc, (500.0,), ("iraw",))]
        per_die = [execute_job(job)
                   for job in montecarlo_jobs(MonteCarloSpec(dies=64, seed=2),
                                              (500.0,), ("iraw",))]
        assert all(result.dies == 1 for result in per_die)
        assert mc_oracle.block_points(blocked) \
            == mc_oracle.block_points(per_die)


# ----------------------------------------------------------------------
# Backends: blocked campaigns through serial / pool / queue + cache
# ----------------------------------------------------------------------

class TestBlockBackends:
    DIES = 64
    BLOCK = 16

    def test_serial_pool_and_queue_are_bit_identical(self, tmp_path):
        serial = campaign_rows(self.DIES, self.BLOCK,
                               runner=ParallelRunner(workers=1))
        pool = campaign_rows(self.DIES, self.BLOCK, runner=ParallelRunner(
            backend=PoolBackend(workers=2)))
        queue = campaign_rows(self.DIES, self.BLOCK, runner=ParallelRunner(
            backend=QueueBackend(tmp_path / "spool", local_workers=2,
                                 lease_timeout=60.0, poll_interval=0.01)))
        assert serial == pool == queue
        assert serial == campaign_rows(self.DIES, None)  # per-die path

    def test_warm_cache_rerun_simulates_nothing(self, tmp_path):
        cold = ParallelRunner(workers=1,
                              cache=ResultCache(root=tmp_path / "cache"))
        reference = campaign_rows(self.DIES, self.BLOCK, runner=cold)
        # 4 blocks x 2 Vcc x 2 schemes, each counted as one unit.
        assert cold.stats.simulated == 16
        warm = ParallelRunner(workers=1,
                              cache=ResultCache(root=tmp_path / "cache"))
        assert campaign_rows(self.DIES, self.BLOCK, runner=warm) \
            == reference
        assert warm.stats.simulated == 0

    def test_streaming_extend_matches_repeated_add(self):
        """Chunked folds agree with one value at a time and with the
        scalar Welford oracle; min/max and the count exactly."""
        values = [0.5, -1.25, 3.0, 3.0, 0.0, 7.5, -2.0]
        one_by_one = StreamingStats()
        oracle = mc_oracle.Welford()
        for value in values:
            one_by_one.extend([value])
            oracle.add(value)
        batched = StreamingStats()
        batched.extend(values[:3])
        batched.extend([])
        batched.extend(values[3:])
        for stats in (batched, one_by_one):
            assert stats.count == oracle.count
            assert stats.mean == pytest.approx(oracle.mean, rel=1e-12)
            assert stats.std == pytest.approx(oracle.std, rel=1e-12)
            assert (stats.minimum, stats.maximum) == (min(values),
                                                      max(values))


# ----------------------------------------------------------------------
# Dispatch tier: pool chunks, broker batch claims, the supervisor
# ----------------------------------------------------------------------

class TestPoolChunking:
    def test_auto_chunk_size_scales_with_the_batch(self):
        backend = PoolBackend(workers=2)
        assert backend._chunk_size(4) == 1       # tiny batch: legacy path
        assert backend._chunk_size(160) == 10    # ~8 chunks per worker
        assert backend._chunk_size(100_000) == 32  # capped

    def test_execute_chunk_isolates_member_failures(self):
        good = Job(kind="engine-selftest-sleep", vcc_mv=500.0,
                   scheme="iraw", options=(("note", "ok"),))
        bad = Job(kind="engine-selftest-crash", vcc_mv=500.0,
                  scheme="iraw", options=(("note", "boom"),))
        first, failed, last = execute_chunk([good, bad, good])
        assert isinstance(failed, RuntimeError)
        for wire in (first, last):
            assert isinstance(wire, WireResult)
            assert wire.result == {"note": "ok"}
            assert wire.worker == f"pid:{os.getpid()}"
            assert wire.execute_s >= 0.0


def spool_jobs(broker, count):
    """Spool ``count`` trivial self-test jobs; returns their keys."""
    keys = []
    for index in range(count):
        job = Job(kind="engine-selftest-sleep", vcc_mv=500.0,
                  scheme="iraw", options=(("note", f"n{index}"),))
        key = job_key(job)
        assert broker.submit(key, job)
        keys.append(key)
    return keys


class TestSingleClaim:
    def test_a_claim_leases_exactly_one_shard(self, tmp_path):
        broker = SpoolBroker(tmp_path / "spool", lease_timeout=60.0)
        keys = spool_jobs(broker, 3)
        claims = []
        for left in (2, 1, 0):
            claims.append(broker.claim_next("w"))
            assert len(list(broker.pending_dir.glob("*.job"))) == left
        assert broker.claim_next("w") is None  # spool empty
        assert sorted(claim.key for claim in claims) == sorted(keys)
        # Each lease has its own heartbeat file: no shared inode.
        inodes = {os.stat(claim.heartbeat_path).st_ino for claim in claims}
        assert len(inodes) == 3
        assert all(os.stat(claim.heartbeat_path).st_nlink == 1
                   for claim in claims)
        assert all(claim.owns() for claim in claims)

    def test_worker_loop_holds_one_claim_at_a_time(self, tmp_path,
                                                   monkeypatch):
        broker = SpoolBroker(tmp_path / "spool", lease_timeout=60.0)
        keys = spool_jobs(broker, 7)
        held = []
        claim_next = broker.claim_next

        def counting_claim(*args, **kwargs):
            held.append(len(list(broker.claimed_dir.glob("*.job"))))
            return claim_next(*args, **kwargs)

        monkeypatch.setattr(broker, "claim_next", counting_claim)
        completed, failed = run_worker_loop(
            broker, poll_interval=0.01, idle_exit=0.05)
        assert (completed, failed) == (7, 0)
        assert set(held) == {0}  # every earlier lease was already dropped
        done = {path.stem for path in broker.done_dir.glob("*.pkl")}
        assert done == set(keys)


class _ThreadWorker:
    """Supervisor test double: a worker 'process' backed by a thread."""

    def __init__(self, broker):
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._serve,
                                        args=(broker,), daemon=True)
        self._thread.start()

    def _serve(self, broker):
        try:
            run_worker_loop(broker, poll_interval=0.01, idle_exit=0.05)
        finally:
            self._done.set()

    def is_alive(self):
        return self._thread.is_alive()

    @property
    def exitcode(self):
        return 0 if self._done.is_set() else None

    def join(self, timeout=None):
        self._thread.join(timeout)


class _CrashedWorker:
    """Supervisor test double that is already dead with a bad exit."""

    exitcode = 1

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass


class TestWorkerSupervisor:
    def test_fleet_sizes_to_queue_depth(self, tmp_path):
        supervisor = WorkerSupervisor(tmp_path / "spool", max_workers=3,
                                      spawn=lambda: _ThreadWorker(None))
        assert supervisor.desired(0) == 0
        assert supervisor.desired(1) == 1
        assert supervisor.desired(4) == 1  # four shards per worker
        assert supervisor.desired(5) == 2
        assert supervisor.desired(1000) == 3  # clamped to max_workers

    def test_supervises_the_spool_to_drained(self, tmp_path):
        supervisor = WorkerSupervisor(
            tmp_path / "spool", max_workers=2, poll_interval=0.02,
            spawn=lambda: _ThreadWorker(supervisor.broker))
        keys = spool_jobs(supervisor.broker, 7)
        status = supervisor.run()
        assert status["backlog"] == 0
        assert supervisor.spawned == 2  # ceil(7 / 4), clamped to max
        assert supervisor.crashed == 0
        done = {p.stem for p in supervisor.broker.done_dir.glob("*.pkl")}
        assert done == set(keys)

    def test_crash_loop_exhausts_the_respawn_budget(self, tmp_path):
        from repro.cli import _build_parser

        supervisor = WorkerSupervisor(tmp_path / "spool", max_workers=1,
                                      spawn=lambda: _CrashedWorker())
        spool_jobs(supervisor.broker, 4)
        supervisor.poll_once()  # spawns the first (already dead) worker
        for crash in range(1, WorkerSupervisor.MAX_RESPAWNS + 1):
            supervisor.poll_once()  # crash charged, respawn
            assert supervisor.respawns == crash
        with pytest.raises(RuntimeError, match="respawn budget") as exc:
            supervisor.poll_once()
        assert supervisor.crashed == WorkerSupervisor.MAX_RESPAWNS + 1
        # The hint names a command repro's own parser accepts.
        command = shlex.split(str(exc.value).split("'")[1])
        assert command[0] == "repro"
        args = _build_parser().parse_args(command[1:])
        assert (args.command, args.queue) == \
            ("queue", str(supervisor.broker.root))

    def test_validation(self, tmp_path):
        root = tmp_path / "spool"
        with pytest.raises(ConfigError, match="max_workers"):
            WorkerSupervisor(root, max_workers=0)


# ----------------------------------------------------------------------
# CLI: the supervisor end to end
# ----------------------------------------------------------------------

class TestWorkerCli:
    def test_supervise_exits_cleanly_on_an_empty_spool(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        assert main(["worker", "--queue", str(tmp_path / "spool"),
                     "--supervise", "--concurrency", "2"]) == 0
        captured = capsys.readouterr()
        assert "supervising" in captured.err
        assert "spawned 0 worker(s)" in captured.out

    def test_supervise_passes_idle_exit_to_its_workers(self, tmp_path,
                                                       monkeypatch,
                                                       capsys):
        import repro.cli

        built = []

        class RecordingSupervisor(WorkerSupervisor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(repro.cli, "WorkerSupervisor",
                            RecordingSupervisor)
        root = str(tmp_path / "spool")
        assert repro.cli.main(["worker", "--queue", root, "--supervise",
                               "--idle-exit", "7.5"]) == 0
        assert repro.cli.main(["worker", "--queue", root,
                               "--supervise"]) == 0
        capsys.readouterr()
        assert [supervisor.idle_exit for supervisor in built] == [7.5, 2.0]

    def test_supervise_rejects_max_shards(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["worker", "--queue", str(tmp_path / "spool"),
                     "--supervise", "--max-shards", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --max-shards does not apply with "
                              "--supervise")
        assert err.count("\n") == 1
