"""Golden-result regression suite for the sharded engine.

Small JSON goldens for Table 1 and one Figure 11(b) slice, generated at
``workers=1`` (the bit-identical serial path) on a fixed two-trace
population, lock down the per-trace sharding refactor: any change to the
shard split, the aggregation order, or the executors that shifts a single
cycle count shows up as a golden diff.

Serial, pool-parallel and queue-distributed runs must all reproduce the
goldens (backend equivalence).  Integer fields (cycle and instruction
counts) are compared exactly; floats are compared to 1e-12 relative —
bit-identical in practice, with the tolerance only guarding libm
variation across platforms.

Regenerate (after an *intentional* simulator change) with::

    PYTHONPATH=src python tests/test_golden.py --regen
"""

import json
import math
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import rv32i_programs  # noqa: E402  (sibling fixture-builder module)

from repro.engine import ParallelRunner, QueueBackend, ResultCache
from repro.experiments import Experiment, ExperimentSpec, RiscvProgramRef
from repro.montecarlo import ImportanceSpec, MonteCarloSpec, \
    deep_tail_rows
from repro.montecarlo.campaign import montecarlo_jobs, yield_curve_rows
from repro.workloads.profiles import KERNEL_LIKE, SPECINT_LIKE
from repro.workloads.riscv import RiscvProgram, StepState, \
    diff_state_traces, run_riscv_program, state_trace

pytestmark = pytest.mark.engine

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
RV32I_GOLDEN_DIR = GOLDEN_DIR / "rv32i"

GOLDEN_VCC = 500.0

#: The golden campaign: two profiles, one seed each, short traces — big
#: enough to exercise aggregation across traces, small enough that every
#: CI matrix leg can afford the regeneration.
GOLDEN_SPEC = ExperimentSpec(
    name="golden",
    profiles=(KERNEL_LIKE.name, SPECINT_LIKE.name),
    trace_length=600,
    vcc_mv=(GOLDEN_VCC,),
    table1_vcc_mv=GOLDEN_VCC,
    artifacts=("table1", "fig11b"),
)


#: The mixed-origin campaign: one synthetic profile plus two of the
#: committed RV32I binaries (one flat image, one ELF).  Locks that real
#: compiled programs flow through sharding, caching and every backend
#: exactly like synthetic traces — and that their Table-1-style rows
#: are bit-identical everywhere.
GOLDEN_RISCV_SPEC = ExperimentSpec(
    name="golden-riscv",
    profiles=(KERNEL_LIKE.name,),
    trace_length=600,
    vcc_mv=(GOLDEN_VCC,),
    table1_vcc_mv=GOLDEN_VCC,
    artifacts=("table1", "fig11b"),
    riscv=(
        RiscvProgramRef("loop", str(rv32i_programs.fixture_path("loop"))),
        RiscvProgramRef("memcpy",
                        str(rv32i_programs.fixture_path("memcpy"))),
    ),
)


#: The golden die-sampling campaign: one Vcc point, both schemes, 16
#: dies — locks the per-die RNG streams, the max-of-N inverse-CDF
#: sampling and the streaming yield reduction bit-for-bit.
GOLDEN_MC = MonteCarloSpec(dies=16, seed=0)
GOLDEN_MC_SCHEMES = ("baseline", "iraw")

#: The golden importance-sampled campaign: 64 dies in two ``mc-block``
#: jobs per grid point, proposal shifted one cell sigma — locks the
#: shifted die-offset draws, the exact Gaussian log weights and the
#: self-normalized deep-tail reduction bit-for-bit.  An explicit float
#: shift (not ``"auto"``) so the golden cannot move if the auto
#: heuristic is retuned.
GOLDEN_DEEP_MC = MonteCarloSpec(dies=64, seed=0, block=32,
                                importance=ImportanceSpec(shift_sigma=1.0))


def compute_artifacts(runner: ParallelRunner | None = None) -> dict:
    """Render both golden artifacts of :data:`GOLDEN_SPEC` through one
    runner, each artifact resolving its own jobs (no ``run()`` first)."""
    experiment = Experiment(GOLDEN_SPEC, runner=runner)
    return {
        "table1": experiment.artifact("table1"),
        "fig11b_500mv": experiment.artifact("fig11b")[0],
    }


def compute_yield_curve(runner: ParallelRunner | None = None) -> list:
    """The golden ``yield_curve`` slice at 500 mV."""
    runner = runner or ParallelRunner()
    jobs = montecarlo_jobs(GOLDEN_MC, (GOLDEN_VCC,), GOLDEN_MC_SCHEMES)
    results = runner.run(jobs, label="golden-mc")
    return yield_curve_rows(results, (GOLDEN_VCC,), GOLDEN_MC_SCHEMES,
                            GOLDEN_MC.dies, GOLDEN_MC.confidence)


def compute_deep_tail(runner: ParallelRunner | None = None) -> list:
    """The golden ``deep_tail`` slice at 500 mV."""
    runner = runner or ParallelRunner()
    jobs = montecarlo_jobs(GOLDEN_DEEP_MC, (GOLDEN_VCC,),
                           GOLDEN_MC_SCHEMES)
    results = runner.run(jobs, label="golden-deep-tail")
    return deep_tail_rows(results, (GOLDEN_VCC,), GOLDEN_MC_SCHEMES,
                          GOLDEN_DEEP_MC.dies, GOLDEN_DEEP_MC.importance,
                          GOLDEN_DEEP_MC.confidence)


def compute_riscv_artifacts(runner: ParallelRunner | None = None) -> dict:
    """Run the mixed synthetic+riscv golden campaign end to end."""
    experiment = Experiment(GOLDEN_RISCV_SPEC, runner=runner)
    experiment.run()
    rendered = experiment.artifacts()
    return {"table1": rendered["table1"],
            "fig11b_500mv": rendered["fig11b"][0]}


def fixture_program(name: str) -> RiscvProgram:
    return RiscvProgram.from_file(rv32i_programs.fixture_path(name),
                                  name=name)


def load_golden(name: str):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text("utf-8"))


def load_rv32i_golden(name: str) -> dict:
    return json.loads(
        (RV32I_GOLDEN_DIR / f"{name}.json").read_text("utf-8"))


def assert_matches_golden(actual, golden, path: str = "") -> None:
    """Structural equality: ints/strings/bools exact, floats to 1e-12."""
    if isinstance(golden, dict):
        assert isinstance(actual, dict), f"{path}: expected mapping"
        assert sorted(actual) == sorted(golden), f"{path}: key set differs"
        for key in golden:
            assert_matches_golden(actual[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list), f"{path}: expected list"
        assert len(actual) == len(golden), f"{path}: length differs"
        for i, (a, g) in enumerate(zip(actual, golden)):
            assert_matches_golden(a, g, f"{path}[{i}]")
    elif isinstance(golden, bool):
        assert actual is golden, f"{path}: {actual!r} != {golden!r}"
    elif isinstance(golden, float):
        assert isinstance(actual, float), f"{path}: expected float"
        assert math.isclose(actual, golden, rel_tol=1e-12, abs_tol=1e-15), \
            f"{path}: {actual!r} != {golden!r}"
    else:
        assert actual == golden, f"{path}: {actual!r} != {golden!r}"


class TestGoldenSerial:
    """The default serial runner must reproduce the checked-in numbers."""

    def test_table1_matches_golden(self):
        artifacts = compute_artifacts()
        assert_matches_golden(artifacts["table1"], load_golden("table1"),
                              "table1")

    def test_fig11b_slice_matches_golden(self):
        artifacts = compute_artifacts()
        assert_matches_golden(artifacts["fig11b_500mv"],
                              load_golden("fig11b_500mv"), "fig11b_500mv")


class TestGoldenSharded:
    """Sharded/parallel execution must aggregate to the same numbers."""

    def test_parallel_run_reproduces_goldens(self, tmp_path):
        runner = ParallelRunner(workers=2,
                                cache=ResultCache(root=tmp_path))
        artifacts = compute_artifacts(runner)
        assert runner.stats.sharded > 0  # population jobs really split
        assert_matches_golden(artifacts["table1"], load_golden("table1"),
                              "table1")
        assert_matches_golden(artifacts["fig11b_500mv"],
                              load_golden("fig11b_500mv"), "fig11b_500mv")

    def test_warm_cache_run_reproduces_goldens(self, tmp_path):
        cold = ParallelRunner(workers=2, cache=ResultCache(root=tmp_path))
        compute_artifacts(cold)
        warm = ParallelRunner(workers=1, cache=ResultCache(root=tmp_path))
        artifacts = compute_artifacts(warm)
        assert warm.stats.simulated == 0  # every shard served from disk
        assert_matches_golden(artifacts["table1"], load_golden("table1"),
                              "table1")


class TestGoldenQueue:
    """The distributed queue backend must be bit-identical too.

    The backend runs with in-process workers (``local_workers``), so the
    full wire path — shard pickled into ``pending/``, claimed via a
    rename-based lease, result pickled into ``done/`` and collected —
    is exercised without external processes.
    """

    @staticmethod
    def queue_runner(tmp_path, cache=None, workers=2) -> ParallelRunner:
        backend = QueueBackend(tmp_path / "spool", local_workers=workers,
                               lease_timeout=60.0, poll_interval=0.01)
        return ParallelRunner(backend=backend, cache=cache)

    def test_queue_backend_reproduces_goldens(self, tmp_path):
        runner = self.queue_runner(
            tmp_path, cache=ResultCache(root=tmp_path / "cache"))
        artifacts = compute_artifacts(runner)
        assert runner.stats.sharded > 0       # population jobs really split
        assert runner.stats.simulated > 0     # shards executed via the spool
        assert runner.stats.requeued == 0     # healthy run: no fault path
        assert_matches_golden(artifacts["table1"], load_golden("table1"),
                              "table1")
        assert_matches_golden(artifacts["fig11b_500mv"],
                              load_golden("fig11b_500mv"), "fig11b_500mv")

    def test_warm_cache_queue_run_simulates_nothing(self, tmp_path):
        cold = ParallelRunner(workers=1,
                              cache=ResultCache(root=tmp_path / "cache"))
        compute_artifacts(cold)
        warm = self.queue_runner(
            tmp_path, cache=ResultCache(root=tmp_path / "cache"))
        artifacts = compute_artifacts(warm)
        assert warm.stats.simulated == 0   # nothing ever hits the spool
        assert list((tmp_path / "spool").rglob("*.job")) == []
        assert_matches_golden(artifacts["table1"], load_golden("table1"),
                              "table1")


class TestGoldenExperiment:
    """The whole-campaign path must reproduce the goldens too.

    ``Experiment.run`` submits the spec's plan as one batch before the
    artifacts render; these tests pin the same rows through it (serial
    and pool) and spec round-trips through TOML/JSON that preserve the
    job plan.
    """

    @staticmethod
    def experiment_artifacts(experiment: Experiment) -> dict:
        experiment.run()
        rendered = experiment.artifacts()
        return {"table1": rendered["table1"],
                "fig11b_500mv": rendered["fig11b"][0]}

    def test_serial_run_reproduces_goldens(self):
        artifacts = self.experiment_artifacts(Experiment(GOLDEN_SPEC))
        assert_matches_golden(artifacts["table1"], load_golden("table1"),
                              "table1")
        assert_matches_golden(artifacts["fig11b_500mv"],
                              load_golden("fig11b_500mv"), "fig11b_500mv")

    def test_pool_run_reproduces_goldens(self, tmp_path):
        runner = ParallelRunner(workers=2,
                                cache=ResultCache(root=tmp_path))
        experiment = Experiment(GOLDEN_SPEC, runner=runner)
        artifacts = self.experiment_artifacts(experiment)
        assert runner.stats.sharded > 0  # population jobs really split
        assert_matches_golden(artifacts["table1"], load_golden("table1"),
                              "table1")
        assert_matches_golden(artifacts["fig11b_500mv"],
                              load_golden("fig11b_500mv"), "fig11b_500mv")

    def test_spec_round_trips_preserve_job_keys(self):
        via_toml = ExperimentSpec.from_toml(GOLDEN_SPEC.to_toml())
        via_json = ExperimentSpec.from_json(GOLDEN_SPEC.to_json())
        assert via_toml == GOLDEN_SPEC
        assert via_json == GOLDEN_SPEC
        reference = Experiment(GOLDEN_SPEC).plan_keys()
        assert Experiment(via_toml).plan_keys() == reference
        assert Experiment(via_json).plan_keys() == reference


class TestGoldenRv32iStateTraces:
    """Every committed binary's architectural state, locked step by step.

    The goldens under ``goldens/rv32i/`` record one :class:`StepState`
    per retired instruction — pc, fetched word, register write, memory
    effect, next pc.  A semantic change anywhere in the decoder or the
    interpreter shows up as a named first-divergent instruction, not as
    a distant downstream artifact diff.
    """

    @pytest.mark.parametrize("name", sorted(rv32i_programs.PROGRAMS))
    def test_state_trace_matches_golden(self, name):
        golden = load_rv32i_golden(name)
        program = fixture_program(name)
        assert program.sha256 == golden["sha256"], \
            "committed binary differs from the one the golden was traced on"
        expected = [StepState.from_dict(step) for step in golden["steps"]]
        actual = list(state_trace(program))
        divergence = diff_state_traces(expected, actual)
        assert divergence is None, str(divergence)

    @pytest.mark.parametrize("name", sorted(rv32i_programs.PROGRAMS))
    def test_fixture_runs_to_recorded_exit(self, name):
        golden = load_rv32i_golden(name)
        _, machine = run_riscv_program(fixture_program(name))
        assert machine.halted
        assert machine.exit_code == golden["exit_code"]
        assert machine.steps == golden["instructions"]

    @pytest.mark.parametrize("name", sorted(rv32i_programs.PROGRAMS))
    def test_committed_binary_matches_builder(self, name):
        builder, filename = rv32i_programs.PROGRAMS[name]
        committed = rv32i_programs.fixture_path(name).read_bytes()
        assert committed == builder(), \
            f"{filename} drifted from its builder; rerun --regen"


class TestGoldenRiscvExperiment:
    """Mixed synthetic+riscv rows must reproduce through every backend."""

    def test_serial_matches_golden(self):
        artifacts = compute_riscv_artifacts()
        assert_matches_golden(artifacts["table1"],
                              load_golden("riscv_table1"), "riscv_table1")

    def test_pool_matches_golden(self, tmp_path):
        runner = ParallelRunner(workers=2,
                                cache=ResultCache(root=tmp_path))
        artifacts = compute_riscv_artifacts(runner)
        assert runner.stats.sharded > 0  # riscv traces shard like any other
        assert_matches_golden(artifacts["table1"],
                              load_golden("riscv_table1"), "riscv_table1")

    def test_queue_matches_golden(self, tmp_path):
        runner = TestGoldenQueue.queue_runner(
            tmp_path, cache=ResultCache(root=tmp_path / "cache"))
        artifacts = compute_riscv_artifacts(runner)
        assert runner.stats.requeued == 0
        assert_matches_golden(artifacts["table1"],
                              load_golden("riscv_table1"), "riscv_table1")

    def test_warm_cache_rerun_simulates_nothing(self, tmp_path):
        cold = ParallelRunner(workers=2, cache=ResultCache(root=tmp_path))
        compute_riscv_artifacts(cold)
        warm = ParallelRunner(workers=1, cache=ResultCache(root=tmp_path))
        artifacts = compute_riscv_artifacts(warm)
        assert warm.stats.simulated == 0  # program-byte keys hit the cache
        assert_matches_golden(artifacts["table1"],
                              load_golden("riscv_table1"), "riscv_table1")

    def test_spec_round_trips_preserve_job_keys(self):
        via_toml = ExperimentSpec.from_toml(GOLDEN_RISCV_SPEC.to_toml())
        via_json = ExperimentSpec.from_json(GOLDEN_RISCV_SPEC.to_json())
        assert via_toml == GOLDEN_RISCV_SPEC
        assert via_json == GOLDEN_RISCV_SPEC
        reference = Experiment(GOLDEN_RISCV_SPEC).plan_keys()
        assert Experiment(via_toml).plan_keys() == reference
        assert Experiment(via_json).plan_keys() == reference


class TestGoldenYieldCurve:
    """The die-sampling slice must reproduce bit-for-bit everywhere."""

    def test_serial_matches_golden(self):
        assert_matches_golden(compute_yield_curve(),
                              load_golden("yield_curve_500mv"),
                              "yield_curve_500mv")

    def test_pool_matches_golden(self, tmp_path):
        runner = ParallelRunner(workers=2,
                                cache=ResultCache(root=tmp_path))
        assert_matches_golden(compute_yield_curve(runner),
                              load_golden("yield_curve_500mv"),
                              "yield_curve_500mv")
        assert runner.stats.simulated == 2 * GOLDEN_MC.dies

    def test_queue_matches_golden(self, tmp_path):
        runner = TestGoldenQueue.queue_runner(tmp_path)
        assert_matches_golden(compute_yield_curve(runner),
                              load_golden("yield_curve_500mv"),
                              "yield_curve_500mv")
        assert runner.stats.requeued == 0

    def test_warm_cache_regeneration_is_free(self, tmp_path):
        cold = ParallelRunner(cache=ResultCache(root=tmp_path))
        compute_yield_curve(cold)
        warm = ParallelRunner(cache=ResultCache(root=tmp_path))
        assert_matches_golden(compute_yield_curve(warm),
                              load_golden("yield_curve_500mv"),
                              "yield_curve_500mv")
        assert warm.stats.simulated == 0


class TestGoldenDeepTail:
    """The importance-sampled slice must reproduce bit-for-bit too.

    Weighted reduction folds ``exp`` of per-die log weights in die
    order; these tests pin that the weights — not just the samples —
    survive every backend and the warm cache unchanged.
    """

    def test_serial_matches_golden(self):
        assert_matches_golden(compute_deep_tail(),
                              load_golden("deep_tail_500mv"),
                              "deep_tail_500mv")

    def test_pool_matches_golden(self, tmp_path):
        runner = ParallelRunner(workers=2,
                                cache=ResultCache(root=tmp_path))
        assert_matches_golden(compute_deep_tail(runner),
                              load_golden("deep_tail_500mv"),
                              "deep_tail_500mv")
        # One vectorized mc-block job per (scheme, die span).
        assert runner.stats.simulated == len(GOLDEN_MC_SCHEMES) * 2

    def test_queue_matches_golden(self, tmp_path):
        runner = TestGoldenQueue.queue_runner(tmp_path)
        assert_matches_golden(compute_deep_tail(runner),
                              load_golden("deep_tail_500mv"),
                              "deep_tail_500mv")
        assert runner.stats.requeued == 0

    def test_warm_cache_regeneration_is_free(self, tmp_path):
        cold = ParallelRunner(cache=ResultCache(root=tmp_path))
        compute_deep_tail(cold)
        warm = ParallelRunner(cache=ResultCache(root=tmp_path))
        assert_matches_golden(compute_deep_tail(warm),
                              load_golden("deep_tail_500mv"),
                              "deep_tail_500mv")
        assert warm.stats.simulated == 0


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    GOLDEN_DIR.mkdir(exist_ok=True)
    RV32I_GOLDEN_DIR.mkdir(exist_ok=True)
    # Rebuild the binaries first so fixtures and goldens move together.
    for path in rv32i_programs.write_fixtures():
        print(f"wrote {path}")
    artifacts = compute_artifacts()
    artifacts["yield_curve_500mv"] = compute_yield_curve()
    artifacts["deep_tail_500mv"] = compute_deep_tail()
    artifacts["riscv_table1"] = compute_riscv_artifacts()["table1"]
    for name, data in artifacts.items():
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    for name in sorted(rv32i_programs.PROGRAMS):
        program = fixture_program(name)
        steps = [record.to_dict() for record in state_trace(program)]
        _, machine = run_riscv_program(program)
        data = {"program": name, "sha256": program.sha256,
                "exit_code": machine.exit_code,
                "instructions": machine.steps, "steps": steps}
        path = RV32I_GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
