"""Tests for the declarative experiment API (specs, driver, results)."""

import importlib.util
import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.dvfs import DvfsPhase
from repro.branch.iraw_effects import DeterminismMode
from repro.circuits.sram import silverthorne_arrays
from repro.engine import ParallelRunner, ResultCache
from repro.engine.jobs import TraceSpec, job_key
from repro.errors import ConfigError
from repro.experiments import (
    ARTIFACTS,
    AblationSpec,
    DvfsScheduleSpec,
    Experiment,
    ExperimentSpec,
    Record,
    ResultSet,
    run_spec,
)
from repro.experiments.artifacts import (
    TABLE1_TECHNIQUES,
    fig11b_jobs,
    stalls_jobs,
    table1_jobs,
)
from repro.experiments.spec import RiscvProgramRef
from repro.experiments.specio import dumps_toml, loads_toml
from repro.montecarlo import ImportanceSpec, MonteCarloSpec
from repro.workloads.profiles import PROFILES_BY_NAME, TraceProfile

pytestmark = pytest.mark.engine

#: A tiny, fast campaign reused across driver tests.
SMALL_SPEC = ExperimentSpec(
    name="small",
    profiles=("kernel-like",),
    trace_length=400,
    vcc_mv=(500.0,),
    artifacts=("table1", "fig11b", "overheads"),
)


def small_dvfs_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(
        name="dvfs-small",
        profiles=("kernel-like",),
        trace_length=400,
        vcc_mv=(500.0,),
        artifacts=("dvfs",),
        dvfs=(DvfsScheduleSpec(
            name="phone",
            trace=TraceSpec.synthetic("office-like", seed=5, length=900),
            phases=(DvfsPhase(650.0, 300), DvfsPhase(450.0, 600)),
        ),),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestSpecValidation:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="unknown profile"):
            ExperimentSpec(profiles=("nope",))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="unknown clock scheme"):
            ExperimentSpec(schemes=("warp",))

    def test_unknown_artifact_rejected(self):
        with pytest.raises(ConfigError, match="unknown artifact"):
            ExperimentSpec(artifacts=("table2",))

    def test_explicit_grid_and_step_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            ExperimentSpec(vcc_mv=(500.0,), step_mv=50.0)

    def test_dvfs_artifact_needs_schedules(self):
        with pytest.raises(ConfigError, match="no schedules"):
            ExperimentSpec(artifacts=("dvfs",))

    def test_unknown_params_field_rejected(self):
        with pytest.raises(ConfigError, match="PipelineParams field"):
            ExperimentSpec(params={"warp_factor": 9})

    def test_unknown_memory_field_rejected(self):
        with pytest.raises(ConfigError, match="MemoryConfig field"):
            ExperimentSpec(memory={"l9_kb": 1})

    def test_duplicate_variant_names_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            ExperimentSpec(ablations=(AblationSpec(name="x"),
                                      AblationSpec(name="x")))

    def test_schedule_must_cover_trace(self):
        with pytest.raises(ConfigError, match="covers"):
            DvfsScheduleSpec(
                name="short",
                trace=TraceSpec.synthetic("office-like", length=1000),
                phases=(DvfsPhase(500.0, 999),))

    def test_ablation_scheme_validated(self):
        with pytest.raises(ConfigError, match="unknown clock scheme"):
            AblationSpec(name="bad", scheme="warp")

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            ExperimentSpec.from_dict({"name": "x", "tables": {}})
        with pytest.raises(ConfigError, match="unknown grid"):
            ExperimentSpec.from_dict({"grid": {"vcc": [500]}})

    @pytest.mark.parametrize("fields, message", [
        ({"vcc_mv": (900.0,)}, "Vcc=900.0 mV outside modeled range"),
        ({"step_mv": 0.0}, "step_mv must be positive"),
        ({"table1_vcc_mv": 900.0}, "Vcc=900.0 mV outside modeled range"),
        ({"stalls_vcc_mv": 100.0}, "Vcc=100.0 mV outside modeled range"),
    ])
    def test_every_vcc_the_spec_names_is_checked(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentSpec(**fields)

    def test_dvfs_phase_vcc_is_checked(self):
        with pytest.raises(ConfigError, match="Vcc=900.0 mV outside"):
            DvfsPhase(900.0, 100)
        data = small_dvfs_spec().to_dict()
        data["dvfs"][0]["phases"][0]["vcc_mv"] = 900.0
        with pytest.raises(ConfigError, match="Vcc=900.0 mV outside"):
            ExperimentSpec.from_dict(data)

    def test_load_rejects_an_out_of_range_grid(self, tmp_path):
        path = tmp_path / "hot.toml"
        path.write_text('name = "hot"\n[grid]\nvcc_mv = [900.0]\n')
        with pytest.raises(ConfigError, match="outside modeled range"):
            ExperimentSpec.load(path)

    def test_grid_defaults_to_paper_sweep(self):
        spec = ExperimentSpec()
        grid = spec.grid()
        assert grid[0] == 700.0 and grid[-1] == 400.0
        assert len(grid) == 13  # 25 mV steps

    def test_params_overrides_apply(self):
        spec = ExperimentSpec(params={"fetch_width": 1},
                              memory={"tlb_miss_penalty": 9})
        assert spec.pipeline_params().fetch_width == 1
        assert spec.memory_config().tlb_miss_penalty == 9


class TestSpecSerialization:
    def test_dict_round_trip_full_featured(self):
        spec = small_dvfs_spec(
            ablations=(AblationSpec(name="no-rf",
                                    overrides={"rf_enabled": False}),),
            params=(("fetch_width", 1),),
            metadata=(("note", "hello"),),
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_toml_round_trip(self):
        spec = small_dvfs_spec()
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_json_round_trip(self):
        spec = small_dvfs_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_kernel_trace_round_trip(self):
        spec = small_dvfs_spec(dvfs=(DvfsScheduleSpec(
            name="kern",
            trace=TraceSpec.for_kernel("fib", size=12),
            phases=(DvfsPhase(500.0, 100),)),), artifacts=())
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_file_round_trip_both_formats(self, tmp_path):
        spec = small_dvfs_spec()
        for suffix in (".toml", ".json"):
            path = tmp_path / f"spec{suffix}"
            spec.save(path)
            assert ExperimentSpec.load(path) == spec

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("x")
        with pytest.raises(ConfigError, match="unknown spec format"):
            ExperimentSpec.load(path)
        with pytest.raises(ConfigError, match="unknown spec format"):
            SMALL_SPEC.save(path)

    def test_missing_file_clean_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read spec file"):
            ExperimentSpec.load(tmp_path / "absent.toml")

    def test_malformed_json_clean_error(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentSpec.from_json("{nope")
        with pytest.raises(ConfigError, match="must be an object"):
            ExperimentSpec.from_json("[1, 2]")

    def test_json_integer_vcc_normalizes_to_float_keys(self):
        """A hand-written spec with `vcc_mv = [500]` must key like 500.0."""
        data = SMALL_SPEC.to_dict()
        data["grid"]["vcc_mv"] = [500]
        spec = ExperimentSpec.from_dict(data)
        assert spec == SMALL_SPEC
        assert Experiment(spec).plan_keys() \
            == Experiment(SMALL_SPEC).plan_keys()


class TestTomlSubsetParser:
    """The spec-file TOML subset: read by ``loads_toml`` (the stdlib
    ``tomllib``), written by ``dumps_toml``."""

    def test_stdlib_parse_error_becomes_config_error(self):
        with pytest.raises(ConfigError, match="invalid TOML"):
            ExperimentSpec.from_toml("= broken")

    @pytest.mark.parametrize("text", [
        "key",                       # no '='
        "x = ",                      # missing value
        'x = "unterminated',
        "x = [1, 2",
        "[table",                    # malformed header
        "x = 1\nx = 2",              # duplicate key
    ])
    def test_rejects_out_of_subset(self, text):
        with pytest.raises(ConfigError, match="invalid TOML"):
            loads_toml(text)

    def test_emitter_round_trips_plain_data(self):
        data = {"name": 'quote " and \\ slash', "n": 3, "f": 0.25,
                "flag": True, "list": [1.5, 2.5], "strings": ["a", "b"],
                "table": {"x": 1, "nested": {"y": 2.0}},
                "rows": [{"a": 1}, {"a": 2, "sub": {"b": 3}}]}
        assert loads_toml(dumps_toml(data)) == data

    def test_emitter_rejects_unrepresentable(self):
        with pytest.raises(ConfigError, match="cannot emit"):
            dumps_toml({"x": object()})
        with pytest.raises(ConfigError, match="cannot emit TOML key"):
            dumps_toml({"bad key": 1})


class TestResultSet:
    @staticmethod
    def records():
        return ResultSet([
            Record(kind="sweep-point", scheme="baseline", vcc_mv=500.0,
                   metrics={"ipc": 0.7, "cycles": 100}),
            Record(kind="sweep-point", scheme="iraw", vcc_mv=500.0,
                   metrics={"ipc": 0.6, "cycles": 120}),
            Record(kind="sweep-point", scheme="iraw", vcc_mv=450.0,
                   variant="no-rf", metrics={"ipc": 0.65}),
            Record(kind="dvfs-schedule", scheme="iraw", vcc_mv=0.0,
                   variant="phone", trace="office-like/seed5",
                   metrics={"total_time_s": 1e-3}),
        ])

    def test_record_access(self):
        record = self.records()[0]
        assert record["scheme"] == "baseline"
        assert record["ipc"] == 0.7
        assert record.get("absent", 42) == 42
        with pytest.raises(KeyError):
            record["absent"]
        assert record.as_dict()["kind"] == "sweep-point"

    def test_filter_and_where(self):
        results = self.records()
        assert len(results.filter(scheme="iraw")) == 3
        assert len(results.filter(scheme="iraw", variant="")) == 1
        assert len(results.where(lambda r: r.get("ipc", 0) > 0.64)) == 2

    def test_group_by(self):
        groups = self.records().group_by("scheme")
        assert set(groups) == {"baseline", "iraw"}
        assert len(groups["iraw"]) == 3
        pairs = self.records().group_by("kind", "scheme")
        assert ("dvfs-schedule", "iraw") in pairs

    def test_pivot(self):
        table = self.records().filter(kind="sweep-point", variant="") \
            .pivot("vcc_mv", "scheme", "ipc")
        assert table == [{"vcc_mv": 500.0, "baseline": 0.7, "iraw": 0.6}]

    def test_pivot_rejects_ambiguity(self):
        with pytest.raises(ConfigError, match="ambiguous"):
            self.records().pivot("kind", "scheme", "ipc")

    def test_columns_union_in_order(self):
        columns = self.records().columns
        assert columns[:5] == ["kind", "scheme", "vcc_mv", "variant",
                               "trace"]
        assert "cycles" in columns and "total_time_s" in columns

    def test_csv_export(self, tmp_path):
        path = tmp_path / "out.csv"
        text = self.records().to_csv(path)
        assert path.read_text() == text
        lines = text.splitlines()
        assert lines[0].startswith("kind,scheme,vcc_mv")
        assert len(lines) == 5
        assert "baseline" in lines[1] and "" in lines[1]

    def test_json_export_round_trips(self, tmp_path):
        path = tmp_path / "out.json"
        text = self.records().to_json(path)
        rows = json.loads(path.read_text())
        assert rows == json.loads(text)
        assert rows[0]["ipc"] == 0.7

    def test_slicing_and_equality(self):
        results = self.records()
        assert isinstance(results[1:], ResultSet)
        assert results[1:] == ResultSet(results.records[1:])
        assert ResultSet([]) == ResultSet(())
        assert results != object()
        assert "4 records" in repr(results)

    def test_contains(self):
        record = self.records()[0]
        assert "ipc" in record and "scheme" in record
        assert "absent" not in record

    def test_rejects_non_records(self):
        with pytest.raises(ConfigError, match="must be Records"):
            ResultSet([{"kind": "dict"}])

    def test_group_by_needs_columns(self):
        with pytest.raises(ConfigError, match="at least one column"):
            self.records().group_by()


class TestArtifactRegistry:
    def test_registry_serves_every_known_artifact(self):
        for artifact in ARTIFACTS.values():
            assert artifact.title and artifact.description
            assert callable(artifact.jobs) and callable(artifact.build)

    def test_unknown_artifact_lookup(self):
        from repro.experiments import artifact

        with pytest.raises(ConfigError, match="unknown artifact"):
            artifact("table2")


class TestPopulationJobs:
    """Every population job of one experiment comes from
    ``Experiment.population_job`` and holds the same shared objects, so
    the job-key memo writes each of them once."""

    def test_planners_share_one_population_and_option_objects(self):
        experiment = Experiment(small_dvfs_spec(
            params=(("iq_size", 12),), memory=(("tlb_miss_penalty", 40),),
            montecarlo=MonteCarloSpec(dies=2),
            artifacts=("table1", "fig11b", "stalls", "dvfs")))
        jobs = (table1_jobs(experiment) + fig11b_jobs(experiment)
                + stalls_jobs(experiment))
        assert {job.kind for job in jobs} \
            == {"sweep-point", "faulty-bits", "extra-bypass"}
        first = jobs[0]
        assert all(job.population is first.population for job in jobs)
        shared = dict(first.options)
        for job in jobs:
            for name, value in job.options:
                if name in shared:
                    assert value is shared[name], (job.label, name)
        assert shared["params"] == experiment.spec.pipeline_params()
        assert shared["memory"] == experiment.spec.memory_config()
        assert shared["delay_model"] is experiment.solver.delay_model
        schedules = experiment.dvfs_jobs()
        assert len(schedules) == 2
        for job in schedules:
            options = dict(job.options)
            assert options["params"] is shared["params"]
            assert options["memory"] is shared["memory"]
            assert options["delay_model"] is shared["delay_model"]
        for job in experiment.mc_jobs():
            assert dict(job.options)["delay_model"] is shared["delay_model"]


class TestExperimentDriver:
    def test_run_returns_resultset(self):
        experiment = Experiment(SMALL_SPEC)
        results = experiment.run()
        assert experiment.results is results
        # grid: 1 vcc x 2 schemes, plus faulty-bits/extra-bypass rows.
        assert len(results.filter(kind="sweep-point")) == 2
        assert len(results.filter(kind="faulty-bits")) == 1
        assert len(results.filter(kind="extra-bypass")) == 1
        iraw = results.filter(scheme="iraw", kind="sweep-point")[0]
        assert iraw["ipc"] > 0 and iraw["traces"] == 1

    def test_one_batch_no_rerender_simulation(self):
        experiment = Experiment(SMALL_SPEC)
        experiment.run()
        simulated = experiment.stats.simulated
        rendered = experiment.artifacts()
        assert experiment.stats.simulated == simulated  # pure memo-lookup
        assert set(rendered) == set(SMALL_SPEC.artifacts)
        assert len(rendered["table1"]) == 4
        assert rendered["fig11b"][0]["vcc_mv"] == 500.0

    def test_run_rebinds_runner(self, tmp_path):
        runner = ParallelRunner(cache=ResultCache(root=tmp_path))
        experiment = Experiment(SMALL_SPEC)
        results = experiment.run(runner)
        assert experiment.runner is runner
        assert runner.stats.simulated > 0
        assert len(results) == 4

    def test_run_spec_convenience(self):
        experiment = run_spec(SMALL_SPEC)
        assert experiment.results is not None

    def test_ablation_points_recorded(self):
        spec = ExperimentSpec(
            name="ablate", profiles=("kernel-like",), trace_length=400,
            vcc_mv=(500.0,), artifacts=(),
            ablations=(AblationSpec(name="no-rf",
                                    overrides={"rf_enabled": False}),))
        results = Experiment(spec).run()
        ablated = results.filter(variant="no-rf")
        assert len(ablated) == 1
        plain = results.filter(scheme="iraw", variant="")[0]
        # Disabling RF stalls can only help IPC at this point.
        assert ablated[0]["ipc"] >= plain["ipc"]

    def test_dvfs_records_and_artifact(self):
        experiment = Experiment(small_dvfs_spec())
        results = experiment.run()
        dvfs = results.filter(kind="dvfs-schedule")
        assert len(dvfs) == 2  # baseline + iraw
        assert {r.scheme for r in dvfs} == {"baseline", "iraw"}
        assert all(r.variant == "phone" for r in dvfs)
        rows = experiment.artifact("dvfs")
        by_scheme = {row["scheme"]: row for row in rows}
        assert by_scheme["baseline"]["speedup_vs_baseline"] \
            == pytest.approx(1.0)
        assert by_scheme["iraw"]["speedup_vs_baseline"] > 1.0
        assert by_scheme["iraw"]["transitions"] == 2

    def test_dvfs_only_spec_needs_no_population(self):
        spec = small_dvfs_spec(profiles=(), artifacts=("dvfs",))
        experiment = Experiment(spec)
        results = experiment.run()
        assert len(results.filter(kind="dvfs-schedule")) == 2
        with pytest.raises(ConfigError, match="no trace population"):
            experiment.population_job(500.0, "iraw")

    def test_shared_points_deduplicated(self):
        """table1 + fig11b at one Vcc share the baseline/iraw points."""
        experiment = Experiment(SMALL_SPEC)
        experiment.run()
        stats = experiment.stats
        # 4 distinct population evaluations x 1 trace = 4 simulations;
        # duplicates across grid/table1/fig11b plans never re-simulate.
        assert stats.simulated == 4
        assert stats.deduplicated + stats.memory_hits > 0

    def test_unknown_artifact_render_rejected(self):
        with pytest.raises(ConfigError, match="unknown artifact"):
            Experiment(SMALL_SPEC).artifact("table2")

    def test_rendering_stays_inside_the_plan(self, monkeypatch):
        """After run(), each artifact resolves its planner's points in
        at most one runner batch, asks for no key outside the plan and
        simulates nothing."""
        spec = small_dvfs_spec(
            name="render", vcc_mv=(550.0, 500.0),
            artifacts=("table1", "fig11b", "fig12", "energy450", "stalls",
                       "dvfs"))
        experiment = Experiment(spec)
        experiment.run()
        planned = set(experiment.plan_keys())
        simulated = experiment.stats.simulated
        runner = experiment.runner
        batches, asked = [], []
        run, cached_result = runner.run, runner.cached_result

        def spy_run(jobs, label=""):
            jobs = list(jobs)
            batches.append(label)
            asked.extend(job_key(job) for job in jobs)
            return run(jobs, label=label)

        def spy_cached_result(job):
            asked.append(job_key(job))
            return cached_result(job)

        monkeypatch.setattr(runner, "run", spy_run)
        monkeypatch.setattr(runner, "cached_result", spy_cached_result)
        for name in spec.artifacts:
            before = len(batches)
            assert experiment.artifact(name), name
            assert len(batches) - before <= 1, (name, batches[before:])
        assert asked and set(asked) <= planned
        assert experiment.stats.simulated == simulated

    def test_off_grid_table1_points_are_recorded(self):
        """table1_vcc_mv outside the grid: its baseline/IRAW points are
        simulated for the table and must appear in the ResultSet."""
        spec = ExperimentSpec(
            name="offgrid", profiles=("kernel-like",), trace_length=400,
            vcc_mv=(450.0,), table1_vcc_mv=500.0, artifacts=("table1",))
        results = Experiment(spec).run()
        at_500 = results.filter(kind="sweep-point", vcc_mv=500.0)
        assert {r.scheme for r in at_500} == {"baseline", "iraw"}
        assert len(results.filter(kind="sweep-point", vcc_mv=450.0)) == 2
        # On-grid table1 (SMALL_SPEC) keeps deduplicating instead.
        on_grid = Experiment(SMALL_SPEC).run()
        assert len(on_grid.filter(kind="sweep-point", vcc_mv=500.0)) == 2

    def test_table1_alternatives_simulate_the_spec_params(self):
        """Faulty Bits and Extra Bypass run the spec's ``[params]``
        pipeline, like the baseline they are compared against: a longer
        mispredict penalty costs every Table 1 row cycles."""
        def cycles(penalty):
            spec = ExperimentSpec(
                name="params", profiles=("kernel-like",),
                trace_length=400, vcc_mv=(500.0,),
                params={"mispredict_penalty": penalty},
                artifacts=("table1",))
            results = Experiment(spec).run()
            return {kind: results.filter(kind=kind)[0]["cycles"]
                    for kind in ("sweep-point", "faulty-bits",
                                 "extra-bypass")}

        short, long = cycles(11), cycles(40)
        for kind in short:
            assert long[kind] > short[kind], kind

    def test_artifact_without_run_resolves_lazily(self):
        """Rendering before run() simulates exactly what it needs."""
        experiment = Experiment(SMALL_SPEC)
        rows = experiment.artifact("table1")
        assert len(rows) == 4
        assert experiment.stats.simulated > 0


class TestInlineProfiles:
    """Custom (non-named) trace profiles authored directly in specs."""

    TOML = """
name = "inline"
artifacts = []

[population]
profiles = ["hot-loops", "kernel-like"]
trace_length = 400

[population.custom.hot-loops]
description = "tiny tight loops"
load_weight = 6.5
mean_block_size = 9
working_set_kb = 32

[grid]
vcc_mv = [500.0]
"""

    def test_custom_profiles_resolve_and_coerce(self):
        spec = ExperimentSpec.from_toml(self.TOML)
        custom, builtin = spec.profile_objects()
        assert custom.name == "hot-loops"
        assert custom.load_weight == 6.5
        assert custom.mean_block_size == 9.0          # int -> float
        assert isinstance(custom.mean_block_size, float)
        assert custom.working_set_kb == 32            # stays int
        assert builtin.name == "kernel-like"

    def test_round_trip_preserves_plan_keys(self):
        spec = ExperimentSpec.from_toml(self.TOML)
        via_toml = ExperimentSpec.from_toml(spec.to_toml())
        via_json = ExperimentSpec.from_json(spec.to_json())
        assert via_toml == spec and via_json == spec
        reference = Experiment(spec).plan_keys()
        assert Experiment(via_toml).plan_keys() == reference
        assert Experiment(via_json).plan_keys() == reference

    def test_campaign_runs_on_the_inline_population(self):
        spec = ExperimentSpec.from_toml(self.TOML)
        results = Experiment(spec).run()
        points = results.filter(kind="sweep-point")
        assert len(points) == 2                       # 1 vcc x 2 schemes
        assert all(row["traces"] == 2 for row in points)

    def test_custom_profile_keys_differ_from_builtin(self):
        """An inline profile is its own cache identity, not an alias."""
        inline = ExperimentSpec.from_toml(self.TOML)
        plain = ExperimentSpec(name="inline", profiles=("kernel-like",),
                               trace_length=400, vcc_mv=(500.0,),
                               artifacts=())
        assert set(Experiment(plain).plan_keys()) \
            != set(Experiment(inline).plan_keys())

    def test_validation(self):
        with pytest.raises(ConfigError, match="shadows a built-in"):
            ExperimentSpec.from_dict({
                "name": "x", "artifacts": [],
                "population": {"profiles": ["kernel-like"],
                               "custom": {"kernel-like": {}}},
                "grid": {"vcc_mv": [500.0]}})
        with pytest.raises(ConfigError,
                           match="unknown population.custom.p spec keys"):
            ExperimentSpec.from_dict({
                "name": "x", "artifacts": [],
                "population": {"profiles": ["p"],
                               "custom": {"p": {"warp_factor": 2}}},
                "grid": {"vcc_mv": [500.0]}})
        with pytest.raises(ConfigError, match="unknown profile"):
            # Referencing a profile that is neither built-in nor custom.
            ExperimentSpec.from_toml(self.TOML.replace(
                '"hot-loops", ', '"hot-loops", "missing", '))

        with pytest.raises(ConfigError, match="duplicate custom"):
            ExperimentSpec(name="x", profiles=("a",), artifacts=(),
                           vcc_mv=(500.0,),
                           custom_profiles=(TraceProfile(name="a"),
                                            TraceProfile(name="a")))
        with pytest.raises(ConfigError, match="TraceProfile instances"):
            ExperimentSpec(name="x", profiles=(), artifacts=(),
                           vcc_mv=(500.0,), dvfs=(),
                           custom_profiles=({"name": "a"},),
                           montecarlo=None)


class TestStallsArtifact:
    SPEC = ExperimentSpec(name="stalls", profiles=("kernel-like",),
                          trace_length=400, vcc_mv=(575.0,),
                          stalls_vcc_mv=575.0, artifacts=("stalls",))

    def test_rows_match_the_decomposition_of_their_points(self):
        """The row, recomputed here from the five resolved points: each
        column is the IPC the full point loses to the withheld stalls."""
        experiment = Experiment(self.SPEC)
        experiment.run()
        rows = experiment.artifact("stalls")

        def point(**switches):
            return experiment.runner.cached_result(
                experiment.population_job(575.0, "iraw", switches))

        full = point()
        withheld = {
            "total_drop": point(rf_enabled=False, iq_enabled=False,
                                cache_guards_enabled=False,
                                stable_enabled=False),
            "rf_drop": point(rf_enabled=False),
            "dl0_drop": point(stable_enabled=False),
            "other_drop": point(iq_enabled=False,
                                cache_guards_enabled=False),
        }
        expected = {"vcc_mv": 575.0}
        for column, result in withheld.items():
            expected[column] = 1.0 - full.ipc / result.ipc
        expected["iraw_delay_fraction"] = full.mean_iraw_delay_fraction
        assert rows == [expected]
        assert list(rows[0]) == list(expected)

    def test_planned_jobs_cover_the_render(self):
        """run() batches the five ablation points; rendering afterwards
        simulates nothing new."""
        experiment = Experiment(self.SPEC)
        experiment.run()
        simulated = experiment.stats.simulated
        experiment.artifact("stalls")
        assert experiment.stats.simulated == simulated

    def test_stalls_vcc_round_trips(self):
        spec = ExperimentSpec(name="s", profiles=("kernel-like",),
                              vcc_mv=(500.0,), stalls_vcc_mv=450.0,
                              artifacts=("stalls",))
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec
        assert "stalls" in spec.to_dict()

    def test_stalls_artifact_needs_population(self):
        with pytest.raises(ConfigError, match="'stalls'.*no trace"):
            ExperimentSpec(name="x", profiles=(), vcc_mv=(500.0,),
                           artifacts=("stalls",),
                           montecarlo=MonteCarloSpec(dies=1))

    def test_subset_parser_handles_new_sections(self):
        """Specs using [population.custom.*], [montecarlo] and [stalls]
        round-trip through the TOML emitter and ``loads_toml``."""

        spec = ExperimentSpec(
            name="subset", vcc_mv=(500.0,),
            profiles=("hot", "kernel-like"),
            custom_profiles=(TraceProfile(name="hot", load_weight=6.5,
                                          working_set_kb=32),),
            stalls_vcc_mv=450.0,
            montecarlo=MonteCarloSpec(dies=4, arrays=("RF", "DL0")),
            artifacts=("yield_curve",))
        text = spec.to_toml()
        assert loads_toml(text) == spec.to_dict()
        assert ExperimentSpec.from_dict(loads_toml(text)) == spec

    def test_unsafe_custom_profile_names_rejected(self):
        """Names become TOML table headers; a space or dot must fail
        the spec eagerly, never corrupt a saved file."""

        for bad in ("my prof", "a.b", "", "quo\"te"):
            with pytest.raises(ConfigError,
                               match="custom profile name|needs a name|"
                                     "no positive|must use"):
                ExperimentSpec(
                    name="x", profiles=(bad,) if bad else ("k",),
                    vcc_mv=(500.0,), artifacts=(),
                    custom_profiles=(TraceProfile(name=bad),))

    def test_emitter_rejects_unsafe_header_paths(self):
        """Defence in depth: the emitter itself refuses table-header
        components that the reader could not parse back."""
        from repro.experiments.specio import dumps_toml

        with pytest.raises(ConfigError, match="cannot emit TOML key"):
            dumps_toml({"population": {"custom": {"my prof": {"x": 1}}}})

    def test_unreferenced_custom_profile_rejected(self):
        with pytest.raises(ConfigError, match="never referenced"):
            ExperimentSpec(name="x", profiles=("kernel-like",),
                           vcc_mv=(500.0,), artifacts=(),
                           custom_profiles=(TraceProfile(name="hot"),))

    def test_duplicate_grid_levels_deduped_in_spec(self):
        spec = ExperimentSpec(name="dup", profiles=("kernel-like",),
                              vcc_mv=(500.0, 500, 450.0), artifacts=())
        assert spec.vcc_mv == (500.0, 450.0)

    def test_bad_custom_profile_values_raise_config_errors(self):
        base = {"name": "x", "artifacts": [],
                "grid": {"vcc_mv": [500.0]}}
        with pytest.raises(ConfigError, match="must be an integer"):
            ExperimentSpec.from_dict({
                **base,
                "population": {"profiles": ["p"],
                               "custom": {"p": {"working_set_kb": 32.5}}}})
        with pytest.raises(ConfigError, match="bad value"):
            ExperimentSpec.from_dict({
                **base,
                "population": {"profiles": ["p"],
                               "custom": {"p": {"working_set_kb": "big"}}}})

    def test_duplicate_schemes_deduped_in_spec(self):
        spec = ExperimentSpec(name="dup-s", profiles=("kernel-like",),
                              vcc_mv=(500.0,),
                              schemes=("iraw", "iraw", "baseline"),
                              artifacts=())
        assert spec.schemes == ("iraw", "baseline")

    def test_stall_points_appear_in_the_resultset(self):
        """The five decomposition evaluations must not vanish from the
        export (same contract as off-grid table1 points)."""
        spec = ExperimentSpec(name="s-rec", profiles=("kernel-like",),
                              trace_length=400, vcc_mv=(500.0,),
                              stalls_vcc_mv=575.0, artifacts=("stalls",))
        results = Experiment(spec).run()
        at_575 = results.filter(kind="sweep-point", vcc_mv=575.0)
        assert len(at_575) == 5
        variants = {record.variant for record in at_575}
        assert variants == {"", "stalls:all-off", "stalls:no-rf",
                            "stalls:no-stable", "stalls:no-iq-guards"}
        # On-grid stalls vcc: the full IRAW point stays a grid record.
        on_grid = ExperimentSpec(name="s-on", profiles=("kernel-like",),
                                 trace_length=400, vcc_mv=(575.0,),
                                 stalls_vcc_mv=575.0,
                                 artifacts=("stalls",))
        rows = Experiment(on_grid).run().filter(kind="sweep-point",
                                                vcc_mv=575.0)
        assert len(rows) == 2 + 4   # grid pair + four ablation variants


class TestPerDieRecordLimit:
    """The per-die record cutoff: boundary-exact, aggregates untouched."""

    @staticmethod
    def mc_spec(dies: int) -> ExperimentSpec:
        return ExperimentSpec(name="limit", profiles=(),
                              vcc_mv=(500.0,),
                              montecarlo=MonteCarloSpec(dies=dies),
                              artifacts=("yield_curve",))

    def test_the_limit_is_part_of_the_export_contract(self):
        """Consumers size downstream storage around this constant; a
        silent change is a breaking change to the ResultSet shape."""
        assert Experiment._PER_DIE_RECORD_LIMIT == 4096

    def test_boundary_is_inclusive(self, monkeypatch):
        """A campaign of exactly the limit still exports per-die rows;
        one die more drops them (and only them)."""
        monkeypatch.setattr(Experiment, "_PER_DIE_RECORD_LIMIT", 6)
        at_limit = Experiment(self.mc_spec(6)).run()
        assert len(at_limit.filter(kind="mc-die")) == 2 * 6  # per scheme
        assert len(at_limit.filter(kind="mc-yield")) == 2

        over_limit = Experiment(self.mc_spec(7)).run()
        assert len(over_limit.filter(kind="mc-die")) == 0
        assert len(over_limit.filter(kind="mc-yield")) == 2


# ----------------------------------------------------------------------
# The spec-file codec: every table is read and written from its class
# ----------------------------------------------------------------------

REPO = pathlib.Path(__file__).resolve().parents[1]
EXAMPLE_SPECS = sorted((REPO / "examples").glob("*.toml"))
RV32I_FILES = (("loop", "rv32i/loop.bin"), ("memcpy", "rv32i/memcpy.elf"),
               ("sort", "rv32i/sort.bin"), ("mix", "rv32i/mix.bin"))
_VCCS = (400.0, 450.0, 500.0, 550.0, 575.0, 600.0, 650.0, 700.0)
_SCHEMES = ("baseline", "iraw", "logic")


def _perfbench_campaigns():
    """``perfbench/campaigns.py``, which builds the benchmark's specs."""
    module_spec = importlib.util.spec_from_file_location(
        "perfbench_campaigns", REPO / "perfbench" / "campaigns.py")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def assert_round_trips(spec: ExperimentSpec) -> None:
    """``spec`` survives to_dict, TOML and JSON with its plan keys."""
    keys = Experiment(spec).plan_keys()
    for again in (ExperimentSpec.from_dict(spec.to_dict()),
                  ExperimentSpec.from_toml(spec.to_toml()),
                  ExperimentSpec.from_json(spec.to_json())):
        assert again == spec
        assert again.metadata == spec.metadata
        assert Experiment(again).plan_keys() == keys


@st.composite
def custom_profiles(draw, name: str) -> TraceProfile:
    return TraceProfile(
        name=name,
        description=draw(st.text("abc xyz-", max_size=8)),
        load_weight=draw(st.floats(0.5, 8.0)),
        mean_block_size=draw(st.floats(2.0, 12.0)),
        dep_distance_geom_p=draw(st.floats(0.05, 1.0)),
        working_set_kb=draw(st.integers(8, 4096)),
        stream_count=draw(st.integers(1, 16)))


@st.composite
def dvfs_schedules(draw, name: str) -> DvfsScheduleSpec:
    phases = tuple(DvfsPhase(draw(st.sampled_from(_VCCS)),
                             draw(st.integers(50, 400)))
                   for _ in range(draw(st.integers(1, 3))))
    if draw(st.booleans()):
        trace = TraceSpec.synthetic(
            draw(st.sampled_from(sorted(PROFILES_BY_NAME))),
            seed=draw(st.integers(0, 9)),
            length=sum(phase.instructions for phase in phases))
    else:
        trace = TraceSpec.for_kernel(draw(st.sampled_from(("fib", "dot"))),
                                     size=draw(st.integers(4, 40)))
    schemes = draw(st.lists(st.sampled_from(("baseline", "iraw")),
                            min_size=1, unique=True))
    return DvfsScheduleSpec(name=name, trace=trace, phases=phases,
                            schemes=tuple(schemes))


@st.composite
def ablations(draw, name: str) -> AblationSpec:
    switches = draw(st.dictionaries(
        st.sampled_from(("rf_enabled", "iq_enabled", "stable_enabled",
                         "cache_guards_enabled")), st.booleans()))
    if draw(st.booleans()):
        switches["determinism_mode"] = draw(st.sampled_from(
            list(DeterminismMode)))
    return AblationSpec(name=name, overrides=switches,
                        scheme=draw(st.sampled_from(_SCHEMES)))


@st.composite
def montecarlo_specs(draw) -> MonteCarloSpec:
    importance = None
    if draw(st.booleans()):
        importance = ImportanceSpec(
            shift_sigma=draw(st.one_of(st.just("auto"),
                                       st.floats(0.0, 3.0))),
            ess_warn=draw(st.floats(0.0, 0.5)))
    return MonteCarloSpec(
        dies=draw(st.integers(1, 24)), seed=draw(st.integers(0, 5)),
        confidence=draw(st.floats(0.5, 0.99)),
        block=draw(st.one_of(st.none(), st.integers(1, 16))),
        design_sigma=draw(st.floats(4.0, 7.0)),
        arrays=tuple(draw(st.lists(st.sampled_from(
            sorted(array.name for array in silverthorne_arrays())),
            unique=True, max_size=2))),
        importance=importance)


@st.composite
def valid_specs(draw) -> ExperimentSpec:
    """Specs over every table a spec file has, from valid values."""
    custom = [draw(custom_profiles(f"c-{index}"))
              for index in range(draw(st.integers(0, 2)))]
    builtin = draw(st.lists(st.sampled_from(sorted(PROFILES_BY_NAME)),
                            min_size=1, max_size=2, unique=True))
    riscv = [RiscvProgramRef(name, str(REPO / "examples" / path),
                             max_instructions=draw(st.sampled_from(
                                 (50_000, 2_000_000))))
             for name, path in draw(st.lists(st.sampled_from(RV32I_FILES),
                                             max_size=2, unique=True))]
    grid = draw(st.one_of(
        st.lists(st.sampled_from(_VCCS), min_size=1, max_size=3,
                 unique=True).map(lambda vccs: {"vcc_mv": tuple(vccs)}),
        st.sampled_from((100.0, 150.0)).map(lambda s: {"step_mv": s})))
    schedules = tuple(draw(dvfs_schedules(f"dv-{index}"))
                      for index in range(draw(st.integers(0, 1))))
    montecarlo = draw(st.one_of(st.none(), montecarlo_specs()))
    artifacts = ["table1", "fig11b", "fig12", "energy450", "overheads",
                 "stalls"]
    if schedules:
        artifacts.append("dvfs")
    if montecarlo is not None:
        artifacts += ["yield_curve", "vccmin_dist"]
        if montecarlo.importance is not None:
            artifacts.append("deep_tail")
    return ExperimentSpec(
        name=draw(st.sampled_from(("experiment", "drawn", "spec-1"))),
        profiles=tuple(draw(st.permutations(
            builtin + [profile.name for profile in custom]))),
        custom_profiles=tuple(custom),
        riscv=tuple(riscv),
        seeds_per_profile=draw(st.integers(1, 2)),
        trace_length=draw(st.integers(100, 5000)),
        schemes=tuple(draw(st.lists(st.sampled_from(_SCHEMES), min_size=1,
                                    unique=True))),
        table1_vcc_mv=draw(st.sampled_from(_VCCS)),
        table1_techniques=tuple(draw(st.lists(
            st.sampled_from(TABLE1_TECHNIQUES), min_size=1, unique=True))),
        stalls_vcc_mv=draw(st.sampled_from(_VCCS)),
        warm=draw(st.booleans()),
        dram_latency_ns=draw(st.floats(40.0, 120.0)),
        params=draw(st.dictionaries(
            st.sampled_from(("fetch_width", "alloc_width", "issue_window",
                             "mispredict_penalty")),
            st.integers(1, 4))),
        memory=draw(st.dictionaries(
            st.sampled_from(("tlb_miss_penalty", "wcb_entries")),
            st.integers(4, 200))),
        ablations=tuple(draw(ablations(f"ab-{index}"))
                        for index in range(draw(st.integers(0, 2)))),
        dvfs=schedules,
        montecarlo=montecarlo,
        artifacts=tuple(draw(st.lists(st.sampled_from(artifacts),
                                      unique=True))),
        metadata=draw(st.dictionaries(st.sampled_from(("note", "owner")),
                                      st.text("abc", max_size=4))),
        **grid)


def _scalar_locations(data, where=""):
    """(location, path) of every scalar a spec file's tables hold,
    outside the free-form ``[metadata]``."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        if key == "metadata" and not where:
            continue
        if isinstance(key, int):
            location = f"{where}[{key}]"
        else:
            location = f"{where}.{key}" if where else key
        if isinstance(value, (dict, list)):
            for found, path in _scalar_locations(value, location):
                yield found, (key,) + path
        else:
            yield location, (key,)


#: A value of each kind a spec file can hold, to put where another
#: kind belongs.
_WRONG_KINDS = {"string": "bad", "fraction": 0.5, "boolean": True,
                "list": [1], "table": {"x": 1}}


def _kind_of(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, str):
        return "string"
    return "fraction" if isinstance(value, float) else "integer"


class TestSpecCodec:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=valid_specs())
    def test_drawn_specs_round_trip(self, spec):
        assert_round_trips(spec)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=valid_specs(), data=st.data())
    def test_a_scalar_of_the_wrong_kind_fails_at_load(self, spec, data):
        tables = spec.to_dict()
        location, path = data.draw(st.sampled_from(
            list(_scalar_locations(tables))))
        node = tables
        for key in path[:-1]:
            node = node[key]
        kind = data.draw(st.sampled_from(
            [kind for kind in _WRONG_KINDS
             if kind != _kind_of(node[path[-1]])]))
        node[path[-1]] = _WRONG_KINDS[kind]
        with pytest.raises(ConfigError) as rejected:
            ExperimentSpec.from_json(json.dumps(tables))
        assert location in str(rejected.value)

    @pytest.mark.parametrize("path", EXAMPLE_SPECS, ids=lambda p: p.name)
    def test_example_specs_round_trip(self, path):
        assert_round_trips(ExperimentSpec.load(path))

    @pytest.mark.parametrize("workload", ("sim-cold", "pool-cold",
                                          "warm-regen", "mc-tail"))
    def test_benchmark_workload_specs_round_trip(self, workload):
        campaigns = _perfbench_campaigns()
        for seed in range(11):
            assert_round_trips(campaigns.workload_spec(workload, REPO, seed))

    def test_json_keeps_the_riscv_population_order(self):
        spec = ExperimentSpec.load(REPO / "examples/rv32i_campaign.toml")
        again = ExperimentSpec.from_json(spec.to_json())
        assert [ref.name for ref in again.riscv] \
            == ["loop", "memcpy", "sort", "mix"]
        assert Experiment(again).plan_keys() == Experiment(spec).plan_keys()

    def test_a_saved_spec_names_only_what_differs_from_the_defaults(self):
        assert ExperimentSpec().to_dict() == {}
        spec = ExperimentSpec(name="short", trace_length=500, warm=False)
        assert spec.to_dict() == {"name": "short",
                                  "population": {"trace_length": 500},
                                  "sweep": {"warm": False}}

    @pytest.mark.parametrize("tables, location", [
        ({"sweep": {"warm": "false"}}, "sweep.warm"),
        ({"population": {"seeds_per_profile": 1.9}},
         "population.seeds_per_profile"),
        ({"population": {"trace_length": 1500.9}},
         "population.trace_length"),
        ({"montecarlo": {"dies": 64.9}}, "montecarlo.dies"),
        ({"montecarlo": {"block": 3.5}}, "montecarlo.block"),
        ({"population": {"profiles": ["p"],
                         "custom": {"p": {"working_set_kb": 32.5}}}},
         "population.custom.p.working_set_kb"),
        ({"artifacts": ["dvfs"], "dvfs": [{
            "name": "d", "trace": {"profile": "office-like", "length": 100},
            "phases": [{"vcc_mv": 500.0, "instructions": 100.7}]}]},
         "dvfs[0].phases[0].instructions"),
        ({"params": {"fetch_width": "3"}}, "params.fetch_width"),
        ({"grid": {"vcc_mv": 500.0}}, "grid.vcc_mv"),
        ({"params": {"latencies": {"load": 5}}}, "params.latencies"),
        ({"ablations": [{"name": "a", "overrides": {"rf_enable": False}}]},
         "ablations[0].overrides"),
        ({"artifacts": "table1"}, "artifacts"),
        # Well-typed values that describe no machine.
        ({"memory": {"dl0_size": 1000}}, "memory.dl0_size"),
        ({"memory": {"ul1_assoc": 0}}, "memory.ul1_assoc"),
        ({"ablations": [{"name": "a",
                         "overrides": {"stabilization_cycles": 3}}]},
         "ablations[0].overrides.stabilization_cycles"),
        ({"grid": {"vcc_mv": [650.0, 500.0]}, "ablations": [{
            "name": "a", "overrides": {"max_stabilization_cycles": 0}}]},
         "ablations[0].overrides.max_stabilization_cycles = 0 at 500 mV"),
        ({"grid": {"vcc_mv": [650.0, 500.0]}, "params": {"iq_size": 2}},
         "params.iq_size = 2 at 500 mV"),
        ({"memory": {"dram_latency_cycles": 5000}},
         "[sweep] dram_latency_ns"),
        ({"sweep": {"dram_latency_ns": math.nan}}, "sweep.dram_latency_ns"),
        ({"sweep": {"dram_latency_ns": -80.0}}, "sweep.dram_latency_ns"),
        # Buffers and TLBs without an entry.
        ({"memory": {"tlb_entries": 0}}, "memory.tlb_entries"),
        ({"memory": {"data_fill_buffers": 0}}, "memory.data_fill_buffers"),
        ({"memory": {"fetch_fill_buffers": 0}}, "memory.fetch_fill_buffers"),
        ({"memory": {"wcb_entries": 0}}, "memory.wcb_entries"),
    ])
    def test_malformed_values_fail_at_load(self, tables, location):
        with pytest.raises(ConfigError) as rejected:
            ExperimentSpec.from_json(json.dumps(tables))
        assert location in str(rejected.value)

    def test_whole_numbers_read_as_integers_and_any_number_as_float(self):
        spec = ExperimentSpec.from_dict({
            "population": {"trace_length": 1500.0},
            "grid": {"vcc_mv": [500]}})
        assert spec.trace_length == 1500
        assert isinstance(spec.trace_length, int)
        assert spec.vcc_mv == (500.0,)
        with pytest.raises(ConfigError, match="population.trace_length"):
            ExperimentSpec.from_dict({"population": {"trace_length": True}})

    def test_a_dvfs_phase_list_needs_its_phases(self):
        with pytest.raises(ConfigError, match=r"missing spec key dvfs\[0\]"
                                              r"\.phases"):
            ExperimentSpec.from_dict({"dvfs": [{
                "name": "d", "trace": {"profile": "office-like"}}]})


class TestOffGridRecords:
    def test_energy_points_off_the_grid_are_recorded_once(self):
        spec = ExperimentSpec(name="energy", profiles=("kernel-like",),
                              trace_length=300, vcc_mv=(500.0,),
                              artifacts=("fig12", "energy450"))
        experiment = Experiment(spec)
        records = experiment.run()
        assert experiment.stats.simulated == 6
        assert [(r.scheme, r.vcc_mv) for r in records] == [
            ("baseline", 500.0), ("iraw", 500.0), ("baseline", 600.0),
            ("logic", 450.0), ("baseline", 450.0), ("iraw", 450.0)]
