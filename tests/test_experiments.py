"""Tests for the declarative experiment API (specs, driver, results)."""

import json

import pytest

from repro.analysis.dvfs import DvfsPhase
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
from repro.experiments.specio import dumps_toml, loads_toml

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
        with pytest.raises(ConfigError, match="unknown experiment"):
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
                              memory={"dram_latency_cycles": 9})
        assert spec.pipeline_params().fetch_width == 1
        assert spec.memory_config().dram_latency_cycles == 9


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
            experiment.sweep

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
        with pytest.raises(ConfigError, match="unknown fields"):
            ExperimentSpec.from_dict({
                "name": "x", "artifacts": [],
                "population": {"profiles": ["p"],
                               "custom": {"p": {"warp_factor": 2}}},
                "grid": {"vcc_mv": [500.0]}})
        with pytest.raises(ConfigError, match="unknown profile"):
            # Referencing a profile that is neither built-in nor custom.
            ExperimentSpec.from_toml(self.TOML.replace(
                '"hot-loops", ', '"hot-loops", "missing", '))
        from repro.workloads.profiles import TraceProfile

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

    def test_rows_match_the_legacy_decomposition(self):
        from repro.analysis.sweep import VccSweep

        experiment = Experiment(self.SPEC)
        experiment.run()
        rows = experiment.artifact("stalls")
        sweep = VccSweep(self.SPEC.sweep_settings(),
                         runner=experiment.runner)
        assert rows == [sweep.stall_decomposition(575.0)]
        assert rows[0]["vcc_mv"] == 575.0
        assert set(rows[0]) >= {"total_drop", "rf_drop", "dl0_drop",
                                "other_drop"}

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
        from repro.montecarlo import MonteCarloSpec

        with pytest.raises(ConfigError, match="'stalls'.*no trace"):
            ExperimentSpec(name="x", profiles=(), vcc_mv=(500.0,),
                           artifacts=("stalls",),
                           montecarlo=MonteCarloSpec(dies=1))

    def test_subset_parser_handles_new_sections(self):
        """Specs using [population.custom.*], [montecarlo] and [stalls]
        round-trip through the TOML emitter and ``loads_toml``."""
        from repro.montecarlo import MonteCarloSpec
        from repro.workloads.profiles import TraceProfile

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
        from repro.workloads.profiles import TraceProfile

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
        from repro.workloads.profiles import TraceProfile

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
        from repro.montecarlo import MonteCarloSpec

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
