"""Tests for the top-level API surface and remaining loose ends."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.22.0"

    def test_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quick_comparison(self):
        row = repro.quick_comparison(vcc_mv=500.0, trace_length=1200)
        assert row["frequency_gain"] == pytest.approx(0.57, abs=0.03)
        assert 0 < row["performance_gain"] < row["frequency_gain"]


class TestStableApiFacade:
    """repro.api is the supported surface — pin it exactly.

    Adding a name here is an API commitment; removing one requires a
    deprecation cycle (see README "API stability and deprecations").
    """

    EXPECTED = (
        "ARTIFACTS",
        "Artifact",
        "ClockScheme",
        "ConfigError",
        "EngineStats",
        "Experiment",
        "ExperimentSpec",
        "FrequencySolver",
        "ImportanceSpec",
        "MonteCarloSpec",
        "ParallelRunner",
        "Record",
        "ReproError",
        "ResultCache",
        "ResultSet",
        "__version__",
        "artifact",
        "load_spec",
        "run_spec",
        "save_spec",
    )

    def test_all_is_pinned(self):
        from repro import api
        assert tuple(api.__all__) == self.EXPECTED

    def test_exports_resolve(self):
        from repro import api
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_is_the_real_thing(self):
        from repro import api
        from repro.experiments.experiment import Experiment
        from repro.experiments.spec import ExperimentSpec
        from repro.montecarlo.spec import MonteCarloSpec
        assert api.Experiment is Experiment
        assert api.ExperimentSpec is ExperimentSpec
        assert api.MonteCarloSpec is MonteCarloSpec
        assert api.__version__ == repro.__version__

    def test_spec_file_roundtrip(self, tmp_path):
        from repro import api
        spec = api.ExperimentSpec(
            name="facade-roundtrip", profiles=(), artifacts=(),
            vcc_mv=(500.0,),
            montecarlo=api.MonteCarloSpec(dies=4, block=2))
        path = tmp_path / "spec.toml"
        api.save_spec(spec, path)
        assert api.load_spec(path) == spec


def _loaded_after(code: str, modules, cache_dir) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after
    running ``code`` from the repo root, with ``src/`` on its path."""
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    probe = (f"{code}\n"
             f"import sys\n"
             f"print('loaded:', *[m for m in {list(modules)!r}\n"
             f"                   if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            cwd=pathlib.Path(src).parent,
                            capture_output=True, text=True, check=True)
    return result.stdout.splitlines()[-1].split()[1:]


class TestImportWeight:
    """Start-up pays only for what the run uses: NumPy loads only for
    Monte-Carlo campaigns, the serve tier only for its subcommands, the
    pool's ``concurrent.futures`` (with ``logging``) only for pool runs
    and the queue's ``socket`` only for queue workers."""

    def test_api_import_leaves_numpy_unloaded(self, tmp_path):
        assert _loaded_after("import repro.api", ["numpy"], tmp_path) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_montecarlo_run_leaves_numpy_unloaded(self, workers,
                                                      tmp_path):
        code = (
            "from repro.api import Experiment, ExperimentSpec, "
            "ParallelRunner\n"
            "spec = ExperimentSpec(name='tiny', profiles=('specint-like',), "
            "seeds_per_profile=2, trace_length=300, "
            "vcc_mv=(500.0, 600.0), artifacts=('fig11b',))\n"
            f"experiment = Experiment(spec, ParallelRunner(workers={workers}))\n"
            "experiment.run()\n"
            "assert len(experiment.artifact('fig11b')) == 2")
        assert _loaded_after(code, ["numpy"], tmp_path) == []

    def test_serial_run_leaves_pool_and_queue_tiers_unloaded(self,
                                                             tmp_path):
        code = ("from repro.cli import main\n"
                "status = main(['run', 'examples/table1.toml', "
                "'--workers', '1', '--no-cache'])\n"
                "assert status == 0, status")
        tiers = ["numpy", "concurrent.futures", "logging", "socket"]
        assert _loaded_after(code, tiers, tmp_path) == []

    def test_montecarlo_plan_loads_numpy(self, tmp_path):
        """A Monte-Carlo campaign pays for NumPy while planning, before
        its first batch runs."""
        code = ("from repro.api import Experiment, ExperimentSpec, "
                "MonteCarloSpec\n"
                "spec = ExperimentSpec(name='mc', profiles=(), "
                "vcc_mv=(500.0,), artifacts=('yield_curve',), "
                "montecarlo=MonteCarloSpec(dies=4))\n"
                "Experiment(spec).plan()")
        assert _loaded_after(code, ["numpy"], tmp_path) == ["numpy"]

    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["run", "--dry-run", "examples/table1.toml"],
    ])
    def test_cli_leaves_numpy_and_serve_tier_unloaded(self, argv, tmp_path):
        code = ("from repro.cli import main\n"
                "try:\n"
                f"    status = main({argv!r})\n"
                "except SystemExit as exit:\n"
                "    status = exit.code\n"
                "assert status == 0, status")
        loaded = _loaded_after(code, ["numpy", "http.server", "ssl"],
                               tmp_path)
        assert loaded == []


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors
        leaf_errors = [
            errors.ConfigError, errors.CalibrationError,
            errors.VoltageRangeError, errors.TraceError,
            errors.AssemblyError, errors.PipelineError,
            errors.MemoryModelError,
        ]
        for error_type in leaf_errors:
            assert issubclass(error_type, errors.ReproError)

    def test_engine_and_voltage_errors_share_the_contract(self):
        from repro import errors
        from repro.engine import EngineError
        assert EngineError is errors.EngineError
        assert issubclass(EngineError, errors.ReproError)
        assert issubclass(EngineError, RuntimeError)
        assert issubclass(errors.VoltageRangeError, errors.ConfigError)

    def test_library_raises_catchable_base(self):
        from repro.errors import ReproError
        from repro.workloads.kernels import build_kernel
        with pytest.raises(ReproError):
            build_kernel("no-such-kernel")
