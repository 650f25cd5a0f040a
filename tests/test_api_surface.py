"""Tests for the top-level API surface and remaining loose ends."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.analysis.dvfs import _reindex
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import Opcode


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.20.0"

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


class TestImportWeight:
    def test_api_import_leaves_numpy_random_unloaded(self):
        """Only die sampling imports numpy.random: it costs ~2.4 MiB of
        RSS in every process that never samples a die."""
        env = dict(os.environ)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        probe = ("import sys, repro.api; "
                 "print('numpy.random' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"


class TestDvfsReindex:
    def test_reindex_preserves_everything_but_index(self):
        original = MicroOp(17, Opcode.LD, dest=3, srcs=(4,), imm=8,
                           pc=0x2000, mem_addr=0x4000, golden_result=99)
        clone = _reindex(original, 2)
        assert clone.index == 2
        assert original.index == 17  # untouched
        assert clone.opcode is original.opcode
        assert clone.mem_addr == original.mem_addr
        assert clone.golden_result == 99
        assert clone.is_load


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
