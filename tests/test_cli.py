"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out
        assert repro.__version__ == "1.25.0"


class TestRunSpec:
    @staticmethod
    def write_spec(tmp_path, **overrides):
        from repro.experiments import ExperimentSpec

        defaults = dict(name="cli-spec", profiles=("kernel-like",),
                        trace_length=400, vcc_mv=(500.0,),
                        artifacts=("table1", "fig11b"))
        defaults.update(overrides)
        path = tmp_path / "spec.toml"
        ExperimentSpec(**defaults).save(path)
        return path

    def test_run_renders_spec_artifacts(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        assert main(["run", str(path), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Figure 11(b)" in out
        assert "trace shards simulated" in out

    def test_run_artifact_selection_and_exports(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        csv_path = tmp_path / "records.csv"
        json_path = tmp_path / "records.json"
        assert main(["run", str(path), "--no-cache",
                     "--artifact", "fig11b",
                     "--export-csv", str(csv_path),
                     "--export-json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 11(b)" in out and "Table 1" not in out
        assert csv_path.read_text().startswith("kind,scheme,vcc_mv")
        import json as json_module

        rows = json_module.loads(json_path.read_text())
        assert {row["scheme"] for row in rows} == {"baseline", "iraw"}

    def test_dry_run_simulates_nothing(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        assert main(["run", str(path), "--no-cache", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "jobs:" in out and "artifacts:   table1, fig11b" in out
        assert "simulated" not in out

    def test_dry_run_json_emits_the_plan_summary(self, tmp_path, capsys):
        """--dry-run --json prints the same machine-readable plan the
        service's dry_run endpoint returns."""
        import json as json_module

        path = self.write_spec(tmp_path)
        assert main(["run", str(path), "--no-cache",
                     "--dry-run", "--json"]) == 0
        summary = json_module.loads(capsys.readouterr().out)
        assert summary["name"] == "cli-spec"
        assert summary["artifacts"] == ["table1", "fig11b"]
        assert summary["planned_jobs"] == len(summary["jobs"]) > 0
        assert summary["unique_jobs"] <= summary["planned_jobs"]
        first = summary["jobs"][0]
        assert {"kind", "key", "label", "origin", "scheme",
                "vcc_mv"} <= set(first)
        assert first["origin"].startswith(("population[", "profile:",
                                           "riscv:", "model"))

    def test_json_without_dry_run_exits_2(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        assert main(["run", str(path), "--json"]) == 2
        assert "--json needs --dry-run" in capsys.readouterr().err

    def test_dry_run_lists_trace_origins(self, tmp_path, capsys):
        """--dry-run names every planned trace and where it comes from:
        synthetic profile or riscv program path."""
        import rv32i_programs
        from repro.experiments import RiscvProgramRef

        binary = tmp_path / "loop.bin"
        binary.write_bytes(rv32i_programs.build_loop())
        path = self.write_spec(
            tmp_path, seeds_per_profile=2,
            riscv=(RiscvProgramRef("loop", str(binary)),))
        assert main(["run", str(path), "--no-cache", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "+ 1 riscv program" in out
        assert "kernel-like/seed0  (synthetic profile 'kernel-like')" in out
        assert "kernel-like/seed1  (synthetic profile 'kernel-like')" in out
        assert f"loop  (riscv program {binary})" in out

    def test_bad_spec_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.toml"
        path.write_text('artifacts = ["table2"]\n')
        assert main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '[population]\nprofiles = ["kernel-like"]\n[sweep]\nwarm = "false"\n',
        '[population]\nprofiles = ["kernel-like"]\n[params]\nfetch_width = "3"\n',
        '[population]\nprofiles = ["kernel-like"]\n[[ablations]]\n'
        'name = "a"\n[ablations.overrides]\nrf_enable = false\n',
        # Well-typed values that describe no machine.
        '[population]\nprofiles = ["kernel-like"]\n[memory]\n'
        'dl0_size = 1000\n',
        '[population]\nprofiles = ["kernel-like"]\n[[ablations]]\n'
        'name = "a"\n[ablations.overrides]\nstabilization_cycles = 3\n',
        '[population]\nprofiles = ["kernel-like"]\n[sweep]\n'
        'dram_latency_ns = nan\n',
        '[population]\nprofiles = ["kernel-like"]\n[sweep]\n'
        'dram_latency_ns = -80.0\n',
        # Buffers and TLBs without an entry.
        '[population]\nprofiles = ["kernel-like"]\n[memory]\n'
        'tlb_entries = 0\n',
        '[population]\nprofiles = ["kernel-like"]\n[memory]\n'
        'data_fill_buffers = 0\n',
        '[population]\nprofiles = ["kernel-like"]\n[memory]\n'
        'fetch_fill_buffers = 0\n',
        '[population]\nprofiles = ["kernel-like"]\n[memory]\n'
        'wcb_entries = 0\n',
    ])
    def test_malformed_value_exits_2_before_anything_runs(self, tmp_path,
                                                          capsys, text):
        path = tmp_path / "malformed.toml"
        path.write_text(text)
        for extra in ([], ["--dry-run"]):
            assert main(["run", str(path), "--no-cache", *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
            if "[memory]" in text:
                key = text.split("[memory]\n")[1].split(" =")[0]
                assert f"memory.{key}" in captured.err

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.toml")]) == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_example_specs_load(self, capsys):
        """The checked-in example spec files stay valid (dry-run only)."""
        assert main(["run", "examples/table1.toml", "--dry-run"]) == 0
        assert main(["run", "examples/lowvcc_campaign.toml",
                     "--dry-run"]) == 0
        assert main(["run", "examples/yield_campaign.toml",
                     "--dry-run"]) == 0
        assert main(["run", "examples/rv32i_campaign.toml",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "experiment:  table1" in out
        assert "experiment:  lowvcc-campaign" in out
        assert "experiment:  yield-campaign" in out
        assert "montecarlo:" in out
        assert "experiment:  rv32i-campaign" in out
        assert "+ 4 riscv programs" in out
        assert "(riscv program" in out


class TestMonteCarloCli:
    @staticmethod
    def write_mc_spec(tmp_path, dies=4):
        from repro.experiments import ExperimentSpec
        from repro.montecarlo import MonteCarloSpec

        path = tmp_path / "mc.toml"
        ExperimentSpec(name="cli-mc-spec", profiles=(),
                       vcc_mv=(500.0,),
                       montecarlo=MonteCarloSpec(dies=dies, seed=1),
                       artifacts=("yield_curve", "vccmin_dist"),
                       ).save(path)
        return path

    def test_mc_renders_yield_and_vccmin(self, capsys):
        assert main(["mc", "--dies", "4", "--vcc", "500",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Yield vs Vcc" in out
        assert "Vccmin distribution" in out
        assert "functional_yield" in out

    def test_mc_export_and_validation(self, tmp_path, capsys):
        csv_path = tmp_path / "mc.csv"
        assert main(["mc", "--dies", "3", "--vcc", "500", "450",
                     "--no-cache", "--export-csv", str(csv_path)]) == 0
        assert csv_path.read_text().startswith("kind,scheme,vcc_mv")
        capsys.readouterr()
        assert main(["mc", "--dies", "0"]) == 2
        assert "montecarlo needs at least one die (got 0)" \
            in capsys.readouterr().err
        assert main(["mc", "--confidence", "2.0"]) == 2
        assert "montecarlo confidence must be in (0, 1), got 2.0" \
            in capsys.readouterr().err

    def test_run_samples_override(self, tmp_path, capsys):
        path = self.write_mc_spec(tmp_path, dies=16)
        assert main(["run", str(path), "--dry-run", "--dies", "2",
                     "--confidence", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "montecarlo:  2 dies (seed 1, 0.5 confidence)" in out

    def test_run_samples_without_mc_section_exits_2(self, tmp_path,
                                                    capsys):
        from repro.experiments import ExperimentSpec

        path = tmp_path / "plain.toml"
        ExperimentSpec(name="plain", profiles=("kernel-like",),
                       trace_length=400, vcc_mv=(500.0,),
                       artifacts=()).save(path)
        assert main(["run", str(path), "--dies", "4"]) == 2
        assert "[montecarlo]" in capsys.readouterr().err

    def test_block_size_never_shows_in_the_export(self, tmp_path, capsys):
        """No ``--block``, one die per block, a ragged partition and one
        block of every die all export byte-identical CSVs."""
        exports = {}
        for block in (None, 1, 3, 8):
            path = tmp_path / f"block-{block}.csv"
            argv = ["mc", "--dies", "8", "--vcc", "500", "--no-cache",
                    "--export-csv", str(path)]
            if block is not None:
                argv += ["--block", str(block)]
            assert main(argv) == 0
            exports[block] = path.read_bytes()
        capsys.readouterr()
        assert exports[None].startswith(b"kind,scheme,vcc_mv")
        assert len(set(exports.values())) == 1

    def test_run_rejects_block_zero(self, capsys):
        assert main(["run", "examples/yield_campaign.toml",
                     "--block", "0"]) == 2
        assert "block must be >= 1" in capsys.readouterr().err


class TestCachePruneDryRun:
    @staticmethod
    def seeded_cache(tmp_path, monkeypatch, max_bytes):
        from repro.engine import ResultCache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", str(max_bytes))
        cache = ResultCache(root=tmp_path)  # unbounded writer
        for index in range(4):
            cache.put(f"key{index}", b"x" * 64)
        return cache

    def test_dry_run_reports_without_deleting(self, tmp_path,
                                              monkeypatch, capsys):
        cache = self.seeded_cache(tmp_path, monkeypatch, max_bytes=150)
        before = cache.entry_count()
        assert before == 4
        assert main(["cache", "--prune", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would evict" in out
        assert cache.entry_count() == before          # nothing deleted
        # The reported plan matches what a real prune then deletes.
        assert main(["cache", "--prune"]) == 0
        pruned = capsys.readouterr().out
        assert "evicted" in pruned
        assert cache.entry_count() < before

    def test_dry_run_reports_stale_versions(self, tmp_path, monkeypatch,
                                            capsys):
        self.seeded_cache(tmp_path, monkeypatch, max_bytes=10**6)
        stale = tmp_path / "v0-0123456789abcdef"
        stale.mkdir()
        (stale / "old.pkl").write_bytes(b"stale")
        assert main(["cache", "--prune", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would prune stale version v0-0123456789abcdef" in out
        assert stale.exists()                         # untouched

    def test_dry_run_requires_prune(self, capsys):
        assert main(["cache", "--dry-run"]) == 2
        assert "--dry-run" in capsys.readouterr().err
        assert main(["cache", "--prune", "--clear", "--dry-run"]) == 2


class TestQueueCommand:
    def test_queue_reports_spool_state(self, tmp_path, capsys):
        assert main(["queue", "--queue", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "spool root:" in out and "pending:" in out
        assert "stale versions: 0" in out

    def test_queue_json_reports_per_version_depth_and_age(self, tmp_path,
                                                          capsys):
        import json as json_module
        import time

        from repro.engine.cache import version_tag

        pending = tmp_path / version_tag() / "pending"
        pending.mkdir(parents=True)
        (pending / "a.job").write_bytes(b"x")
        old = time.time() - 30.0
        import os

        os.utime(pending / "a.job", (old, old))
        stale = tmp_path / "v1-deadbeef00000000" / "done"
        stale.mkdir(parents=True)
        (stale / "r.pkl").write_bytes(b"x")
        assert main(["queue", "--queue", str(tmp_path), "--json"]) == 0
        status = json_module.loads(capsys.readouterr().out)
        assert status["root"] == str(tmp_path)
        assert status["current_version"] == version_tag()
        by_version = {entry["version"]: entry
                      for entry in status["versions"]}
        current = by_version[version_tag()]
        assert current["current"] is True
        assert current["pending"] == 1
        assert current["oldest_pending_age_s"] >= 25.0
        assert by_version["v1-deadbeef00000000"]["done"] == 1
        assert by_version["v1-deadbeef00000000"]["current"] is False

    def test_queue_human_output_names_oldest_pending_age(self, tmp_path,
                                                         capsys):
        from repro.engine.cache import version_tag

        pending = tmp_path / version_tag() / "pending"
        pending.mkdir(parents=True)
        (pending / "a.job").write_bytes(b"x")
        assert main(["queue", "--queue", str(tmp_path)]) == 0
        assert "oldest pending:" in capsys.readouterr().out

    def test_queue_gc_removes_stale_versions(self, tmp_path, capsys):
        from repro.engine.cache import version_tag

        stale = tmp_path / "v1-deadbeef00000000" / "pending"
        stale.mkdir(parents=True)
        (stale / "a.job").write_bytes(b"x")
        (stale / "b.job").write_bytes(b"x")
        current = tmp_path / version_tag() / "pending"
        current.mkdir(parents=True)
        (current / "keep.job").write_bytes(b"x")
        assert main(["queue", "--queue", str(tmp_path), "--gc"]) == 0
        out = capsys.readouterr().out
        assert "v1-deadbeef00000000 (2 file(s))" in out
        assert "garbage-collected 1 stale spool version(s)" in out
        assert not (tmp_path / "v1-deadbeef00000000").exists()
        assert (current / "keep.job").exists()  # current version untouched

    def test_worker_gc_shares_the_collector(self, tmp_path, capsys):
        stale = tmp_path / "v0-cafe000000000000"
        stale.mkdir()
        (stale / "x.pkl").write_bytes(b"x")
        assert main(["worker", "--queue", str(tmp_path), "--gc"]) == 0
        out = capsys.readouterr().out
        assert "garbage-collected 1 stale spool version(s)" in out
        assert not stale.exists()

    def test_gc_of_a_missing_root_exits_2_and_creates_nothing(self,
                                                              tmp_path,
                                                              capsys):
        missing = tmp_path / "typo"
        for command in ("queue", "worker"):
            assert main([command, "--queue", str(missing), "--gc"]) == 2
            assert "does not exist" in capsys.readouterr().err
            assert not missing.exists()

    def test_queue_without_root_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_DIR", raising=False)
        assert main(["queue"]) == 2
        assert "spool directory" in capsys.readouterr().err

    def test_gc_never_touches_non_version_directories(self, tmp_path,
                                                      capsys):
        """Only exact version-tag names are ours to delete: an
        operator's venv/ (or any v*-named dir) beside the spool must
        survive a --gc."""
        for name in ("venv", "vendor", "v1-short", "v1-NOTHEXFINGERPRN",
                     "vault-2026"):
            bystander = tmp_path / name
            bystander.mkdir()
            (bystander / "precious.txt").write_text("keep me")
        stale = tmp_path / "v7-00000000deadbeef"
        stale.mkdir()
        (stale / "x.job").write_bytes(b"x")
        assert main(["queue", "--queue", str(tmp_path), "--gc"]) == 0
        out = capsys.readouterr().out
        assert "garbage-collected 1 stale spool version(s)" in out
        assert not stale.exists()
        for name in ("venv", "vendor", "v1-short", "v1-NOTHEXFINGERPRN",
                     "vault-2026"):
            assert (tmp_path / name / "precious.txt").exists()

    def test_queue_status_is_read_only(self, tmp_path, capsys):
        """Inspecting a spool must not create the spool tree, and a
        missing root is a clean error, not a freshly created one."""
        missing = tmp_path / "typo"
        assert main(["queue", "--queue", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()
        empty = tmp_path / "real"
        empty.mkdir()
        assert main(["queue", "--queue", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "no spool written yet" in out
        assert list(empty.iterdir()) == []  # nothing created


class TestFigures:
    def test_circuit_figures(self, capsys):
        assert main(["figures", "--artifact", "circuit", "--step", "50"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Figure 11(a)" in out

    def test_single_artifact(self, capsys):
        assert main(["figures", "--artifact", "fig1", "--step", "100"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Figure 11" not in out


class TestSimulate:
    def test_kernel_run(self, capsys):
        code = main(["simulate", "--kernel", "fib", "--size", "12",
                     "--vcc", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC:" in out
        assert "golden-value mismatches: 0" in out
        assert "violations:   0" in out

    def test_profile_run(self, capsys):
        code = main(["simulate", "--profile", "kernel-like",
                     "--length", "1500", "--vcc", "450", "--cold"])
        assert code == 0
        out = capsys.readouterr().out
        assert "450 mV" in out

    def test_baseline_scheme(self, capsys):
        code = main(["simulate", "--kernel", "dot", "--size", "8",
                     "--scheme", "baseline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "N=0" in out

    @pytest.mark.parametrize("vcc", ["450", "650"])
    @pytest.mark.parametrize("scheme", ["logic", "baseline", "iraw"])
    def test_runs_the_sweep_shards_machine(self, capsys, vcc, scheme):
        from repro.engine.executors import execute_job
        from repro.engine.jobs import Job, TraceSpec

        shard = execute_job(Job(
            kind="sweep-point", vcc_mv=float(vcc), scheme=scheme,
            trace=TraceSpec.synthetic("specint-like", seed=3, length=2000)))
        assert main(["simulate", "--profile", "specint-like", "--length",
                     "2000", "--seed", "3", "--vcc", vcc,
                     "--scheme", scheme]) == 0
        cycles = shard.results[0].cycles
        assert f"cycles:       {cycles}\n" in capsys.readouterr().out


class TestTraceCommand:
    def test_generate_and_rerun(self, tmp_path, capsys):
        out_file = tmp_path / "t.jsonl"
        assert main(["trace", "--profile", "office-like",
                     "--length", "600", "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert main(["simulate", "--trace-file", str(out_file),
                     "--vcc", "500"]) == 0
        out = capsys.readouterr().out
        assert "600 instructions" in out


class TestInfoCommands:
    def test_kernels_listing(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "pointer_chase" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "Calibration anchors" in out
        assert "crossover" in out

    def test_compare_small(self, capsys, tmp_path, monkeypatch):
        # The cached path, against a private cache directory.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["compare", "--vcc", "500", "--length", "1200"]) == 0
        out = capsys.readouterr().out
        assert "frequency_gain" in out
        assert list(tmp_path.glob("v*/*.pkl"))

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestBackendSelection:
    def test_compare_with_explicit_serial_backend(self, capsys):
        assert main(["compare", "--vcc", "500", "--length", "1200",
                     "--backend", "serial", "--no-cache"]) == 0
        assert "frequency_gain" in capsys.readouterr().out

    def test_compare_through_queue_backend(self, tmp_path, capsys):
        """The full CLI wire path: spool, detached-style worker, collect."""
        import threading

        from repro.engine import SpoolBroker, run_worker_loop

        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker_loop,
            kwargs=dict(broker=SpoolBroker(tmp_path), stop=stop,
                        poll_interval=0.02),
            daemon=True)
        worker.start()
        try:
            assert main(["compare", "--vcc", "500", "--length", "1200",
                         "--backend", "queue", "--queue", str(tmp_path),
                         "--no-cache"]) == 0
        finally:
            stop.set()
            worker.join()
        assert "frequency_gain" in capsys.readouterr().out


class TestMcArgumentValidation:
    def test_bad_step_and_vcc_exit_2(self, capsys):
        from repro.cli import main

        assert main(["mc", "--step", "0"]) == 2
        assert "step_mv must be positive, got 0.0" in capsys.readouterr().err
        assert main(["mc", "--step", "-5"]) == 2
        capsys.readouterr()
        assert main(["mc", "--vcc", "300"]) == 2
        assert "modeled" in capsys.readouterr().err
        assert main(["mc", "--vcc", "800", "500"]) == 2

    def test_duplicate_vcc_levels_deduped(self, capsys):
        from repro.cli import main

        assert main(["mc", "--dies", "2", "--vcc", "500", "500",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.count("500    | baseline") == 1


class TestOutOfRangeInput:
    """Every front end rejects a Vcc outside 400-700 mV, or a
    non-positive sweep step, with one ``error:`` line and exit 2."""

    @pytest.mark.parametrize("argv", [
        ["compare", "--vcc", "900"],
        ["figures", "--step", "0"],
        ["simulate", "--kernel", "fib", "--vcc", "900"],
    ])
    def test_front_end_exits_2_with_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_run_rejects_an_out_of_range_spec(self, tmp_path, capsys):
        path = tmp_path / "hot.toml"
        path.write_text('name = "hot"\n[grid]\nvcc_mv = [900.0]\n')
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Vcc=900.0 mV outside modeled range")
        assert err.count("\n") == 1
