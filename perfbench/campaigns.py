"""The four benchmark workloads: seeded specs, runner configurations, checks.

Everything the program receives is an :class:`ExperimentSpec` generated
here from a spec seed and written to a spec file; the seed itself never
reaches the program.  Spec seed 0 reproduces the shipped example specs.

A seed changes the inputs, never their size:

* synthetic population traces come from renamed copies of the standard
  profiles (``specint-like-s7``), because the generator seeds each trace
  from the profile name and a per-population index;
* DVFS traces shift their seed by the spec seed;
* Monte-Carlo campaigns use the spec seed as the campaign seed.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

from repro.api import (
    Experiment,
    ExperimentSpec,
    ImportanceSpec,
    MonteCarloSpec,
)
from repro.engine.jobs import job_key, shard_jobs
from repro.experiments.spec import RiscvProgramRef
from repro.workloads.profiles import PROFILES_BY_NAME, STANDARD_PROFILES

WORKLOADS = ("sim-cold", "pool-cold", "warm-regen", "mc-tail")

#: Files of the repository the benchmark reads (relative to its root).
SHIPPED_CAMPAIGN = "examples/lowvcc_campaign.toml"
RV32I_PROGRAMS = (("loop", "examples/rv32i/loop.bin"),
                  ("memcpy", "examples/rv32i/memcpy.elf"),
                  ("sort", "examples/rv32i/sort.bin"),
                  ("mix", "examples/rv32i/mix.bin"))
GOLDEN_SUITE = "tests/test_golden.py"

#: Shard grid of pool-cold and warm-regen: every synthetic profile at
#: three seeds plus the four RV32I programs is 22 distinct traces, more
#: than the 16 each process's trace memo keeps.
GRID_SEEDS_PER_PROFILE = 3
GRID_TRACE_LENGTH = 600
GRID_STEP_MV = 50.0

#: mc-tail: the 100k-die deep-tail run of ``benchmarks/is_scaling.py``
#: over a few Vcc points around 565 mV, for both schemes.  The proposal
#: shift is 1.5 cell sigmas, not that script's 2: at 2 the heavy-tailed
#: weights leave some seeds below the ESS floor (ESS 211 at seed 58),
#: while 1.5 still resolves p ~ 3e-8 at 565 mV and keeps ESS above 4000.
#: The shift does not change the work: the same dies, blocks and points.
MC_DIES = 100_000
MC_BLOCK = 4096
MC_SHIFT_SIGMA = 1.5
MC_VCC_MV = (560.0, 565.0, 570.0)
#: The ESS floor ``is_scaling.py`` enforces.
MC_MIN_ESS = 1000.0

#: sim-cold simulates only five traces, so the traces one seed draws
#: move its host time by about 6% either way.  Its untraced passes cycle
#: through three spec seeds per workload seed instead, so one run's
#: median covers fifteen traces.
INPUT_VARIANTS = {"sim-cold": 3}


def spec_seeds(workload: str, seed: int) -> list[int]:
    """Spec seeds of a run; traced passes use only the first."""
    variants = INPUT_VARIANTS.get(workload, 1)
    return [seed * variants + index for index in range(variants)]


def required_files(root: pathlib.Path) -> list[pathlib.Path]:
    """Repository files the benchmark cannot run without."""
    files = [root / "src" / "repro" / "__init__.py", root / SHIPPED_CAMPAIGN]
    files += [root / path for _, path in RV32I_PROGRAMS]
    files.append(root / GOLDEN_SUITE)
    return files


# ----------------------------------------------------------------------
# Seeded specs
# ----------------------------------------------------------------------

def _seeded_profiles(names, seed: int) -> dict:
    """``profiles``/``custom_profiles`` spec fields for a workload seed."""
    if seed == 0:
        return {"profiles": tuple(names), "custom_profiles": ()}
    custom = tuple(dataclasses.replace(PROFILES_BY_NAME[name],
                                       name=f"{name}-s{seed}")
                   for name in names)
    return {"profiles": tuple(profile.name for profile in custom),
            "custom_profiles": custom}


def _riscv_refs(root: pathlib.Path) -> tuple:
    return tuple(RiscvProgramRef(name, str((root / path).resolve()))
                 for name, path in RV32I_PROGRAMS)


def sim_cold_spec(root: pathlib.Path, seed: int) -> ExperimentSpec:
    """The shipped low-Vcc campaign, its traces re-seeded."""
    spec = ExperimentSpec.load(root / SHIPPED_CAMPAIGN)
    if seed == 0:
        return spec
    dvfs = tuple(
        dataclasses.replace(
            schedule,
            trace=dataclasses.replace(schedule.trace,
                                      seed=schedule.trace.seed + seed))
        for schedule in spec.dvfs)
    return dataclasses.replace(spec, dvfs=dvfs,
                               **_seeded_profiles(spec.profiles, seed))


def shard_grid_spec(root: pathlib.Path, seed: int) -> ExperimentSpec:
    """Many short shards: six profiles x three seeds + four RV32I
    programs over the 700->400 mV grid, both schemes, plus Table 1."""
    return ExperimentSpec(
        name="shard-grid",
        seeds_per_profile=GRID_SEEDS_PER_PROFILE,
        trace_length=GRID_TRACE_LENGTH,
        step_mv=GRID_STEP_MV,
        table1_vcc_mv=500.0,
        riscv=_riscv_refs(root),
        artifacts=("table1", "fig11b"),
        **_seeded_profiles([p.name for p in STANDARD_PROFILES], seed))


def mc_tail_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name="mc-tail",
        profiles=(),
        vcc_mv=MC_VCC_MV,
        montecarlo=MonteCarloSpec(
            dies=MC_DIES, seed=seed, block=MC_BLOCK,
            # The benchmark enforces the ESS floor itself.
            importance=ImportanceSpec(shift_sigma=MC_SHIFT_SIGMA,
                                      ess_warn=0.0)),
        artifacts=("deep_tail",))


def workload_spec(workload: str, root: pathlib.Path,
                  seed: int) -> ExperimentSpec:
    if workload == "sim-cold":
        return sim_cold_spec(root, seed)
    if workload in ("pool-cold", "warm-regen"):
        return shard_grid_spec(root, seed)
    if workload == "mc-tail":
        return mc_tail_spec(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Runner configurations
# ----------------------------------------------------------------------

def pool_workers(cpus: int) -> int:
    """Two pool workers, never more than the machine's CPUs."""
    return max(1, min(2, cpus))


def backend_of(workload: str) -> str:
    return "pool" if workload == "pool-cold" else "serial"


def uses_disk_cache(workload: str) -> bool:
    return workload != "mc-tail"


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

class Checks:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)

    def merge(self, outcome: dict) -> None:
        """Fold in another process's :meth:`as_dict`."""
        self.attempted += outcome["attempted"]
        self.failed += outcome["failed"]
        self.messages.extend(outcome["messages"][:10 - len(self.messages)])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "messages": self.messages}


def executable_units(jobs) -> dict:
    """Every unique shard or atomic job of a batch, by canonical key."""
    units = {}
    for job in jobs:
        shards = shard_jobs(job)
        for unit in (shards if shards is not None else (job,)):
            units.setdefault(job_key(unit), unit)
    return units


def expected_instructions(trace_spec, memo: dict) -> int:
    """The instruction count of a trace, built outside any timed span."""
    if trace_spec.source == "synthetic":
        return trace_spec.length
    if trace_spec not in memo:
        memo[trace_spec] = len(trace_spec.build().ops)
    return memo[trace_spec]


def check_batch(runner, jobs, checks: Checks) -> int:
    """Check that every unit resolved and retired its whole trace.

    Returns the retired simulated instructions the batch's results
    cover (each unique shard or schedule counted once).
    """
    lengths: dict = {}
    instructions = 0
    for unit in executable_units(jobs).values():
        result = runner.cached_result(unit)
        checks.check(result is not None, f"{unit.label} did not resolve")
        if result is None or unit.trace is None:
            continue
        expected = expected_instructions(unit.trace, lengths)
        if unit.kind == "dvfs-schedule":
            retired = result.instructions
        else:
            retired = sum(sim.instructions for sim in result.results)
        checks.check(retired == expected,
                     f"{unit.label} retired {retired} of {expected} "
                     f"instructions")
        instructions += retired
    return instructions


def check_ess(rows, checks: Checks) -> float:
    """The deep-tail ESS floor; returns the smallest ESS fraction."""
    for row in rows:
        checks.check(row["ess"] >= MC_MIN_ESS,
                     f"ESS {row['ess']:.1f} below {MC_MIN_ESS:g} at "
                     f"{row['scheme']}@{row['vcc_mv']:g}mV")
    return min(row["ess"] / row["dies"] for row in rows)


def canonical_rows(experiment: Experiment, artifacts: dict) -> str:
    """Records and rendered artifacts as exact JSON text."""
    return json.dumps({"records": experiment.results.rows(),
                       "artifacts": artifacts},
                      sort_keys=True, default=str)


# ----------------------------------------------------------------------
# Goldens (computed by the repository's own golden suite)
# ----------------------------------------------------------------------

def golden_suite(root: pathlib.Path):
    """``tests/test_golden.py`` as a module: its golden campaigns, their
    ``compute_*`` functions and ``assert_matches_golden``."""
    sys.path.append(str((root / GOLDEN_SUITE).parent))
    import test_golden

    return test_golden


def compute_goldens(suite, runner) -> dict:
    """Golden name -> value computed through ``runner``: the set the
    suite's ``--regen`` writes to ``tests/goldens/``."""
    computed = dict(suite.compute_artifacts(runner))
    computed["yield_curve_500mv"] = suite.compute_yield_curve(runner)
    computed["deep_tail_500mv"] = suite.compute_deep_tail(runner)
    computed["riscv_table1"] = suite.compute_riscv_artifacts(runner)["table1"]
    return computed


def check_goldens(suite, computed: dict, checks: Checks) -> None:
    for name, actual in computed.items():
        try:
            suite.assert_matches_golden(actual, suite.load_golden(name),
                                        name)
        except (AssertionError, OSError) as exc:
            checks.check(False, f"golden {name} differs: {exc}")
        else:
            checks.check(True, "")
