"""Declarative experiment jobs, per-trace shards and canonical cache keys.

A :class:`Job` is a frozen, picklable value describing **one** evaluation:
which kind of experiment to run (``sweep-point``, ``faulty-bits``,
``extra-bypass``, ``dvfs-schedule``), at which evaluation point
(Vcc/scheme), on which trace population, with which knobs.  Two jobs that
would simulate the same thing compare equal and share one canonical key,
so the runner deduplicates them and the on-disk cache can serve either.

Keys are built by :func:`job_key`: every field — including nested
dataclasses such as :class:`~repro.pipeline.resources.PipelineParams` or
:class:`~repro.memory.hierarchy.MemoryConfig` — is folded into a stable
JSON token tree and hashed.  Floats are keyed by ``repr`` (exact bits),
enums by their value, dataclasses field-by-field, so the key is stable
across processes and Python runs.

Sharding
--------
Population jobs (the kinds in :data:`SHARDABLE_KINDS`) are never executed
whole: :func:`shard_jobs` splits them into one shard per trace — the same
job with ``population`` replaced by that trace's :class:`TraceSpec` — and
:func:`aggregate_shard_results` reduces the shard results back into the
population-level result.  The unit of execution *and* caching is therefore
a single (trace, Vcc, scheme, config) point: shard keys derive from the
trace spec, so adding a trace to a population re-simulates only the new
trace, and a few-point/many-trace grid keeps every worker busy.

Aggregation contract: shards are listed in population order
(:meth:`TracePopulationSpec.trace_specs`), each shard result carries a
one-trace ``results`` tuple, and the reduction concatenates those tuples
in shard order, so the population result never depends on shard
*completion* order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigError
from repro.workloads.profiles import PROFILES_BY_NAME, TraceProfile
from repro.workloads.riscv import RiscvProgram

#: Job kinds with a registered executor (see :mod:`repro.engine.executors`).
KNOWN_KINDS = (
    "sweep-point",
    "faulty-bits",
    "extra-bypass",
    "dvfs-schedule",
    "mc-block",
    "engine-selftest-crash",
    "engine-selftest-sleep",
)

#: Population kinds that split into per-trace shards (see :func:`shard_jobs`).
SHARDABLE_KINDS = (
    "sweep-point",
    "faulty-bits",
    "extra-bypass",
)


@dataclass(frozen=True)
class TracePopulationSpec:
    """Deterministic recipe for a trace population.

    Workers rebuild each trace from its :meth:`trace_specs` recipe
    instead of shipping trace objects across process boundaries:
    synthetic generation is seeded and riscv programs embed their image
    bytes, so the rebuilt traces are identical to the parent's.
    """

    profiles: tuple[TraceProfile, ...] = ()
    seeds_per_profile: int = 1
    trace_length: int = 12_000
    riscv: tuple[RiscvProgram, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(self.profiles))
        object.__setattr__(self, "riscv", tuple(self.riscv))
        if not self.profiles and not self.riscv:
            raise ConfigError(
                "population needs at least one profile or riscv program")
        if self.seeds_per_profile < 1 or self.trace_length < 1:
            raise ConfigError("population sizing must be positive")

    def trace_specs(self) -> "tuple[TraceSpec, ...]":
        """Per-trace recipes, in population order.

        Synthetic traces come first (profiles x seeds), then the riscv
        programs in declaration order.  Each synthetic generator is
        seeded independently and each riscv program is self-contained,
        so a single trace can be rebuilt without generating the rest of
        the population.  This ordering is the aggregation contract of
        :func:`shard_jobs`.
        """
        synthetic = tuple(
            TraceSpec(source="synthetic", profile=profile, seed=seed,
                      length=self.trace_length)
            for profile in self.profiles
            for seed in range(self.seeds_per_profile))
        programs = tuple(TraceSpec(source="riscv", program=program)
                         for program in self.riscv)
        return synthetic + programs


@dataclass(frozen=True)
class TraceSpec:
    """Recipe for one trace: a synthetic walk, a kernel, or a riscv binary."""

    source: str = "synthetic"           # "synthetic" | "kernel" | "riscv"
    profile: TraceProfile | None = None
    seed: int = 0
    length: int = 6_000
    kernel: str | None = None
    size: int = 32
    program: RiscvProgram | None = None

    def __post_init__(self) -> None:
        if self.source == "synthetic":
            if self.profile is None:
                raise ConfigError("synthetic trace spec needs a profile")
        elif self.source == "kernel":
            if not self.kernel:
                raise ConfigError("kernel trace spec needs a kernel name")
        elif self.source == "riscv":
            if self.program is None:
                raise ConfigError("riscv trace spec needs a program")
        else:
            raise ConfigError(f"unknown trace source {self.source!r}")

    @classmethod
    def synthetic(cls, profile: TraceProfile | str, seed: int = 0,
                  length: int = 6_000) -> "TraceSpec":
        if isinstance(profile, str):
            profile = PROFILES_BY_NAME[profile]
        return cls(source="synthetic", profile=profile, seed=seed,
                   length=length)

    @classmethod
    def for_kernel(cls, kernel: str, size: int = 32) -> "TraceSpec":
        return cls(source="kernel", kernel=kernel, size=size)

    def build(self):
        """Generate the trace (deterministic)."""
        if self.source == "kernel":
            from repro.workloads.kernels import kernel_trace

            trace, _ = kernel_trace(self.kernel, self.size)
            return trace
        if self.source == "riscv":
            from repro.workloads.riscv import run_riscv_program

            return run_riscv_program(self.program)[0]
        from repro.workloads.synthetic import SyntheticTraceGenerator

        generator = SyntheticTraceGenerator(self.profile, seed=self.seed)
        return generator.generate(self.length)

    @property
    def label(self) -> str:
        """Short human-readable identity (matches the built trace's name)."""
        if self.source == "kernel":
            return f"{self.kernel}/n{self.size}"
        if self.source == "riscv":
            return self.program.name
        return f"{self.profile.name}/seed{self.seed}"


@dataclass(frozen=True)
class Job:
    """One declarative evaluation point.

    Attributes
    ----------
    kind:
        Which executor runs this job (see :data:`KNOWN_KINDS`).
    vcc_mv / scheme:
        The evaluation point.  ``scheme`` is the
        :class:`~repro.circuits.frequency.ClockScheme` *value* string so
        the job stays a plain-data value.
    population:
        Trace population recipe for population-style jobs.
    trace:
        Single-trace recipe for schedule-style jobs.
    iraw_overrides:
        Sorted ``(name, value)`` pairs forwarded to
        :meth:`IrawConfig.for_operating_point` (ablation switches).
    options:
        Sorted ``(name, value)`` pairs of kind-specific knobs (``warm``,
        ``dram_latency_ns``, ``params``, ``memory``, baseline flags,
        DVFS schedules...).  Values may be nested frozen dataclasses.
    """

    kind: str
    vcc_mv: float = 0.0
    scheme: str = "baseline"
    population: TracePopulationSpec | None = None
    trace: TraceSpec | None = None
    iraw_overrides: tuple = ()
    options: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_KINDS:
            raise ConfigError(f"unknown job kind {self.kind!r}")
        object.__setattr__(self, "iraw_overrides",
                           _sorted_pairs(self.iraw_overrides))
        object.__setattr__(self, "options", _sorted_pairs(self.options))

    # -- convenience accessors -----------------------------------------

    def option(self, name: str, default=None):
        for key, value in self.options:
            if key == name:
                return value
        return default

    def overrides_dict(self) -> dict:
        return dict(self.iraw_overrides)

    @property
    def label(self) -> str:
        """Short human-readable identity for progress/error messages."""
        bits = [self.kind]
        if self.vcc_mv:
            bits.append(f"{self.scheme}@{self.vcc_mv:g}mV")
        if self.trace is not None:
            bits.append(f"trace={self.trace.label}")
        if self.kind == "mc-block":
            start = self.option("die_start")
            dies = self.option("dies")
            if start is not None and dies is not None:
                bits.append(f"dies={start}..{start + dies - 1}")
        if self.iraw_overrides:
            bits.append(",".join(f"{k}={v}" for k, v in self.iraw_overrides))
        return " ".join(bits)


def _sorted_pairs(pairs) -> tuple:
    """Normalize a dict or pair-iterable into sorted ``(str, value)`` pairs."""
    items = [(str(k), v) for k, v in dict(pairs).items()]
    return tuple(sorted(items, key=lambda kv: kv[0]))


# ----------------------------------------------------------------------
# Per-trace sharding
# ----------------------------------------------------------------------

def shard_jobs(job: Job) -> tuple[Job, ...] | None:
    """Split a population job into per-trace shards (``None`` if atomic).

    Each shard is the parent job with ``population`` replaced by one
    trace's :class:`TraceSpec`, so its canonical key derives from the
    trace recipe and stays stable no matter which population the trace
    appears in.  Jobs that already target a single trace (DVFS schedules,
    shards themselves) and kinds outside :data:`SHARDABLE_KINDS` are
    atomic units of execution.
    """
    if job.kind not in SHARDABLE_KINDS:
        return None
    if job.population is None or job.trace is not None:
        return None
    return tuple(
        dataclasses.replace(job, population=None, trace=spec)
        for spec in job.population.trace_specs())


def aggregate_shard_results(job: Job, shard_results):
    """Reduce per-trace shard results to the population-level result.

    Every shard of a population job returns the population result type
    with a one-trace ``results`` tuple; the reduction concatenates those
    tuples in shard (= population) order and keeps the last shard's
    ``extras`` (Faulty Bits' disabled-line fractions are the same for
    every trace of a point).  The operating ``point`` is recomputed
    identically by every shard, so the first shard's copy is
    authoritative.
    """
    shard_results = list(shard_results)
    if not shard_results:
        raise ConfigError(f"job '{job.label}' produced no shard results")
    merged = tuple(result for shard in shard_results
                   for result in shard.results)
    return dataclasses.replace(shard_results[0], results=merged,
                               extras=shard_results[-1].extras)


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------

def stable_token(value):
    """Fold ``value`` into a JSON-serializable token with stable identity.

    Dataclasses are expanded field-by-field (tagged with their qualified
    name so two different types never collide), enums by value, floats by
    exact ``repr``, bytes by sha256 digest (so a riscv-backed trace spec
    is keyed by its program contents without inflating the token tree).
    Unsupported types raise ``TypeError`` — jobs must be plain data.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        token = {"__type__": f"{type(value).__module__}."
                             f"{type(value).__qualname__}"}
        for field in dataclasses.fields(value):
            token[field.name] = stable_token(getattr(value, field.name))
        return token
    if isinstance(value, Enum):
        return {"__enum__": f"{type(value).__qualname__}.{value.name}",
                "value": stable_token(value.value)}
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return {"__float__": repr(value)}
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes_sha256__": hashlib.sha256(bytes(value)).hexdigest()}
    if isinstance(value, (list, tuple)):
        return [stable_token(item) for item in value]
    if isinstance(value, dict):
        return {"__dict__": sorted(
            (str(k), stable_token(v)) for k, v in value.items())}
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(json.dumps(stable_token(v), sort_keys=True)
                                  for v in value)}
    raise TypeError(
        f"cannot build a stable job key from {type(value).__name__!r}; "
        f"jobs must be plain data (dataclasses, enums, scalars, tuples)")


def job_key(job: Job) -> str:
    """Canonical content hash of a job (hex, stable across processes)."""
    payload = json.dumps(stable_token(job), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
