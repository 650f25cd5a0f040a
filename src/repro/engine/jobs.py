"""Declarative experiment jobs, per-trace shards and canonical cache keys.

A :class:`Job` is a frozen, picklable value describing **one** evaluation:
which kind of experiment to run (``sweep-point``, ``faulty-bits``,
``extra-bypass``, ``dvfs-schedule``), at which evaluation point
(Vcc/scheme), on which trace population, with which knobs.  Two jobs that
would simulate the same thing compare equal and share one canonical key,
so the runner deduplicates them and the on-disk cache can serve either.

Keys are built by :func:`job_key`: every field — including nested
dataclasses such as :class:`~repro.pipeline.resources.PipelineParams` or
:class:`~repro.memory.hierarchy.MemoryConfig` — is written as canonical
JSON text and hashed.  Floats are keyed by ``repr`` (exact bits), enums
by their value, dataclasses field-by-field, so the key is stable across
processes and Python runs.  The frozen values every job of a campaign
shares are written once per process (see :data:`_TEXTS_MAX`).

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
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from typing import Annotated

from repro.errors import ConfigError
from repro.specfields import ByName
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
    #: Named by the profile's name in a spec file's ``[dvfs.trace]``.
    profile: Annotated[TraceProfile | None,
                       ByName(PROFILES_BY_NAME)] = None
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
        # A ClockScheme member equals its value string, so it must key
        # as that string too.
        object.__setattr__(self, "scheme",
                           getattr(self.scheme, "value", self.scheme))
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

#: Bound of the per-process memo of written frozen values.  The jobs a
#: campaign plans share one ``PipelineParams``, ``MemoryConfig``,
#: ``DelayModel`` and profile or program object per trace, most of each
#: key's text, so a small memo serves most lookups.
_TEXTS_MAX = 64

#: ``id(value) -> (value, text)``, least recently used first.  An entry
#: holds its value, so the id cannot be reused while the entry lives.
#: The text is only right while the value is unchanged: job values are
#: never mutated once a job is built (README, "The experiment engine").
_TEXTS: OrderedDict = OrderedDict()

#: The service keys jobs on handler and collector threads at once.
#: Values are written outside the lock (a nested value takes it again).
_TEXTS_LOCK = threading.Lock()


class _CanonicalWriter:
    """Writes the canonical JSON text of job values.

    Each value has one spelling: a dataclass is an object of its fields
    plus ``"__type__"`` (module and qualified name); an enum is
    ``{"__enum__": "Type.NAME", "value": ...}``; a float is
    ``{"__float__": repr}`` (exact bits); bytes are
    ``{"__bytes_sha256__": hexdigest}``, so a riscv-backed trace spec is
    keyed by its program contents; lists and tuples are arrays; a dict
    is ``{"__dict__": [[str(key), value], ...]}`` and a set is
    ``{"__set__": [...]}`` of its members' texts, both sorted.  Objects
    have sorted keys and strings are ASCII-escaped by json's C escaper.
    The text equals ``json.dumps(token, sort_keys=True,
    separators=...)`` of the token tree ``tests/key_oracle.py`` builds.

    ``writers`` maps every type met so far to the function that writes
    it, so dispatch is one dict lookup and each dataclass type's tag and
    sorted field names are worked out once.  With ``memo`` set, frozen
    dataclass values are written once while they stay in the memo.
    Jobs are not memoized: each is keyed about once, and whole-job
    texts would only crowd the shared values out.
    """

    def __init__(self, item_sep: str, key_sep: str, memo: bool):
        self.item_sep = item_sep
        self.key_sep = key_sep
        self.memo = memo
        self.writers = {
            type(None): lambda value: "null",
            bool: lambda value: "true" if value else "false",
            int: int.__repr__,
            str: _quote,
            float: self.write_float,
            tuple: self.write_sequence,
            list: self.write_sequence,
        }

    def write(self, value) -> str:
        writer = self.writers.get(type(value))
        if writer is None:
            writer = self.writers[type(value)] = self._writer_for(type(value))
        return writer(value)

    def write_float(self, value) -> str:
        return f'{{"__float__"{self.key_sep}{_quote(repr(value))}}}'

    def write_sequence(self, value) -> str:
        write = self.write
        return f"[{self.item_sep.join([write(item) for item in value])}]"

    def write_enum(self, value) -> str:
        name = _quote(f"{type(value).__qualname__}.{value.name}")
        return (f'{{"__enum__"{self.key_sep}{name}{self.item_sep}'
                f'"value"{self.key_sep}{self.write(value.value)}}}')

    def write_bytes(self, value) -> str:
        digest = hashlib.sha256(bytes(value)).hexdigest()
        return f'{{"__bytes_sha256__"{self.key_sep}"{digest}"}}'

    def write_dict(self, value) -> str:
        items = sorted(((str(key), item) for key, item in value.items()),
                       key=lambda pair: pair[0])
        for (key, _), (after, _) in zip(items, items[1:]):
            if key == after:
                raise TypeError(
                    f"cannot build a stable job key from a dict with two "
                    f"keys that both read {key!r}")
        sep, write = self.item_sep, self.write
        pairs = sep.join([f"[{_quote(key)}{sep}{write(item)}]"
                          for key, item in items])
        return f'{{"__dict__"{self.key_sep}[{pairs}]}}'

    def write_set(self, value) -> str:
        members = sorted([_SPACED.write(member) for member in value])
        listed = self.item_sep.join([_quote(text) for text in members])
        return f'{{"__set__"{self.key_sep}[{listed}]}}'

    def _writer_for(self, cls):
        """The writer of ``cls``, by the first rule that matches."""
        if hasattr(cls, "__dataclass_fields__"):
            return self._dataclass_writer(cls)
        for base, writer in ((Enum, self.write_enum), (str, _quote),
                             (int, int.__repr__), (float, self.write_float),
                             ((bytes, bytearray), self.write_bytes),
                             ((list, tuple), self.write_sequence),
                             (dict, self.write_dict),
                             ((set, frozenset), self.write_set)):
            if issubclass(cls, base):
                return writer
        return _unsupported

    def _dataclass_writer(self, cls):
        tag = _quote(f"{cls.__module__}.{cls.__qualname__}")
        entries = {"__type__": None}
        for field in dataclasses.fields(cls):
            entries[field.name] = field.name
        layout = [(_quote(name) + self.key_sep, attr)
                  for name, attr in sorted(entries.items())]
        sep, write = self.item_sep, self.write

        def write_fields(value) -> str:
            return "{" + sep.join([
                head + (tag if attr is None else write(getattr(value, attr)))
                for head, attr in layout]) + "}"

        params = getattr(cls, "__dataclass_params__", None)
        if not self.memo or cls is Job or not getattr(params, "frozen", False):
            return write_fields

        def write_shared(value) -> str:
            key = id(value)
            with _TEXTS_LOCK:
                entry = _TEXTS.get(key)
                if entry is not None:
                    _TEXTS.move_to_end(key)
                    return entry[1]
            text = write_fields(value)
            with _TEXTS_LOCK:
                _TEXTS[key] = (value, text)
                while len(_TEXTS) > _TEXTS_MAX:
                    _TEXTS.popitem(last=False)
            return text

        return write_shared


def _unsupported(value):
    raise TypeError(
        f"cannot build a stable job key from {type(value).__name__!r}; "
        f"jobs must be plain data (dataclasses, enums, scalars, tuples)")


#: Key text, and the text of each set member (json's default separators).
_COMPACT = _CanonicalWriter(",", ":", memo=True)
_SPACED = _CanonicalWriter(", ", ": ", memo=False)


def job_key(job: Job) -> str:
    """Canonical content hash of a job (hex, stable across processes).

    The sha256 of the job's canonical JSON text.  Unsupported types
    raise ``TypeError`` naming the type: jobs must be plain data.
    """
    text = _COMPACT.write(job)
    return hashlib.sha256(text.encode("ascii")).hexdigest()
