"""Declarative, serializable experiment specifications.

An :class:`ExperimentSpec` is the single description of one evaluation
campaign: which trace population to simulate, which (Vcc, scheme) grid
to cover, which ablations and DVFS schedules to add, and which named
artifacts (see :mod:`repro.experiments.artifacts`) to render from the
results.  Specs are frozen plain data — every field round-trips through
``to_dict``/``from_dict`` and therefore through TOML and JSON files
(:meth:`ExperimentSpec.load` / :meth:`ExperimentSpec.save`), and two
specs that describe the same campaign compile to engine jobs with
identical canonical keys, so a spec file is a cacheable identity.
Every table is read and written by :mod:`repro.specfields` from the
fields of the class it builds.

The spec layer deliberately knows nothing about execution: compiling a
spec into engine job batches and running them is
:class:`repro.experiments.experiment.Experiment`'s job.  It only builds,
at load, the pieces of the machine a value can make impossible (see
:meth:`ExperimentSpec._check_machine`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import re
from dataclasses import dataclass, field
from typing import Annotated

from repro.analysis.dvfs import DvfsPhase
from repro.circuits import constants
from repro.circuits.energy import ENERGY_EXAMPLE_MV
from repro.circuits.ekv import check_voltage, voltage_grid
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.core.config import IrawConfig
from repro.core.policy import IrawPolicy
from repro.engine.executors import iraw_for
from repro.engine.jobs import TraceSpec
from repro.errors import ConfigError, MemoryModelError, TraceError
from repro.experiments.artifacts import (
    ARTIFACTS,
    TABLE1_TECHNIQUES,
    table1_selection,
)
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.montecarlo.spec import MonteCarloSpec
from repro.pipeline.resources import PipelineParams
from repro.specfields import (
    FreeForm,
    Keyed,
    Overrides,
    read_fields,
    write_fields,
)
from repro.workloads.profiles import (
    PROFILES_BY_NAME,
    STANDARD_PROFILES,
    TraceProfile,
)
from repro.workloads.riscv import (
    DEFAULT_MAX_INSTRUCTIONS as _RISCV_DEFAULT_MAX_INSTRUCTIONS,
    RiscvProgram,
)

#: The artifact names a spec may list: the registry's, in its order.
KNOWN_ARTIFACTS = tuple(ARTIFACTS)

#: Artifacts that simulate the trace population (need a non-empty
#: ``profiles`` list) and artifacts that sample dies (need a
#: ``[montecarlo]`` section; ``deep_tail`` additionally needs its
#: ``[montecarlo.importance]`` subsection).
POPULATION_ARTIFACTS = ("table1", "fig11b", "fig12", "energy450", "stalls")
MONTECARLO_ARTIFACTS = ("yield_curve", "vccmin_dist", "deep_tail")

_SCHEME_NAMES = tuple(scheme.value for scheme in ClockScheme)

#: Where the fields of an :class:`ExperimentSpec` that sit in a section
#: of the spec file live: field -> (section, key).  Every other field is
#: the top-level key of its own name.
_LAYOUT = {
    "profiles": ("population", "profiles"),
    "custom_profiles": ("population", "custom"),
    "riscv": ("population", "riscv"),
    "seeds_per_profile": ("population", "seeds_per_profile"),
    "trace_length": ("population", "trace_length"),
    "vcc_mv": ("grid", "vcc_mv"),
    "step_mv": ("grid", "step_mv"),
    "schemes": ("grid", "schemes"),
    "table1_vcc_mv": ("table1", "vcc_mv"),
    "table1_techniques": ("table1", "techniques"),
    "stalls_vcc_mv": ("stalls", "vcc_mv"),
    "warm": ("sweep", "warm"),
    "dram_latency_ns": ("sweep", "dram_latency_ns"),
}


@dataclass(frozen=True)
class AblationSpec:
    """One named what-if: IRAW with some mechanisms switched off.

    ``overrides`` are the keyword switches of
    :meth:`IrawConfig.for_operating_point` (``rf_enabled``,
    ``iq_enabled``, ``cache_guards_enabled``, ``stable_enabled``, ...),
    evaluated across the spec's whole Vcc grid under ``scheme``.
    """

    name: str
    overrides: Annotated[tuple, Overrides(IrawConfig)] = ()
    scheme: str = ClockScheme.IRAW.value

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("ablation needs a name")
        _check_scheme(self.scheme, f"ablation {self.name!r}")
        object.__setattr__(self, "overrides", _sorted_overrides(
            self.overrides, IrawConfig, f"ablation {self.name!r}"))


@dataclass(frozen=True)
class DvfsScheduleSpec:
    """One named DVFS scenario: a trace through Vcc phases, per scheme."""

    name: str
    trace: TraceSpec
    phases: tuple[DvfsPhase, ...]
    schemes: tuple[str, ...] = (ClockScheme.BASELINE.value,
                                ClockScheme.IRAW.value)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("dvfs schedule needs a name")
        object.__setattr__(self, "phases", tuple(self.phases))
        object.__setattr__(self, "schemes",
                           tuple(str(s) for s in self.schemes))
        if not self.phases:
            raise ConfigError(f"dvfs schedule {self.name!r} needs at "
                              f"least one phase")
        if not self.schemes:
            raise ConfigError(f"dvfs schedule {self.name!r} needs at "
                              f"least one scheme")
        for scheme in self.schemes:
            _check_scheme(scheme, f"dvfs schedule {self.name!r}")
        covered = sum(phase.instructions for phase in self.phases)
        length = self.trace.length if self.trace.source == "synthetic" \
            else None
        if length is not None and covered != length:
            raise ConfigError(
                f"dvfs schedule {self.name!r} covers {covered} "
                f"instructions but its trace has {length}")


@dataclass(frozen=True)
class RiscvProgramRef:
    """One ``[population.riscv.<name>]`` entry: a compiled RV32I binary.

    The spec stores the *path*; the program bytes are read at
    compile time (:meth:`load`) and embedded into the engine's trace
    specs, so job keys derive from the file's contents (sha256), not
    its location — moving a binary never invalidates its cache entries,
    while editing one byte of it re-simulates exactly that trace.
    """

    name: str
    path: str
    max_instructions: int = _RISCV_DEFAULT_MAX_INSTRUCTIONS

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[A-Za-z0-9_-]+", self.name or ""):
            # The name becomes a [population.riscv.<name>] TOML table
            # header, where only bare keys are supported.
            raise ConfigError(
                f"riscv program name {self.name!r} must use only "
                f"letters, digits, '-' and '_'")
        if not self.path:
            raise ConfigError(f"riscv program {self.name!r} needs a path")
        if self.max_instructions < 1:
            raise ConfigError(f"riscv program {self.name!r}: "
                              f"max_instructions must be >= 1")

    def load(self) -> RiscvProgram:
        """Read the binary and build the engine-level program value."""
        try:
            return RiscvProgram.from_file(
                self.path, name=self.name,
                max_instructions=self.max_instructions)
        except TraceError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, name: str, data: dict) -> "RiscvProgramRef":
        return cls(**read_fields(cls, data, f"population.riscv.{name}",
                                 name=name))


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative evaluation campaign (population + grid + artifacts).

    The Vcc grid is either ``vcc_mv`` (an explicit list) or ``step_mv``
    (the paper's 700→400 mV sweep in that step) — never both.  ``params``
    and ``memory`` are sparse overrides applied on top of the default
    :class:`~repro.pipeline.resources.PipelineParams` /
    :class:`~repro.memory.hierarchy.MemoryConfig`, so spec files only
    name what they change.
    """

    name: str = "experiment"
    profiles: tuple[str, ...] = tuple(p.name for p in STANDARD_PROFILES)
    #: Inline (non-named) trace profiles authored directly in the spec;
    #: reference them from ``profiles`` by their ``name``.
    custom_profiles: Annotated[tuple[TraceProfile, ...], Keyed()] = ()
    #: Real compiled RV32I binaries mixed into the population, after the
    #: synthetic traces (``[population.riscv.<name>] path = ...``).
    riscv: Annotated[tuple[RiscvProgramRef, ...], Keyed()] = ()
    seeds_per_profile: int = 1
    trace_length: int = 12_000
    vcc_mv: tuple[float, ...] = ()
    step_mv: float | None = None
    schemes: tuple[str, ...] = (ClockScheme.BASELINE.value,
                                ClockScheme.IRAW.value)
    table1_vcc_mv: float = 500.0
    #: Which techniques Table 1 quantifies; rows always render in the
    #: canonical :data:`TABLE1_TECHNIQUES` order, and the baseline
    #: reference point is planned regardless of the subset.
    table1_techniques: tuple[str, ...] = TABLE1_TECHNIQUES
    #: Vcc of the Section 5.2 stall decomposition (``stalls`` artifact).
    stalls_vcc_mv: float = 575.0
    warm: bool = True
    dram_latency_ns: float = constants.DRAM_LATENCY_NS
    params: Annotated[tuple, Overrides(PipelineParams)] = ()
    memory: Annotated[tuple, Overrides(MemoryConfig)] = ()
    ablations: tuple[AblationSpec, ...] = ()
    dvfs: tuple[DvfsScheduleSpec, ...] = ()
    #: Monte-Carlo die-sampling campaign over the same (grid x schemes).
    montecarlo: MonteCarloSpec | None = None
    artifacts: tuple[str, ...] = ("table1", "fig11b")
    metadata: Annotated[tuple, FreeForm()] = field(default=(),
                                                    compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles",
                           tuple(str(p) for p in self.profiles))
        object.__setattr__(self, "custom_profiles",
                           tuple(self.custom_profiles))
        object.__setattr__(self, "riscv", tuple(self.riscv))
        # First-occurrence dedup: a repeated grid level would emit
        # duplicate records (ambiguous ResultSet pivots) and double
        # every montecarlo group; one spec = one canonical grid.
        object.__setattr__(self, "vcc_mv",
                           tuple(dict.fromkeys(float(v)
                                               for v in self.vcc_mv)))
        object.__setattr__(self, "schemes",
                           tuple(dict.fromkeys(str(s)
                                               for s in self.schemes)))
        object.__setattr__(self, "artifacts",
                           tuple(str(a) for a in self.artifacts))
        object.__setattr__(self, "table1_techniques",
                           table1_selection(self.table1_techniques))
        object.__setattr__(self, "ablations", tuple(self.ablations))
        object.__setattr__(self, "dvfs", tuple(self.dvfs))
        object.__setattr__(self, "params", _sorted_overrides(
            self.params, PipelineParams, "params"))
        object.__setattr__(self, "memory", _sorted_overrides(
            self.memory, MemoryConfig, "memory"))
        object.__setattr__(self, "metadata",
                           tuple(sorted(dict(self.metadata).items())))
        if not self.name:
            raise ConfigError("experiment needs a name")
        custom = {}
        for profile in self.custom_profiles:
            if not isinstance(profile, TraceProfile):
                raise ConfigError(
                    f"experiment {self.name!r}: custom profiles must be "
                    f"TraceProfile instances, got "
                    f"{type(profile).__name__}")
            if not re.fullmatch(r"[A-Za-z0-9_-]+", profile.name):
                # The name becomes a [population.custom.<name>] TOML
                # table header, where only bare keys are supported.
                raise ConfigError(
                    f"experiment {self.name!r}: custom profile name "
                    f"{profile.name!r} must use only letters, digits, "
                    f"'-' and '_'")
            if profile.name in PROFILES_BY_NAME:
                raise ConfigError(
                    f"experiment {self.name!r}: custom profile "
                    f"{profile.name!r} shadows a built-in profile")
            if profile.name in custom:
                raise ConfigError(
                    f"experiment {self.name!r}: duplicate custom "
                    f"profile {profile.name!r}")
            custom[profile.name] = profile
        for profile in self.profiles:
            if profile not in custom and profile not in PROFILES_BY_NAME:
                raise ConfigError(
                    f"experiment {self.name!r}: unknown profile "
                    f"{profile!r} (known: "
                    f"{', '.join(sorted(PROFILES_BY_NAME))})")
        unused = sorted(set(custom) - set(self.profiles))
        if unused:
            # An authored-but-unreferenced inline profile is almost
            # certainly a typo in `profiles`; silence would drop the
            # workload the user just defined.
            raise ConfigError(
                f"experiment {self.name!r}: custom profile(s) "
                f"{', '.join(repr(name) for name in unused)} are "
                f"defined but never referenced from 'profiles'")
        riscv_names = set()
        for ref in self.riscv:
            if not isinstance(ref, RiscvProgramRef):
                raise ConfigError(
                    f"experiment {self.name!r}: riscv programs must be "
                    f"RiscvProgramRef instances, got "
                    f"{type(ref).__name__}")
            if ref.name in riscv_names:
                raise ConfigError(
                    f"experiment {self.name!r}: duplicate riscv "
                    f"program {ref.name!r}")
            riscv_names.add(ref.name)
        if not self.has_population() and not self.dvfs \
                and self.montecarlo is None:
            raise ConfigError(f"experiment {self.name!r} has no "
                              f"population, no dvfs schedules and no "
                              f"montecarlo campaign")
        if self.seeds_per_profile < 1 or self.trace_length < 1:
            raise ConfigError(f"experiment {self.name!r}: population "
                              f"sizing must be positive")
        if not (math.isfinite(self.dram_latency_ns)
                and self.dram_latency_ns > 0):
            raise ConfigError(f"experiment {self.name!r}: "
                              f"sweep.dram_latency_ns must be a finite "
                              f"latency > 0 ns (got "
                              f"{self.dram_latency_ns!r})")
        if self.vcc_mv and self.step_mv is not None:
            raise ConfigError(f"experiment {self.name!r}: give either "
                              f"vcc_mv or step_mv, not both")
        for vcc_mv in (*self.grid(), self.table1_vcc_mv,
                       self.stalls_vcc_mv):
            check_voltage(vcc_mv)
        for scheme in self.schemes:
            _check_scheme(scheme, f"experiment {self.name!r}")
        if not self.schemes:
            raise ConfigError(f"experiment {self.name!r} needs at least "
                              f"one scheme")
        if self.montecarlo is not None \
                and not isinstance(self.montecarlo, MonteCarloSpec):
            raise ConfigError(f"experiment {self.name!r}: montecarlo "
                              f"must be a MonteCarloSpec")
        for artifact in self.artifacts:
            if artifact not in KNOWN_ARTIFACTS:
                raise ConfigError(
                    f"unknown artifact {artifact!r}; known: "
                    f"{', '.join(KNOWN_ARTIFACTS)}")
            if artifact in POPULATION_ARTIFACTS \
                    and not self.has_population():
                raise ConfigError(
                    f"experiment {self.name!r} renders {artifact!r} but "
                    f"has no trace population")
            if artifact in MONTECARLO_ARTIFACTS \
                    and self.montecarlo is None:
                raise ConfigError(
                    f"experiment {self.name!r} renders {artifact!r} but "
                    f"has no [montecarlo] section")
            if artifact == "deep_tail" \
                    and self.montecarlo is not None \
                    and self.montecarlo.importance is None:
                raise ConfigError(
                    f"experiment {self.name!r} renders 'deep_tail' but "
                    f"has no [montecarlo.importance] section")
        if "dvfs" in self.artifacts and not self.dvfs:
            raise ConfigError(f"experiment {self.name!r} renders the "
                              f"'dvfs' artifact but defines no schedules")
        names = [a.name for a in self.ablations] \
            + [d.name for d in self.dvfs]
        if len(names) != len(set(names)):
            raise ConfigError(f"experiment {self.name!r}: ablation/dvfs "
                              f"names must be unique")
        self._check_machine()

    def _check_machine(self) -> None:
        """Build what a well-typed value can still make impossible.

        The memory hierarchy (a cache geometry that does not divide) and
        the IRAW mechanisms of each core that ``[params]`` or an
        ablation touch (an N beyond the hardware sizing, an Eq. 1 gate
        larger than the IQ) are built as the executors will build them,
        so such a spec fails here with one :class:`ConfigError` naming
        the keys it sets, not later in its shards.  None depends on the
        trace.
        """
        latency = dict(self.memory).get("dram_latency_cycles")
        if latency is not None:
            raise ConfigError(
                f"memory.dram_latency_cycles = {latency!r} would be "
                f"ignored: each point's DRAM latency is [sweep] "
                f"dram_latency_ns at the point's clock; set that instead")
        memory = self.memory_config()
        if self.memory:
            try:
                MemorySystem(memory)
            except MemoryModelError as exc:
                raise _impossible("memory", self.memory, exc) from None
        if not self.params and not self.ablations:
            return
        solver = FrequencySolver()
        params = self.pipeline_params()
        cores = [("params", self.params, ClockScheme.IRAW.value, vcc_mv, ())
                 for vcc_mv in (self._iraw_vccs() if self.params else ())]
        cores += [(f"ablations[{index}].overrides", ablation.overrides,
                   ablation.scheme, vcc_mv, ablation.overrides)
                  for index, ablation in enumerate(self.ablations)
                  for vcc_mv in self.grid()]
        for table, overrides, scheme, vcc_mv, switches in cores:
            point = solver.operating_point(vcc_mv, ClockScheme(scheme))
            try:
                IrawPolicy(iraw_for(point, switches), params, memory)
            except ConfigError as exc:
                raise _impossible(table, overrides, exc,
                                  f" at {vcc_mv:g} mV") from None

    def _iraw_vccs(self) -> tuple[float, ...]:
        """Each Vcc at which the plan builds an IRAW-clocked core with
        every mechanism on: the grid, Table 1, the energy example, the
        stall decomposition and each DVFS phase.  Any other clock, or a
        switched-off mechanism, only lowers the Eq. 1 threshold."""
        iraw, planned = ClockScheme.IRAW.value, set(self.artifacts)
        vccs = [phase.vcc_mv for schedule in self.dvfs
                if iraw in schedule.schemes for phase in schedule.phases]
        if self.has_population():
            if iraw in self.schemes or planned & {"fig11b", "fig12"}:
                vccs.extend(self.grid())
            if "table1" in planned and iraw in self.table1_techniques:
                vccs.append(self.table1_vcc_mv)
            if "energy450" in planned:
                vccs.append(ENERGY_EXAMPLE_MV)
            if "stalls" in planned:
                vccs.append(self.stalls_vcc_mv)
        return tuple(dict.fromkeys(vccs))

    # -- derived views --------------------------------------------------

    def has_population(self) -> bool:
        """True if the spec defines any trace population (synthetic or
        riscv) for the population-style artifacts to simulate."""
        return bool(self.profiles or self.riscv)

    def grid(self) -> tuple[float, ...]:
        """The resolved Vcc grid (explicit list, else the paper sweep)."""
        if self.vcc_mv:
            return self.vcc_mv
        return tuple(voltage_grid(self.step_mv
                                  if self.step_mv is not None else 25.0))

    def pipeline_params(self) -> PipelineParams:
        return dataclasses.replace(PipelineParams(), **dict(self.params))

    def memory_config(self) -> MemoryConfig:
        return dataclasses.replace(MemoryConfig(), **dict(self.memory))

    def profile_objects(self) -> tuple[TraceProfile, ...]:
        """The resolved population profiles, custom definitions first."""
        custom = {p.name: p for p in self.custom_profiles}
        return tuple(custom.get(name, PROFILES_BY_NAME.get(name))
                     for name in self.profiles)

    def riscv_programs(self) -> tuple[RiscvProgram, ...]:
        """The referenced binaries, loaded from disk (ConfigError if
        unreadable).  Paths are as stored; :meth:`load` resolves
        relative paths against the spec file's directory."""
        return tuple(ref.load() for ref in self.riscv)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return write_fields(self, _LAYOUT)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        return cls(**read_fields(cls, data, "", _LAYOUT))

    # -- file I/O -------------------------------------------------------

    def to_toml(self) -> str:
        from repro.experiments.specio import dumps_toml

        return dumps_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "ExperimentSpec":
        from repro.experiments.specio import loads_toml

        return cls.from_dict(loads_toml(text))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"invalid JSON spec: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("a JSON spec must be an object")
        return cls.from_dict(data)

    @classmethod
    def from_bytes(cls, data: bytes,
                   fmt: str | None = None) -> "ExperimentSpec":
        """Parse a spec from raw bytes (the HTTP submission surface).

        ``fmt`` is ``"toml"``, ``"json"``, or ``None`` to sniff: a body
        whose first non-whitespace byte is ``{`` is JSON, anything else
        is TOML.  Malformed bodies raise
        :class:`~repro.errors.ConfigError` with the parser's message, so
        a server can hand the text back as a clean 400.
        """
        if isinstance(data, str):
            text = data
        else:
            try:
                text = bytes(data).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"spec body is not UTF-8: {exc}") \
                    from None
        if fmt is None:
            fmt = "json" if text.lstrip()[:1] == "{" else "toml"
        if fmt == "toml":
            return cls.from_toml(text)
        if fmt == "json":
            return cls.from_json(text)
        raise ConfigError(f"unknown spec format {fmt!r} "
                          f"(expected 'toml' or 'json')")

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        """Read a spec file; the format follows the suffix (.toml/.json)."""
        path = pathlib.Path(path)
        try:
            text = path.read_text("utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read spec file {path}: {exc}")
        if path.suffix == ".toml":
            spec = cls.from_toml(text)
        elif path.suffix == ".json":
            spec = cls.from_json(text)
        else:
            raise ConfigError(f"unknown spec format {path.suffix!r} "
                              f"(expected .toml or .json)")
        return spec._resolve_riscv_paths(path.parent)

    def _resolve_riscv_paths(self, base) -> "ExperimentSpec":
        """Anchor relative riscv program paths at the spec file's dir."""
        if not self.riscv:
            return self
        resolved = tuple(
            ref if pathlib.Path(ref.path).is_absolute()
            else dataclasses.replace(
                ref, path=str(pathlib.Path(base) / ref.path))
            for ref in self.riscv)
        return dataclasses.replace(self, riscv=resolved)

    def save(self, path) -> None:
        """Write the spec to ``path`` (format from the suffix)."""
        path = pathlib.Path(path)
        if path.suffix == ".toml":
            text = self.to_toml()
        elif path.suffix == ".json":
            text = self.to_json()
        else:
            raise ConfigError(f"unknown spec format {path.suffix!r} "
                              f"(expected .toml or .json)")
        path.write_text(text, encoding="utf-8")


# ----------------------------------------------------------------------
# Shared validation helpers
# ----------------------------------------------------------------------

def _check_scheme(scheme: str, owner: str) -> None:
    if scheme not in _SCHEME_NAMES:
        raise ConfigError(f"{owner}: unknown clock scheme {scheme!r} "
                          f"(known: {', '.join(_SCHEME_NAMES)})")


def _impossible(table: str, overrides: tuple, exc: Exception,
                where: str = "") -> ConfigError:
    """The error for the ``(key, value)`` overrides of ``table`` that
    describe no machine: it names each key they set."""
    named = ", ".join(f"{table}.{key} = {value!r}" for key, value in overrides)
    return ConfigError(f"bad value {named}{where}: {exc}")


def _sorted_overrides(overrides, config_type, owner: str) -> tuple:
    items = sorted((str(k), v) for k, v in dict(overrides).items())
    known = {field.name for field in dataclasses.fields(config_type)}
    for key, _ in items:
        if key not in known:
            raise ConfigError(
                f"{owner}: unknown {config_type.__name__} field {key!r}")
    return tuple(items)
