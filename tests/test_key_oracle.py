"""Canonical job keys against their reference oracle (``tests/key_oracle.py``).

The program writes each job's canonical JSON text directly and writes
the frozen values many jobs share once, from a bounded identity memo;
the oracle builds the token tree and serializes it with ``json.dumps``.
Keys must be equal byte for byte on jobs of every kind, whatever the
memo holds.
"""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from key_oracle import oracle_key, oracle_text

import repro.engine.jobs as jobs_module
from repro.analysis.dvfs import DvfsPhase, schedule_job
from repro.branch.iraw_effects import DeterminismMode
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.engine import Job, TraceSpec, job_key
from repro.engine.jobs import shard_jobs
from repro.experiments import Experiment, ExperimentSpec
from repro.experiments.artifacts import table1_jobs
from repro.isa.opcodes import OpClass
from repro.montecarlo.campaign import montecarlo_jobs
from repro.montecarlo.spec import MonteCarloSpec
from repro.pipeline.resources import PipelineParams
from repro.workloads.kernels import KERNEL_BUILDERS
from repro.workloads.profiles import (
    KERNEL_LIKE,
    PROFILES_BY_NAME,
    SPECINT_LIKE,
    STANDARD_PROFILES,
)
from repro.workloads.riscv import RiscvProgram

pytestmark = pytest.mark.engine

SOLVER = FrequencySolver()
VCC = st.sampled_from([400.0, 450.0, 500.0, 562.5, 700.0])
SCHEMES = st.sampled_from([ClockScheme.BASELINE, ClockScheme.IRAW])

SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 5e-324, 1e300])
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | SPECIAL_FLOATS
#: The DRAM latencies a spec accepts: finite and > 0.
LATENCIES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) \
    | st.sampled_from([1e-300, 5e-324, 1e300])
ENUMS = st.sampled_from(list(OpClass) + list(ClockScheme)
                        + list(DeterminismMode))
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(0, 1)
           | FLOATS | st.text(max_size=8) | st.binary(max_size=16) | ENUMS)
HASHABLE = st.none() | st.booleans() | st.integers() | FLOATS \
    | st.text(max_size=6) | ENUMS


def _containers(children):
    # Keys of one dict are all strings or all enum members of one type,
    # so no two keys read the same after str().
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(st.text(max_size=6), children, max_size=4)
            | st.dictionaries(st.sampled_from(list(OpClass)), children,
                              max_size=4)
            | st.frozensets(HASHABLE, max_size=4)
            | st.frozensets(st.tuples(HASHABLE, HASHABLE), max_size=3))


PLAIN = st.recursive(SCALARS, _containers, max_leaves=12)


@st.composite
def profiles(draw):
    """A standard profile, maybe with int-valued weights and a new name."""
    profile = draw(st.sampled_from(STANDARD_PROFILES))
    changes = {}
    if draw(st.booleans()):
        changes["alu_weight"] = draw(st.sampled_from(
            [int(profile.alu_weight), float(profile.alu_weight), 11, 11.0]))
    if draw(st.booleans()):
        changes["name"] = draw(st.text(min_size=1, max_size=8))
    return dataclasses.replace(profile, **changes) if changes else profile


@st.composite
def trace_specs(draw):
    source = draw(st.sampled_from(["synthetic", "kernel", "riscv"]))
    if source == "synthetic":
        return TraceSpec.synthetic(draw(profiles()),
                                   seed=draw(st.integers(0, 5)),
                                   length=draw(st.integers(1, 20_000)))
    if source == "kernel":
        return TraceSpec.for_kernel(draw(st.sampled_from(
            sorted(KERNEL_BUILDERS))), draw(st.integers(1, 64)))
    program = RiscvProgram(
        name=draw(st.text(min_size=1, max_size=8)),
        data=draw(st.binary(min_size=1, max_size=64)),
        entry=draw(st.none() | st.integers(0, 1 << 20)),
        sp=draw(st.none() | st.integers(0, 1 << 20)),
        max_instructions=draw(st.integers(1, 1 << 30)))
    return TraceSpec(source="riscv", program=program)


@st.composite
def params_overrides(draw) -> dict:
    """No overrides, or latencies keyed by the str-mixin ``OpClass``."""
    if draw(st.booleans()):
        return {}
    latencies = draw(st.dictionaries(
        st.sampled_from(list(OpClass)),
        st.integers(1, 40) | st.just(True), min_size=1))
    return {"latencies": latencies,
            "rf_write_cycles": draw(st.integers(1, 3))}


#: Names a spec can give a custom profile: no built-in one's.
CUSTOM_NAMES = st.from_regex(r"[A-Za-z0-9_-]{1,8}", fullmatch=True).filter(
    lambda name: name not in PROFILES_BY_NAME)


def _experiment(draw, table1_vcc_mv: float) -> Experiment:
    """An experiment over one standard profile, or one with int-valued
    weights under a new name, as a spec file can describe it."""
    profile = draw(st.sampled_from(STANDARD_PROFILES))
    custom = ()
    if draw(st.booleans()):
        profile = dataclasses.replace(
            profile, name=draw(CUSTOM_NAMES),
            alu_weight=draw(st.sampled_from(
                [int(profile.alu_weight), float(profile.alu_weight),
                 11, 11.0])))
        custom = (profile,)
    return Experiment(ExperimentSpec(
        name="drawn", profiles=(profile.name,), custom_profiles=custom,
        trace_length=draw(st.integers(1, 5000)), warm=draw(st.booleans()),
        dram_latency_ns=draw(LATENCIES), params=draw(params_overrides()),
        table1_vcc_mv=table1_vcc_mv))


@st.composite
def any_jobs(draw):
    """A job of any kind, planned the way the program plans it."""
    kind = draw(st.sampled_from(["sweep-point", "population", "faulty-bits",
                                 "extra-bypass", "dvfs-schedule",
                                 "mc-block"]))
    vcc = draw(VCC)
    if kind in ("sweep-point", "population"):
        overrides = draw(st.dictionaries(
            st.sampled_from(["rf_enabled", "iq_enabled", "stable_enabled"]),
            st.booleans()))
        job = _experiment(draw, vcc).population_job(vcc, draw(SCHEMES),
                                                    overrides)
        if kind == "sweep-point":
            job = dataclasses.replace(job, population=None,
                                      trace=draw(trace_specs()))
    elif kind in ("faulty-bits", "extra-bypass"):
        technique = table1_jobs(_experiment(draw, vcc))[
            2 if kind == "faulty-bits" else 3]
        job = shard_jobs(technique)[0]
    elif kind == "dvfs-schedule":
        phases = tuple(DvfsPhase(draw(VCC), draw(st.integers(1, 5000)))
                       for _ in range(draw(st.integers(1, 3))))
        job = schedule_job(draw(trace_specs()), phases, draw(SCHEMES),
                           solver=SOLVER,
                           params=PipelineParams(**draw(params_overrides())),
                           dram_latency_ns=draw(FLOATS),
                           transition_ns=draw(FLOATS))
    else:
        mc = MonteCarloSpec(
            dies=draw(st.integers(1, 64)), seed=draw(st.integers(0, 99)),
            block=draw(st.none() | st.integers(1, 16)),
            arrays=draw(st.frozensets(st.sampled_from(
                ["RF", "DL0", "IL0", "UL1"]))))
        planned = montecarlo_jobs(mc, (vcc,), (draw(SCHEMES).value,),
                                  solver=SOLVER)
        job = draw(st.sampled_from(planned))
    extra = draw(st.dictionaries(st.text(min_size=1, max_size=6).map(
        lambda name: f"x-{name}"), PLAIN, max_size=3))
    return dataclasses.replace(job,
                               options=job.options + tuple(extra.items()))


class TestAgainstTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(any_jobs())
    def test_every_job_kind_keys_as_the_oracle(self, job):
        assert job_key(job) == oracle_key(job)
        # A second key reads the shared values from the memo.
        assert job_key(job) == oracle_key(job)

    @settings(max_examples=150, deadline=None)
    @given(PLAIN)
    def test_plain_values_key_as_the_oracle(self, value):
        job = Job(kind="sweep-point", options=(("value", value),))
        assert job_key(job) == oracle_key(job)

    def test_planned_campaigns_key_as_the_oracle(self):
        planned = []
        for vcc in (700.0, 550.0, 400.0):
            experiment = Experiment(ExperimentSpec(
                name="planned", profiles=(KERNEL_LIKE.name, SPECINT_LIKE.name),
                seeds_per_profile=2, trace_length=400, table1_vcc_mv=vcc))
            for job in table1_jobs(experiment):
                planned += [job, *shard_jobs(job)]
        for job in planned:
            # Texts, not hashes, so a failure shows where they part.
            assert jobs_module._COMPACT.write(job) == oracle_text(job)
            assert job_key(job) == oracle_key(job), job.label


class TestTypesStayApart:
    def test_equal_profiles_of_different_types_key_differently(self):
        as_int = dataclasses.replace(SPECINT_LIKE, alu_weight=11)
        as_float = dataclasses.replace(SPECINT_LIKE, alu_weight=11.0)
        assert as_int == as_float and hash(as_int) == hash(as_float)
        keys = []
        for profile in (as_int, as_float, as_int, as_float):
            job = Job(kind="sweep-point",
                      trace=TraceSpec.synthetic(profile, length=400))
            assert job_key(job) == oracle_key(job)
            keys.append(job_key(job))
        assert keys[0] == keys[2] != keys[1] == keys[3]

    @pytest.mark.parametrize("first, second", [
        (True, 1), (False, 0), (1, 1.0), (0.0, -0.0),
        (OpClass.LOAD, "load"),
    ])
    def test_equal_values_of_different_types_key_differently(self, first,
                                                             second):
        a = Job(kind="sweep-point", options=(("v", first),))
        b = Job(kind="sweep-point", options=(("v", second),))
        assert first == second
        assert job_key(a) == oracle_key(a)
        assert job_key(b) == oracle_key(b)
        assert job_key(a) != job_key(b)

    def test_nan_and_non_ascii_text(self):
        job = Job(kind="sweep-point", options=(
            ("nan", math.nan), ("text", "Vcc ≤ 500 mV \U0001f50b"),
            ("quote", 'a"b\\c\n')))
        assert job_key(job) == oracle_key(job)
        assert oracle_text(job).isascii()

    def test_dict_keys_that_read_alike_are_rejected(self):
        # str(1) == "1": the token tree would order the two pairs by
        # their values, so two different dicts could share one key.
        job = Job(kind="sweep-point", options=(("v", {1: "a", "1": "b"}),))
        with pytest.raises(TypeError, match="'1'"):
            job_key(job)

    def test_a_dataclass_type_is_not_plain_data(self):
        job = Job(kind="sweep-point", options=(("v", TraceSpec),))
        for key in (job_key, oracle_key):
            with pytest.raises(TypeError, match="'type'"):
                key(job)

    def test_str_subclass_and_enum_values(self):
        class Tag(str):
            pass

        class Level(int, Enum):
            LOW = 1

        job = Job(kind="sweep-point", options=(
            ("tag", Tag("xé")), ("level", Level.LOW),
            ("latencies", dict(PipelineParams().latencies))))
        assert job_key(job) == oracle_key(job)


class TestIdentityMemo:
    def _job(self, params=None, profile=KERNEL_LIKE):
        return Job(kind="sweep-point", vcc_mv=500.0,
                   trace=TraceSpec.synthetic(profile, length=400),
                   options=(("params", params or PipelineParams()),))

    def test_the_same_object_keyed_twice(self):
        params = PipelineParams(rf_write_cycles=2)
        job = self._job(params)
        first = job_key(job)
        assert id(params) in jobs_module._TEXTS
        assert job_key(job) == first == oracle_key(job)

    def test_equal_but_distinct_objects_share_a_key(self):
        a = self._job(PipelineParams(rf_write_cycles=2))
        b = self._job(PipelineParams(rf_write_cycles=2))
        assert a.option("params") is not b.option("params")
        assert job_key(a) == job_key(b) == oracle_key(b)

    def test_jobs_are_not_memoized(self):
        job = self._job()
        job_key(job)
        assert id(job) not in jobs_module._TEXTS

    def test_keys_after_the_memo_wraps(self):
        # Each profile is a fresh object that nothing else holds, so
        # without the memo's own reference its id could be reused.
        bound = jobs_module._TEXTS_MAX
        first = self._job(profile=dataclasses.replace(KERNEL_LIKE,
                                                      name="kept"))
        expected = oracle_key(first)
        assert job_key(first) == expected
        for index in range(3 * bound):
            job = self._job(profile=dataclasses.replace(
                KERNEL_LIKE, name=f"p{index}", alu_weight=float(index + 1)))
            assert job_key(job) == oracle_key(job)
        assert len(jobs_module._TEXTS) == bound
        assert job_key(first) == expected

    def test_threads_key_as_the_oracle(self):
        shared = PipelineParams(rf_write_cycles=3)
        batch = [self._job(shared if index % 2 else None,
                           dataclasses.replace(KERNEL_LIKE,
                                               name=f"t{index % 90}"))
                 for index in range(400)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            keys = list(pool.map(job_key, batch))
        assert keys == [oracle_key(job) for job in batch]
