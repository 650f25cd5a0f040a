"""The cycle loop against its bit-level oracle (``tests/core_oracle.py``).

The program's core keeps scoreboard timestamps, per-run issue tables and
guarded front-end calls; the oracle ticks the Figures 6-8 shift
registers and an N=0 shadow every cycle.  Every simulated number must be
the same: ``SimulationResult`` is compared field for field, stall cycles
per reason, IRAW-delayed instructions and memory statistics included.
"""

from dataclasses import replace

import pytest
from core_oracle import OracleCore
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.engine.executors as executors
from repro.analysis.dvfs import DvfsPhase, DvfsScenario, _reindex
from repro.branch.iraw_effects import DeterminismMode
from repro.circuits.frequency import ClockScheme
from repro.core.config import IrawConfig
from repro.core.policy import IrawPolicy
from repro.engine.executors import warm_caches
from repro.errors import PipelineError
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import Opcode
from repro.pipeline.core import CoreSetup, InOrderCore
from repro.pipeline.resources import PipelineParams
from repro.workloads.kernels import KERNEL_BUILDERS, kernel_trace
from repro.workloads.profiles import SPECINT_LIKE, STANDARD_PROFILES
from repro.workloads.synthetic import SyntheticTraceGenerator

#: Kernel sizes that keep one example to a few hundred ops.
KERNEL_SIZES = {
    "fib": 20, "memcpy": 24, "dot": 16, "matmul": 3, "pointer_chase": 16,
    "strfind": 16, "store_forward": 24, "sort": 10, "calls": 10,
    "crc": 12, "histogram": 16, "stack": 12, "binsearch": 10,
}

_SWITCHES = ("rf_enabled", "iq_enabled", "stable_enabled",
             "cache_guards_enabled")


@st.composite
def setups(draw):
    """A CoreSetup over the IRAW, mechanism, Extra-Bypass and width
    knobs."""
    disabled = draw(st.sampled_from((None,) + _SWITCHES))
    iraw = IrawConfig(
        stabilization_cycles=draw(st.integers(0, 2)),
        bypass_levels=draw(st.integers(0, 2)),
        determinism_mode=draw(st.sampled_from(list(DeterminismMode))),
        **({disabled: False} if disabled else {}))
    params = PipelineParams(rf_write_cycles=draw(st.integers(1, 3)),
                            alloc_width=draw(st.integers(1, 3)),
                            issue_window=draw(st.integers(1, 3)))
    return CoreSetup(iraw=iraw, params=params, name="oracle-check")


def run_both(setup, trace, warm, max_cycles=None, gate_params=None):
    """(program result, oracle result) on fresh cores.

    ``gate_params`` swap in, on both cores, a policy whose Eq. 1 gate
    counts those pipeline widths instead of the core's own.
    """
    results = []
    for core_class in (InOrderCore, OracleCore):
        core = core_class(setup)
        if gate_params is not None:
            core.policy = IrawPolicy(setup.iraw, gate_params, setup.memory)
        if warm:
            warm_caches(core.memory, trace)
        results.append(core.run(trace, max_cycles=max_cycles))
    return results


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(profile=st.sampled_from(STANDARD_PROFILES),
       seed=st.integers(0, 10_000),
       length=st.integers(50, 800),
       setup=setups(),
       gate_alloc_width=st.integers(1, 3),
       warm=st.booleans())
@example(profile=SPECINT_LIKE, seed=1, length=2000,
         setup=CoreSetup(iraw=IrawConfig(stabilization_cycles=2),
                         params=PipelineParams(alloc_width=3)),
         gate_alloc_width=1, warm=False)
def test_synthetic_traces_match_oracle(profile, seed, length, setup,
                                       gate_alloc_width, warm):
    """``gate_alloc_width`` below the core's AI undersizes the Eq. 1
    gate: it lets still-stabilizing IQ entries issue, and both cores
    count each such read as a violation (31 in the explicit example)."""
    trace = SyntheticTraceGenerator(profile, seed=seed).generate(length)
    gate_params = replace(setup.params, alloc_width=min(
        gate_alloc_width, setup.params.alloc_width))
    fast, oracle = run_both(setup, trace, warm, gate_params=gate_params)
    assert fast == oracle
    assert fast.instructions == length


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernel=st.sampled_from(sorted(KERNEL_BUILDERS)),
       setup=setups(),
       warm=st.booleans())
def test_golden_kernels_match_oracle(kernel, setup, warm):
    """Value-checked runs: the datapath models, mismatch and violation
    counts must agree too."""
    trace, _ = kernel_trace(kernel, KERNEL_SIZES[kernel])
    fast, oracle = run_both(setup, trace, warm)
    assert fast == oracle


@settings(max_examples=15, deadline=None)
@given(profile=st.sampled_from(STANDARD_PROFILES),
       max_cycles=st.integers(0, 150),
       setup=setups())
def test_cycle_budget_error_matches_oracle(profile, max_cycles, setup):
    trace = SyntheticTraceGenerator(profile, seed=1).generate(300)
    messages = []
    for core_class in (InOrderCore, OracleCore):
        with pytest.raises(PipelineError) as excinfo:
            core_class(setup).run(trace, max_cycles=max_cycles)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("scheme", [ClockScheme.BASELINE, ClockScheme.IRAW])
def test_dvfs_outcome_matches_oracle(monkeypatch, scheme):
    """Each phase of a scheduled run builds its core for the phase's
    point; the oracle core stands in for every one of them."""
    trace = SyntheticTraceGenerator(STANDARD_PROFILES[0],
                                    seed=5).generate(1500)
    schedule = [DvfsPhase(700.0, 500), DvfsPhase(450.0, 500),
                DvfsPhase(550.0, 500)]
    fast = DvfsScenario(scheme=scheme).run(trace, schedule)
    monkeypatch.setattr(executors, "InOrderCore", OracleCore)
    oracle = DvfsScenario(scheme=scheme).run(trace, schedule)
    assert fast == oracle
    if scheme is ClockScheme.IRAW:  # the schedule reprograms N > 0
        assert any(phase.stabilization_cycles for phase in fast.phases)


def test_reindex_copies_every_slot():
    original = MicroOp(17, Opcode.CALL, dest=None, srcs=(4, 5), imm=8,
                       pc=0x2000, taken=True, target=0x3000,
                       golden_result=99, store_value=7)
    clone = _reindex(original, 2)
    for slot in MicroOp.__slots__:
        expected = 2 if slot == "index" else getattr(original, slot)
        assert getattr(clone, slot) == expected, slot
