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
from repro.analysis.dvfs import DvfsPhase, DvfsScenario
from repro.branch.iraw_effects import DeterminismMode
from repro.circuits.frequency import ClockScheme
from repro.core.config import IrawConfig
from repro.core.policy import IrawPolicy
from repro.engine.executors import warm_caches
from repro.errors import PipelineError
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import OpClass, Opcode
from repro.pipeline.core import CoreSetup, InOrderCore
from repro.pipeline.resources import PipelineParams
from repro.pipeline.stats import StallReason
from repro.workloads.kernels import KERNEL_BUILDERS, kernel_trace
from repro.workloads.profiles import SPECINT_LIKE, STANDARD_PROFILES
from repro.workloads.synthetic import SyntheticTraceGenerator
from repro.workloads.trace import Trace

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


# ----------------------------------------------------------------------
# Long stretches in which no stage can act
# ----------------------------------------------------------------------

def divide_chain(length: int) -> Trace:
    """Each divide reads the one before it: every divide after the
    first waits its producer's whole latency on the scoreboard."""
    ops = [MicroOp(index, Opcode.DIV, dest=1 + index % 20,
                   srcs=(1 + (index - 1) % 20,) if index else (25,),
                   pc=0x1000 + 4 * index)
           for index in range(length)]
    return Trace("divide-chain", ops)


def miss_chain(length: int) -> Trace:
    """Loads, each to its own line 4 KiB from the last, each feeding an
    add the next load's address depends on: DL0 and DTLB misses with
    their fill guards, and long waits on each load."""
    ops = []
    for index in range(length):
        ops.append(MicroOp(2 * index, Opcode.LD, dest=1, srcs=(2,),
                           pc=0x1000 + 8 * index,
                           mem_addr=0x10_0000 + 4160 * index))
        ops.append(MicroOp(2 * index + 1, Opcode.ADD, dest=2, srcs=(1,),
                           pc=0x1004 + 8 * index))
    return Trace("miss-chain", ops)


DEAD_STRETCH_SETUPS = [
    CoreSetup(iraw=IrawConfig.disabled()),
    CoreSetup(iraw=IrawConfig(stabilization_cycles=1)),
    CoreSetup(iraw=IrawConfig(stabilization_cycles=2)),
    CoreSetup(iraw=IrawConfig(stabilization_cycles=2, bypass_levels=0)),
    CoreSetup(iraw=IrawConfig(stabilization_cycles=2, iq_enabled=False)),
]


@pytest.mark.parametrize("setup", DEAD_STRETCH_SETUPS)
@pytest.mark.parametrize("warm", [False, True])
def test_divide_chain_matches_oracle(setup, warm):
    trace = divide_chain(40)
    fast, oracle = run_both(setup, trace, warm)
    assert fast == oracle
    # Each divide after the first waits out its producer: dozens of
    # cycles in a row in which no stage acts.
    latency = setup.params.latencies[OpClass.INT_DIV]
    assert fast.stalls.cycles[StallReason.RF_DEPENDENCY] >= 39 * (latency - 1)


@pytest.mark.parametrize("setup", DEAD_STRETCH_SETUPS)
def test_dl0_miss_chain_matches_oracle(setup):
    trace = miss_chain(60)
    fast, oracle = run_both(setup, trace, warm=False)
    assert fast == oracle
    assert fast.memory_stats["DL0"]["misses"] == 60
    assert fast.stalls.cycles[StallReason.RF_DEPENDENCY] > 60 * 100


@pytest.mark.parametrize("setup", DEAD_STRETCH_SETUPS[::2])
@pytest.mark.parametrize("max_cycles", [0, 3, 150, 170, 171, 190, 500, 900])
def test_budget_overrun_inside_a_dead_stretch(setup, max_cycles):
    """The budget check fires at the same cycle as the oracle's: the
    same message, and every stall cycle charged up to it, not past."""
    trace = divide_chain(40)
    cores, messages = [], []
    for core_class in (InOrderCore, OracleCore):
        core = core_class(setup)
        with pytest.raises(PipelineError) as excinfo:
            core.run(trace, max_cycles=max_cycles)
        cores.append(core)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    fast, oracle = cores
    assert fast.stalls == oracle.stalls
    assert fast.iq_violations == oracle.iq_violations
    assert sum(fast.stalls.cycles.values()) <= max_cycles + 1


def test_iq_window_violations_inside_a_dead_stretch():
    """With the Eq. 1 gate off, a one-wide core lets the IQ head issue
    while its entry stabilizes.  Here the head waits on a multiply
    inside that window; every waiting cycle counts a violation."""
    ops = [MicroOp(0, Opcode.MUL, dest=3, pc=0x1000),
           MicroOp(1, Opcode.FMUL, dest=2, pc=0x1004),
           MicroOp(2, Opcode.FMUL, dest=1, srcs=(3,), pc=0x1008)]
    setup = CoreSetup(
        iraw=IrawConfig(stabilization_cycles=2, iq_enabled=False),
        params=PipelineParams(fetch_width=1, alloc_width=1, issue_window=1))
    fast, oracle = run_both(setup, Trace("window", ops), warm=False)
    assert fast == oracle
    assert fast.iraw_violations == 4
