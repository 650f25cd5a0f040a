"""Behavioural tests for the fetch stage (mispredicts, icache, RSB)."""

import pytest

from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.core.config import IrawConfig
from repro.engine.executors import run_core, warm_caches
from repro.engine.jobs import TraceSpec
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import Opcode
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.pipeline.core import simulate
from repro.pipeline.resources import PipelineParams
from repro.workloads.trace import Trace


def alu(index, dest, pc):
    return MicroOp(index, Opcode.ADD, dest=dest, srcs=(), imm=1, pc=pc)


def run_ops(ops, **kwargs):
    trace = Trace("frontend-test", ops)
    return simulate(trace, IrawConfig.disabled(), **kwargs)


def loop_trace(iterations, taken_pattern=None):
    """A tiny loop: 3 ALU ops + a backedge branch, fixed pcs."""
    ops = []
    for iteration in range(iterations):
        base = 0x1000
        for slot in range(3):
            ops.append(alu(len(ops), dest=1 + slot, pc=base + 4 * slot))
        taken = iteration < iterations - 1 if taken_pattern is None \
            else taken_pattern[iteration]
        ops.append(MicroOp(len(ops), Opcode.BNE, srcs=(1,), pc=base + 12,
                           taken=taken, target=base))
    return Trace("loop", ops)


class TestBranchPrediction:
    def test_predictable_loop_has_few_mispredicts(self):
        trace = loop_trace(40)
        result = simulate(trace, IrawConfig.disabled())
        # Bimodal warms up in a couple of iterations; only the exit (and
        # the cold start) mispredict.
        assert result.branch_mispredicts <= 4
        assert result.branches == 40

    def test_alternating_branch_mispredicts_often(self):
        pattern = [i % 2 == 0 for i in range(40)]
        trace = loop_trace(40, taken_pattern=pattern)
        result = simulate(trace, IrawConfig.disabled())
        assert result.branch_mispredicts > 10

    def test_mispredicts_cost_cycles(self):
        predictable = loop_trace(40)
        noisy = loop_trace(40, taken_pattern=[i % 2 == 0
                                              for i in range(40)])
        fast = simulate(predictable, IrawConfig.disabled())
        slow = simulate(noisy, IrawConfig.disabled())
        assert slow.cycles > fast.cycles

    def test_mispredict_penalty_parameter(self):
        pattern = [i % 2 == 0 for i in range(30)]
        trace = loop_trace(30, taken_pattern=pattern)
        cheap = simulate(trace, IrawConfig.disabled(),
                         params=PipelineParams(mispredict_penalty=1))
        dear = simulate(trace, IrawConfig.disabled(),
                        params=PipelineParams(mispredict_penalty=20))
        assert dear.cycles > cheap.cycles


class TestInstructionCache:
    def test_cold_code_stalls_fetch(self):
        """Instructions spread over many lines: cold IL0 misses stall."""
        dense = [alu(i, dest=1 + (i % 4), pc=0x1000 + 4 * i)
                 for i in range(64)]
        sparse = [alu(i, dest=1 + (i % 4), pc=0x1000 + 256 * i)
                  for i in range(64)]
        dense_result = run_ops(dense)
        sparse_result = run_ops(sparse)
        assert sparse_result.cycles > dense_result.cycles
        assert sparse_result.memory_stats["IL0"]["misses"] > \
            dense_result.memory_stats["IL0"]["misses"]

    @pytest.mark.parametrize("line_size", [32, 64, 128])
    def test_fetch_and_warm_up_probe_each_configured_line_once(
            self, line_size):
        """A new fetch line is one of ``[memory] line_size`` bytes: fetch
        and warm-up each probe IL0 once per line crossing (no taken
        branch of this trace lands in its own line)."""
        trace = TraceSpec.synthetic("specint-like", seed=0,
                                    length=6000).build()
        lines = [op.pc // line_size for op in trace.ops]
        crossings = 1 + sum(a != b for a, b in zip(lines, lines[1:]))
        config = MemoryConfig(line_size=line_size)
        point = FrequencySolver().operating_point(500, ClockScheme.IRAW)
        run = run_core(trace, point, memory=config, warm=False)
        assert run.result.memory_stats["IL0"]["accesses"] == crossings
        memory = MemorySystem(config)
        memory.reset_after_warmup = lambda: None  # keep warm-up's counts
        warm_caches(memory, trace)
        assert memory.il0.accesses == crossings


class TestCallsAndReturns:
    def test_call_ret_sequence_predicts_well(self):
        ops = []
        for repetition in range(10):
            ops.append(MicroOp(len(ops), Opcode.CALL, pc=0x1000, taken=True,
                               target=0x2000))
            ops.append(alu(len(ops), dest=1, pc=0x2000))
            ops.append(MicroOp(len(ops), Opcode.RET, pc=0x2004, taken=True,
                               target=0x1004))
            ops.append(alu(len(ops), dest=2, pc=0x1004))
        result = run_ops(ops)
        # RSB predicts every return correctly.
        assert result.branch_mispredicts == 0

    def test_deep_recursion_overflows_rsb(self):
        """More nested calls than RSB entries -> some returns mispredict."""
        depth = 12  # RSB has 8 entries
        ops = []
        for level in range(depth):
            ops.append(MicroOp(len(ops), Opcode.CALL,
                               pc=0x1000 + 8 * level, taken=True,
                               target=0x1000 + 8 * (level + 1)))
        for level in reversed(range(depth)):
            ops.append(MicroOp(len(ops), Opcode.RET,
                               pc=0x1004 + 8 * level, taken=True,
                               target=0x1004 + 8 * level))
        result = run_ops(ops)
        assert result.branch_mispredicts > 0
