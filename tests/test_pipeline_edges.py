"""Edge-case behaviour of the pipeline model."""

import pytest

from repro.core.config import IrawConfig
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import Opcode
from repro.memory.hierarchy import MemoryConfig
from repro.pipeline.core import CoreSetup, InOrderCore, simulate
from repro.pipeline.resources import PipelineParams
from repro.workloads.trace import Trace


def alu(index, dest=1, srcs=(), pc=None):
    return MicroOp(index, Opcode.ADD, dest=dest, srcs=srcs, imm=1,
                   pc=0x1000 + 4 * index if pc is None else pc)


class TestDegenerateTraces:
    def test_single_instruction(self):
        result = simulate(Trace("one", [alu(0)]), IrawConfig.disabled())
        assert result.instructions == 1
        assert result.cycles > 0

    def test_all_nops(self):
        ops = [MicroOp(i, Opcode.NOP, pc=0x1000 + 4 * i) for i in range(50)]
        result = simulate(Trace("nops", ops),
                          IrawConfig(stabilization_cycles=1))
        assert result.instructions == 50
        assert result.iraw_violations == 0

    def test_serial_dependency_chain(self):
        """Every op depends on the previous one: IPC <= 1 by construction."""
        ops = [alu(0, dest=1)]
        for i in range(1, 60):
            ops.append(alu(i, dest=1, srcs=(1,)))
        result = simulate(Trace("chain", ops), IrawConfig.disabled())
        assert result.ipc <= 1.0

    def test_store_only_stream(self):
        ops = [MicroOp(i, Opcode.ST, srcs=(1, 2), mem_addr=0x4000 + 8 * i,
                       pc=0x1000 + 4 * i) for i in range(40)]
        result = simulate(Trace("stores", ops),
                          IrawConfig(stabilization_cycles=1))
        assert result.instructions == 40
        assert result.iraw_violations == 0

    def test_load_only_stream_same_line(self):
        ops = [MicroOp(i, Opcode.LD, dest=1 + (i % 8), srcs=(9,),
                       mem_addr=0x4000, pc=0x1000 + 4 * i)
               for i in range(40)]
        result = simulate(Trace("loads", ops),
                          IrawConfig(stabilization_cycles=1))
        assert result.instructions == 40


class TestConfigurationVariants:
    def test_narrow_machine(self):
        params = PipelineParams(fetch_width=1, alloc_width=1,
                                issue_window=1, iq_size=8,
                                fetch_buffer_size=2)
        ops = [alu(i, dest=1 + (i % 8)) for i in range(60)]
        result = simulate(Trace("narrow", ops), IrawConfig.disabled(),
                          params=params)
        assert result.ipc <= 1.0

    def test_tiny_caches_still_correct(self):
        memory = MemoryConfig(dl0_size=1024, dl0_assoc=2,
                              il0_size=1024, il0_assoc=2,
                              ul1_size=4096, ul1_assoc=2,
                              dram_latency_cycles=50)
        from repro.workloads.kernels import kernel_trace
        trace, _ = kernel_trace("memcpy", 64)
        result = simulate(trace, IrawConfig(stabilization_cycles=1),
                          memory=memory)
        assert result.value_mismatches == 0
        assert result.iraw_violations == 0
        assert result.memory_stats["DL0"]["miss_rate"] > 0.05

    def test_max_stabilization_respected(self):
        with pytest.raises(Exception):
            IrawConfig(stabilization_cycles=3, max_stabilization_cycles=2)

    def test_core_is_single_use_but_reconstructable(self):
        trace = Trace("t", [alu(i, dest=1 + (i % 4)) for i in range(30)])
        setup = CoreSetup(iraw=IrawConfig(stabilization_cycles=1))
        first = InOrderCore(setup).run(trace)
        second = InOrderCore(setup).run(trace)
        assert first.cycles == second.cycles


class TestStallAccountingInvariants:
    def test_stall_plus_issue_covers_all_cycles(self):
        """Sanity: charged stalls never exceed total cycles."""
        from repro.workloads.profiles import OFFICE_LIKE
        from repro.workloads.synthetic import SyntheticTraceGenerator
        trace = SyntheticTraceGenerator(OFFICE_LIKE, seed=3).generate(3000)
        result = simulate(trace, IrawConfig(stabilization_cycles=1))
        assert result.stalls.total_stall_cycles <= result.cycles

    def test_violation_free_across_all_n(self):
        from repro.workloads.profiles import SERVER_LIKE
        from repro.workloads.synthetic import SyntheticTraceGenerator
        trace = SyntheticTraceGenerator(SERVER_LIKE, seed=1).generate(2500)
        for n in (0, 1, 2):
            iraw = (IrawConfig(stabilization_cycles=n) if n
                    else IrawConfig.disabled())
            result = simulate(trace, iraw)
            assert result.iraw_violations == 0, n
