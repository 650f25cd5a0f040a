"""Tests for the synthetic trace generator."""

import pytest

from repro.errors import ConfigError, TraceError
from repro.isa.opcodes import OpClass
from repro.workloads.profiles import (
    KERNEL_LIKE,
    OFFICE_LIKE,
    SPECINT_LIKE,
    TraceProfile,
)
from repro.workloads.synthetic import SyntheticTraceGenerator
from repro.workloads.trace import Trace


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = SyntheticTraceGenerator(SPECINT_LIKE, seed=3).generate(2000)
        b = SyntheticTraceGenerator(SPECINT_LIKE, seed=3).generate(2000)
        for op_a, op_b in zip(a.ops, b.ops):
            assert op_a.opcode == op_b.opcode
            assert op_a.pc == op_b.pc
            assert op_a.srcs == op_b.srcs
            assert op_a.mem_addr == op_b.mem_addr
            assert op_a.taken == op_b.taken

    def test_different_seeds_differ(self):
        a = SyntheticTraceGenerator(SPECINT_LIKE, seed=0).generate(2000)
        b = SyntheticTraceGenerator(SPECINT_LIKE, seed=1).generate(2000)
        assert any(x.pc != y.pc or x.opcode != y.opcode
                   for x, y in zip(a.ops, b.ops))


class TestShape:
    def test_requested_length(self):
        trace = SyntheticTraceGenerator(SPECINT_LIKE, seed=0).generate(1234)
        assert len(trace) == 1234

    def test_rejects_nonpositive_length(self):
        generator = SyntheticTraceGenerator(SPECINT_LIKE, seed=0)
        with pytest.raises(ConfigError):
            generator.generate(0)

    def test_indices_are_sequential(self):
        trace = SyntheticTraceGenerator(OFFICE_LIKE, seed=0).generate(500)
        for position, op in enumerate(trace.ops):
            assert op.index == position

    def test_mix_tracks_profile_weights(self):
        """Store-heavy profile stores more than the integer profile."""
        kernel = SyntheticTraceGenerator(KERNEL_LIKE, seed=0).generate(6000)
        specint = SyntheticTraceGenerator(SPECINT_LIKE, seed=0).generate(6000)
        k_stores = kernel.class_mix().get(OpClass.STORE, 0)
        s_stores = specint.class_mix().get(OpClass.STORE, 0)
        assert k_stores > s_stores

    def test_fp_profile_emits_fp(self):
        from repro.workloads.profiles import SPECFP_LIKE
        trace = SyntheticTraceGenerator(SPECFP_LIKE, seed=0).generate(4000)
        mix = trace.class_mix()
        assert mix.get(OpClass.FP_ADD, 0) + mix.get(OpClass.FP_MUL, 0) > 0.1


class TestProgramStructure:
    def test_pcs_recur_across_iterations(self):
        """Loops revisit the same static pcs (BP needs this)."""
        trace = SyntheticTraceGenerator(SPECINT_LIKE, seed=0).generate(4000)
        pcs = [op.pc for op in trace.ops]
        assert len(set(pcs)) < len(pcs) / 4

    def test_loop_branches_mostly_taken(self):
        trace = SyntheticTraceGenerator(KERNEL_LIKE, seed=0).generate(4000)
        branches = [op for op in trace.ops if op.opclass is OpClass.BRANCH]
        taken = sum(1 for b in branches if b.taken)
        assert taken / max(1, len(branches)) > 0.7

    def test_calls_are_matched_by_returns(self):
        trace = SyntheticTraceGenerator(OFFICE_LIKE, seed=0).generate(8000)
        calls = sum(1 for op in trace.ops if op.is_call)
        rets = sum(1 for op in trace.ops if op.is_return)
        assert calls > 0
        assert abs(calls - rets) <= max(2, calls * 0.2)

    def test_memory_addresses_within_working_set(self):
        profile = SPECINT_LIKE
        trace = SyntheticTraceGenerator(profile, seed=0).generate(4000)
        limit = profile.working_set_kb * 1024 * 2
        for op in trace.ops:
            if op.mem_addr is not None:
                assert 0 <= op.mem_addr < limit

    def test_store_load_aliasing_present(self):
        """The STable stress pairs must exist (same word, store then load)."""
        trace = SyntheticTraceGenerator(KERNEL_LIKE, seed=0).generate(6000)
        found = 0
        recent_store = None
        for op in trace.ops:
            if op.is_store:
                recent_store = (op.index, op.mem_addr)
            elif op.is_load and recent_store is not None:
                index, addr = recent_store
                if op.index - index <= 4 and op.mem_addr == addr:
                    found += 1
        assert found > 0


class TestDependencyDistances:
    def test_profile_controls_distance(self):
        short = TraceProfile(name="short-dep", dep_distance_geom_p=0.8)
        long = TraceProfile(name="long-dep", dep_distance_geom_p=0.1)

        def mean_distance(profile):
            trace = SyntheticTraceGenerator(profile, seed=0).generate(4000)
            last_writer = {}
            distances = []
            for op in trace.ops:
                for src in op.srcs:
                    if src in last_writer:
                        distances.append(op.index - last_writer[src])
                if op.dest is not None:
                    last_writer[op.dest] = op.index
            return sum(distances) / max(1, len(distances))

        assert mean_distance(short) < mean_distance(long)


class TestPopulation:
    def test_trace_validation(self):
        from repro.isa.instructions import MicroOp
        from repro.isa.opcodes import Opcode
        with pytest.raises(TraceError):
            Trace("bad", [MicroOp(5, Opcode.NOP)])
        trace = SyntheticTraceGenerator(SPECINT_LIKE, seed=1).generate(50)
        segment = trace.segment(10, 20, "middle")
        # A view holds the trace's own MicroOps, indices unchanged.
        assert len(segment) == 20 and segment.start == 10
        assert all(view is op for view, op in zip(segment.ops,
                                                  trace.ops[10:30]))
        assert trace.segment(10, 0, "empty").ops == []
        with pytest.raises(TraceError):
            Trace("gap", trace.ops[10:12] + trace.ops[13:20], start=10)
        with pytest.raises(TraceError):
            Trace("shifted", trace.ops[10:20], start=9)
