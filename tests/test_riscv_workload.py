"""RV32I workload frontend: loader, interpreter, trace and spec tests.

The centerpiece is a differential harness in the mold of
``test_differential.py``: hypothesis generates random (always
terminating) RV32I programs, an *independent* reference interpreter in
this file — signed-integer register file, structured nothing like
:class:`Rv32iMachine` — produces the expected per-instruction state
trace, and :func:`diff_state_traces` must find no divergence.  Any
decoder or semantics bug is reported at the exact first divergent
instruction.

Around it: unit tests for the flat/ELF loaders, interpreter corner
semantics (sign extension, shifts, unsigned compares, jalr bit-zero
clearing, the hardwired ``x0``), the RV32I-to-micro-op lowering, the
spec-file plumbing, and the cache-key contract — editing one byte of a
program file moves exactly that trace's shard key.
"""

import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import rv32i_programs  # noqa: E402  (sibling fixture-builder module)

from repro.circuits.frequency import ClockScheme
from repro.engine import job_key, shard_jobs
from repro.errors import ConfigError, TraceError
from repro.experiments import Experiment, ExperimentSpec, RiscvProgramRef
from repro.isa.opcodes import Opcode
from repro.isa.rv32i import Instruction, assemble_words, disassemble, encode
from repro.workloads.profiles import KERNEL_LIKE
from repro.workloads.riscv import (
    DEFAULT_STACK_TOP,
    LoadedImage,
    RiscvProgram,
    Rv32iMachine,
    StepState,
    diff_state_traces,
    load_image,
    run_riscv_program,
    state_trace,
)

pytestmark = pytest.mark.engine


def program_of(*instrs: Instruction, **overrides) -> RiscvProgram:
    return RiscvProgram(name="t", data=assemble_words(instrs), **overrides)


def machine_after(*instrs: Instruction, **overrides) -> Rv32iMachine:
    """Step a machine through exactly the given instructions."""
    machine = Rv32iMachine(program_of(*instrs, **overrides))
    for _ in instrs:
        machine.step()
    return machine


EXIT_SEQ = (Instruction("addi", rd=17, rs1=0, imm=93), Instruction("ecall"))


class TestLoaders:
    def test_flat_image_loads_at_zero(self):
        image = load_image(b"\x01\x02\x03")
        assert image == LoadedImage(memory={0: 1, 1: 2, 2: 3}, entry=0)

    def test_elf_segments_and_entry(self):
        data = rv32i_programs.build_memcpy()
        image = load_image(data)
        assert image.entry == 0x1000
        assert image.memory[0x2000] == 1 and image.memory[0x2017] == 24
        assert 0 not in image.memory  # nothing placed at address zero

    def test_elf_bss_tail_is_zeroed(self):
        data = bytearray(rv32i_programs.elf32([(0x1000, b"\xAA\xBB")], 0x1000))
        # Grow p_memsz (phdr offset 52, field offset 20) past p_filesz.
        data[52 + 20:52 + 24] = (6).to_bytes(4, "little")
        image = load_image(bytes(data))
        assert image.memory[0x1000] == 0xAA
        assert [image.memory[0x1002 + i] for i in range(4)] == [0, 0, 0, 0]

    @pytest.mark.parametrize("patch,what", [
        ((4, 2), "ELF64 class"),
        ((5, 2), "big-endian"),
        ((18, 62), "wrong machine"),
    ])
    def test_unsupported_elf_flavors_raise(self, patch, what):
        data = bytearray(rv32i_programs.build_memcpy())
        offset, value = patch
        data[offset] = value
        with pytest.raises(TraceError):
            load_image(bytes(data))

    def test_truncated_elf_raises(self):
        with pytest.raises(TraceError):
            load_image(rv32i_programs.build_memcpy()[:40])

    def test_from_file_missing_path_raises(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            RiscvProgram.from_file(tmp_path / "nope.bin")

    def test_program_validation(self):
        with pytest.raises(TraceError, match="empty image"):
            RiscvProgram(name="x", data=b"")
        with pytest.raises(TraceError, match="non-empty name"):
            RiscvProgram(name="", data=b"\x13\x00\x00\x00")
        with pytest.raises(TraceError, match="max_instructions"):
            RiscvProgram(name="x", data=b"\x13\x00\x00\x00",
                         max_instructions=0)


class TestInterpreterSemantics:
    def test_x0_is_hardwired_to_zero(self):
        machine = machine_after(Instruction("addi", rd=0, rs1=0, imm=77))
        assert machine.regs[0] == 0

    def test_stack_pointer_defaults_high(self):
        assert Rv32iMachine(program_of(Instruction("fence"))).regs[2] == \
            DEFAULT_STACK_TOP

    def test_arithmetic_vs_logical_right_shift(self):
        machine = machine_after(
            Instruction("addi", rd=5, rs1=0, imm=-8),   # 0xFFFFFFF8
            Instruction("srai", rd=6, rs1=5, imm=2),
            Instruction("srli", rd=7, rs1=5, imm=2),
        )
        assert machine.regs[6] == 0xFFFFFFFE
        assert machine.regs[7] == 0x3FFFFFFE

    def test_signed_vs_unsigned_compare(self):
        machine = machine_after(
            Instruction("addi", rd=5, rs1=0, imm=-1),
            Instruction("slt", rd=6, rs1=5, rs2=0),     # -1 < 0 signed
            Instruction("sltu", rd=7, rs1=5, rs2=0),    # 0xFFFFFFFF < 0 ?
        )
        assert machine.regs[6] == 1
        assert machine.regs[7] == 0

    def test_load_sign_and_zero_extension(self):
        machine = machine_after(
            Instruction("addi", rd=5, rs1=0, imm=-128),  # 0xFFFFFF80
            Instruction("sb", rs1=0, rs2=5, imm=64),
            Instruction("lb", rd=6, rs1=0, imm=64),
            Instruction("lbu", rd=7, rs1=0, imm=64),
        )
        assert machine.regs[6] == 0xFFFFFF80  # sign-extended back
        assert machine.regs[7] == 0x80        # zero-extended

    def test_store_masks_to_access_width(self):
        machine = machine_after(
            Instruction("lui", rd=5, imm=0x12345),
            Instruction("addi", rd=5, rs1=5, imm=0x678),
            Instruction("sh", rs1=0, rs2=5, imm=64),
            Instruction("lw", rd=6, rs1=0, imm=64),
        )
        assert machine.regs[6] == 0x5678  # upper half never written

    def test_unmapped_memory_reads_zero(self):
        machine = machine_after(Instruction("lw", rd=5, rs1=0, imm=0x400))
        assert machine.regs[5] == 0

    def test_jalr_clears_bit_zero_and_links(self):
        machine = machine_after(
            Instruction("addi", rd=5, rs1=0, imm=13),
            Instruction("jalr", rd=1, rs1=5, imm=0),
        )
        assert machine.pc == 12         # 13 & ~1
        assert machine.regs[1] == 8     # return address

    def test_taken_branch_redirects(self):
        machine = machine_after(Instruction("beq", rs1=0, rs2=0, imm=-8))
        assert machine.pc == (0 - 8) & 0xFFFFFFFF

    def test_exit_syscall_halts_with_code(self):
        machine = machine_after(
            Instruction("addi", rd=10, rs1=0, imm=42), *EXIT_SEQ)
        assert machine.halted and machine.exit_code == 42
        assert machine.step() is None

    def test_ebreak_halts_without_exit_code(self):
        machine = machine_after(Instruction("ebreak"))
        assert machine.halted and machine.exit_code is None

    def test_unsupported_syscall_raises(self):
        with pytest.raises(TraceError, match="unsupported syscall 64"):
            machine_after(Instruction("addi", rd=17, rs1=0, imm=64),
                          Instruction("ecall"))

    def test_illegal_word_names_program_and_pc(self):
        program = RiscvProgram(name="bad", data=b"\x00\x00\x00\x00")
        with pytest.raises(TraceError, match=r"'bad': pc 0x0"):
            Rv32iMachine(program).step()

    def test_misaligned_pc_raises(self):
        program = program_of(Instruction("fence"), entry=2)
        with pytest.raises(TraceError, match="misaligned pc"):
            Rv32iMachine(program).step()

    def test_instruction_budget_enforced(self):
        # jal x0, 0 is a tight infinite loop.
        program = program_of(Instruction("jal", rd=0, imm=0),
                             max_instructions=10)
        machine = Rv32iMachine(program)
        with pytest.raises(TraceError, match="exceeded 10 instructions"):
            while True:
                machine.step()


class TestTraceEmission:
    #: fence / seed / call / exit-prep / ecall / callee / return.
    CALL_PROGRAM = (
        Instruction("fence"),                       # 0x00
        Instruction("addi", rd=10, rs1=0, imm=5),   # 0x04
        Instruction("jal", rd=1, imm=12),           # 0x08 -> 0x14
        Instruction("addi", rd=17, rs1=0, imm=93),  # 0x0C
        Instruction("ecall"),                       # 0x10
        Instruction("add", rd=10, rs1=10, rs2=10),  # 0x14 (double)
        Instruction("jalr", rd=0, rs1=1, imm=0),    # 0x18 -> 0x0C
    )

    def test_trace_shape_and_metadata(self):
        program = program_of(*self.CALL_PROGRAM)
        trace, machine = run_riscv_program(program)
        assert trace.source == "riscv"
        assert trace.name == "t"
        assert trace.metadata == {"program_sha256": program.sha256,
                                  "instructions_executed": 7,
                                  "exit_code": 10}
        assert machine.exit_code == 10

    def test_micro_op_lowering(self):
        trace, _ = run_riscv_program(program_of(*self.CALL_PROGRAM))
        ops = [op.opcode for op in trace.ops]
        # The halting ecall is dropped, like the mini ISA drops HALT.
        assert ops == [Opcode.NOP, Opcode.ADD, Opcode.CALL, Opcode.ADD,
                       Opcode.RET, Opcode.ADD]
        call = trace.ops[2]
        assert call.taken is True and call.target == 0x14
        ret = trace.ops[4]
        assert ret.taken is True and ret.target == 0x0C

    def test_x0_destination_becomes_none(self):
        trace, _ = run_riscv_program(program_of(
            Instruction("addi", rd=0, rs1=0, imm=9), *EXIT_SEQ))
        assert trace.ops[0].opcode == Opcode.ADD
        assert trace.ops[0].dest is None

    def test_branch_lowering_records_direction(self):
        trace, _ = run_riscv_program(program_of(
            Instruction("beq", rs1=0, rs2=0, imm=8),    # taken, skips next
            Instruction("addi", rd=5, rs1=0, imm=1),
            Instruction("bne", rs1=0, rs2=0, imm=8),    # never taken
            *EXIT_SEQ))
        beq, bne = trace.ops[0], trace.ops[1]
        assert beq.opcode == Opcode.BEQ and beq.taken is True and beq.target == 8
        assert bne.opcode == Opcode.BNE and bne.taken is False

    def test_memory_ops_carry_addresses(self):
        trace, _ = run_riscv_program(program_of(
            Instruction("addi", rd=5, rs1=0, imm=7),
            Instruction("sw", rs1=0, rs2=5, imm=64),
            Instruction("lw", rd=6, rs1=0, imm=64),
            *EXIT_SEQ))
        store, load = trace.ops[1], trace.ops[2]
        assert store.opcode == Opcode.ST and store.mem_addr == 64
        assert store.srcs == (5, 0)  # value register first, then base
        assert load.opcode == Opcode.LD and load.mem_addr == 64
        assert load.dest == 6


class TestStateTraceHarness:
    def test_step_state_dict_round_trip(self):
        record = next(state_trace(program_of(*EXIT_SEQ)))
        assert StepState.from_dict(record.to_dict()) == record

    def test_identical_traces_have_no_divergence(self):
        program = program_of(*TestTraceEmission.CALL_PROGRAM)
        assert diff_state_traces(state_trace(program),
                                 state_trace(program)) is None

    def test_divergence_names_first_bad_instruction(self):
        program = program_of(*TestTraceEmission.CALL_PROGRAM)
        expected = list(state_trace(program))
        mutated = list(expected)
        broken = mutated[1].to_dict()
        broken["rd_value"] = 6
        mutated[1] = StepState.from_dict(broken)
        divergence = diff_state_traces(mutated, state_trace(program))
        assert divergence is not None
        assert (divergence.index, divergence.field) == (1, "rd_value")
        assert str(divergence) == (
            "first divergence at instruction #1 (addi x10, x0, 5): "
            "rd_value expected 6, got 5")

    def test_length_mismatch_is_reported(self):
        program = program_of(*TestTraceEmission.CALL_PROGRAM)
        expected = list(state_trace(program))
        divergence = diff_state_traces(expected[:-1], expected)
        assert divergence.field == "length"
        assert divergence.asm == "<end of trace>"


# --------------------------------------------------------------------------
# Differential fuzzing against an independent reference interpreter.
# --------------------------------------------------------------------------

def _u32(value: int) -> int:
    return value & 0xFFFFFFFF


def _s32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x1_0000_0000 if value >= 0x8000_0000 else value


def reference_trace(instrs) -> tuple[list[StepState], int | None]:
    """Execute ``instrs`` with an independent reference interpreter.

    Deliberately structured unlike :class:`Rv32iMachine`: registers hold
    *signed* Python ints, the Instruction list is executed directly
    (no fetch/decode), and every operator is written from the ISA manual
    rather than shared lambda tables.  Returns the expected state trace
    plus the exit code.
    """
    regs = [0] * 32
    regs[2] = _s32(DEFAULT_STACK_TOP)
    memory: dict[int, int] = {}
    code = {i * 4: ins for i, ins in enumerate(instrs)}
    pc, index, records = 0, 0, []
    exit_code = None
    while True:
        ins = code[pc]
        m, imm = ins.mnemonic, ins.imm
        a, b = regs[ins.rs1], regs[ins.rs2]
        value = None
        mem_addr = mem_value = None
        nxt: int | None = pc + 4
        if m in ("add", "addi"):
            value = _s32(a + (imm if m == "addi" else b))
        elif m == "sub":
            value = _s32(a - b)
        elif m in ("sll", "slli"):
            value = _s32(a << ((imm if m == "slli" else b) & 31))
        elif m in ("srl", "srli"):
            value = _s32(_u32(a) >> ((imm if m == "srli" else b) & 31))
        elif m in ("sra", "srai"):
            value = a >> ((imm if m == "srai" else b) & 31)
        elif m in ("slt", "slti"):
            value = int(a < (imm if m == "slti" else b))
        elif m in ("sltu", "sltiu"):
            value = int(_u32(a) < _u32(imm if m == "sltiu" else b))
        elif m in ("xor", "xori"):
            value = _s32(a ^ (imm if m == "xori" else b))
        elif m in ("or", "ori"):
            value = _s32(a | (imm if m == "ori" else b))
        elif m in ("and", "andi"):
            value = _s32(a & (imm if m == "andi" else b))
        elif m == "lui":
            value = _s32(imm << 12)
        elif m == "auipc":
            value = _s32(pc + (imm << 12))
        elif m == "jal":
            value = _s32(pc + 4)
            nxt = _u32(pc + imm)
        elif m == "jalr":
            value = _s32(pc + 4)
            nxt = _u32(a + imm) & ~1
        elif m in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            taken = {"beq": a == b, "bne": a != b, "blt": a < b,
                     "bge": a >= b, "bltu": _u32(a) < _u32(b),
                     "bgeu": _u32(a) >= _u32(b)}[m]
            if taken:
                nxt = _u32(pc + imm)
        elif m in ("lb", "lh", "lw", "lbu", "lhu"):
            size = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}[m]
            mem_addr = _u32(a + imm)
            raw = sum(memory.get(_u32(mem_addr + i), 0) << (8 * i)
                      for i in range(size))
            if m in ("lb", "lh") and raw >> (8 * size - 1):
                raw -= 1 << (8 * size)
            value = _s32(raw)
        elif m in ("sb", "sh", "sw"):
            size = {"sb": 1, "sh": 2, "sw": 4}[m]
            mem_addr = _u32(a + imm)
            mem_value = _u32(b) & ((1 << (8 * size)) - 1)
            for i in range(size):
                memory[_u32(mem_addr + i)] = (mem_value >> (8 * i)) & 0xFF
        elif m == "fence":
            pass
        elif m == "ebreak":
            nxt = None
        elif m == "ecall":
            assert _u32(regs[17]) == 93
            exit_code = _u32(regs[10])
            nxt = None
        rd = None
        if value is not None and ins.rd != 0:
            rd = ins.rd
            regs[rd] = value
        records.append(StepState(
            index=index, pc=pc, word=encode(ins), asm=disassemble(ins),
            rd=rd, rd_value=None if rd is None else _u32(value),
            mem_addr=mem_addr, mem_value=mem_value, next_pc=nxt))
        index += 1
        if nxt is None:
            return records, exit_code
        pc = nxt


_WORK_REGS = (5, 6, 7, 10, 11, 12)
_ALU_RR = ("add", "sub", "sll", "srl", "sra", "slt", "sltu",
           "xor", "or", "and")
_ALU_I = ("addi", "slti", "sltiu", "xori", "ori", "andi")
_SHIFT_I = ("slli", "srli", "srai")
_LOAD = ("lb", "lh", "lw", "lbu", "lhu")
_STORE = ("sb", "sh", "sw")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


@st.composite
def random_rv32i_program(draw) -> list[Instruction]:
    """A random, always-terminating RV32I program ending in exit."""
    instrs = [Instruction("lui", rd=14, imm=0x8)]  # x14 = 0x8000 scratch
    for reg in _WORK_REGS:
        instrs.append(Instruction("addi", rd=reg, rs1=0,
                                  imm=draw(st.integers(-2048, 2047))))
    for _ in range(draw(st.integers(1, 15))):
        kind = draw(st.sampled_from(
            ("rr", "rr", "imm", "shift", "upper", "load", "store",
             "branch", "jump")))
        rd = draw(st.sampled_from(_WORK_REGS))
        rs1 = draw(st.sampled_from(_WORK_REGS + (0,)))
        rs2 = draw(st.sampled_from(_WORK_REGS + (0,)))
        if kind == "rr":
            instrs.append(Instruction(draw(st.sampled_from(_ALU_RR)),
                                      rd=rd, rs1=rs1, rs2=rs2))
        elif kind == "imm":
            instrs.append(Instruction(draw(st.sampled_from(_ALU_I)),
                                      rd=rd, rs1=rs1,
                                      imm=draw(st.integers(-2048, 2047))))
        elif kind == "shift":
            instrs.append(Instruction(draw(st.sampled_from(_SHIFT_I)),
                                      rd=rd, rs1=rs1,
                                      imm=draw(st.integers(0, 31))))
        elif kind == "upper":
            instrs.append(Instruction(draw(st.sampled_from(("lui",
                                                            "auipc"))),
                                      rd=rd,
                                      imm=draw(st.integers(0, 0xFFFFF))))
        elif kind == "load":
            instrs.append(Instruction(draw(st.sampled_from(_LOAD)),
                                      rd=rd, rs1=14,
                                      imm=draw(st.integers(0, 64))))
        elif kind == "store":
            instrs.append(Instruction(draw(st.sampled_from(_STORE)),
                                      rs1=14, rs2=rs2,
                                      imm=draw(st.integers(0, 64))))
        elif kind == "branch":
            # Forward skip-one: terminating whichever way it resolves.
            instrs.append(Instruction(draw(st.sampled_from(_BRANCHES)),
                                      rs1=rs1, rs2=rs2, imm=8))
            instrs.append(Instruction("addi", rd=rd, rs1=rd, imm=1))
        else:
            instrs.append(Instruction("jal",
                                      rd=draw(st.sampled_from((0, 1))),
                                      imm=8))
            instrs.append(Instruction("addi", rd=rd, rs1=rd, imm=-1))
    instrs.append(Instruction("addi", rd=17, rs1=0, imm=93))
    instrs.append(Instruction("ecall"))
    return instrs


class TestReferenceDifferential:
    @settings(max_examples=100, deadline=None)
    @given(random_rv32i_program())
    def test_machine_matches_reference(self, instrs):
        expected, exit_code = reference_trace(instrs)
        program = RiscvProgram(name="fuzz", data=assemble_words(instrs))
        divergence = diff_state_traces(expected, state_trace(program))
        assert divergence is None, str(divergence)
        _, machine = run_riscv_program(program)
        assert machine.exit_code == exit_code


# --------------------------------------------------------------------------
# Engine plumbing: cache keys and spec files.
# --------------------------------------------------------------------------

class TestCacheKeys:
    """Job keys derive from program *bytes*, mirroring the add-a-trace
    contract in test_engine_sharding.py: one edited binary re-simulates
    exactly one trace."""

    @staticmethod
    def shard_key_by_label(paths) -> dict[str, str]:
        experiment = Experiment(ExperimentSpec(
            name="keys", profiles=(KERNEL_LIKE.name,), trace_length=300,
            riscv=tuple(RiscvProgramRef(path.stem, str(path))
                        for path in paths)))
        job = experiment.population_job(500.0, ClockScheme.IRAW)
        return {shard.trace.label: job_key(shard)
                for shard in shard_jobs(job)}

    def test_one_byte_edit_moves_only_that_trace_key(self, tmp_path):
        loop = tmp_path / "loop.bin"
        mix = tmp_path / "mix.bin"
        loop.write_bytes(rv32i_programs.build_loop())
        mix.write_bytes(rv32i_programs.build_mix())
        before = self.shard_key_by_label([loop, mix])
        assert set(before) == {"kernel-like/seed0", "loop", "mix"}

        data = bytearray(loop.read_bytes())
        data[4] ^= 0x01  # flip one bit of one instruction
        loop.write_bytes(bytes(data))
        after = self.shard_key_by_label([loop, mix])
        changed = [label for label in before
                   if before[label] != after[label]]
        assert changed == ["loop"]

    def test_moving_a_binary_keeps_its_key(self, tmp_path):
        original = tmp_path / "loop.bin"
        original.write_bytes(rv32i_programs.build_loop())
        moved = tmp_path / "elsewhere" / "loop.bin"
        moved.parent.mkdir()
        moved.write_bytes(original.read_bytes())
        assert self.shard_key_by_label([original]) == \
            self.shard_key_by_label([moved])


class TestSpecIntegration:
    def make_spec_file(self, tmp_path, body: str) -> pathlib.Path:
        path = tmp_path / "campaign.toml"
        path.write_text(body, encoding="utf-8")
        return path

    RISCV_ONLY = """\
name = "riscv-only"
artifacts = ["table1"]

[population.riscv.loop]
path = "loop.bin"

[grid]
vcc_mv = [500.0]
schemes = ["iraw"]

[table1]
vcc_mv = 500.0
"""

    def test_load_resolves_paths_against_spec_dir(self, tmp_path):
        (tmp_path / "loop.bin").write_bytes(rv32i_programs.build_loop())
        spec = ExperimentSpec.load(
            self.make_spec_file(tmp_path, self.RISCV_ONLY))
        assert spec.riscv[0].name == "loop"
        assert pathlib.Path(spec.riscv[0].path) == tmp_path / "loop.bin"
        assert spec.has_population()

    def test_riscv_only_population_runs(self, tmp_path):
        (tmp_path / "loop.bin").write_bytes(rv32i_programs.build_loop())
        spec = ExperimentSpec.load(
            self.make_spec_file(tmp_path, self.RISCV_ONLY))
        experiment = Experiment(spec)
        experiment.run()
        assert experiment.artifacts()["table1"]

    def test_round_trip_preserves_riscv_tables(self, tmp_path):
        (tmp_path / "loop.bin").write_bytes(rv32i_programs.build_loop())
        spec = ExperimentSpec.load(
            self.make_spec_file(tmp_path, self.RISCV_ONLY))
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_missing_binary_fails_at_load_time(self):
        ref = RiscvProgramRef("ghost", "/nonexistent/ghost.bin")
        with pytest.raises(ConfigError, match="cannot read"):
            ref.load()

    def test_ref_validation(self):
        with pytest.raises(ConfigError, match="must use only"):
            RiscvProgramRef("has.dots", "x.bin")
        with pytest.raises(ConfigError, match="needs a path"):
            RiscvProgramRef("ok", "")
        with pytest.raises(ConfigError, match="max_instructions"):
            RiscvProgramRef("ok", "x.bin", max_instructions=0)

    def test_duplicate_program_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentSpec(name="dup", vcc_mv=(500.0,),
                           riscv=(RiscvProgramRef("p", "a.bin"),
                                  RiscvProgramRef("p", "b.bin")))

    def test_unknown_riscv_key_rejected(self):
        with pytest.raises(ConfigError):
            RiscvProgramRef.from_dict("loop", {"path": "x.bin",
                                               "entry": 4096})
