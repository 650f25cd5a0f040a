"""Synthetic dynamic-trace generator.

The generator builds a **static program skeleton** (functions, loops, basic
blocks with fixed per-slot operation classes) and then *walks* it to emit a
dynamic trace.  This two-level approach is what makes the traces behave
like real programs at the microarchitectural level:

* the same static pcs recur across loop iterations, so the branch predictor
  and the return stack see learnable patterns;
* loop-exit branches mispredict roughly once per loop, while a profile-
  controlled fraction of "noisy" data-dependent branches mispredicts often;
* register dependency distances follow a geometric distribution around the
  profile's knob — the lever that controls how many instructions fall into
  the IRAW stabilization bubble (the paper's 13.2%);
* memory references walk sequential streams or jump randomly inside the
  working set, and a profile-controlled fraction of stores is paired with
  a nearby load to the same line (STable full match) or same cache set
  (STable set-only match, the replay path of Figure 10).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import OpClass, Opcode
from repro.workloads.profiles import TraceProfile
from repro.workloads.trace import Trace

#: Destination pool: r1..r24 round-robin (r25+ reserved for conventions).
_DEST_POOL = tuple(range(1, 25))
#: How many recent destinations are remembered for dependency sampling.
_RECENT_WINDOW = 48
#: DL0 geometry used to build set-aliasing streams (24 KB, 6-way, 64 B).
_DL0_SET_STRIDE = 64 * 64  # sets x line size
_LINE = 64

#: Arithmetic opcodes that read one register even without an immediate.
_ONE_SOURCE_OPCODES = frozenset({Opcode.MOV, Opcode.LI, Opcode.SHL,
                                 Opcode.SHR})

_CLASS_OPCODES = {
    OpClass.INT_ALU: (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
                      Opcode.XOR, Opcode.SHL, Opcode.CMPLT),
    OpClass.INT_MUL: (Opcode.MUL,),
    OpClass.INT_DIV: (Opcode.DIV,),
    OpClass.FP_ADD: (Opcode.FADD,),
    OpClass.FP_MUL: (Opcode.FMUL,),
    OpClass.FP_DIV: (Opcode.FDIV,),
    OpClass.LOAD: (Opcode.LD,),
    OpClass.STORE: (Opcode.ST,),
}


#: Random streams draw from a small "hot" window with this probability,
#: giving them the temporal locality of real pointer-heavy code; the
#: window drifts periodically so the footprint is still exercised.
_HOT_PROBABILITY = 0.85
_HOT_SPAN = 4096
_HOT_DRIFT_PERIOD = 256


@dataclass
class _Stream:
    """One memory access stream inside the working set."""

    base: int
    span: int
    sequential: bool
    position: int = 0
    hot_base: int = 0
    accesses: int = 0

    def next_address(self, rng: random.Random) -> int:
        if self.sequential:
            addr = self.base + self.position
            self.position = (self.position + 8) % self.span
            return addr
        self.accesses += 1
        hot_span = min(_HOT_SPAN, self.span)
        if self.accesses % _HOT_DRIFT_PERIOD == 0:
            self.hot_base = rng.randrange(max(1, self.span - hot_span))
        if rng.random() < _HOT_PROBABILITY:
            word = rng.randrange(hot_span // 8)
            return self.base + self.hot_base + word * 8
        word = rng.randrange(self.span // 8)
        return self.base + word * 8


@dataclass
class _Slot:
    """A static instruction slot inside a basic block."""

    opcode: Opcode
    pc: int
    #: What the walk emits: ``"load"``, ``"store"`` or ``"arith"``.
    kind: str = "arith"
    #: Register sources the walk draws for it.
    sources: int = 1
    stream: int | None = None
    #: For paired store->load aliasing: offset the load by this many bytes
    #: from the previous store's address (0 = same line full match,
    #: _DL0_SET_STRIDE multiple = same set, different line).
    alias_with_store: int | None = None


@dataclass
class _Block:
    """A static basic block plus its terminator."""

    pc: int
    slots: list[_Slot]
    #: terminator: one of "loop", "cond", "call", "ret", "none"
    kind: str = "none"
    branch_pc: int = 0
    target_pc: int = 0
    callee: int | None = None


@dataclass
class _Function:
    blocks: list[_Block] = field(default_factory=list)


class SyntheticTraceGenerator:
    """Generates reproducible dynamic traces from a :class:`TraceProfile`."""

    def __init__(self, profile: TraceProfile, seed: int = 0):
        self._profile = profile
        self._seed = seed
        # zlib.crc32 rather than hash(): the latter is salted per process
        # and would make traces irreproducible across runs.
        name_hash = zlib.crc32(profile.name.encode()) & 0xFFFF
        self._rng = random.Random((seed << 16) ^ name_hash)
        self._next_pc = 0x1000
        self._streams = self._build_streams()
        self._functions = [self._build_function() for _ in
                           range(profile.function_count)]
        self._segments = [self._build_segment() for _ in
                          range(profile.main_segment_count)]

    # ------------------------------------------------------------------
    # Static skeleton construction
    # ------------------------------------------------------------------

    def _alloc_pc(self, count: int) -> int:
        base = self._next_pc
        self._next_pc += count * 4 + 32  # gap between blocks
        return base

    def _build_streams(self) -> list[_Stream]:
        profile = self._profile
        total = profile.working_set_kb * 1024
        span = max(_LINE * 4, total // profile.stream_count)
        streams = []
        for i in range(profile.stream_count):
            sequential = self._rng.random() < profile.spatial_fraction
            # Sequential streams re-walk a bounded array (real loops reuse
            # their data), random streams roam their full partition with
            # a drifting hot window.
            stream_span = min(span, 16 * 1024) if sequential else span
            streams.append(_Stream(base=i * span, span=stream_span,
                                   sequential=sequential))
        return streams

    def _sample_class(self) -> OpClass:
        p = self._profile
        classes = (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.INT_DIV,
                   OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV,
                   OpClass.LOAD, OpClass.STORE)
        weights = (p.alu_weight, p.mul_weight, p.div_weight,
                   p.fp_add_weight, p.fp_mul_weight, p.fp_div_weight,
                   p.load_weight, p.store_weight)
        return self._rng.choices(classes, weights)[0]

    def _build_block(self, size: int | None = None) -> _Block:
        profile = self._profile
        rng = self._rng
        if size is None:
            mean = profile.mean_block_size
            size = max(2, int(rng.gauss(mean, mean / 3)))
        pc = self._alloc_pc(size + 1)
        slots: list[_Slot] = []
        last_store_slot: int | None = None
        for i in range(size):
            opclass = self._sample_class()
            opcode = rng.choice(_CLASS_OPCODES[opclass])
            slot = _Slot(opcode=opcode, pc=pc + i * 4)
            if opclass in (OpClass.LOAD, OpClass.STORE):
                slot.stream = rng.randrange(len(self._streams))
                if opclass is OpClass.STORE:
                    slot.kind, slot.sources = "store", 2
                    last_store_slot = i
                else:
                    slot.kind = "load"
                    if (last_store_slot is not None
                            and i - last_store_slot <= 2
                            and rng.random()
                            < profile.store_load_alias_fraction):
                        # Pair this load with the recent store: half the
                        # pairs hit the same line (full match), half the
                        # same set (set-only match -> STable replay).
                        same_line = rng.random() < 0.5
                        slot.alias_with_store = (0 if same_line
                                                 else _DL0_SET_STRIDE)
            else:
                # Arithmetic reads two registers, or one when it takes an
                # immediate (some ALU ops do) or its opcode reads one.
                uses_imm = (opclass is OpClass.INT_ALU
                            and rng.random() < profile.imm_operand_fraction)
                if not uses_imm and opcode not in _ONE_SOURCE_OPCODES:
                    slot.sources = 2
            slots.append(slot)
        return _Block(pc=pc, slots=slots, branch_pc=pc + size * 4)

    def _build_function(self) -> _Function:
        blocks = [self._build_block() for _ in
                  range(self._rng.randint(1, 3))]
        blocks[-1].kind = "ret"
        return _Function(blocks=blocks)

    def _build_segment(self) -> list[_Block]:
        """One main-routine loop: body blocks plus a backedge terminator."""
        profile = self._profile
        rng = self._rng
        body_count = rng.randint(1, 3)
        blocks = [self._build_block() for _ in range(body_count)]
        rbf = profile.random_branch_fraction
        cond_prob = min(0.9, rbf / max(1e-6, (1.0 - rbf)) / body_count)
        for block in blocks[:-1]:
            roll = rng.random()
            if roll < cond_prob:
                block.kind = "cond"
            elif roll < cond_prob + profile.call_fraction:
                block.kind = "call"
                block.callee = rng.randrange(len(self._functions))
        blocks[-1].kind = "loop"
        blocks[-1].target_pc = blocks[0].pc
        # Single-block loops have no pre-loop slot for a call terminator,
        # so the loop block itself may call before its backedge.
        if rng.random() < profile.call_fraction * len(blocks):
            blocks[-1].callee = rng.randrange(len(self._functions))
        return blocks

    # ------------------------------------------------------------------
    # Dynamic walk
    # ------------------------------------------------------------------

    def generate(self, length: int, name: str | None = None) -> Trace:
        """Emit a dynamic trace of approximately ``length`` micro-ops."""
        if length <= 0:
            raise ConfigError(f"trace length must be positive, got {length}")
        profile = self._profile
        rng = self._rng
        random = rng.random
        randrange = rng.randrange
        stay_near = profile.dep_distance_geom_p
        streams = self._streams
        ops: list[MicroOp] = []
        #: Destinations written so far.  They walk ``_DEST_POOL`` round
        #: robin, so the ``_RECENT_WINDOW`` most recent ones are the pool
        #: entries just before the cursor.
        dest_cursor = 0
        last_store_addr: int | None = None

        def dep() -> int:
            """A source register at a geometric dependency distance."""
            window = dest_cursor if dest_cursor < _RECENT_WINDOW \
                else _RECENT_WINDOW
            if not window:
                return randrange(25, 29)
            distance = 1
            while distance < window and random() > stay_near:
                distance += 1
            return _DEST_POOL[(dest_cursor - distance) % len(_DEST_POOL)]

        def emit_slot(slot: _Slot) -> None:
            # Draw order: the sources, then a memory op's address, then
            # an arithmetic op's immediate.  Ops are built positionally,
            # MicroOp(index, opcode, dest, srcs, imm, pc, mem_addr):
            # keywords would cost a tenth of the build.
            nonlocal dest_cursor, last_store_addr
            srcs = (dep(),) if slot.sources == 1 else (dep(), dep())
            kind = slot.kind
            if kind == "arith":
                dest = _DEST_POOL[dest_cursor % len(_DEST_POOL)]
                dest_cursor += 1
                ops.append(MicroOp(len(ops), slot.opcode, dest, srcs,
                                   randrange(256), slot.pc))
                return
            if (slot.alias_with_store is not None
                    and last_store_addr is not None):
                addr = last_store_addr + slot.alias_with_store
            else:
                addr = streams[slot.stream].next_address(rng)
            addr &= ~7
            if kind == "store":
                last_store_addr = addr
                ops.append(MicroOp(len(ops), slot.opcode, None, srcs, 0,
                                   slot.pc, addr))
                return
            dest = _DEST_POOL[dest_cursor % len(_DEST_POOL)]
            dest_cursor += 1
            ops.append(MicroOp(len(ops), slot.opcode, dest, srcs, 0, slot.pc,
                               addr))

        def emit_branch(pc: int, taken: bool, target: int) -> None:
            """A conditional branch on one register source."""
            ops.append(MicroOp(len(ops), Opcode.BNE, srcs=(dep(),), pc=pc,
                               taken=taken, target=target))

        def walk_function(fn: _Function) -> None:
            for block in fn.blocks:
                if len(ops) >= length:
                    return
                for slot in block.slots:
                    if len(ops) >= length:
                        return
                    emit_slot(slot)
                if block.kind == "ret":
                    ops.append(MicroOp(len(ops), Opcode.RET,
                                       pc=block.branch_pc, taken=True))

        segment_index = 0
        while len(ops) < length:
            segment = self._segments[segment_index % len(self._segments)]
            segment_index += 1
            trips = 1 + min(500, int(rng.expovariate(
                1.0 / max(1.0, profile.mean_loop_trips))))
            for trip in range(trips):
                if len(ops) >= length:
                    break
                block_idx = 0
                while block_idx < len(segment):
                    block = segment[block_idx]
                    if len(ops) >= length:
                        break
                    for slot in block.slots:
                        if len(ops) >= length:
                            break
                        emit_slot(slot)
                    if block.kind == "cond":
                        taken = rng.random() < profile.noisy_taken_bias
                        skip_to = segment[min(block_idx + 2,
                                              len(segment) - 1)].pc
                        emit_branch(block.branch_pc, taken, skip_to)
                        block_idx += 2 if taken else 1
                        continue
                    if block.kind == "call":
                        ops.append(MicroOp(len(ops), Opcode.CALL,
                                           pc=block.branch_pc, taken=True,
                                           target=self._functions[
                                               block.callee].blocks[0].pc))
                        walk_function(self._functions[block.callee])
                        block_idx += 1
                        continue
                    if block.kind == "loop":
                        if block.callee is not None and len(ops) < length:
                            ops.append(MicroOp(len(ops), Opcode.CALL,
                                               pc=block.branch_pc - 4,
                                               taken=True,
                                               target=self._functions[
                                                   block.callee].blocks[0].pc))
                            walk_function(self._functions[block.callee])
                        taken = trip < trips - 1
                        emit_branch(block.branch_pc, taken, block.target_pc)
                    block_idx += 1

        ops = ops[:length]
        trace_name = name or f"{profile.name}/seed{self._seed}"
        return Trace(name=trace_name, ops=ops, source="synthetic",
                     metadata={"profile": profile.name, "seed": self._seed,
                               "length": length})

