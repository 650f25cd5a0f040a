"""The dynamic micro-op record that flows through the pipeline.

A :class:`MicroOp` is one element of a *dynamic* instruction stream: the
workload generators (synthetic or interpreter-driven) produce a sequence of
them, and the pipeline model consumes them in order.  Branch outcomes and
effective addresses are pre-resolved, the standard arrangement for
trace-driven simulation (the paper uses Intel production trace-driven
simulators, Section 5.1).

``golden_result``/``store_value`` optionally carry the functionally correct
values from the interpreter so the pipeline's datapath (register file,
bypass network, STable forwarding) can be checked end-to-end: if an IRAW
avoidance mechanism ever let a read slip into a stabilization window, the
datapath would return garbage and the comparison would fail.

The class uses ``__slots__`` and plain attributes: tens of millions of
these are touched per simulation, so attribute access cost matters.
"""

from __future__ import annotations

from repro.errors import TraceError
from repro.isa.opcodes import (
    CONTROL_CLASSES,
    OPCODE_CLASS,
    OpClass,
    Opcode,
)
from repro.isa.registers import NUM_REGISTERS

#: Per opcode: its class and the class tests the issue loop checks every
#: cycle (is_load, is_store, is_control, is_call, is_return).
_TRAITS = {
    opcode: (opclass, opclass is OpClass.LOAD, opclass is OpClass.STORE,
             opclass in CONTROL_CLASSES, opclass is OpClass.CALL,
             opclass is OpClass.RET)
    for opcode, opclass in OPCODE_CLASS.items()
}


class MicroOp:
    """One dynamic instruction.

    Parameters
    ----------
    index:
        Position in the dynamic stream (0-based).
    opcode:
        Concrete operation.
    dest:
        Destination register index, or ``None``.
    srcs:
        Source register indices (may be empty).
    imm:
        Immediate operand (shift amounts, offsets, constants).
    pc:
        Static instruction address; indexes the branch predictor.
    mem_addr:
        Effective byte address for loads/stores, else ``None``.
    taken:
        Resolved direction for control ops.
    target:
        Taken-target pc for control ops.
    golden_result:
        Expected destination value (interpreter-generated traces only).
    store_value:
        Value this store writes (interpreter-generated traces only).
    """

    __slots__ = (
        "index", "opcode", "opclass", "dest", "srcs", "imm", "pc",
        "mem_addr", "taken", "target", "golden_result", "store_value",
        "is_load", "is_store", "is_control", "is_call", "is_return",
    )

    def __init__(self, index: int, opcode: Opcode, dest: int | None = None,
                 srcs: tuple[int, ...] = (), imm: int = 0, pc: int = 0,
                 mem_addr: int | None = None, taken: bool = False,
                 target: int | None = None, golden_result: int | None = None,
                 store_value: int | None = None):
        (opclass, self.is_load, self.is_store, self.is_control,
         self.is_call, self.is_return) = _TRAITS[opcode]
        if dest is not None and not 0 <= dest < NUM_REGISTERS:
            raise TraceError(f"op {index}: dest register {dest} out of range")
        for src in srcs:
            if not 0 <= src < NUM_REGISTERS:
                raise TraceError(f"op {index}: src register {src} out of range")
        if mem_addr is None:
            if self.is_load or self.is_store:
                raise TraceError(f"op {index}: memory op without an address")
        elif mem_addr < 0:
            raise TraceError(f"op {index}: negative address {mem_addr}")

        self.index = index
        self.opcode = opcode
        self.opclass = opclass
        self.dest = dest
        self.srcs = srcs
        self.imm = imm
        self.pc = pc
        self.mem_addr = mem_addr
        self.taken = taken
        self.target = target
        self.golden_result = golden_result
        self.store_value = store_value

    def __repr__(self) -> str:
        parts = [f"#{self.index}", self.opcode.value]
        if self.dest is not None:
            parts.append(f"d=r{self.dest}")
        if self.srcs:
            parts.append("s=" + ",".join(f"r{s}" for s in self.srcs))
        if self.mem_addr is not None:
            parts.append(f"@{self.mem_addr:#x}")
        if self.is_control:
            parts.append("T" if self.taken else "NT")
        return f"<MicroOp {' '.join(parts)}>"


def nop(index: int, pc: int = 0) -> MicroOp:
    """A NOP micro-op (used for the IQ drain injection, paper Section 4.2)."""
    return MicroOp(index, Opcode.NOP, pc=pc)
