"""Dynamic-trace container and summary statistics.

A :class:`Trace` is the unit of workload the pipeline consumes: an ordered
list of :class:`~repro.isa.instructions.MicroOp` plus provenance metadata.
The paper drives its evaluation from 531 proprietary traces of 10 M
instructions each; our substitute traces are generated (synthetically or by
the kernel interpreter) but are consumed through exactly the same interface.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import TraceError
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import OpClass


@dataclass
class Trace:
    """An ordered dynamic instruction stream.

    Attributes
    ----------
    name:
        Identifier used in reports (e.g. ``"specint-like/seed3"``).
    ops:
        The dynamic micro-ops, ``ops[i].index == start + i``.
    source:
        Provenance: ``"synthetic"``, ``"interpreter"`` or ``"riscv"``.
    metadata:
        Free-form generator parameters (seed, profile name, ...).
    start:
        Index of the first op: 0 for a whole trace; for a
        :meth:`segment`, where it starts in the trace it views.
    """

    name: str
    ops: list[MicroOp]
    source: str = "synthetic"
    metadata: dict = field(default_factory=dict)
    start: int = 0

    def __post_init__(self) -> None:
        for expected, op in enumerate(self.ops, self.start):
            if op.index != expected:
                raise TraceError(
                    f"trace {self.name!r}: op at position "
                    f"{expected - self.start} has index {op.index}"
                )

    def segment(self, start: int, count: int, name: str) -> "Trace":
        """A view of ``count`` ops from ``start``: the same
        :class:`MicroOp` objects, indices unchanged, so nothing is
        copied but the list."""
        return Trace(name, self.ops[start:start + count], self.source,
                     dict(self.metadata), start=self.start + start)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def class_mix(self) -> dict[OpClass, float]:
        """Fraction of dynamic instructions per operation class."""
        if not self.ops:
            return {}
        counts = Counter(op.opclass for op in self.ops)
        total = len(self.ops)
        return {cls: count / total for cls, count in counts.items()}

    def branch_count(self) -> int:
        return sum(1 for op in self.ops if op.is_control)

    def memory_op_count(self) -> int:
        return sum(1 for op in self.ops if op.is_load or op.is_store)

    def has_golden_values(self) -> bool:
        """True if the trace carries interpreter golden values."""
        return any(op.golden_result is not None for op in self.ops)

    def summary(self) -> dict[str, float]:
        """One-line description used by reports and examples."""
        total = max(1, len(self.ops))
        return {
            "instructions": len(self.ops),
            "branch_fraction": self.branch_count() / total,
            "memory_fraction": self.memory_op_count() / total,
        }
