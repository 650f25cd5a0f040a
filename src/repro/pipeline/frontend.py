"""Front end: fetch, branch prediction, RSB, and the fetch buffer.

Trace-driven fetch walks the dynamic instruction stream in order; control
flow is pre-resolved, so prediction affects *timing only*:

* a mispredicted branch freezes fetch until it resolves in the execute
  stage plus a redirect penalty (wrong-path fetches are not simulated,
  the standard trace-driven arrangement);
* a correctly predicted taken branch costs a one-cycle fetch bubble;
* IL0/ITLB misses stall fetch until the fill returns, and under IRAW
  clocking the corresponding post-fill guard windows stall fetch again
  (paper Section 4.3);
* returns pop the RSB; in determinism mode a pop within the stabilization
  window of its push stalls instead (paper Section 4.5).
"""

from __future__ import annotations

from collections import deque

from repro.branch.iraw_effects import DeterminismMode, PredictionHazardTracker
from repro.branch.rsb import ReturnStackBuffer
from repro.core.policy import IrawPolicy
from repro.core.scoreboard import NEVER
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import MemorySystem
from repro.pipeline.resources import PipelineParams


class FrontEnd:
    """Fetches micro-ops from a trace into the allocation buffer."""

    def __init__(self, ops: list[MicroOp], params: PipelineParams,
                 memory: MemorySystem, policy: IrawPolicy,
                 tracker: PredictionHazardTracker,
                 rsb: ReturnStackBuffer):
        self._ops = ops
        self._params = params
        self._memory = memory
        self._policy = policy
        self._tracker = tracker
        self._rsb = rsb
        self._il0_hit_latency = memory.config.il0_hit_latency
        #: Fetch-side post-fill guards, in check order; a disabled guard
        #: never blocks, so it is left out.
        self._guards = tuple(policy.guards[name]
                             for name in ("IL0", "ITLB", "IFB")
                             if policy.guards[name].enabled)
        self._next = 0
        #: Fetched ops as (op, cycle it may allocate), oldest first.
        self.buffer: deque[tuple[MicroOp, int]] = deque()
        self._stalled_until = 0
        #: Index of a mispredicted branch fetch is frozen behind, if any.
        self._blocked_on: int | None = None
        #: First cycle :meth:`tick` can fetch anything: ``NEVER`` while
        #: frozen behind a mispredicted branch or once the trace is
        #: exhausted.  (A full buffer also stops it.)
        self.fetch_from = 0
        self._current_line = -1
        # Statistics.
        self.mispredicts = 0
        self.branches = 0

    # ------------------------------------------------------------------
    # Branch resolution callback (from the execute/writeback stage)
    # ------------------------------------------------------------------

    def branch_resolved(self, op_index: int, cycle: int) -> None:
        """A control op finished executing; unfreeze fetch if it was ours."""
        if self._blocked_on == op_index:
            self._blocked_on = None
            self._stalled_until = max(self._stalled_until,
                                      cycle + self._params.mispredict_penalty)
            self.fetch_from = self._stalled_until

    # ------------------------------------------------------------------
    # Per-cycle fetch
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Fetch up to ``fetch_width`` ops into the buffer."""
        params = self._params
        buffer = self.buffer
        room = params.fetch_buffer_size - len(buffer)
        if cycle < self.fetch_from or room <= 0:
            return
        ops = self._ops
        # Every op fetched without stopping advances ``_next`` by one.
        stop = min(self._next + min(params.fetch_width, room), len(ops))
        ready_at = cycle + params.front_latency
        while self._next < stop:
            op = ops[self._next]
            line = op.pc >> 6
            if line != self._current_line:
                for guard in self._guards:
                    release = guard.blocked_until(cycle)
                    if release is not None:
                        self._stall(release)
                        return
                ready = self._memory.fetch(op.pc, cycle)
                self._current_line = line
                if ready > cycle + self._il0_hit_latency:
                    # Miss (or TLB walk): freeze fetch until the line is in.
                    self._stall(ready)
                    return
            if op.is_control:
                if self._handle_control(op, cycle, ready_at):
                    return
                continue
            buffer.append((op, ready_at))
            self._next += 1
        if self._next >= len(ops):
            self.fetch_from = NEVER

    def _stall(self, until: int) -> None:
        self._stalled_until = self.fetch_from = until

    def _handle_control(self, op: MicroOp, cycle: int, ready_at: int) -> bool:
        """Predict a control op; True if fetch must stop this cycle."""
        self.branches += 1
        mispredicted = False
        if op.opclass is OpClass.BRANCH:
            if op.opcode.value == "jmp":
                predicted_taken = True  # direct target, BTB assumed clean
            else:
                predicted_taken = self._tracker.predict(op.pc, cycle)
            mispredicted = predicted_taken != op.taken
        elif op.is_call:
            self._rsb.push(op.pc + 4, cycle)
        elif op.is_return:
            mispredicted = self._predict_return(op, cycle)
            if mispredicted is None:  # determinism stall, retry next cycle
                return True
        self.buffer.append((op, ready_at))
        self._next += 1
        if mispredicted:
            self.mispredicts += 1
            self._blocked_on = op.index
            self.fetch_from = NEVER
            return True
        if op.taken and self._params.taken_branch_bubble > 0:
            # Resume fetching after the bubble (cycle+1 would be the very
            # next cycle, i.e. no bubble at all).
            self._stall(cycle + 1 + self._params.taken_branch_bubble)
            self._current_line = -1  # redirected: next line refetch
            return True
        return False

    def _predict_return(self, op: MicroOp, cycle: int) -> bool | None:
        """RSB pop; None means 'stall this cycle' (determinism mode)."""
        n = self._policy.stabilization_cycles
        deterministic = (self._tracker.mode is DeterminismMode.DETERMINISTIC)
        if deterministic and n > 0:
            top_written = self._rsb.top_written_at()
            if top_written is not None and cycle - top_written <= n:
                # Paper Section 4.5: "the RSB should be stalled after a
                # call instruction" — wait out the window.
                self._stall(top_written + n + 1)
                self._tracker.note_rsb_pop(hazardous=False, stalled_cycles=1)
                return None
        hazard_window = n if not deterministic else 0
        predicted, hazardous = self._rsb.pop(cycle, hazard_window)
        self._tracker.note_rsb_pop(hazardous=hazardous)
        return predicted != op.target
