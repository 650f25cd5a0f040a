"""Cycle-level two-wide in-order core (the paper's Figure 3 machine).

One :class:`InOrderCore` runs one trace under one configuration.  Stages
are evaluated once per cycle in reverse pipeline order so same-cycle
producer-consumer interactions resolve like hardware:

1. **writeback** — completions publish bypass values, write the register
   file (timestamped for stabilization checking), fire long-latency
   scoreboard events, commit stores through the STable, resolve branches;
2. **issue** — up to ICI oldest IQ entries issue in order, gated by the
   IRAW occupancy rule (Eq. 1), scoreboard readiness (Figures 6-8), WAW
   write ordering, functional units and the memory-side IRAW guards;
3. **allocate** — up to AI ops move from the fetch buffer into the IQ;
   when fetch is frozen (mispredict/end of trace) and the occupancy gate
   blocks issue, NOOPs are injected to drain the queue (Section 4.2);
4. **fetch** — the front end pulls from the trace through IL0/ITLB/BP/RSB.

The scoreboard keeps per-register ready-window timestamps equal to the
Figures 6-8 shift registers' MSB, so nothing ticks between cycles, and
the front end is called only on cycles where it can deliver or fetch.

Micro-timing convention (matching the paper's Figure 7/8 example): a
producer issued at cycle ``i`` with latency ``L`` forwards its result to
consumers issuing at ``i+L`` (one bypass level), writes the RF at
``i+L+1``, and the written cell stabilizes through ``i+L+1+N``; consumers
issuing during ``[i+L+1, i+L+N]`` would read the stabilizing cell and are
therefore the ones the extended shift register blocks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.branch.iraw_effects import PredictionHazardTracker
from repro.branch.predictor import BimodalPredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.core.config import IrawConfig
from repro.core.policy import IrawPolicy
from repro.errors import PipelineError
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import NUM_REGISTERS
from repro.isa.semantics import alu_result
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.pipeline.frontend import FrontEnd
from repro.pipeline.lsu import LoadStoreUnit
from repro.pipeline.regfile import BypassNetwork, RegisterFileModel
from repro.pipeline.resources import FunctionalUnits, PipelineParams
from repro.pipeline.stats import SimulationResult, StallReason, StallStats
from repro.workloads.trace import Trace

#: Shared sentinel op for IQ-drain NOOP injection (Section 4.2).
_INJECTED_NOOP = MicroOp(0, Opcode.NOP)

# Stall reasons and the op kinds writeback tests as module constants: an
# Enum member lookup costs more than the rest of a stalled cycle's issue
# stage.
_FRONTEND_EMPTY = StallReason.FRONTEND_EMPTY
_IQ_GATE = StallReason.IQ_GATE
_RF_DEPENDENCY = StallReason.RF_DEPENDENCY
_RF_IRAW_BUBBLE = StallReason.RF_IRAW_BUBBLE
_WAW_ORDER = StallReason.WAW_ORDER
_FU_BUSY = StallReason.FU_BUSY
_WRITE_PORT = StallReason.WRITE_PORT
_MEMORY_PENDING = StallReason.MEMORY_PENDING
_BRANCH = OpClass.BRANCH
_JMP = Opcode.JMP


@dataclass
class CoreSetup:
    """Everything configurable about one simulation run."""

    iraw: IrawConfig = field(default_factory=IrawConfig.disabled)
    params: PipelineParams = field(default_factory=PipelineParams)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    name: str = "core"


class InOrderCore:
    """Single-use simulator instance: build, ``run(trace)``, read stats."""

    def __init__(self, setup: CoreSetup | None = None):
        self.setup = setup or CoreSetup()
        params = self.setup.params
        iraw = self.setup.iraw
        self.policy = IrawPolicy(iraw, params, self.setup.memory)
        self.memory = MemorySystem(self.setup.memory)
        self.predictor = BimodalPredictor()
        self.tracker = PredictionHazardTracker(
            predictor=self.predictor,
            stabilization_cycles=iraw.stabilization_cycles,
            mode=iraw.determinism_mode,
        )
        self.rsb = ReturnStackBuffer()
        self.units = FunctionalUnits(params)
        self.stalls = StallStats()
        self.iq_violations = 0
        self.value_mismatches = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, trace: Trace, max_cycles: int | None = None
            ) -> SimulationResult:
        """Simulate ``trace`` to completion and return the results."""
        params = self.setup.params
        policy = self.policy
        scoreboard = policy.scoreboard
        gate = policy.iq_gate
        units = self.units
        stalls = self.stalls
        # Golden values are checked if and only if the trace carries them.
        golden = trace.has_golden_values()

        regfile = RegisterFileModel(
            trace.metadata.get("initial_registers") if golden else None)
        bypass = BypassNetwork(levels=self.setup.iraw.bypass_levels)
        lsu = LoadStoreUnit(
            self.memory, policy,
            initial_memory=trace.metadata.get("initial_memory"),
            track_values=golden,
        )
        frontend = FrontEnd(trace.ops, params, self.memory, policy,
                            self.tracker, self.rsb)
        # Every fill a fetch, load or store causes arms its block's
        # post-fill guard (Section 4.3).
        self.memory.on_fill = policy.arm_fill_guards

        total_ops = len(trace.ops)
        if total_ops == 0:
            return self._result(trace, 0, 0, frontend, lsu, regfile)
        if max_cycles is None:
            max_cycles = 200 * total_ops + 100_000

        n_active = policy.stabilization_cycles
        max_encodable = scoreboard.max_encodable_latency
        # Read once per run: the scoreboard's windows and the functional
        # units' state (both updated in place), the per-class issue
        # table, the stall counts, the Eq. 1 gate and the calls every
        # op makes.
        sb_ready = scoreboard.ready
        sb_bubble_lo = scoreboard.bubble_lo
        sb_bubble_hi = scoreboard.bubble_hi
        classes = units.classes
        unit_last_cycle = units.last_cycle
        unit_issued = units.issued
        unit_busy_until = units.busy_until
        stall_cycles = stalls.cycles
        producer_issued = scoreboard.producer_issued
        access_blocked = lsu.access_blocked
        execute_load = lsu.execute_load
        commit_store = lsu.commit_store
        tick = frontend.tick
        gate_threshold = gate.issue_threshold
        issue_window = params.issue_window
        alloc_width = params.alloc_width
        iq_size = params.iq_size
        fetch_buffer = frontend.buffer
        fetch_buffer_size = params.fetch_buffer_size
        iq: deque[tuple[MicroOp, int]] = deque()
        completions: dict[int, list] = {}
        pending_write = [-1] * NUM_REGISTERS
        #: op.index of the youngest issued producer per register: an older
        #: long-latency completion (e.g. a load miss superseded by a later
        #: write, WAW) must not publish its value or mark the register
        #: ready — the younger producer owns the scoreboard entry.
        latest_writer = [-1] * NUM_REGISTERS
        #: Extra-Bypass support: next-free cycle per RF write port.
        write_cost = params.rf_write_cycles
        write_ports = [0] * params.rf_write_ports
        iraw_delayed: set[int] = set()
        completed = 0
        cycle = 0

        while completed < total_ops:
            if cycle > max_cycles:
                raise PipelineError(
                    f"{trace.name}: exceeded {max_cycles} cycles "
                    f"({completed}/{total_ops} instructions done)"
                )
            # ---------------- 1. writeback ----------------
            records = completions.pop(cycle, None)
            if records:
                for op, dest, value, long_latency in records:
                    if dest is not None and latest_writer[dest] == op.index:
                        # Only value-checked runs read the datapath models.
                        if golden:
                            written = value if value is not None else 0
                            bypass.publish(dest, written, cycle)
                            regfile.write(dest, written, cycle + 1)
                        if long_latency:
                            scoreboard.long_latency_completed(dest, cycle)
                    # else: superseded by a younger writer (WAW); the
                    # architectural value is dead and the younger
                    # producer owns the scoreboard entry.
                    if op.is_store:
                        commit_store(op, value, cycle)
                    if op.is_control:
                        if op.opclass is _BRANCH and op.opcode is not _JMP:
                            self.tracker.update(op.pc, op.taken, cycle)
                        frontend.branch_resolved(op.index, cycle)
                    completed += 1

            # ---------------- 2. issue ----------------
            issued = 0
            reason: StallReason | None = None
            store_words: set[int] | None = None
            # Every pass of this loop issues or stops the stage.
            while issued < issue_window:
                if not iq:
                    if issued == 0 and completed < total_ops:
                        reason = _FRONTEND_EMPTY
                    break
                if len(iq) < gate_threshold:
                    reason = _IQ_GATE
                    break
                op, alloc_cycle = iq[0]
                if op is _INJECTED_NOOP:
                    iq.popleft()
                    issued += 1
                    continue
                if n_active and cycle - alloc_cycle <= n_active:
                    # Reading a still-stabilizing IQ entry: what the Eq. 1
                    # gate prevents, checked whether or not it is on.
                    self.iq_violations += 1
                # Source readiness: the scoreboard MSB (Figures 6-8).  A
                # value not yet produced would stall the baseline too; a
                # produced one inside the bubble is an IRAW-only stall.
                blocked_src = False
                for src in op.srcs:
                    if cycle < sb_ready[src]:
                        blocked_src = True
                        reason = _RF_DEPENDENCY
                        break
                    if sb_bubble_lo[src] <= cycle < sb_bubble_hi[src]:
                        blocked_src = True
                        reason = _RF_IRAW_BUBBLE
                        if op.index not in iraw_delayed:
                            iraw_delayed.add(op.index)
                            stalls.iraw_delayed_instructions += 1
                        break
                if blocked_src:
                    break
                latency, unit, unit_limit, unpipelined = classes[op.opclass]
                # WAW write ordering (writes to a register must stay in
                # program order; rare with mixed latencies).
                dest = op.dest
                if dest is not None and \
                        pending_write[dest] >= cycle + latency + 1:
                    reason = _WAW_ORDER
                    break
                if unit >= 0 and (
                        (unit_last_cycle[unit] == cycle
                         and unit_issued[unit] >= unit_limit)
                        or (unpipelined and unit_busy_until[unit] >= cycle)):
                    # The unit took its limit this cycle, or an unpipelined
                    # one is still busy.
                    reason = _FU_BUSY
                    break
                write_port_index = -1
                if dest is not None and write_cost > 1:
                    # Extra Bypass: reserve an RF write port for the whole
                    # multi-cycle write, stalling on contention (Table 1).
                    writeback_cycle = cycle + latency + 1
                    for port, free_at in enumerate(write_ports):
                        if free_at <= writeback_cycle:
                            write_port_index = port
                            break
                    if write_port_index < 0:
                        reason = _WRITE_PORT
                        break
                is_load = op.is_load
                is_store = op.is_store
                value: int | None = None
                bypass_cycle = cycle + latency
                long_latency = latency > max_encodable
                if is_load or is_store:
                    blocked = access_blocked(cycle + 1)
                    if blocked is not None:
                        reason = blocked[1]
                        break
                    word = op.mem_addr & ~7
                    if is_load and store_words and word in store_words:
                        # Same-cycle older-store conflict: one-cycle
                        # memory-ordering stall.
                        reason = _MEMORY_PENDING
                        break
                # ---- commit the issue ----
                operands: list[int] | None = None
                if golden and (op.srcs and
                               (op.golden_result is not None
                                or is_store or op.is_control)):
                    operands = []
                    for src in op.srcs:
                        forwarded = bypass.lookup(src, cycle)
                        if forwarded is None:
                            forwarded = regfile.read(src, cycle + 1, n_active)
                        operands.append(forwarded)
                if is_load:
                    ready, value = execute_load(op, cycle)
                    bypass_cycle = ready
                    long_latency = (ready - cycle) > max_encodable
                    if golden and op.golden_result is not None \
                            and value != op.golden_result:
                        self.value_mismatches += 1
                elif is_store:
                    if store_words is None:
                        store_words = set()
                    store_words.add(op.mem_addr & ~7)
                    value = operands[0] if operands else op.store_value
                elif op.golden_result is not None and golden:
                    value = self._compute(op, operands)
                    if value != op.golden_result:
                        self.value_mismatches += 1
                if unit >= 0:  # count the issue on its unit
                    if unit_last_cycle[unit] == cycle:
                        unit_issued[unit] += 1
                    else:
                        unit_last_cycle[unit] = cycle
                        unit_issued[unit] = 1
                    if unpipelined:
                        unit_busy_until[unit] = cycle + latency
                iq.popleft()
                if dest is not None:
                    encode = (bypass_cycle - cycle) if not long_latency \
                        else max_encodable + 1
                    producer_issued(dest, cycle, encode)
                    pending_write[dest] = bypass_cycle + 1
                    latest_writer[dest] = op.index
                    if write_port_index >= 0:
                        write_ports[write_port_index] = (
                            bypass_cycle + 1 + write_cost)
                completions.setdefault(bypass_cycle, []).append(
                    (op, dest, value, long_latency))
                issued += 1
            if issued == 0 and reason is not None:
                stall_cycles[reason] += 1

            # ---------------- 3. allocate ----------------
            free = iq_size - len(iq)
            if free > 0:
                # Up to AI fetched ops whose front-end latency has elapsed
                # move from the fetch buffer into the IQ.
                allocated = 0
                limit = alloc_width if alloc_width < free else free
                while allocated < limit and fetch_buffer \
                        and fetch_buffer[0][1] <= cycle:
                    iq.append((fetch_buffer.popleft()[0], cycle))
                    allocated += 1
                if iq and len(iq) < gate_threshold:
                    # Section 4.2 generalized: whenever allocation cannot
                    # keep occupancy at the Eq. 1 threshold (drains,
                    # redirects, fetch gaps), the allocator pads the queue
                    # with NOOP/invalid entries so older, already
                    # stabilized instructions are not gate-blocked.
                    needed = min(alloc_width - allocated, free,
                                 gate_threshold - len(iq))
                    for _ in range(max(0, needed)):
                        iq.append((_INJECTED_NOOP, cycle))
                        stalls.injected_noops += 1

            # ---------------- 4. fetch ----------------
            if cycle >= frontend.fetch_from \
                    and len(fetch_buffer) < fetch_buffer_size:
                tick(cycle)
            cycle += 1

        return self._result(trace, completed, cycle, frontend, lsu, regfile)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _compute(op: MicroOp, operands: list[int] | None) -> int:
        """Re-run the ALU semantics on datapath operand values."""
        a = operands[0] if operands else 0
        if op.opcode in (Opcode.LI, Opcode.SHL, Opcode.SHR):
            b = 0
        else:
            b = (operands[1] if operands and len(operands) > 1 else op.imm)
        return alu_result(op.opcode, a, b, op.imm)

    def _result(self, trace: Trace, completed: int, cycles: int,
                frontend: FrontEnd, lsu: LoadStoreUnit,
                regfile: RegisterFileModel) -> SimulationResult:
        violations = (regfile.violations + lsu.iraw_violations
                      + self.iq_violations)
        return SimulationResult(
            trace_name=trace.name,
            config_name=self.setup.name,
            instructions=completed,
            cycles=cycles,
            stalls=self.stalls,
            iraw_violations=violations,
            value_mismatches=self.value_mismatches,
            branch_mispredicts=frontend.mispredicts,
            branches=frontend.branches,
            memory_stats=self.memory.stats(),
            prediction_hazards={
                "bp_potential_extra_misprediction_rate":
                    self.tracker.counts.bp_potential_extra_misprediction_rate,
                "bp_predictions": self.tracker.counts.bp_predictions,
                "bp_hazard_reads": self.tracker.counts.bp_hazard_reads,
                "bp_potential_flips": self.tracker.counts.bp_potential_flips,
                "rsb_hazard_pops": self.tracker.counts.rsb_hazard_pops,
                "rsb_pops": self.tracker.counts.rsb_pops,
                "rsb_stall_cycles": self.tracker.counts.rsb_stall_cycles,
                "stable_full_matches": self.policy.stable.full_matches,
                "stable_set_matches": self.policy.stable.set_matches,
            },
        )


def simulate(trace: Trace, iraw: IrawConfig | None = None,
             params: PipelineParams | None = None,
             memory: MemoryConfig | None = None,
             name: str = "core",
             max_cycles: int | None = None) -> SimulationResult:
    """One-call convenience wrapper: build a core and run a trace."""
    setup = CoreSetup(
        iraw=iraw or IrawConfig.disabled(),
        params=params or PipelineParams(),
        memory=memory or MemoryConfig(),
        name=name,
    )
    return InOrderCore(setup).run(trace, max_cycles=max_cycles)
