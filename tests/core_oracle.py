"""Reference oracle for the cycle loop: the bit-level core.

The program's :class:`~repro.pipeline.core.InOrderCore` keeps three
timestamps per register instead of the paper's scoreboard shift
registers, reads per-class issue data from tables built once per run
and calls the front end only on cycles where it can act.  This module
keeps the literal model that fast loop is tested against:

* :class:`Scoreboard` — the Figures 6-8 shift registers, bit by bit:
  every busy register shifts left once per cycle with a sticky LSB;
* :class:`FunctionalUnits` — per-cycle issue counts, cleared at the
  start of every cycle;
* :class:`OracleCore` — the cycle loop that ticks them every cycle,
  plus an N=0 shadow scoreboard that tells IRAW-bubble stalls from
  dependency stalls, and calls the front end on every cycle.

The oracle shares the front end, the LSU, the memory hierarchy and the
IRAW policy with the program; only the scoreboard, the issue resources
and the Eq. 1 issue check are its own.  Its scoreboard starts empty on
every run, as a fresh policy's does.
"""

from __future__ import annotations

from collections import deque

from repro.branch.iraw_effects import PredictionHazardTracker
from repro.branch.predictor import BimodalPredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.core.policy import IrawPolicy
from repro.errors import ConfigError, PipelineError
from repro.isa.instructions import MicroOp
from repro.isa.opcodes import UNPIPELINED_CLASSES, OpClass, Opcode
from repro.isa.registers import NUM_REGISTERS
from repro.isa.semantics import alu_result
from repro.memory.hierarchy import MemorySystem
from repro.pipeline.core import CoreSetup
from repro.pipeline.frontend import FrontEnd
from repro.pipeline.lsu import LoadStoreUnit
from repro.pipeline.regfile import BypassNetwork, RegisterFileModel
from repro.pipeline.resources import PipelineParams
from repro.pipeline.stats import SimulationResult, StallReason, StallStats
from repro.workloads.trace import Trace

#: Shared sentinel op for IQ-drain NOOP injection (Section 4.2).
_INJECTED_NOOP = MicroOp(0, Opcode.NOP)


class Scoreboard:
    """Readiness control with IRAW-extended shift registers.

    When a producer with execute latency L issues, its destination's
    shift register is initialized, from MSB to LSB, to L zeros,
    ``bypass_levels`` ones, N zeros (the IRAW bubble) and ones.  Long
    latency producers zero the register; their completion event
    installs the ones/zeros/ones tail.  Registers are Python ints
    (bit ``width-1`` = MSB); only busy registers are ticked.  The
    register is as wide as the hardware builds it, for the deepest N
    (``max_stabilization_cycles``); this one is built for ``N``.
    """

    def __init__(self, num_registers: int = 32, baseline_bits: int = 6,
                 bypass_levels: int = 1, stabilization_cycles: int = 0,
                 max_stabilization_cycles: int = 2):
        if num_registers <= 0:
            raise ConfigError("need at least one register")
        if baseline_bits < 2:
            raise ConfigError("baseline shift registers need >= 2 bits")
        if bypass_levels < 0:
            raise ConfigError("bypass depth cannot be negative")
        if not 0 <= stabilization_cycles <= max_stabilization_cycles:
            raise ConfigError(
                f"N={stabilization_cycles} outside [0, "
                f"{max_stabilization_cycles}]"
            )
        self.num_registers = num_registers
        self.baseline_bits = baseline_bits
        self.bypass_levels = bypass_levels
        self.stabilization_cycles = stabilization_cycles
        #: Physical width: sized at design time for the deepest N.
        self.width = baseline_bits + bypass_levels + max_stabilization_cycles
        self._msb_mask = 1 << (self.width - 1)
        self._full_mask = (1 << self.width) - 1
        #: Shift registers; all-ones means "idle, value stable".
        self._regs = [self._full_mask] * num_registers
        #: Registers currently not all-ones (the only ones ticked).
        self._busy: set[int] = set()

    @property
    def max_encodable_latency(self) -> int:
        """Largest execute latency the pattern can encode (B-1 rule)."""
        return self.baseline_bits - 1

    def _build_pattern(self, latency: int) -> int:
        """Bit pattern for a producer of ``latency`` cycles, MSB first."""
        n = self.stabilization_cycles
        ones_tail = self.width - latency - self.bypass_levels - n
        if ones_tail < 1:
            raise PipelineError(
                f"latency {latency} does not fit a {self.width}-bit pattern "
                f"(bypass={self.bypass_levels}, N={n})"
            )
        bits = 0
        position = self.width
        position -= latency  # (I) zeros
        for _ in range(self.bypass_levels):  # (II) ones
            position -= 1
            bits |= 1 << position
        position -= n  # (III) zeros
        bits |= (1 << position) - 1  # (IV) ones
        return bits

    def pattern_string(self, reg: int) -> str:
        """The register's bits as a string, MSB first."""
        return format(self._regs[reg], f"0{self.width}b")

    def is_ready(self, reg: int) -> bool:
        """May a consumer of ``reg`` issue this cycle? (MSB test)."""
        return bool(self._regs[reg] & self._msb_mask)

    def producer_issued(self, reg: int, latency: int) -> None:
        if latency <= 0:
            raise PipelineError(f"producer latency must be positive: {latency}")
        if latency > self.max_encodable_latency:
            self._regs[reg] = 0
        else:
            self._regs[reg] = self._build_pattern(latency)
        self._busy.add(reg)

    def long_latency_completed(self, reg: int) -> None:
        n = self.stabilization_cycles
        bits = 0
        position = self.width
        levels = max(1, self.bypass_levels)
        for _ in range(levels):  # value on the result bus / bypass now
            position -= 1
            bits |= 1 << position
        position -= n
        bits |= (1 << position) - 1
        self._regs[reg] = bits
        if bits != self._full_mask:
            self._busy.add(reg)

    def tick(self) -> None:
        """Shift every busy register left one position (sticky LSB)."""
        if not self._busy:
            return
        full = self._full_mask
        done = []
        regs = self._regs
        for reg in self._busy:
            value = ((regs[reg] << 1) | (regs[reg] & 1)) & full
            regs[reg] = value
            if value == full:
                done.append(reg)
        self._busy.difference_update(done)


#: Functional unit assignment per class.
_UNIT_OF = {
    OpClass.INT_ALU: "alu",
    OpClass.BRANCH: "alu",
    OpClass.CALL: "alu",
    OpClass.RET: "alu",
    OpClass.NOP: None,
    OpClass.INT_MUL: "mul",
    OpClass.FP_ADD: "fp",
    OpClass.FP_MUL: "fp",
    OpClass.INT_DIV: "div",
    OpClass.FP_DIV: "div",
    OpClass.LOAD: "ldport",
    OpClass.STORE: "stport",
}

#: Units that can accept two ops per cycle.
_DUAL_UNITS = {"alu"}


class FunctionalUnits:
    """Per-cycle issue-port and unpipelined-unit tracking."""

    def __init__(self, params: PipelineParams):
        self._params = params
        self._busy_until: dict[str, int] = {}
        self._issued_this_cycle: dict[str, int] = {}
        self._cycle = -1

    def begin_cycle(self, cycle: int) -> None:
        self._cycle = cycle
        self._issued_this_cycle.clear()

    def can_accept(self, opclass: OpClass) -> bool:
        unit = _UNIT_OF[opclass]
        if unit is None:
            return True
        limit = 2 if unit in _DUAL_UNITS else 1
        if self._issued_this_cycle.get(unit, 0) >= limit:
            return False
        if opclass in UNPIPELINED_CLASSES:
            return self._busy_until.get(unit, -1) < self._cycle
        return True

    def accept(self, opclass: OpClass) -> None:
        unit = _UNIT_OF[opclass]
        if unit is None:
            return
        self._issued_this_cycle[unit] = self._issued_this_cycle.get(unit, 0) + 1
        if opclass in UNPIPELINED_CLASSES:
            latency = self._params.latencies[opclass]
            self._busy_until[unit] = self._cycle + latency


def bit_scoreboard(timestamps, max_stabilization_cycles: int) -> Scoreboard:
    """An empty bit-level scoreboard built like ``timestamps``, in a
    register sized for ``max_stabilization_cycles``."""
    return Scoreboard(
        num_registers=timestamps.num_registers,
        baseline_bits=timestamps.baseline_bits,
        bypass_levels=timestamps.bypass_levels,
        stabilization_cycles=timestamps.stabilization_cycles,
        max_stabilization_cycles=max_stabilization_cycles,
    )


class OracleCore:
    """The bit-level cycle loop: build, ``run(trace)``, read stats."""

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
        #: Shadow scoreboard with N=0 — identifies stalls that exist only
        #: because of the IRAW bubble (the paper's 13.2% / 8.52% numbers).
        self._shadow: Scoreboard | None = None
        if iraw.active and iraw.rf_enabled:
            self._shadow = Scoreboard(
                num_registers=NUM_REGISTERS,
                bypass_levels=iraw.bypass_levels,
                max_stabilization_cycles=iraw.max_stabilization_cycles,
            )
        self.iq_violations = 0
        self.value_mismatches = 0

    def run(self, trace: Trace, max_cycles: int | None = None
            ) -> SimulationResult:
        """Simulate ``trace`` to completion and return the results."""
        params = self.setup.params
        policy = self.policy
        scoreboard = bit_scoreboard(policy.scoreboard,
                                    self.setup.iraw.max_stabilization_cycles)
        shadow = self._shadow
        gate = policy.iq_gate
        units = self.units
        stalls = self.stalls
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
        self.memory.on_fill = policy.arm_fill_guards

        total_ops = len(trace.ops)
        if total_ops == 0:
            return self._result(trace, 0, 0, frontend, lsu, regfile)
        if max_cycles is None:
            max_cycles = 200 * total_ops + 100_000

        n_active = policy.stabilization_cycles
        max_encodable = scoreboard.max_encodable_latency
        # Eq. 1 from the gate's own ICI, AI and N; Figure 9's
        # stall_issue? is on iff that N is.
        gate_on = gate.stabilization_cycles > 0
        threshold = gate.issue_window \
            + gate.alloc_width * gate.stabilization_cycles
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
                    if dest is not None:
                        if latest_writer[dest] == op.index:
                            bypass.publish(dest,
                                           value if value is not None else 0,
                                           cycle)
                            regfile.write(dest,
                                          value if value is not None else 0,
                                          cycle + 1)
                            if long_latency:
                                scoreboard.long_latency_completed(dest)
                                if shadow is not None:
                                    shadow.long_latency_completed(dest)
                        # else: superseded by a younger writer (WAW); the
                        # architectural value is dead and the younger
                        # producer owns the scoreboard entry.
                    if op.is_store:
                        lsu.commit_store(op, value, cycle)
                    if op.is_control:
                        if op.opclass is OpClass.BRANCH \
                                and op.opcode is not Opcode.JMP:
                            self.tracker.update(op.pc, op.taken, cycle)
                        frontend.branch_resolved(op.index, cycle)
                    completed += 1

            # ---------------- 2. issue ----------------
            units.begin_cycle(cycle)
            issued = 0
            reason: StallReason | None = None
            store_words: set[int] | None = None
            for _ in range(params.issue_window):
                if not iq:
                    if issued == 0 and completed < total_ops:
                        reason = StallReason.FRONTEND_EMPTY
                    break
                if gate_on and len(iq) < threshold:  # Eq. 1
                    reason = StallReason.IQ_GATE
                    break
                op, alloc_cycle = iq[0]
                injected = op is _INJECTED_NOOP
                if n_active and not injected \
                        and cycle - alloc_cycle <= n_active:
                    # Reading a still-stabilizing IQ entry: what the Eq. 1
                    # gate prevents, checked whether or not it is on.
                    self.iq_violations += 1
                if injected:
                    iq.popleft()
                    issued += 1
                    continue
                # Source readiness (scoreboard MSB, Figures 6-8).
                blocked_src = False
                for src in op.srcs:
                    if not scoreboard.is_ready(src):
                        blocked_src = True
                        if shadow is not None and shadow.is_ready(src):
                            reason = StallReason.RF_IRAW_BUBBLE
                            if op.index not in iraw_delayed:
                                iraw_delayed.add(op.index)
                                stalls.iraw_delayed_instructions += 1
                        else:
                            reason = StallReason.RF_DEPENDENCY
                        break
                if blocked_src:
                    break
                opclass = op.opclass
                latency = params.latencies[opclass]
                # WAW write ordering (writes to a register must stay in
                # program order; rare with mixed latencies).
                dest = op.dest
                if dest is not None and \
                        pending_write[dest] >= cycle + latency + 1:
                    reason = StallReason.WAW_ORDER
                    break
                if not units.can_accept(opclass):
                    reason = StallReason.FU_BUSY
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
                        reason = StallReason.WRITE_PORT
                        break
                is_load = op.is_load
                is_store = op.is_store
                value: int | None = None
                bypass_cycle = cycle + latency
                long_latency = latency > max_encodable
                if is_load or is_store:
                    blocked = lsu.access_blocked(cycle + 1)
                    if blocked is not None:
                        reason = blocked[1]
                        break
                    word = op.mem_addr & ~7
                    if is_load and store_words and word in store_words:
                        # Same-cycle older-store conflict: one-cycle
                        # memory-ordering stall.
                        reason = StallReason.MEMORY_PENDING
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
                    ready, value = lsu.execute_load(op, cycle)
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
                units.accept(opclass)
                iq.popleft()
                if dest is not None:
                    encode = (bypass_cycle - cycle) if not long_latency \
                        else max_encodable + 1
                    scoreboard.producer_issued(dest, encode)
                    if shadow is not None:
                        shadow.producer_issued(dest, encode)
                    pending_write[dest] = bypass_cycle + 1
                    latest_writer[dest] = op.index
                    if write_port_index >= 0:
                        write_ports[write_port_index] = (
                            bypass_cycle + 1 + write_cost)
                completions.setdefault(bypass_cycle, []).append(
                    (op, dest, value, long_latency))
                issued += 1
            if issued == 0 and reason is not None:
                stalls.cycles[reason] += 1

            # ---------------- 3. allocate ----------------
            free = params.iq_size - len(iq)
            if free > 0:
                incoming = []
                buffer = frontend.buffer
                while len(incoming) < min(params.alloc_width, free) \
                        and buffer and buffer[0][1] <= cycle:
                    incoming.append(buffer.popleft()[0])
                for op in incoming:
                    iq.append((op, cycle))
                if gate_on and iq and len(iq) < threshold:
                    # Section 4.2 generalized: whenever allocation cannot
                    # keep occupancy at the Eq. 1 threshold (drains,
                    # redirects, fetch gaps), the allocator pads the queue
                    # with NOOP/invalid entries so older, already
                    # stabilized instructions are not gate-blocked.
                    needed = min(params.alloc_width - len(incoming), free,
                                 threshold - len(iq))
                    for _ in range(max(0, needed)):
                        iq.append((_INJECTED_NOOP, cycle))
                        stalls.injected_noops += 1

            # ---------------- 4. fetch ----------------
            frontend.tick(cycle)

            # ---------------- 5. tick ----------------
            scoreboard.tick()
            if shadow is not None:
                shadow.tick()
            cycle += 1

        return self._result(trace, completed, cycle, frontend, lsu, regfile)

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
