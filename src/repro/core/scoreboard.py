"""Scoreboard with IRAW-extended readiness windows (paper Figures 6-8).

In the paper each logical register owns a shift register whose most
significant bit answers "may a consumer issue *this cycle* and legally
obtain the value?".  Every cycle all shift registers shift left by one,
keeping the least significant bit sticky.  When a producer with execute
latency L issues, its destination's shift register is initialized, from
MSB to LSB (paper Section 4.1.2), to

   (I)  L zeros            — value not yet produced,
   (II) ``bypass_levels`` ones — value available on the bypass network,
   (III) N zeros           — the IRAW stabilization bubble: a consumer
                             issuing here would read the register file
                             exactly while the cell stabilizes,
   (IV) ones               — value readable from the RF forever after.

With L=3, one bypass level and N=1 this gives the paper's ``0001011``
example.  The baseline (N=0) drops phase (III) and reduces to the classic
delayed-wakeup scoreboard (``00011`` in a 5-bit register).

Long-latency producers (divides, load misses) cannot encode their latency
at issue; their register is zeroed and a completion event later installs
the (II)/(III)/(IV) tail (Section 4.1.1).

This model stores, per register, the cycles at which that MSB changes
instead of the bits.  With B bypass levels, a producer issued at cycle
``i`` with latency ``L`` sets

* ``ready = i + L`` — the first cycle the value is on the bypass;
* the bubble ``[ready + B, ready + B + N)``.

The MSB after ``c - i`` sticky-LSB shifts is then
``c >= ready and not bubble_lo <= c < bubble_hi``; the issue stage
(:meth:`repro.pipeline.core.InOrderCore.run`) applies that rule to the
lists directly, and this class only writes them.  A zeroed register is
``ready = NEVER``; its completion at cycle ``c`` sets ``ready = c`` and
the bubble ``[c + max(1, B), c + max(1, B) + N)``.  Nothing ticks.  The
pattern always fits the ``baseline_bits + B + max N`` register the
hardware builds, because an encodable latency is at most
``baseline_bits - 1``.  The bit-level model is kept as the test oracle.
"""

from __future__ import annotations

from repro.errors import ConfigError, PipelineError

#: ``ready`` of a register waiting on a long-latency completion event.
NEVER = 1 << 62


class Scoreboard:
    """Readiness windows for the in-order issue stage.

    ``ready``, ``bubble_lo`` and ``bubble_hi`` are per-register cycle
    lists, written by producers and completions and read by the issue
    stage.
    """

    def __init__(self, num_registers: int = 32, baseline_bits: int = 6,
                 bypass_levels: int = 1, stabilization_cycles: int = 0):
        if num_registers <= 0:
            raise ConfigError("need at least one register")
        if baseline_bits < 2:
            raise ConfigError("baseline shift registers need >= 2 bits")
        if bypass_levels < 0 or stabilization_cycles < 0:
            raise ConfigError("bypass/stabilization depth cannot be negative")
        self.num_registers = num_registers
        self.baseline_bits = baseline_bits
        self.bypass_levels = bypass_levels
        #: N: the depth of the bubble every producer installs.
        self.stabilization_cycles = stabilization_cycles
        self.ready = [0] * num_registers
        self.bubble_lo = [0] * num_registers
        self.bubble_hi = [0] * num_registers

    @property
    def max_encodable_latency(self) -> int:
        """Largest execute latency the pattern can encode (B-1 rule)."""
        return self.baseline_bits - 1

    def producer_issued(self, reg: int, cycle: int, latency: int) -> None:
        """A producer writing ``reg`` issued at ``cycle``.

        ``latency`` beyond ``max_encodable_latency`` selects the
        long-latency path: the register stays unready until
        :meth:`long_latency_completed` fires.
        """
        if latency <= 0:
            raise PipelineError(f"producer latency must be positive: {latency}")
        if latency >= self.baseline_bits:  # beyond max_encodable_latency
            self.ready[reg] = NEVER
            return
        ready = self.ready[reg] = cycle + latency
        bubble = self.bubble_lo[reg] = ready + self.bypass_levels
        self.bubble_hi[reg] = bubble + self.stabilization_cycles

    def long_latency_completed(self, reg: int, cycle: int) -> None:
        """The value of a long-latency producer is being written at ``cycle``.

        Installs the tail of the pattern as if the producer were a
        single-cycle instruction completing now: bypass, N stabilization
        cycles, then readable (paper Section 4.1.1, adapted to IRAW in
        4.1.2).
        """
        self.ready[reg] = cycle
        bubble = self.bubble_lo[reg] = cycle + max(1, self.bypass_levels)
        self.bubble_hi[reg] = bubble + self.stabilization_cycles
