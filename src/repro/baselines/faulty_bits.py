"""The *Faulty Bits* alternative of Table 1 (paper refs [1, 22, 26]).

Clock the SRAM arrays for a smaller variation margin (e.g. 4 sigma instead
of 6 sigma) so writes fit a shorter cycle, and **disable** every cache line
that contains a cell beyond that margin.  The paper's Table 1 critique,
which this module quantifies:

* **Does not work for all SRAM blocks** — the register file (and IQ) of an
  in-order core need every entry, so they still require the 6-sigma write
  margin: the honest core-level frequency gain is zero.  We also model the
  *hypothetical* variant that pretends every block could take faulty bits,
  to show the ceiling.
* **IPC impact** — disabled lines shrink the caches and raise miss rates.
* **Vcc adaptability** — a fault map is only valid for one Vcc; either the
  arrays are re-tested at every level change or one map per level is
  stored (we charge the storage for ``vcc_levels`` maps).
* **Testing** — disabled hardware differs per die, making lock-step
  multi-core test comparison nondeterministic (qualitative flag).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from repro.circuits.frequency import ClockScheme, FrequencySolver, OperatingPoint
from repro.circuits.variation import VariationModel
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemorySystem

#: The caches Faulty Bits degrades, in the order their maps are drawn.
_CACHES = ("il0", "dl0", "ul1")


@dataclass
class FaultyBitsBaseline:
    """Reduced-sigma clocking with per-line disable."""

    solver: FrequencySolver
    design_sigma: float = 4.0
    #: Number of Vcc levels whose fault maps are stored on chip.
    vcc_levels: int = 13
    seed: int = 1
    name: str = "faulty-bits"

    def __post_init__(self) -> None:
        self.variation = VariationModel(self.solver.delay_model)
        reduced = self.variation.model_at_sigma(self.design_sigma)
        self._reduced_solver = FrequencySolver(reduced)

    # ------------------------------------------------------------------
    # Frequency
    # ------------------------------------------------------------------

    def operating_point(self, vcc_mv: float,
                        hypothetical_all_blocks: bool = False
                        ) -> OperatingPoint:
        """Core clock under Faulty Bits.

        The honest variant is register-file-bound: the RF cannot disable
        entries, so the cycle still fits a 6-sigma write and the clock is
        the paper's baseline.  The hypothetical variant clocks for the
        reduced margin everywhere.
        """
        if hypothetical_all_blocks:
            return self._reduced_solver.operating_point(
                vcc_mv, ClockScheme.BASELINE)
        return self.solver.operating_point(vcc_mv, ClockScheme.BASELINE)

    def combined_with_iraw_point(self, vcc_mv: float) -> OperatingPoint:
        """Extension (paper Section 4.4, last paragraph): IRAW avoidance
        *and* faulty bits combined.

        IRAW removes the full-write constraint everywhere; additionally
        designing the interrupted-write flip path for the reduced sigma
        margin (disabling the weak lines in the caches) shortens the IRAW
        phase further.  Returns the resulting operating point.
        """
        return self._reduced_solver.operating_point(vcc_mv, ClockScheme.IRAW)

    # ------------------------------------------------------------------
    # Cache degradation
    # ------------------------------------------------------------------

    def apply_to_memory(self, memory: MemorySystem) -> dict[str, float]:
        """Replace the caches with disabled-way versions.

        Returns the fraction of lines disabled per cache (for reports).
        """
        caches = [getattr(memory, attr) for attr in _CACHES]
        maps = _fault_maps(self.variation, self.design_sigma, self.seed,
                           tuple((cache.num_sets, cache.associativity,
                                  cache.line_size) for cache in caches))
        report: dict[str, float] = {}
        for attr, old, disabled in zip(_CACHES, caches, maps):
            replacement = Cache(old.name, old.size_bytes, old.associativity,
                                old.line_size, disabled_ways=disabled)
            setattr(memory, attr, replacement)
            total_lines = old.num_sets * old.associativity
            report[old.name] = sum(disabled) / total_lines
        return report

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------

    def fault_map_bits(self) -> int:
        """Fault-map storage: one bit per line per supported Vcc level."""
        lines = (32 * 1024 // 64) + (24 * 1024 // 64) + (512 * 1024 // 64)
        return lines * self.vcc_levels

    def area_overhead(self, core_transistors: int = 47_000_000) -> float:
        """Fault maps as SRAM bits over the core (paper-style accounting)."""
        return self.fault_map_bits() * 8 / core_transistors


@lru_cache(maxsize=8)
def _fault_maps(variation: VariationModel, design_sigma: float, seed: int,
                geometries: tuple[tuple[int, int, int], ...]
                ) -> tuple[tuple[int, ...], ...]:
    """Disabled ways per set of each cache in ``geometries`` (sets, ways,
    line size), drawn in order from one ``random.Random(seed)`` stream.

    The maps depend on nothing else, so every Faulty Bits core of a
    process with the same recipe shares one draw (about 9,100 draws over
    the default hierarchy's 1,152 sets).  The maps are tuples: no caller
    can edit another's.
    """
    rng = random.Random(seed)
    maps = []
    for num_sets, assoc, line_size in geometries:
        bits_per_line = line_size * 8 + 30  # data + tag/state
        p_line = variation.line_failure_probability(design_sigma,
                                                    bits_per_line)
        maps.append(tuple(
            sum(1 for _ in range(assoc) if rng.random() < p_line)
            for _ in range(num_sets)))
    return tuple(maps)
