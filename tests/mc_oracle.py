"""Scalar reference oracle for the Monte-Carlo array path.

The program samples and evaluates dies only as NumPy arrays
(``DieBlock.build`` + ``evaluate_block``) and reduces them in chunked
array folds.  This module is the independent, one-die-at-a-time
reference those paths are tested against:

* :func:`draw_die` reads one die's words with its own
  ``Philox(counter=...)`` and turns them into the die's offset, per-array
  worst cells and importance weight with ``math`` and ``NormalDist``;
* :func:`evaluate_die` runs the die through the scalar
  ``FrequencySolver`` physics;
* :class:`Welford` is the scalar weighted Welford (West) accumulator
  the chunked folds are checked against.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from statistics import NormalDist

from numpy.random import Philox

from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.circuits.variation import VariationModel

_NORMAL = NormalDist()
_PHASE_EPS = 1e-12


@dataclass(frozen=True)
class DieDraw:
    """One die's sampled identity."""

    #: Die-to-die Vth offset in mV, proposal shift included.
    offset_mv: float
    #: (array name, worst-cell sigma), sorted by array name.
    worst_sigma: tuple[tuple[str, float], ...]
    log_weight: float

    def effective_sigma(self, sigma_mv: float) -> float:
        return max(sigma for _, sigma in self.worst_sigma) \
            + self.offset_mv / sigma_mv


@dataclass(frozen=True)
class DiePoint:
    """One die evaluated at one (Vcc, scheme) point."""

    worst_sigma: float
    die_frequency_mhz: float
    design_frequency_mhz: float
    slowdown: float
    functional: bool
    meets_design: bool
    design_stabilization: int
    required_stabilization: int
    log_weight: float


def die_words(config, die: int) -> list[int]:
    """The die's raw words: its offset word, then one per array."""
    digest = hashlib.sha256(f"repro-mc:{config.seed}".encode()).digest()
    words = 1 + len(config.array_bits())
    stream = Philox(key=int.from_bytes(digest[:16], "big"),
                    counter=die * math.ceil(words / 4))
    return [int(word) for word in stream.random_raw(words)]


def unit(word: int) -> float:
    """A 64-bit word as a double in (0, 1): top 52 bits plus a half."""
    return ((word >> 12) + 0.5) / 2.0 ** 52


def worst_cell_sigma(u: float, total_bits: int) -> float:
    """``Phi^-1(u ** (1/total_bits))``, through the upper tail."""
    return -_NORMAL.inv_cdf(-math.expm1(math.log(u) / total_bits))


def draw_die(config, die: int) -> DieDraw:
    u = [unit(word) for word in die_words(config, die)]
    offset = config.die_sigma_mv * _NORMAL.inv_cdf(u[0])
    log_weight = 0.0
    if config.shift_sigma:
        lam = config.shift_sigma * config.sigma_mv / config.die_sigma_mv
        log_weight = -lam * (offset / config.die_sigma_mv + lam / 2.0)
        offset += config.shift_sigma * config.sigma_mv
    worst = tuple((name, worst_cell_sigma(value, bits))
                  for (name, bits), value in zip(config.array_bits(), u[1:]))
    return DieDraw(offset_mv=offset, worst_sigma=worst,
                   log_weight=log_weight)


def evaluate_die(config, die: int, vcc_mv: float, scheme: ClockScheme,
                 solver: FrequencySolver | None = None) -> DiePoint:
    """The die against the design schedule, through scalar solvers."""
    solver = solver or FrequencySolver()
    variation = VariationModel(solver.delay_model,
                               vth_mv_per_sigma=config.sigma_mv)
    draw = draw_die(config, die)
    effective = draw.effective_sigma(config.sigma_mv)
    nominal = solver.nominal_frequency_mhz
    design_point = FrequencySolver(
        variation.model_at_sigma(config.design_sigma),
        nominal_frequency_mhz=nominal).operating_point(vcc_mv, scheme)
    die_solver = FrequencySolver(variation.model_at_sigma(effective),
                                 nominal_frequency_mhz=nominal)
    die_point = die_solver.operating_point(vcc_mv, scheme)
    slowdown = die_point.phase_delay / design_point.phase_delay
    required = die_solver.stabilization_cycles_at(
        vcc_mv, design_point.phase_delay)
    meets_design = slowdown <= 1.0 + _PHASE_EPS
    if scheme is ClockScheme.IRAW:
        meets_design = meets_design \
            and required <= design_point.stabilization_cycles
    return DiePoint(
        worst_sigma=effective,
        die_frequency_mhz=die_point.frequency_mhz,
        design_frequency_mhz=design_point.frequency_mhz,
        slowdown=slowdown,
        functional=slowdown <= config.max_slowdown + _PHASE_EPS,
        meets_design=meets_design,
        design_stabilization=design_point.stabilization_cycles,
        required_stabilization=required,
        log_weight=draw.log_weight,
    )


def block_point(result, index: int) -> DiePoint:
    """Element ``index`` of a ``DieBlockResult`` as a :class:`DiePoint`."""
    return DiePoint(
        worst_sigma=float(result.worst_sigma[index]),
        die_frequency_mhz=float(result.die_frequency_mhz[index]),
        design_frequency_mhz=result.design_frequency_mhz,
        slowdown=float(result.slowdown[index]),
        functional=bool(result.functional[index]),
        meets_design=bool(result.meets_design[index]),
        design_stabilization=result.design_stabilization,
        required_stabilization=int(result.required_stabilization[index]),
        log_weight=float(result.log_weight[index]),
    )


def block_points(results) -> list[DiePoint]:
    """Every die of a sequence of block results, in order."""
    return [block_point(result, index) for result in results
            for index in range(result.dies)]


def assert_points_close(actual: DiePoint, expected: DiePoint,
                        context: str = "") -> None:
    """Ints and booleans exactly, floats to 1e-12."""
    for name, want in vars(expected).items():
        got = getattr(actual, name)
        if isinstance(want, (bool, int)):
            assert got == want, f"{context} {name}: {got} != {want}"
        else:
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), \
                f"{context} {name}: {got!r} != {want!r}"


class Welford:
    """Scalar weighted Welford (West) moments, one value at a time."""

    def __init__(self) -> None:
        self.count = 0
        self.wsum = 0.0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value: float, weight: float = 1.0) -> None:
        if weight == 0.0:
            return
        self.count += 1
        self.wsum += weight
        delta = value - self.mean
        self.mean += delta * weight / self.wsum
        self.m2 += delta * weight * (value - self.mean)

    @property
    def std(self) -> float:
        # Welford's m2 can round below zero on a zero spread.
        if self.count < 2:
            return 0.0
        return math.sqrt(max(self.m2, 0.0) / self.wsum)
