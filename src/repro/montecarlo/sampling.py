"""Per-die SRAM variation sampling and vectorized die-block evaluation.

A *die sample* is the statistical identity of one manufactured chip:

* a **die-to-die** mean Vth shift (one Gaussian draw, in millivolts),
  modelling the slow process corner the whole die landed on;
* the **within-die worst cell** of every SRAM array, drawn from the
  exact distribution of the maximum of ``total_bits`` i.i.d. standard
  Gaussians via inverse-CDF (one uniform per array — no per-cell loop,
  but statistically identical to sampling every cell and taking the
  max).

Draws come from NumPy's Philox4x64 counter-based generator (Salmon et
al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), keyed once
per campaign by ``sha256("repro-mc:<seed>")``.  Die ``d`` reads its
words at a counter offset that depends only on ``d``, so a die's sample
is a pure function of the campaign seed and the die index — never of
the block that holds it, worker count, execution backend or evaluation
order.  That invariant is what lets each (die block, Vcc, scheme) point
run as an independent, cacheable ``mc-block`` engine job, and what
makes a block of one die (the plan of a campaign without a block size)
evaluate exactly like the same die inside a 4096-die block: there is one
sampler and one evaluation path.

Evaluation compares the die against the *design* schedule: the shipped
part clocks every die at the frequency the design margin
(``design_sigma``, the paper's 6-sigma baseline) dictates at each Vcc.
A die whose worst cell is weaker than the margin needs a longer phase;
the ratio of its own achievable phase to the design phase is its
``slowdown``.  ``meets_design`` (top frequency bin) additionally
requires an IRAW die to stabilise within the design's N at the design
clock.  ``functional`` applies the binning floor ``max_slowdown`` —
dies slower than that at a given Vcc cannot be shipped at any bin, and
the lowest grid Vcc where a die is functional is its **Vccmin**.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import repeat
from statistics import _normal_dist_inv_cdf
from typing import TYPE_CHECKING

from repro.circuits import constants
from repro.circuits.ekv import THERMAL_VOLTAGE_MV, Device, check_voltage
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.circuits.sram import silverthorne_arrays
from repro.circuits.variation import VTH_MV_PER_SIGMA, VariationModel
from repro.errors import ConfigError

if TYPE_CHECKING:  # imported where arrays are built, so specs load without it
    import numpy as np

#: Die-to-die mean Vth shift sigma, in millivolts.  Die-level systematic
#: variation is a sizable fraction of the cell-to-cell sigma at 45 nm;
#: 10 mV (one cell sigma at the default 10 mV/sigma) spreads sampled
#: dies across roughly +/-3 effective sigma around the within-die
#: worst-cell expectation.
DIE_SIGMA_MV = 10.0

#: Default binning floor: a die slower than this multiple of the design
#: cycle time at a given Vcc is not sellable at any frequency bin there
#: (a 25% span is a typical speed-grade ladder).  With the calibrated
#: delay model this floor starts to bind below ~500 mV, which is what
#: produces the Vccmin spread.
MAX_SLOWDOWN = 1.25

#: Tolerance absorbing float rounding in phase-delay comparisons: a die
#: whose worst cell is *stronger* than the design margin must never be
#: classed below the design bin because of last-bit noise.
_PHASE_EPS = 1e-12

#: Philox4x64 emits four 64-bit words per counter step.
_WORDS_PER_COUNTER = 4

#: Total bits of every Silverthorne SRAM array, by name.
_ARRAY_BITS = {array.name: array.total_bits
               for array in silverthorne_arrays()}


@dataclass(frozen=True)
class MonteCarloConfig:
    """The job-key identity of one sampling campaign.

    Deliberately excludes presentation-only knobs (die count, confidence
    level): adding dies to a campaign or re-rendering at a different
    confidence must reuse every cached per-die result, exactly like
    adding a trace to a population re-simulates only the new trace.
    """

    seed: int = 0
    sigma_mv: float = VTH_MV_PER_SIGMA
    design_sigma: float = 6.0
    die_sigma_mv: float = DIE_SIGMA_MV
    max_slowdown: float = MAX_SLOWDOWN
    #: Array names to sample (empty = all Silverthorne arrays).
    arrays: tuple[str, ...] = ()
    #: Importance-sampling proposal shift, in cell sigmas: the
    #: die-to-die mean Vth offset (the model's Gaussian component,
    #: shared by every cell of the die) is mean-shifted so the die's
    #: effective worst-cell sigma moves exactly this far toward the
    #: failure region, and the die records the exact Gaussian log
    #: likelihood ratio of the nominal offset distribution against the
    #: proposal.  Shifting the *per-array max* draw instead would give
    #: a likelihood ratio with an infinite second moment (the max-of-N
    #: density has a doubly-exponential left flank where the shifted
    #: proposal has essentially no mass), so the Gaussian die offset is
    #: the one component that supports a mean shift with bounded
    #: weight variance — ``ESS/n = exp(-lambda^2)`` with ``lambda =
    #: shift_sigma * sigma_mv / die_sigma_mv``.  0.0 (the default) is
    #: plain Monte-Carlo; the shift changes the sampled population, so
    #: it is physics and belongs in the job key.
    shift_sigma: float = 0.0

    def __post_init__(self) -> None:
        # Canonical order: sampling iterates arrays sorted by name, so
        # author order must not leak into the job key — ["RF", "DL0"]
        # and ["DL0", "RF"] are the same campaign and the same cache.
        object.__setattr__(self, "arrays",
                           tuple(sorted({str(name)
                                         for name in self.arrays})))
        if self.sigma_mv <= 0:
            raise ConfigError("montecarlo sigma_mv must be positive")
        if self.design_sigma <= 0:
            raise ConfigError("montecarlo design_sigma must be positive")
        if self.die_sigma_mv < 0:
            raise ConfigError("montecarlo die_sigma_mv must be >= 0")
        if self.max_slowdown < 1.0:
            raise ConfigError("montecarlo max_slowdown must be >= 1.0")
        if not (math.isfinite(self.shift_sigma)
                and self.shift_sigma >= 0.0):
            raise ConfigError("montecarlo shift_sigma must be a finite "
                              f"sigma count >= 0 (got {self.shift_sigma})")
        if self.shift_sigma > 0.0 and self.die_sigma_mv == 0.0:
            raise ConfigError(
                "montecarlo shift_sigma > 0 needs die_sigma_mv > 0: the "
                "importance-sampling proposal mean-shifts the die-to-die "
                "Vth offset, which a zero-sigma campaign never draws")
        for name in self.arrays:
            if name not in _ARRAY_BITS:
                raise ConfigError(
                    f"montecarlo: unknown SRAM array {name!r} (known: "
                    f"{', '.join(sorted(_ARRAY_BITS))})")

    def array_bits(self) -> tuple[tuple[str, int], ...]:
        """(name, total_bits) of the sampled arrays, sorted by name."""
        names = self.arrays or tuple(_ARRAY_BITS)
        return tuple((name, _ARRAY_BITS[name]) for name in sorted(names))


def shifted_offset(offset_mv, config: MonteCarloConfig):
    """Apply the IS proposal shift to die offset draws.

    The proposal draws the die offset from the nominal
    ``N(0, die_sigma_mv)`` and reports ``offset_mv + shift_sigma *
    sigma_mv`` — every cell of the die, and hence the die's effective
    worst-cell sigma, moves exactly ``shift_sigma`` cell sigmas toward
    the failure region.  The exact log likelihood ratio of the nominal
    density against the mean-shifted proposal at the reported value is
    the Gaussian tilt ``-lambda * (z + lambda / 2)`` with ``z =
    offset_mv / die_sigma_mv`` and ``lambda = shift_sigma * sigma_mv /
    die_sigma_mv``, so the weights are exactly lognormal and the
    expected ESS fraction is ``exp(-lambda**2)``.

    ``offset_mv`` may be a float or an array of per-die draws.
    ``shift_sigma == 0`` returns the draw untouched with a bit-exact
    0.0 log weight, so an unshifted campaign is bit-identical to plain
    Monte-Carlo.  Returns ``(reported offset_mv, log weight)``.
    """
    shift = config.shift_sigma
    if shift == 0.0:
        return offset_mv, 0.0
    lam = shift * config.sigma_mv / config.die_sigma_mv
    z = offset_mv / config.die_sigma_mv
    return offset_mv + shift * config.sigma_mv, -lam * (z + lam / 2.0)


# ----------------------------------------------------------------------
# The counter-based block sampler
# ----------------------------------------------------------------------
#
# The sampling contract rests on the Philox bit stream alone.  Each die
# owns ``ceil((1 + arrays) / 4)`` consecutive counter steps: its first
# word drives the die offset, the next one per sampled array in
# sorted-name order.  Words become doubles in this module (never through
# a library's float conversion), and the worst cell of the die needs a
# single inverse-CDF call: Phi^-1 is monotone, so the max over arrays of
# ``Phi^-1(u_a ** (1/N_a))`` is ``Phi^-1`` of the max over arrays,
# evaluated through its upper tail to keep full precision that close
# to 1.  Every step is elementwise, so a die's sample does not depend on
# the block it is drawn in.


def _philox_key(seed: int) -> int:
    """The campaign's 128-bit Philox key (any int seed, even negative)."""
    digest = hashlib.sha256(f"repro-mc:{seed}".encode("ascii")).digest()
    return int.from_bytes(digest[:16], "big")


def _unit_interval(words: np.ndarray) -> np.ndarray:
    """Raw 64-bit words as doubles in the open interval (0, 1).

    The top 52 bits plus one half, scaled by 2**-52: every step is
    exact, so a word maps to the same double everywhere.
    """
    import numpy as np

    return ((words >> np.uint64(12)).astype(np.float64) + 0.5) \
        * 2.0 ** -52


def _inv_cdf(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile per element, bit for bit
    ``NormalDist().inv_cdf``.

    That method checks its argument in Python and then calls
    ``statistics._normal_dist_inv_cdf``, CPython's AS241 routine (a C
    builtin).  Mapping the routine itself runs no Python frame per
    draw, and it still raises ``ValueError`` outside (0, 1).  A NumPy
    port of AS241 would not be exact: NumPy's vectorized ``log`` is not
    libm's and moves some draws by a few ulps.
    """
    import numpy as np

    return np.fromiter(map(_normal_dist_inv_cdf, p.tolist(), repeat(0.0),
                           repeat(1.0)),
                       dtype=np.float64, count=p.size)


@dataclass(frozen=True)
class DieBlock:
    """A contiguous die range of one campaign, sampled as one unit.

    Hashable (config + range) so per-process memoization can reuse one
    sampled block across every (Vcc, scheme) grid point that evaluates
    it — sampling runs once per block, not once per job.
    """

    config: MonteCarloConfig
    die_start: int
    dies: int

    def __post_init__(self) -> None:
        if self.die_start < 0:
            raise ConfigError(f"die index must be >= 0 "
                              f"(got {self.die_start})")
        if self.dies < 1:
            raise ConfigError(f"a die block needs at least one die "
                              f"(got {self.dies})")

    def build(self) -> "BlockSample":
        """The block's sampled identity, in die order (read-only)."""
        import numpy as np
        from numpy.random import Philox

        config = self.config
        bits = config.array_bits()
        words = 1 + len(bits)
        counters = -(-words // _WORDS_PER_COUNTER)
        stream = Philox(key=_philox_key(config.seed),
                        counter=self.die_start * counters)
        raw = stream.random_raw(self.dies * counters * _WORDS_PER_COUNTER)
        u = _unit_interval(raw.reshape(self.dies, -1)[:, :words])

        offset_mv = config.die_sigma_mv * _inv_cdf(u[:, 0])
        offset_mv, log_weight = shifted_offset(offset_mv, config)
        sizes = np.array([total for _, total in bits], dtype=np.float64)
        # 1 - max_a u_a ** (1/N_a), computed without cancellation.
        tail = -np.expm1((np.log(u[:, 1:]) / sizes).max(axis=1))
        worst = -_inv_cdf(tail)
        return BlockSample(
            effective=_frozen(worst + offset_mv / config.sigma_mv),
            log_weight=_frozen(np.zeros(self.dies) + log_weight))


@dataclass(frozen=True, eq=False)
class BlockSample:
    """A sampled die block: per-die effective sigmas + IS log weights.

    The value :meth:`DieBlock.build` produces and the per-process block
    memo shares across the (Vcc, scheme) grid.  Arrays are read-only
    and aligned by position with the block's die range.
    """

    #: Worst cell across all sampled arrays with the die offset folded
    #: in, in cell sigmas (comparable to the design margin).
    effective: np.ndarray
    #: Exact Gaussian log likelihood ratio of the nominal offset
    #: distribution against the proposal; exactly 0.0 unshifted.
    log_weight: np.ndarray


# ----------------------------------------------------------------------
# Vectorized block evaluation
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DieBlockResult:
    """A whole die block evaluated at one (Vcc, scheme) grid point.

    Array fields are aligned by position: element ``i`` is die
    ``die_start + i``.  Arrays are read-only — a block result is a
    cacheable value, shared between memo, disk cache and reducers.
    (``eq=False``: ndarray fields make dataclass equality ambiguous.)
    """

    die_start: int
    dies: int
    vcc_mv: float
    scheme: str
    #: Frequency the design schedule dictates at this point.
    design_frequency_mhz: float
    #: Stabilization cycles the design schedule provisions here.
    design_stabilization: int
    #: The die's effective worst-cell sigma (offset folded in).
    worst_sigma: np.ndarray
    #: Frequency the die achieves clocked for its own worst cell.
    die_frequency_mhz: np.ndarray
    #: Die phase delay / design phase delay — below 1.0 for the many
    #: dies whose worst cell beats the design margin, above it for the
    #: slow tail that drives the yield curves.
    slowdown: np.ndarray
    #: Die is sellable at *some* bin here (slowdown <= max_slowdown).
    functional: np.ndarray
    #: Die makes the top bin: runs at the design clock (and, for IRAW,
    #: stabilises within the design's N).
    meets_design: np.ndarray
    #: Cycles this die's worst cell needs at the design clock.
    required_stabilization: np.ndarray
    #: The die's importance-sampling log weight.
    log_weight: np.ndarray


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a freshly computed kernel array read-only, in place."""
    array.flags.writeable = False
    return array


def _device_delay_array(device: Device, shift: np.ndarray,
                        vcc_mv: float) -> np.ndarray:
    """Vectorized :meth:`Device.delay` for per-die Vth-shifted devices,
    with :func:`~repro.circuits.ekv.softplus` and its +/-35 guards as a
    NumPy expression."""
    import numpy as np

    vth = device.vth_mv + shift
    x = (vcc_mv - vth) / (2.0 * device.n * THERMAL_VOLTAGE_MV)
    e = np.exp(np.minimum(x, 35.0))
    s = np.where(x > 35.0, x, np.where(x < -35.0, e, np.log1p(e)))
    current = s * s
    return (device.kd * vcc_mv) / current


def _stabilization_cycles_array(write, wordline, slowdown_factor, phase):
    """Vectorized ``FrequencySolver._stabilization_cycles``.

    ``write`` is the per-die write-delay array; ``phase`` may be a
    scalar (the design phase) or a per-die array (the IRAW phase).
    """
    import numpy as np

    assisted = phase - wordline
    remaining = write - assisted
    stab_time = np.where(remaining <= 0.0, 0.0,
                         slowdown_factor * remaining)
    cycles = np.where(stab_time <= 0.0, 0.0,
                      np.ceil(stab_time / (2.0 * phase)))
    return cycles.astype(np.int64)


def evaluate_block(config: MonteCarloConfig, die_start: int, dies: int,
                   vcc_mv: float, scheme: ClockScheme,
                   solver: FrequencySolver | None = None,
                   sample: BlockSample | None = None,
                   ) -> DieBlockResult:
    """Evaluate a contiguous die block at one grid point, vectorized.

    ``solver`` carries the calibrated (typical-margin) delay model and
    the nominal frequency; the design schedule re-margins it at
    ``config.design_sigma`` and each die at its own sampled worst cell.
    ``sample`` short-circuits sampling with a pre-built
    :meth:`DieBlock.build` value so executors can share one sampled
    block across the whole (Vcc, scheme) grid.
    """
    import numpy as np

    solver = solver or FrequencySolver()
    if sample is None:
        sample = DieBlock(config, die_start, dies).build()
    effective = sample.effective
    if effective.shape != (dies,):
        raise ConfigError(
            f"effective-sigma array has shape {effective.shape}, "
            f"expected ({dies},)")
    check_voltage(vcc_mv)
    variation = VariationModel(solver.delay_model,
                               vth_mv_per_sigma=config.sigma_mv)
    nominal = solver.nominal_frequency_mhz
    design_point = FrequencySolver(
        variation.model_at_sigma(config.design_sigma),
        nominal_frequency_mhz=nominal,
    ).operating_point(vcc_mv, scheme)

    # Die-independent scalar paths: only the write and flip devices
    # carry the per-die Vth shift (VariationModel.model_at_sigma), so
    # logic/wordline/read delays are shared scalars per grid point.
    model = solver.delay_model
    logic = model.logic(vcc_mv)
    wordline = model.wordline(vcc_mv)
    read_wl = model.read_with_wordline(vcc_mv)
    gamma = model.stabilization_slowdown

    shift = (effective - variation.baseline_sigma) \
        * variation.vth_mv_per_sigma
    write = _device_delay_array(model.write_device, shift, vcc_mv)

    if scheme is ClockScheme.LOGIC:
        phase = np.full(dies, logic, dtype=np.float64)
    elif scheme is ClockScheme.BASELINE:
        phase = np.maximum(np.maximum(logic, write + wordline), read_wl)
    else:
        flip = _device_delay_array(model.flip_device, shift, vcc_mv)
        iraw_phase = np.maximum(np.maximum(logic, wordline + flip),
                                read_wl)
        base_phase = np.maximum(np.maximum(logic, write + wordline),
                                read_wl)
        if vcc_mv >= constants.IRAW_DEACTIVATION_MV:
            phase = base_phase
        else:
            stab = _stabilization_cycles_array(write, wordline, gamma,
                                               iraw_phase)
            phase = np.where(stab == 0, base_phase, iraw_phase)

    phase_time_ns = 1e3 / nominal / 2.0
    frequency = 1e3 / (2.0 * phase * phase_time_ns)
    slowdown = phase / design_point.phase_delay
    # What each die's worst cell needs when run at the *design* clock:
    # for IRAW that is its stabilization count, for write-complete
    # schemes any nonzero value means the write no longer fits.
    required = _stabilization_cycles_array(write, wordline, gamma,
                                           design_point.phase_delay)
    meets_design = slowdown <= 1.0 + _PHASE_EPS
    if scheme is ClockScheme.IRAW:
        meets_design = meets_design \
            & (required <= design_point.stabilization_cycles)
    functional = slowdown <= config.max_slowdown + _PHASE_EPS
    return DieBlockResult(
        die_start=die_start,
        dies=dies,
        vcc_mv=vcc_mv,
        scheme=scheme.value,
        design_frequency_mhz=design_point.frequency_mhz,
        design_stabilization=design_point.stabilization_cycles,
        worst_sigma=effective,
        die_frequency_mhz=_frozen(frequency),
        slowdown=_frozen(slowdown),
        functional=_frozen(functional),
        meets_design=_frozen(meets_design),
        required_stabilization=_frozen(required),
        log_weight=sample.log_weight,
    )
