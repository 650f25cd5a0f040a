"""Campaign planning and chunked array reduction for die sampling.

:func:`montecarlo_jobs` compiles a :class:`MonteCarloSpec` against a
Vcc grid and scheme list into one flat batch of engine jobs — one per
(Vcc, scheme, die block), in that nesting order.  Each job's canonical
key derives from the campaign's physics config plus the die range, so
every block at every grid point is an independently cacheable,
dedupable, backend-agnostic unit.

Every job returns a :class:`~repro.montecarlo.sampling.DieBlockResult`
(a campaign without a block size plans blocks of one die).  The
reducers consume the results *in plan order* and fold each (Vcc,
scheme) group as arrays, re-cut into die-aligned chunks of
:data:`FOLD_CHUNK` dies, so the rows are identical for any block
partition:

* :func:`yield_curve_rows` — functional and frequency (top-bin) yield
  per (Vcc, scheme) with Wilson confidence intervals, plus
  frequency-bin statistics of the die population;
* :func:`vccmin_rows` — the per-die Vccmin distribution per scheme
  (the statistical generalisation of the paper's Table 1 margins);
* :func:`per_die_rows` — one row per (scheme, die) with its Vccmin and
  sampled worst-cell sigma, for ResultSet export.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuits.frequency import FrequencySolver
from repro.engine.jobs import Job
from repro.errors import ConfigError
from repro.montecarlo.importance import warn_low_ess
from repro.montecarlo.spec import MonteCarloSpec
from repro.montecarlo.stats import (
    DiscreteDistribution,
    StreamingStats,
    WeightedIndicator,
    WeightedStats,
    checked_weights,
    weighted_wilson_interval,
    wilson_interval,
)

#: Dies per reduction chunk.  Each (Vcc, scheme) group is folded in
#: chunks covering dies ``[k * FOLD_CHUNK, (k + 1) * FOLD_CHUNK)``
#: whatever blocks delivered them: the NumPy sums see the same arrays
#: for any block partition, so the reduced rows do not depend on it.
FOLD_CHUNK = 4096


def montecarlo_jobs(mc: MonteCarloSpec, grid, schemes,
                    solver: FrequencySolver | None = None) -> list[Job]:
    """The campaign's engine jobs, in plan order.

    One ``mc-block`` job per (Vcc, scheme, contiguous span of
    ``mc.block`` dies), one die per job when the spec sets no block.
    Spans tile ``range(dies)`` in order, so plan order is die order, and
    a span's key depends only on its die range: growing a campaign
    reuses every cached full span (every cached die without a block
    size).

    The solver's delay model and nominal frequency ride in the job
    options exactly as sweep points key them, so a recalibration
    invalidates die samples and population points alike.
    """
    grid = tuple(float(vcc) for vcc in grid)
    schemes = tuple(str(scheme) for scheme in schemes)
    if not grid:
        raise ConfigError("a montecarlo campaign needs a Vcc grid")
    if not schemes:
        raise ConfigError("a montecarlo campaign needs clock schemes")
    solver = solver or FrequencySolver()
    base_options = (
        ("mc", mc.config()),
        ("delay_model", solver.delay_model),
        ("nominal_frequency_mhz", solver.nominal_frequency_mhz),
    )
    block = mc.block or 1
    spans = [(start, min(block, mc.dies - start))
             for start in range(0, mc.dies, block)]
    return [
        Job(kind="mc-block", vcc_mv=vcc, scheme=scheme,
            options=base_options + (("die_start", start), ("dies", count)))
        for vcc in grid
        for scheme in schemes
        for start, count in spans
    ]


def _grouped(results, grid, schemes, dies: int):
    """Yield ``(vcc, scheme, one_group_list)`` in plan order.

    A group is complete once its block results cover ``dies`` dies.
    Groups are materialized one at a time (tiny), so a partially
    consumed group can never shift later (vcc, scheme) labels, and a
    results sequence that does not match the campaign shape fails with
    an explicit error instead of a mid-stream ``StopIteration``.
    """
    iterator = iter(results)
    for vcc in grid:
        for scheme in schemes:
            group = []
            covered = 0
            while covered < dies:
                item = next(iterator, None)
                if item is None:
                    break
                group.append(item)
                covered += item.dies
            if covered != dies:
                raise ConfigError(
                    f"montecarlo reduction expected {dies} die results "
                    f"for ({vcc:g} mV, {scheme}), got {covered}")
            yield vcc, scheme, group
    leftover = next(iterator, None)
    if leftover is not None:
        raise ConfigError(
            "montecarlo reduction got more results than "
            f"{len(grid)} Vcc x {len(schemes)} schemes x {dies} dies — "
            "dies count does not match the campaign that produced them")


def _chunks(group, fields):
    """One group's block results re-cut into die-aligned chunks.

    Yields ``{field: array}`` for every :data:`FOLD_CHUNK` dies (the
    last chunk may be shorter), whatever block sizes delivered them.
    A chunk inside one block is that block's own (read-only) slice; a
    chunk spanning blocks is a joined copy.
    """
    parts = []
    filled = 0

    def joined():
        if len(parts) == 1:
            [(result, start, stop)] = parts
            return {name: getattr(result, name)[start:stop]
                    for name in fields}
        return {name: np.concatenate([getattr(result, name)[start:stop]
                                      for result, start, stop in parts])
                for name in fields}

    for result in group:
        start = 0
        while start < result.dies:
            stop = min(result.dies, start + FOLD_CHUNK - filled)
            parts.append((result, start, stop))
            filled += stop - start
            start = stop
            if filled == FOLD_CHUNK:
                yield joined()
                parts, filled = [], 0
    if parts:
        yield joined()


def yield_curve_rows(results, grid, schemes, dies: int,
                     confidence: float = 0.95,
                     importance=None) -> list[dict]:
    """Functional and frequency yield per (Vcc, scheme), chunk by chunk.

    ``results`` must be the :func:`montecarlo_jobs` results in plan
    order (the runner returns them that way).  With ``importance`` set
    (the spec's ``[montecarlo.importance]`` section, duck-typed to its
    ``ess_warn`` threshold) each row additionally carries the
    importance-sampled columns: self-normalized weighted yields with
    Wilson intervals at the Kish effective sample size, the ESS
    diagnostics, and weighted frequency/slowdown moments.  At shift 0
    every weight is exactly 1.0 and the weighted columns are
    bit-identical to their unweighted counterparts.
    """
    weighted = importance is not None
    fields = ("functional", "meets_design", "die_frequency_mhz",
              "slowdown") + (("log_weight",) if weighted else ())
    rows = []
    for vcc, scheme, group in _grouped(results, grid, schemes, dies):
        functional = meets = 0
        frequency = StreamingStats()
        slowdown = StreamingStats()
        if weighted:
            w_functional = WeightedIndicator()
            w_meets = WeightedIndicator()
            w_frequency = WeightedStats()
            w_slowdown = WeightedStats()
        for chunk in _chunks(group, fields):
            functional += int(np.count_nonzero(chunk["functional"]))
            meets += int(np.count_nonzero(chunk["meets_design"]))
            frequency.extend(chunk["die_frequency_mhz"])
            slowdown.extend(chunk["slowdown"])
            if weighted:
                weight = checked_weights(np.exp(chunk["log_weight"]))
                w_functional.fold(chunk["functional"], weight)
                w_meets.fold(chunk["meets_design"], weight)
                w_frequency.fold(chunk["die_frequency_mhz"], weight)
                w_slowdown.fold(chunk["slowdown"], weight)
        f_low, f_high = wilson_interval(functional, dies, confidence)
        d_low, d_high = wilson_interval(meets, dies, confidence)
        row = {
            "vcc_mv": float(vcc),
            "scheme": str(scheme),
            "dies": dies,
            "functional_yield": functional / dies,
            "functional_low": f_low,
            "functional_high": f_high,
            "frequency_yield": meets / dies,
            "frequency_low": d_low,
            "frequency_high": d_high,
            **frequency.as_dict("frequency_mhz_"),
            "slowdown_mean": slowdown.mean,
            "slowdown_max": slowdown.maximum,
        }
        if weighted:
            ess = w_functional.ess
            warn_low_ess(ess, dies, importance.ess_warn, vcc, scheme)
            wf_low, wf_high = weighted_wilson_interval(
                w_functional.estimate, ess, confidence)
            wd_low, wd_high = weighted_wilson_interval(
                w_meets.estimate, ess, confidence)
            row.update({
                "weighted_functional_yield": w_functional.estimate,
                "weighted_functional_low": wf_low,
                "weighted_functional_high": wf_high,
                "weighted_frequency_yield": w_meets.estimate,
                "weighted_frequency_low": wd_low,
                "weighted_frequency_high": wd_high,
                "ess": ess,
                "ess_fraction": ess / dies,
                "weighted_frequency_mhz_mean": w_frequency.mean,
                "weighted_slowdown_mean": w_slowdown.mean,
            })
        rows.append(row)
    return rows


def _fold_vccmin(results, grid, schemes, dies: int):
    """Per-scheme Vccmin arrays and the worst-sigma array, per die.

    A die's Vccmin is the lowest grid Vcc where it is functional; a die
    functional nowhere on the grid is *censored* (NaN here) and is
    reported as a count, not a fake number.  State is one float array
    of ``dies`` per scheme plus one for the sigmas — the per-point
    results are consumed as a stream.
    """
    vccmin = {str(s): np.full(dies, np.nan) for s in schemes}
    sigma = np.empty(dies)
    for vcc, scheme, group in _grouped(results, grid, schemes, dies):
        per_die = vccmin[str(scheme)]
        for result in group:
            span = slice(result.die_start, result.die_start + result.dies)
            sigma[span] = result.worst_sigma
            best = per_die[span]
            best[result.functional & (np.isnan(best) | (vcc < best))] = vcc
    return vccmin, sigma


def vccmin_rows(results, grid, schemes, dies: int) -> list[dict]:
    """Per-scheme Vccmin distribution rows (mean/std/percentiles)."""
    vccmin, _ = _fold_vccmin(results, grid, schemes, dies)
    levels = sorted({float(v) for v in grid})
    rows = []
    for scheme in schemes:
        values = vccmin[str(scheme)]
        distribution = DiscreteDistribution()
        for level in levels:
            count = int(np.count_nonzero(values == level))
            if count:
                distribution.add(level, count)
        rows.append({
            "scheme": str(scheme),
            "dies": dies,
            "censored": int(np.count_nonzero(np.isnan(values))),
            "vccmin_mean_mv": distribution.mean,
            "vccmin_std_mv": distribution.std,
            "vccmin_p10_mv": distribution.percentile(10.0),
            "vccmin_p50_mv": distribution.percentile(50.0),
            "vccmin_p90_mv": distribution.percentile(90.0),
            "vccmin_min_mv": distribution.minimum,
            "vccmin_max_mv": distribution.maximum,
            "yield_at_floor":
                int(np.count_nonzero(values == levels[0])) / dies,
        })
    return rows


def per_die_rows(results, grid, schemes, dies: int) -> list[dict]:
    """One flat row per (scheme, die): Vccmin + sampled identity.

    A censored die (functional nowhere on the grid) exports
    ``vccmin_mv = None`` — ``null`` in JSON, an empty CSV cell — never
    a NaN token that would make the JSON export unparseable.
    """
    vccmin, sigma = _fold_vccmin(results, grid, schemes, dies)
    sigma = sigma.tolist()
    rows = []
    for scheme in schemes:
        for die, value in enumerate(vccmin[str(scheme)].tolist()):
            censored = math.isnan(value)
            rows.append({
                "scheme": str(scheme),
                "die": die,
                "vccmin_mv": None if censored else value,
                "censored": censored,
                "worst_sigma": sigma[die],
            })
    return rows
