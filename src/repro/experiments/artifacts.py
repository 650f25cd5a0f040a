"""The named-artifact registry: one renderer per paper artifact.

Every artifact of the evaluation — Table 1, the simulated figures, the
Section 5.3 energy example, the overhead report, the DVFS scenarios —
is registered here under a stable name, so a spec file lists artifacts
by name and ``repro run`` renders whatever the spec asks for.  The row
builders in this module are the *single* implementation of each
artifact.

Every planner and builder takes the
:class:`~repro.experiments.experiment.Experiment` and reads its points
from the spec (``table1_vcc_mv``, ``table1_techniques``, ``grid()``,
``stalls_vcc_mv``); its population jobs come from
:meth:`Experiment.population_job`.  Every simulation an artifact needs
is declared by the matching ``*_jobs`` planner, so
:meth:`Experiment.run` submits the whole campaign as one engine batch.
Each ``*_rows`` builder resolves exactly its planner's jobs in one
runner batch and computes its rows from the returned list, so rendering
afterwards is one memo lookup per artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import methodcaller

from repro.analysis.metrics import PointResult, comparison_row
from repro.baselines.extra_bypass import ExtraBypassBaseline
from repro.baselines.faulty_bits import FaultyBitsBaseline
from repro.circuits.area import AreaModel
from repro.circuits.energy import (
    ENERGY_EXAMPLE_MV,
    LEAKAGE_CALIBRATION_MV,
    EnergyModel,
    paper_450mv_example,
)
from repro.circuits.frequency import ClockScheme
from repro.engine.jobs import Job
from repro.errors import ConfigError

#: The techniques Table 1 can quantify, in the table's row order; a
#: spec's ``table1_techniques`` select from it through
#: :func:`table1_selection`.
TABLE1_TECHNIQUES = ("iraw", "faulty-bits", "extra-bypass",
                     "freq-scaling")


def table1_selection(techniques) -> tuple[str, ...]:
    """Normalize a Table 1 technique subset to the canonical row order.

    ``None`` selects every technique.  Author order is presentation
    only: Table 1 renders rows in :data:`TABLE1_TECHNIQUES` order.
    """
    if techniques is None:
        return TABLE1_TECHNIQUES
    chosen = {str(t) for t in techniques}
    unknown = sorted(chosen - set(TABLE1_TECHNIQUES))
    if unknown:
        raise ConfigError(f"unknown table1 technique(s) {unknown}; "
                          f"known: {', '.join(TABLE1_TECHNIQUES)}")
    if not chosen:
        raise ConfigError("table1 techniques must name at least one "
                          f"of: {', '.join(TABLE1_TECHNIQUES)}")
    return tuple(t for t in TABLE1_TECHNIQUES if t in chosen)


#: The Section 5.2 stall decomposition (8.86% = 8.52 + 0.30 + 0.04 at
#: 575 mV): its five IRAW evaluation points, in submission order, as
#: (record variant, decomposition column, IRAW switches).  The full
#: point leads; it has no column, and no variant because it may
#: coincide with a grid record.  Every other point withholds some
#: mechanisms' stalls, and its column is the IPC the full point loses
#: to them.
STALL_ABLATIONS = (
    ("", None, ()),
    ("stalls:all-off", "total_drop",
     (("cache_guards_enabled", False), ("iq_enabled", False),
      ("rf_enabled", False), ("stable_enabled", False))),
    ("stalls:no-rf", "rf_drop", (("rf_enabled", False),)),
    ("stalls:no-stable", "dl0_drop", (("stable_enabled", False),)),
    ("stalls:no-iq-guards", "other_drop",
     (("cache_guards_enabled", False), ("iq_enabled", False))),
)


# ----------------------------------------------------------------------
# Row builders
# ----------------------------------------------------------------------

def table1_jobs(experiment) -> list[Job]:
    """The population evaluations behind Table 1, as engine jobs.

    The baseline point leads regardless of the technique subset (every
    row's gains are relative to it); each selected technique appends
    its own evaluation, in canonical order.  ``freq-scaling`` needs no
    job beyond the baseline itself.
    """
    vcc_mv = experiment.spec.table1_vcc_mv
    techniques = experiment.spec.table1_techniques
    jobs = [experiment.population_job(vcc_mv, ClockScheme.BASELINE)]
    if "iraw" in techniques:
        jobs.append(experiment.population_job(vcc_mv, ClockScheme.IRAW))
    if "faulty-bits" in techniques:
        jobs.append(experiment.population_job(vcc_mv, "faulty-bits",
                                              kind="faulty-bits"))
    if "extra-bypass" in techniques:
        jobs.append(experiment.population_job(
            vcc_mv, "extra-bypass", kind="extra-bypass",
            options=(("hypothetical_rf_only", True),)))
    return jobs


def table1_rows(experiment) -> list[dict]:
    """Evaluate IRAW and the state-of-the-art alternatives at the spec's
    ``table1_vcc_mv``.

    The spec's ``table1_techniques`` select a subset of
    :data:`TABLE1_TECHNIQUES`; rows come back in the canonical order
    whatever the author order, and the full default set is
    bit-identical to the historical four-row table.
    """
    vcc_mv = experiment.spec.table1_vcc_mv
    techniques = experiment.spec.table1_techniques
    solver = experiment.solver
    results = iter(experiment.runner.run(table1_jobs(experiment),
                                         label=f"table1@{vcc_mv:g}mV"))
    baseline = next(results)
    iraw = next(results) if "iraw" in techniques else None
    faulty_result = next(results) if "faulty-bits" in techniques else None
    bypass_result = next(results) if "extra-bypass" in techniques else None

    def gain(point) -> float:
        return point.frequency_mhz / baseline.point.frequency_mhz - 1.0

    def ipc_impact(result: PointResult) -> float:
        return 1.0 - result.ipc / baseline.ipc if baseline.ipc else 0.0

    # Faulty Bits: honest clock (register-file bound) + degraded caches;
    # the executor reports the disabled-line fractions via ``extras``.
    disabled_report = dict(faulty_result.extras) \
        if faulty_result is not None else {}
    rows = []
    if iraw is not None:
        rows.append({
            "technique": "IRAW avoidance (this paper)",
            "works_all_blocks": True,
            "adapts_multiple_vcc": True,
            "honest_freq_gain": gain(iraw.point),
            "hypothetical_freq_gain": gain(iraw.point),
            "ipc_impact": ipc_impact(iraw),
            "area_overhead": AreaModel().report().area_overhead,
            "hard_to_test": False,
        })
    if faulty_result is not None:
        faulty = FaultyBitsBaseline(solver)
        rows.append({
            "technique": "Faulty Bits [1,22,26]",
            "works_all_blocks": False,
            "adapts_multiple_vcc": "costly",
            "honest_freq_gain": gain(faulty_result.point),
            "hypothetical_freq_gain": gain(faulty.operating_point(
                vcc_mv, hypothetical_all_blocks=True)),
            "ipc_impact": ipc_impact(faulty_result),
            "area_overhead": faulty.area_overhead(),
            "hard_to_test": True,
        })
    if bypass_result is not None:
        # Extra Bypass: hypothetical RF-only variant at the logic clock
        # with multi-cycle write-port contention.
        bypass = ExtraBypassBaseline(solver)
        rows.append({
            "technique": "Extra Bypass [3,4,20]",
            "works_all_blocks": False,
            "adapts_multiple_vcc": False,
            "honest_freq_gain": gain(bypass.operating_point(vcc_mv)),
            "hypothetical_freq_gain": gain(bypass_result.point),
            "ipc_impact": ipc_impact(bypass_result),
            # Latches sized for the design minimum Vcc, paid everywhere.
            "area_overhead": bypass.area_overhead(),
            "hard_to_test": False,
        })
    if "freq-scaling" in techniques:
        # The paper's baseline itself: the reference clock, no hardware.
        rows.append({
            "technique": "frequency scaling (baseline)",
            "works_all_blocks": True,
            "adapts_multiple_vcc": True,
            "honest_freq_gain": 0.0,
            "hypothetical_freq_gain": 0.0,
            "ipc_impact": 0.0,
            "area_overhead": 0.0,
            "hard_to_test": False,
        })
    for row in rows:
        row["disabled_lines"] = disabled_report.get("DL0", 0.0) \
            if row["technique"].startswith("Faulty") else 0.0
    return rows


def fig11b_jobs(experiment) -> list[Job]:
    """The (Vcc x {baseline, iraw}) grid behind Figure 11(b)."""
    return [experiment.population_job(vcc, scheme)
            for vcc in experiment.spec.grid()
            for scheme in (ClockScheme.BASELINE, ClockScheme.IRAW)]


def fig11b_rows(experiment) -> list[dict]:
    """Figure 11(b): frequency increase and performance gain per Vcc."""
    results = iter(experiment.runner.run(fig11b_jobs(experiment),
                                         label="figure11b"))
    # Each Vcc's (baseline, IRAW) pair, in fig11b_jobs order.
    return [comparison_row(vcc, base, iraw)
            for vcc, base, iraw in zip(experiment.spec.grid(), results,
                                       results)]


def _energy_model(calibration: PointResult) -> EnergyModel:
    """:func:`calibrated_energy_model` from its 600 mV baseline result."""
    return EnergyModel(reference_time_s=calibration.execution_time_s)


def calibrated_energy_model(experiment) -> EnergyModel:
    """An :class:`EnergyModel` whose reference task is the experiment's
    own population: the baseline run at 600 mV defines the execution
    time at which leakage is 10% of total energy (paper Section 5.1)."""
    return _energy_model(experiment.runner.run_one(experiment.population_job(
        LEAKAGE_CALIBRATION_MV, ClockScheme.BASELINE)))


def fig12_jobs(experiment) -> list[Job]:
    """Figure 12's grid plus the 600 mV energy-calibration point."""
    return fig11b_jobs(experiment) + [experiment.population_job(
        LEAKAGE_CALIBRATION_MV, ClockScheme.BASELINE)]


def fig12_rows(experiment) -> list[dict]:
    """Figure 12: IRAW energy/delay/EDP relative to the baseline per Vcc."""
    *results, calibration = experiment.runner.run(fig12_jobs(experiment),
                                                  label="figure12")
    energy = _energy_model(calibration)
    results = iter(results)
    return [energy.relative_metrics(vcc, base.execution_time_s,
                                    iraw.execution_time_s)
            for vcc, base, iraw in zip(experiment.spec.grid(), results,
                                       results)]


def energy450_jobs(experiment) -> list[Job]:
    """The three 450 mV points plus the calibration point."""
    return [
        experiment.population_job(ENERGY_EXAMPLE_MV, ClockScheme.LOGIC),
        experiment.population_job(ENERGY_EXAMPLE_MV, ClockScheme.BASELINE),
        experiment.population_job(ENERGY_EXAMPLE_MV, ClockScheme.IRAW),
        experiment.population_job(LEAKAGE_CALIBRATION_MV,
                                  ClockScheme.BASELINE),
    ]


def energy450_rows(experiment) -> list[dict]:
    """The paper's Section 5.3 joule-accounting example at 450 mV: one
    row per case (unconstrained, baseline, IRAW)."""
    unconstrained, baseline, iraw, calibration = experiment.runner.run(
        energy450_jobs(experiment),
        label=f"energy-example@{ENERGY_EXAMPLE_MV:g}mV")
    breakdowns = paper_450mv_example(
        _energy_model(calibration),
        unconstrained_time_s=unconstrained.execution_time_s,
        baseline_time_s=baseline.execution_time_s,
        iraw_time_s=iraw.execution_time_s,
    )
    return [{"case": name, "total_j": b.total_j, "leakage_j": b.leakage_j,
             "dynamic_j": b.dynamic_j}
            for name, b in breakdowns.items()]


def stalls_jobs(experiment) -> list[Job]:
    """The five IRAW points of the stall decomposition at the spec's
    ``stalls_vcc_mv``, in :data:`STALL_ABLATIONS` order."""
    return [experiment.population_job(experiment.spec.stalls_vcc_mv,
                                      ClockScheme.IRAW, switches)
            for _, _, switches in STALL_ABLATIONS]


def stalls_rows(experiment) -> list[dict]:
    """Section 5.2: marginal IPC cost of each IRAW avoidance mechanism.

    The full IRAW point against the same point with each mechanism's
    *stalls* withheld (a timing-only what-if; correctness violations
    are counted but ignored), mirroring how the paper attributes its
    8.86% drop at 575 mV.
    """
    vcc_mv = experiment.spec.stalls_vcc_mv
    full, *withheld = experiment.runner.run(
        stalls_jobs(experiment), label=f"stall-decomposition@{vcc_mv:g}mV")
    row: dict[str, float] = {"vcc_mv": vcc_mv}
    for (_, column, _), result in zip(STALL_ABLATIONS[1:], withheld):
        row[column] = 1.0 - full.ipc / result.ipc
    row["iraw_delay_fraction"] = full.mean_iraw_delay_fraction
    return [row]


def _montecarlo_rows(experiment, reducer):
    """Fold the experiment's resolved die-sample results.

    Shared adapter for the ``yield_curve``, ``vccmin_dist`` and
    ``deep_tail`` builds: :meth:`Experiment.mc_results` memoizes the
    resolved batch, so the builds only stream the reduction — no job
    rebuilding, no re-submission.
    """
    from repro.montecarlo.campaign import vccmin_rows, yield_curve_rows
    from repro.montecarlo.importance import deep_tail_rows

    spec = experiment.spec
    mc = spec.montecarlo
    if mc is None:
        raise ConfigError("the montecarlo artifacts need a [montecarlo] "
                          "spec section")
    results = experiment.mc_results()
    grid, schemes = spec.grid(), spec.schemes
    if reducer == "yield_curve":
        return yield_curve_rows(results, grid, schemes, mc.dies,
                                mc.confidence, importance=mc.importance)
    if reducer == "deep_tail":
        return deep_tail_rows(results, grid, schemes, mc.dies,
                              mc.importance, mc.confidence)
    return vccmin_rows(results, grid, schemes, mc.dies)


def overhead_jobs(experiment) -> list[Job]:
    """The overhead report simulates nothing."""
    return []


def overhead_rows(experiment=None) -> list[dict]:
    """Section 5.3: area and power overhead of the IRAW hardware (a
    property of the hardware alone, so the experiment is optional)."""
    report = AreaModel().report()
    return [{
        "extra_bits": report.extra_bits,
        "extra_transistors": report.extra_transistors,
        "area_overhead": report.area_overhead,
        "power_overhead": report.power_overhead,
    }]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Artifact:
    """One renderable evaluation artifact.

    ``jobs(experiment)`` plans the engine jobs the artifact needs (so
    the driver batches every artifact's work together);
    ``build(experiment)`` renders the rows afterwards, entirely from
    memoized results.
    """

    name: str
    title: str
    description: str
    jobs: callable
    build: callable


def _dvfs_rows(experiment) -> list[dict]:
    """One row per (schedule, scheme), with within-schedule speedups."""
    outcomes = experiment.dvfs_outcomes()
    baseline_times = {
        schedule.name: outcome.total_time_s
        for schedule, scheme, outcome in outcomes
        if scheme == ClockScheme.BASELINE.value}
    rows = []
    for schedule, scheme, outcome in outcomes:
        reference = baseline_times.get(schedule.name)
        rows.append({
            "schedule": schedule.name,
            "scheme": scheme,
            "trace": schedule.trace.label,
            "phases": len(outcome.phases),
            "transitions": outcome.transitions,
            "instructions": outcome.instructions,
            "total_time_ms": outcome.total_time_s * 1e3,
            "speedup_vs_baseline":
                reference / outcome.total_time_s if reference else 1.0,
        })
    return rows


ARTIFACTS: dict[str, Artifact] = {
    "table1": Artifact(
        name="table1",
        title="Table 1",
        description="IRAW vs Faulty Bits vs Extra Bypass vs frequency "
                    "scaling, quantified at one Vcc",
        jobs=table1_jobs,
        build=table1_rows,
    ),
    "fig11b": Artifact(
        name="fig11b",
        title="Figure 11(b)",
        description="frequency increase and performance gain vs Vcc",
        jobs=fig11b_jobs,
        build=fig11b_rows,
    ),
    "fig12": Artifact(
        name="fig12",
        title="Figure 12",
        description="relative energy / delay / EDP vs Vcc",
        jobs=fig12_jobs,
        build=fig12_rows,
    ),
    "energy450": Artifact(
        name="energy450",
        title="Energy example @450mV",
        description="Section 5.3 joule accounting at 450 mV",
        jobs=energy450_jobs,
        build=energy450_rows,
    ),
    "overheads": Artifact(
        name="overheads",
        title="IRAW hardware overheads",
        description="Section 5.3 area / power overhead report",
        jobs=overhead_jobs,
        build=overhead_rows,
    ),
    "dvfs": Artifact(
        name="dvfs",
        title="DVFS scenarios",
        description="scheduled Vcc switching with per-scheme totals",
        jobs=methodcaller("dvfs_jobs"),
        build=_dvfs_rows,
    ),
    "stalls": Artifact(
        name="stalls",
        title="Stall decomposition",
        description="Section 5.2 marginal IPC cost of each IRAW "
                    "avoidance mechanism at one Vcc",
        jobs=stalls_jobs,
        build=stalls_rows,
    ),
    "yield_curve": Artifact(
        name="yield_curve",
        title="Yield vs Vcc",
        description="Monte-Carlo functional and frequency-bin yield "
                    "per (Vcc, scheme), with Wilson intervals",
        jobs=methodcaller("mc_jobs"),
        build=partial(_montecarlo_rows, reducer="yield_curve"),
    ),
    "vccmin_dist": Artifact(
        name="vccmin_dist",
        title="Vccmin distribution",
        description="per-die minimum functional Vcc per scheme "
                    "(statistical generalisation of Table 1)",
        jobs=methodcaller("mc_jobs"),
        build=partial(_montecarlo_rows, reducer="vccmin_dist"),
    ),
    "deep_tail": Artifact(
        name="deep_tail",
        title="Deep-tail failure probability",
        description="importance-sampled log10 failure probability per "
                    "(Vcc, scheme), with delta-method intervals and "
                    "ESS diagnostics",
        jobs=methodcaller("mc_jobs"),
        build=partial(_montecarlo_rows, reducer="deep_tail"),
    ),
}


def artifact(name: str) -> Artifact:
    """Look up a registered artifact by name."""
    try:
        return ARTIFACTS[name]
    except KeyError:
        raise ConfigError(f"unknown artifact {name!r}; known: "
                          f"{', '.join(sorted(ARTIFACTS))}") from None
