"""The single driver compiling an :class:`ExperimentSpec` into results.

``Experiment.run(runner)`` is the one execution path for every artifact
family: it plans the union of engine jobs the spec implies — the
(Vcc x scheme) grid, ablation points, Table 1's baseline jobs, the
energy-example points, DVFS schedules — submits them as **one** engine
batch (per-trace sharding, dedup, caching and backend selection all
come from the engine), and folds the results into a
:class:`~repro.experiments.resultset.ResultSet` of flat records.
Artifact rendering afterwards (:meth:`Experiment.artifact`) is pure
memo-lookup on the same runner, so ``run`` pays for every simulation
exactly once no matter how many artifacts share points.
"""

from __future__ import annotations

from repro.analysis.dvfs import schedule_job
from repro.circuits.frequency import ClockScheme, FrequencySolver
from repro.engine.jobs import Job, TracePopulationSpec, job_key
from repro.engine.runner import ParallelRunner
from repro.errors import ConfigError
from repro.experiments.artifacts import ARTIFACTS, STALL_ABLATIONS, artifact
from repro.experiments.resultset import Record, ResultSet
from repro.experiments.spec import MONTECARLO_ARTIFACTS, ExperimentSpec

#: Artifacts that simulate population points off the grid, in the order
#: their records follow the grid's.
_BEYOND_GRID_ARTIFACTS = ("table1", "stalls", "fig12", "energy450")


class Experiment:
    """A spec bound to a runner: plan, execute, render.

    Parameters
    ----------
    spec:
        The declarative campaign description.
    runner:
        The execution engine.  Defaults to a hermetic serial runner;
        pass ``ParallelRunner(workers=N, cache=ResultCache.default())``
        (or a queue-backed runner) for parallel, persistent campaigns.
    """

    def __init__(self, spec: ExperimentSpec,
                 runner: ParallelRunner | None = None):
        self.spec = spec
        self.runner = runner or ParallelRunner()
        #: The one frequency solver that keys population points, DVFS
        #: schedules and die blocks.
        self.solver = FrequencySolver()
        self._params = spec.pipeline_params()
        self._memory = spec.memory_config()
        #: The options every population point shares, built once so
        #: that every job holds the same objects (the job-key memo
        #: writes each of them once).
        self._point_options = (
            ("warm", spec.warm),
            ("dram_latency_ns", spec.dram_latency_ns),
            ("params", self._params),
            ("memory", self._memory),
            ("delay_model", self.solver.delay_model),
            ("nominal_frequency_mhz", self.solver.nominal_frequency_mhz),
        )
        self._population: TracePopulationSpec | None = None
        self._mc_resolved: list | None = None
        self.results: ResultSet | None = None

    def population_job(self, vcc_mv: float, scheme, switches=(),
                       kind: str = "sweep-point", options=()) -> Job:
        """The engine job of one population point: the spec's trace
        population at ``vcc_mv`` under ``scheme`` (a :class:`ClockScheme`
        or, for Table 1's alternatives, the technique's name).

        ``switches`` are IRAW override ``(name, value)`` pairs (or a
        dict), ``options`` the kind-specific options added to the shared
        ones.  The population is built once, on first use; a spec
        without one raises :class:`ConfigError`.
        """
        if self._population is None:
            spec = self.spec
            if not spec.has_population():
                raise ConfigError(
                    f"experiment {spec.name!r} has no trace population; "
                    f"only dvfs and montecarlo artifacts can run "
                    f"without one")
            self._population = TracePopulationSpec(
                profiles=spec.profile_objects(),
                seeds_per_profile=spec.seeds_per_profile,
                trace_length=spec.trace_length,
                riscv=spec.riscv_programs())
        return Job(kind=kind, vcc_mv=vcc_mv, scheme=scheme,
                   population=self._population, iraw_overrides=switches,
                   options=self._point_options + tuple(options))

    @property
    def stats(self):
        """Engine counters (simulations, memo/disk hits) for this run."""
        return self.runner.stats

    # -- planning ------------------------------------------------------

    def grid_points(self) -> list[tuple[float, str, str]]:
        """Every (vcc_mv, scheme, variant) point of the campaign grid.

        Empty for a population-less (dvfs-only) spec: there is no
        population to evaluate grid points on.
        """
        if not self.spec.has_population():
            return []
        points = [(vcc, scheme, "")
                  for vcc in self.spec.grid()
                  for scheme in self.spec.schemes]
        points.extend(
            (vcc, ablation.scheme, ablation.name)
            for ablation in self.spec.ablations
            for vcc in self.spec.grid())
        return points

    def _grid_job(self, vcc_mv: float, scheme: str, variant: str) -> Job:
        switches = ()
        for ablation in self.spec.ablations:
            if ablation.name == variant:
                switches = ablation.overrides
        return self.population_job(vcc_mv, scheme, switches)

    def dvfs_jobs(self) -> list[Job]:
        """One engine job per (schedule, scheme), in spec order."""
        jobs = []
        for schedule in self.spec.dvfs:
            for scheme in schedule.schemes:
                jobs.append(schedule_job(
                    schedule.trace, schedule.phases, ClockScheme(scheme),
                    solver=self.solver, params=self._params,
                    memory=self._memory,
                    dram_latency_ns=self.spec.dram_latency_ns,
                    warm=self.spec.warm,
                ))
        return jobs

    def mc_jobs(self) -> list[Job]:
        """The die-sampling batch, in plan order: one vectorized
        ``mc-block`` job per (Vcc, scheme, span of ``block`` dies), one
        die per job when the spec sets no block size.

        Empty when the spec has no ``[montecarlo]`` section.  The jobs
        key against :attr:`solver`, as population points do, so a
        recalibration invalidates both alike.
        """
        if self.spec.montecarlo is None:
            return []
        # Imported here: the campaign layer loads NumPy, which no other
        # campaign needs.
        from repro.montecarlo.campaign import montecarlo_jobs

        return montecarlo_jobs(self.spec.montecarlo, self.spec.grid(),
                               self.spec.schemes, solver=self.solver)

    def plan(self) -> list[Job]:
        """The full engine batch of the campaign (duplicates and all —
        the runner deduplicates by canonical key at submission).

        The montecarlo artifacts share one die batch, planned once no
        matter how many of them the spec lists — a ``--dry-run`` job
        count must size the campaign, not double it.
        """
        jobs = [self._grid_job(*point) for point in self.grid_points()]
        mc_planned = False
        for name in self.spec.artifacts:
            if name in MONTECARLO_ARTIFACTS:
                if mc_planned:
                    continue
                mc_planned = True
            jobs.extend(ARTIFACTS[name].jobs(self))
        if "dvfs" not in self.spec.artifacts:
            jobs.extend(self.dvfs_jobs())
        if not mc_planned:
            jobs.extend(self.mc_jobs())
        return jobs

    def plan_keys(self) -> list[str]:
        """Canonical job keys of the plan (spec-identity fingerprint)."""
        return [job_key(job) for job in self.plan()]

    def plan_summary(self) -> dict:
        """Machine-readable plan preview (``--dry-run --json`` and the
        service's ``POST /v1/campaigns?dry_run=1`` share this shape).

        Lists every planned job with its kind, evaluation point, trace
        origin and canonical key.  Duplicate keys are reported as
        planned — the engine deduplicates at submission, so the
        ``unique_jobs`` count is what a campaign actually costs.
        """
        jobs = self.plan()
        entries = []
        for job in jobs:
            entry = {
                "kind": job.kind,
                "key": job_key(job),
                "label": job.label,
                "vcc_mv": job.vcc_mv,
                "scheme": job.scheme,
                "origin": _job_origin(job),
            }
            entries.append(entry)
        return {
            "name": self.spec.name,
            "artifacts": list(self.spec.artifacts),
            "planned_jobs": len(entries),
            "unique_jobs": len({entry["key"] for entry in entries}),
            "jobs": entries,
        }

    # -- execution -----------------------------------------------------

    def run(self, runner: ParallelRunner | None = None) -> ResultSet:
        """Execute the whole campaign as one batch; returns the records.

        ``runner`` rebinds the experiment before running (convenience
        for ``Experiment(spec).run(my_runner)``).  The ResultSet is also
        stored at :attr:`results`; artifacts rendered afterwards reuse
        the runner's memo and simulate nothing new.
        """
        if runner is not None:
            self.runner = runner
            self._mc_resolved = None
        jobs = self.plan()
        self.runner.run(jobs, label=self.spec.name)
        self.results = self._collect()
        return self.results

    def _collect(self) -> ResultSet:
        records = [self._point_record(vcc, scheme, variant)
                   for vcc, scheme, variant in self.grid_points()]
        records.extend(self._beyond_grid())
        records.extend(
            Record(kind="dvfs-schedule", scheme=scheme,
                   vcc_mv=0.0, variant=schedule.name,
                   trace=schedule.trace.label,
                   metrics={
                       "total_time_s": outcome.total_time_s,
                       "transition_time_s": outcome.transition_time_s,
                       "transitions": outcome.transitions,
                       "instructions": outcome.instructions,
                       "phases": len(outcome.phases),
                   })
            for schedule, scheme, outcome in self.dvfs_outcomes())
        records.extend(self._mc_records())
        return ResultSet(records)

    def mc_results(self) -> list:
        """The resolved ``mc-block`` results, in plan order (memoized).

        After :meth:`run` the batch is answered entirely from the
        runner's memo; the list is resolved once per runner binding and
        shared by the record collection and both montecarlo artifacts,
        so rendering never rebuilds or re-submits the job batch.
        """
        if self._mc_resolved is None:
            self._mc_resolved = self.runner.run(
                self.mc_jobs(), label=f"{self.spec.name}:montecarlo")
        return self._mc_resolved

    #: Above this die count the per-die ``mc-die`` records are omitted
    #: from the ResultSet: a million-die campaign must not export two
    #: million rows of per-die identity nobody can plot.  The aggregate
    #: ``mc-yield`` records and both montecarlo artifacts are unaffected.
    _PER_DIE_RECORD_LIMIT = 4096

    def _mc_records(self) -> list[Record]:
        """Aggregate yield rows plus one Vccmin row per (scheme, die).

        The reducers stream over the resolved results with O(dies)
        state.  Campaigns beyond :data:`_PER_DIE_RECORD_LIMIT` dies
        keep only the aggregate records (see the limit's note).
        """
        mc = self.spec.montecarlo
        if mc is None:
            return []
        from repro.montecarlo.campaign import per_die_rows, yield_curve_rows

        grid, schemes = self.spec.grid(), self.spec.schemes
        results = self.mc_results()
        records = [
            Record(kind="mc-yield", scheme=row["scheme"],
                   vcc_mv=row["vcc_mv"],
                   metrics={key: value for key, value in row.items()
                            if key not in ("scheme", "vcc_mv")})
            for row in yield_curve_rows(results, grid, schemes, mc.dies,
                                        mc.confidence,
                                        importance=mc.importance)]
        if mc.dies <= self._PER_DIE_RECORD_LIMIT:
            records.extend(
                Record(kind="mc-die", scheme=row["scheme"], vcc_mv=0.0,
                       variant=f"die{row['die']}",
                       metrics={key: value for key, value in row.items()
                                if key != "scheme"})
                for row in per_die_rows(results, grid, schemes, mc.dies))
        return records

    def _point_record(self, vcc_mv: float, scheme: str,
                      variant: str) -> Record:
        result = self._result_of(self._grid_job(vcc_mv, scheme, variant))
        return Record(kind="sweep-point", scheme=scheme, vcc_mv=vcc_mv,
                      variant=variant, metrics=_point_metrics(result))

    def _beyond_grid(self) -> list[Record]:
        """One record per point an artifact simulated beyond the grid.

        Table 1, the stall decomposition, Figure 12 and the 450 mV
        energy example plan their own points, in that order; the stall
        points export under their variant names.  A point without a
        variant that is already recorded is skipped; any other was
        simulated and must not silently vanish from the export.
        """
        covered = {(vcc, scheme) for vcc, scheme, variant
                   in self.grid_points() if not variant}
        records = []
        for name in _BEYOND_GRID_ARTIFACTS:
            if name not in self.spec.artifacts:
                continue
            jobs = ARTIFACTS[name].jobs(self)
            variants = [variant for variant, _, _ in STALL_ABLATIONS] \
                if name == "stalls" else [""] * len(jobs)
            for job, variant in zip(jobs, variants):
                if not variant:
                    if (job.vcc_mv, job.scheme) in covered:
                        continue  # already recorded
                    covered.add((job.vcc_mv, job.scheme))
                records.append(Record(
                    kind=job.kind, scheme=job.scheme, vcc_mv=job.vcc_mv,
                    variant=variant,
                    metrics=_point_metrics(self._result_of(job))))
        return records

    def dvfs_outcomes(self):
        """Every (schedule, scheme, DvfsOutcome) of the spec, in order."""
        results = iter(self._results_of(self.dvfs_jobs()))
        return [(schedule, scheme, next(results))
                for schedule in self.spec.dvfs
                for scheme in schedule.schemes]

    def _result_of(self, job: Job):
        return self._results_of([job])[0]

    def _results_of(self, jobs: list[Job]) -> list:
        """The results of ``jobs``, read from the runner's memo.

        Lazy convenience: artifacts rendered without an explicit
        :meth:`run` resolve the jobs the memo misses in one runner
        batch, so jobs of one trace share its unit (the DVFS schedules
        of one trace run each common phase machine once).
        """
        results = [self.runner.cached_result(job) for job in jobs]
        missing = [index for index, result in enumerate(results)
                   if result is None]
        if missing:
            resolved = self.runner.run([jobs[index] for index in missing])
            for index, result in zip(missing, resolved):
                results[index] = result
        return results

    # -- rendering -----------------------------------------------------

    def artifact(self, name: str):
        """Render one named artifact (rows) from the registry."""
        return artifact(name).build(self)

    def artifacts(self) -> dict[str, list]:
        """Render every artifact the spec lists, in spec order."""
        return {name: self.artifact(name) for name in self.spec.artifacts}


def run_spec(spec: ExperimentSpec,
             runner: ParallelRunner | None = None) -> Experiment:
    """One-call convenience: bind, run, and return the experiment."""
    experiment = Experiment(spec, runner=runner)
    experiment.run()
    return experiment


def _job_origin(job: Job) -> str:
    """Where a job's workload comes from: trace label(s) or population."""
    if job.trace is not None:
        return f"{job.trace.source}:{job.trace.label}"
    if job.population is not None:
        specs = job.population.trace_specs()
        return f"population[{len(specs)}]:" + \
            ",".join(spec.label for spec in specs)
    return "model"


def _point_metrics(result) -> dict:
    """The flat numeric columns of one population PointResult."""
    return {
        "frequency_mhz": result.point.frequency_mhz,
        "stabilization_cycles": result.point.stabilization_cycles,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "execution_time_s": result.execution_time_s,
        "iraw_delay_fraction": result.mean_iraw_delay_fraction,
        "iraw_violations": result.iraw_violations,
        "traces": len(result.results),
    }
