"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables/figures.  The data
tables are registered via :func:`record_table` and printed in the terminal
summary (pytest captures per-test stdout, the summary hook is not), and
also written to ``benchmarks/results/`` for later inspection.  On
read-only checkouts (sandboxed CI runners) the write is skipped with a
warning instead of failing the bench.

The expensive population points are shared through a session-scoped
:func:`session_experiment` fixture backed by the experiment engine:
benches render paper artifacts from it (``table1_rows(experiment)``,
...) or resolve single points with :func:`run_point`.  Each point
shards into one job per trace, ``--workers N`` fans those shards across
processes (or ``--backend queue --queue DIR`` spools them for detached
``repro worker`` processes), and completed shards persist in the
on-disk result cache (bounded by ``$REPRO_CACHE_MAX_BYTES``) so
repeated bench runs skip finished simulations entirely (``--no-cache``
opts out, e.g. when the point is to time the simulator itself).
"""

from __future__ import annotations

import pathlib
import warnings

import pytest

from repro.engine import ParallelRunner, build_runner
from repro.experiments import Experiment, ExperimentSpec

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_TABLES: list[tuple[str, str]] = []
_RESULTS_WRITABLE = True

#: Benchmark-population sizing: all six profile families, short traces.
BENCH_TRACE_LENGTH = 6_000


def pytest_addoption(parser):
    from repro.engine.backends import BACKEND_NAMES
    from repro.engine.cli import worker_count

    group = parser.getgroup("repro engine")
    group.addoption("--workers", type=worker_count, default=1, metavar="N",
                    help="worker processes for sweep evaluation points "
                         "(1 = serial, 0 = one per CPU)")
    group.addoption("--no-cache", action="store_true", default=False,
                    help="skip the on-disk result cache (time real "
                         "simulations instead of cached points)")
    group.addoption("--backend", choices=BACKEND_NAMES, default=None,
                    help="execution backend (default: serial for "
                         "--workers 1, else pool; queue = detached "
                         "'repro worker' processes)")
    group.addoption("--queue", default=None, metavar="DIR",
                    help="spool directory for --backend queue "
                         "(default $REPRO_QUEUE_DIR)")
    group.addoption("--trace-out", default=None, metavar="PATH",
                    help="append one JSON span per resolved shard to "
                         "this JSONL file (see 'repro trace report')")


def run_point(experiment: Experiment, vcc_mv: float, scheme, **switches):
    """One population point of ``experiment`` (memoized by its runner)."""
    return experiment.runner.run_one(
        experiment.population_job(vcc_mv, scheme, switches))


def record_table(name: str, text: str) -> None:
    """Register a regenerated table for the terminal summary + results dir."""
    global _RESULTS_WRITABLE
    _TABLES.append((name, text))
    if not _RESULTS_WRITABLE:
        return
    try:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    except OSError as exc:
        _RESULTS_WRITABLE = False
        warnings.warn(
            f"benchmarks results dir {RESULTS_DIR} is not writable "
            f"({exc}); tables will only appear in the terminal summary",
            RuntimeWarning, stacklevel=2)


@pytest.fixture(scope="session")
def engine_runner(pytestconfig) -> ParallelRunner:
    """One shared engine for every benchmark in the session."""
    return build_runner(workers=pytestconfig.getoption("--workers"),
                        no_cache=pytestconfig.getoption("--no-cache"),
                        backend=pytestconfig.getoption("--backend"),
                        queue_dir=pytestconfig.getoption("--queue"),
                        trace_out=pytestconfig.getoption("--trace-out"))


@pytest.fixture(scope="session")
def session_experiment(engine_runner) -> Experiment:
    """The benchmark population as a declarative experiment.

    The spec is the single source of the bench population/grid identity
    (Table 1 at its default 500 mV, the stall decomposition at its
    default 575 mV, the grid in 50 mV steps); benches that want raw
    evaluation points use :func:`run_point` on it.
    """
    spec = ExperimentSpec(name="benchmarks",
                          trace_length=BENCH_TRACE_LENGTH,
                          step_mv=50.0,
                          artifacts=("table1", "fig11b", "fig12"))
    return Experiment(spec, runner=engine_runner)


def pytest_terminal_summary(terminalreporter):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "reproduced paper artifacts")
    for name, text in _TABLES:
        terminalreporter.write_sep("-", name)
        terminalreporter.write_line(text)
