"""Shared command-line wiring for the engine knobs.

Every front end that exposes the engine (`python -m repro` — including
the declarative ``repro run spec.toml`` driver — the example scripts,
the benchmark conftest) takes the same knobs — worker count, on-disk
cache opt-out and execution backend.  Defining the argparse arguments
and the runner construction once keeps their validation and semantics
from drifting across entry points.

The cache built here honors ``$REPRO_CACHE_MAX_BYTES``
(:meth:`ResultCache.default`): per-trace sharding multiplies entry
counts, so bounded deployments evict least-recently-used shards instead
of growing without limit.

Backend selection: ``--backend`` picks ``serial``, ``pool`` or ``queue``
explicitly; without it ``--workers`` decides (serial for
``--workers 1``, the process pool otherwise).  ``--backend queue``
spools shards for detached ``python -m repro worker`` processes through
the directory named by ``--queue`` or ``$REPRO_QUEUE_DIR``.
"""

from __future__ import annotations

import argparse

from repro.engine.backends import BACKEND_NAMES, resolve_backend
from repro.engine.cache import ResultCache
from repro.engine.runner import ParallelRunner
from repro.obs.trace import JsonlTraceSink, default_trace_sink

WORKERS_HELP = "worker processes for evaluation points " \
               "(1 = serial, 0 = one per CPU)"
NO_CACHE_HELP = "skip the on-disk result cache entirely"
BACKEND_HELP = "execution backend (default: serial for --workers 1, " \
               "else pool; queue = distributed via 'repro worker')"
QUEUE_HELP = "spool directory for the queue backend; implies " \
             "--backend queue (default $REPRO_QUEUE_DIR)"
TRACE_OUT_HELP = "append one JSON span per resolved shard to this " \
                 "JSONL file (see 'repro trace report'; default " \
                 "$REPRO_TRACE_DIR, off when neither is set)"


def worker_count(text: str) -> int:
    """argparse type for ``--workers``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 0 (1 = serial, 0 = one per CPU)")
    return value


def add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the engine knobs to an argparse parser."""
    parser.add_argument("--workers", type=worker_count, default=1,
                        metavar="N", help=WORKERS_HELP)
    parser.add_argument("--no-cache", action="store_true",
                        help=NO_CACHE_HELP)
    parser.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                        help=BACKEND_HELP)
    parser.add_argument("--queue", default=None, metavar="DIR",
                        help=QUEUE_HELP)
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help=TRACE_OUT_HELP)


def build_runner(workers: int = 1, no_cache: bool = False,
                 progress=None, backend=None,
                 queue_dir=None, trace_out=None) -> ParallelRunner:
    """The engine configuration behind the shared knobs."""
    cache = None if no_cache else ResultCache.default()
    if backend is None and queue_dir is not None:
        # A spool directory only makes sense for the queue backend;
        # silently running serial/pool while detached workers sit idle
        # would be the worst possible reading of the flags.
        backend = "queue"
    if backend is not None:
        backend = resolve_backend(backend, workers=workers,
                                  queue_dir=queue_dir)
    if trace_out is not None:
        trace_sink = JsonlTraceSink(trace_out)
    else:
        trace_sink = default_trace_sink()  # $REPRO_TRACE_DIR or None
    return ParallelRunner(workers=workers, cache=cache, progress=progress,
                          backend=backend, trace_sink=trace_sink)


def runner_from_args(args: argparse.Namespace,
                     progress=None) -> ParallelRunner:
    """Build a runner from a namespace parsed with the arguments above."""
    return build_runner(workers=args.workers, no_cache=args.no_cache,
                        progress=progress,
                        backend=getattr(args, "backend", None),
                        queue_dir=getattr(args, "queue", None),
                        trace_out=getattr(args, "trace_out", None))
