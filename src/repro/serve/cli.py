"""CLI front ends of the experiment service.

``repro serve`` runs the server; ``repro submit`` / ``repro status`` /
``repro results`` are thin :class:`~repro.serve.client.ServeClient`
wrappers, so the CLI is just another tenant of the durable API — the
acceptance path (submit a spec file, watch it, export the CSV) never
touches the engine directly.

State directory resolution for ``repro serve``: ``--state-dir`` wins,
then ``$REPRO_SERVE_STATE``, then ``<queue root>/serve`` when the
engine runs on the queue backend, then ``$XDG_CACHE_HOME/repro/serve``
(``~/.cache/repro/serve`` without ``$XDG_CACHE_HOME``), beside the
default result cache.

``--supervise-workers N`` (queue backend only) runs an in-process
:class:`~repro.engine.broker.WorkerSupervisor` loop alongside the
server: the fleet grows with queue depth up to N worker processes and
drains itself when idle, so one command is a complete single-host
deployment.

This module builds the four subparsers without importing the client or
the server (``urllib.request`` and ``http.server`` pull in ``ssl``); each
handler imports the part of the tier it runs, so the other subcommands
never load it.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading
import time

from repro.engine import add_engine_arguments, runner_from_args
from repro.engine.broker import QUEUE_DIR_ENV, WorkerSupervisor
from repro.engine.cache import user_cache_dir
from repro.errors import ConfigError

#: Environment variable naming the serve state directory.
STATE_DIR_ENV = "REPRO_SERVE_STATE"

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 8472

#: Default service URL of ``repro submit``, ``status`` and ``results``.
DEFAULT_URL = f"http://127.0.0.1:{DEFAULT_PORT}"


def add_serve_subcommands(sub) -> None:
    """Attach serve/submit/status/results to the repro subparsers."""
    serve = sub.add_parser(
        "serve", help="run the always-on experiment service",
        description="Serve the HTTP/JSON campaign API: clients POST "
                    "ExperimentSpec files to /v1/campaigns and poll "
                    "state, stream result rows and fetch artifacts. "
                    "One collector thread multiplexes every campaign "
                    "onto one engine runner, so overlapping jobs "
                    "across campaigns simulate once.")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP port (default {DEFAULT_PORT}; 0 = "
                            f"ephemeral)")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help=f"campaign registry root (default "
                            f"${STATE_DIR_ENV}, then <queue>/serve, "
                            f"then $XDG_CACHE_HOME/repro/serve, then "
                            f"~/.cache/repro/serve)")
    serve.add_argument("--chunk-jobs", type=int, default=32, metavar="N",
                       help="plan jobs per scheduling slice; smaller "
                            "chunks interleave campaigns more fairly "
                            "(default 32)")
    serve.add_argument("--backlog-jobs", type=int, default=10_000,
                       metavar="N",
                       help="admitted-but-unexecuted job bound; "
                            "submissions beyond it get 429 + "
                            "Retry-After (default 10000)")
    serve.add_argument("--tenant-jobs", type=int, default=5_000,
                       metavar="N",
                       help="per-tenant in-flight job bound "
                            "(default 5000)")
    serve.add_argument("--max-spec-jobs", type=int, default=50_000,
                       metavar="N",
                       help="largest plan a single spec may submit "
                            "(413 beyond it; default 50000)")
    serve.add_argument("--retry-after", type=float, default=5.0,
                       metavar="S",
                       help="Retry-After seconds on 429 (default 5)")
    serve.add_argument("--supervise-workers", type=int, default=0,
                       metavar="N",
                       help="also supervise up to N queue workers "
                            "in-process (requires --backend queue)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every request to stderr")
    add_engine_arguments(serve)

    submit = sub.add_parser(
        "submit", help="submit a spec file to a running service",
        description="POST an experiment spec (TOML or JSON) to a "
                    "'repro serve' instance and print the campaign id.")
    submit.add_argument("spec", help="spec file (.toml or .json)")
    submit.add_argument("--url", default=DEFAULT_URL,
                        help=f"service URL (default {DEFAULT_URL})")
    submit.add_argument("--tenant", default="default",
                        help="tenant identity for quota accounting")
    submit.add_argument("--dry-run", action="store_true",
                        help="plan preview only; nothing is admitted")
    submit.add_argument("--watch", action="store_true",
                        help="poll until the campaign finishes")
    submit.add_argument("--timeout", type=float, default=None,
                        metavar="S",
                        help="with --watch: give up after S seconds")

    status = sub.add_parser(
        "status", help="report one campaign's state",
        description="GET /v1/campaigns/{id} from a running service.")
    status.add_argument("id", help="campaign id (from 'repro submit')")
    status.add_argument("--url", default=DEFAULT_URL,
                        help=f"service URL (default {DEFAULT_URL})")
    status.add_argument("--json", action="store_true",
                        help="print the raw status object")

    results = sub.add_parser(
        "results", help="fetch a campaign's result rows",
        description="Stream /v1/campaigns/{id}/results and print rows "
                    "as JSON lines, or export the rebuilt ResultSet "
                    "(waits for the campaign to finish first).")
    results.add_argument("id", help="campaign id (from 'repro submit')")
    results.add_argument("--url", default=DEFAULT_URL,
                         help=f"service URL (default {DEFAULT_URL})")
    results.add_argument("--after", type=int, default=0, metavar="N",
                         help="resume the row stream at cursor N")
    results.add_argument("--export-csv", metavar="PATH", default=None,
                         help="wait for completion and write the "
                              "ResultSet as CSV (bit-identical to a "
                              "local run's export)")
    results.add_argument("--export-json", metavar="PATH", default=None,
                         help="wait for completion and write the "
                              "ResultSet as JSON")
    results.add_argument("--timeout", type=float, default=None,
                         metavar="S",
                         help="give up waiting after S seconds")


def dispatch_serve(args) -> int | None:
    """Run a serve-family subcommand; None when ``args`` is not one."""
    handler = {"serve": _cmd_serve, "submit": _cmd_submit,
               "status": _cmd_status, "results": _cmd_results
               }.get(args.command)
    if handler is None:
        return None
    from repro.serve.client import ServeError

    try:
        return handler(args)
    except ServeError as exc:
        # Service declines and unreachable hosts are operator-facing
        # configuration outcomes, same contract as ConfigError.
        raise ConfigError(str(exc)) from None


def resolve_state_dir(args) -> pathlib.Path:
    if args.state_dir:
        return pathlib.Path(args.state_dir).expanduser()
    env = os.environ.get(STATE_DIR_ENV)
    if env:
        return pathlib.Path(env).expanduser()
    queue_root = getattr(args, "queue", None) \
        or os.environ.get(QUEUE_DIR_ENV)
    if queue_root:
        return pathlib.Path(queue_root).expanduser() / "serve"
    return user_cache_dir() / "serve"


def _cmd_serve(args) -> int:
    from repro.serve.server import create_server

    runner = runner_from_args(args)
    supervisor = None
    if args.supervise_workers:
        broker = getattr(runner.backend, "broker", None)
        if broker is None:
            raise ConfigError(
                "--supervise-workers needs the queue backend: pass "
                f"--backend queue with --queue DIR or ${QUEUE_DIR_ENV}")
        supervisor = WorkerSupervisor(str(broker.root),
                                      max_workers=args.supervise_workers)
        supervisor.attach_metrics(runner.metrics)
    state_dir = resolve_state_dir(args)
    server = create_server(args.host, args.port, runner=runner,
                           state_dir=state_dir,
                           chunk_jobs=args.chunk_jobs,
                           backlog_jobs=args.backlog_jobs,
                           tenant_jobs=args.tenant_jobs,
                           max_spec_jobs=args.max_spec_jobs,
                           retry_after_s=args.retry_after,
                           quiet=not args.verbose)
    stop = threading.Event()
    pump = None
    if supervisor is not None:
        pump = threading.Thread(
            target=_supervise_until, args=(supervisor, stop),
            daemon=True, name="repro-serve-supervisor")
        pump.start()
        print(f"serve: supervising up to {args.supervise_workers} "
              f"queue worker(s)", file=sys.stderr)
    print(f"serve: listening on {server.url} "
          f"(state {state_dir})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        server.server_close()
        server.collector.stop()
        if pump is not None:
            pump.join(timeout=30.0)
    return 0


def _supervise_until(supervisor: WorkerSupervisor,
                     stop: threading.Event) -> None:
    """Keep the worker fleet sized to queue depth until shutdown.

    Unlike :meth:`WorkerSupervisor.run` this never exits on an empty
    spool — an always-on service's queue is usually empty *between*
    campaigns.
    """
    try:
        while not stop.wait(supervisor.poll_interval):
            supervisor.poll_once()
    finally:
        for child in supervisor.children:
            child.join(timeout=supervisor.idle_exit
                       + 4.0 * supervisor.worker_poll + 30.0)


def _cmd_submit(args) -> int:
    from repro.serve.client import ServeClient

    client = ServeClient(args.url, tenant=args.tenant)
    response = client.submit(args.spec, dry_run=args.dry_run)
    if args.dry_run:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    campaign_id = response["id"]
    print(f"campaign:  {campaign_id}")
    print(f"name:      {response.get('name', '')}")
    print(f"state:     {response['state']}")
    print(f"jobs:      {response['total_jobs']}")
    if not args.watch:
        return 0
    deadline = None if args.timeout is None \
        else time.monotonic() + args.timeout
    last = -1
    while True:
        status = client.status(campaign_id)
        if status["done_jobs"] != last:
            last = status["done_jobs"]
            print(f"progress:  {last}/{status['total_jobs']} jobs "
                  f"({status['state']})")
        if status["state"] in ("done", "failed", "cancelled"):
            break
        if deadline is not None and time.monotonic() > deadline:
            raise ConfigError(
                f"timed out after {args.timeout:g}s watching campaign "
                f"{campaign_id} (last state {status['state']}, "
                f"{last}/{status['total_jobs']} jobs)")
        time.sleep(0.2)
    _print_terminal(status)
    return 0 if status["state"] == "done" else 1


def _print_terminal(status: dict) -> None:
    print(f"state:     {status['state']}")
    if status.get("error"):
        print(f"error:     {status['error']}", file=sys.stderr)
    for warning in status.get("warnings", ()):
        print(f"warning:   {warning}", file=sys.stderr)
    stats = status.get("stats") or {}
    if stats:
        print(f"engine:    {stats.get('simulated', 0)} simulated, "
              f"{stats.get('disk_hits', 0)} cache hits, "
              f"{stats.get('memory_hits', 0)} memo hits")


def _cmd_status(args) -> int:
    from repro.serve.client import ServeClient

    status = ServeClient(args.url).status(args.id)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"campaign:  {status['id']}  ({status.get('name', '')})")
    print(f"tenant:    {status['tenant']}")
    print(f"state:     {status['state']}")
    print(f"jobs:      {status['done_jobs']}/{status['total_jobs']}")
    print(f"rows:      {status['rows_available']}")
    if status.get("artifacts"):
        print(f"artifacts: {', '.join(status['artifacts'])}")
    if status.get("error"):
        print(f"error:     {status['error']}")
    for warning in status.get("warnings", ()):
        print(f"warning:   {warning}")
    return 0


def _cmd_results(args) -> int:
    from repro.serve.client import ServeClient

    client = ServeClient(args.url)
    if args.export_csv or args.export_json:
        results = client.result_set(args.id, timeout_s=args.timeout)
        if args.export_csv:
            results.to_csv(args.export_csv)
            print(f"wrote {len(results)} records to {args.export_csv}")
        if args.export_json:
            results.to_json(args.export_json)
            print(f"wrote {len(results)} records to {args.export_json}")
        return 0
    rows, info = client.results(args.id, after=args.after)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    print(f"state: {info['state']}  next-after: {info['next_after']}",
          file=sys.stderr)
    return 0
