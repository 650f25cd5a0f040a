"""The HTTP/JSON surface of the experiment service (stdlib only).

Endpoints (all JSON unless noted)::

    POST   /v1/campaigns                submit a spec (TOML or JSON body)
    POST   /v1/campaigns?dry_run=1      plan preview, nothing admitted
    GET    /v1/campaigns                list campaigns (status objects)
    GET    /v1/campaigns/{id}           one campaign's status
    GET    /v1/campaigns/{id}/results   NDJSON rows, ``?after=N`` cursor
    GET    /v1/campaigns/{id}/artifacts/{name}   rendered artifact rows
    DELETE /v1/campaigns/{id}           cancel
    GET    /v1/metrics                  engine/queue/cache/tenant gauges
                                        (Prometheus text with
                                        ``Accept: text/plain``)

Error contract: configuration problems (malformed spec bodies, unknown
artifact names) answer with their :class:`~repro.errors.ConfigError`
text in a ``{"error": ...}`` body — 400 for bad submissions, 404 for
unknown ids, 409 for artifacts requested before the campaign is done,
413 for specs beyond the per-campaign job cap, and 429 with a
``Retry-After`` header when the backlog or a tenant quota declines the
submission.  The results endpoint never blocks: it returns the rows
currently available past the cursor and tells the client where to
resume (``X-Repro-Next-After``) and whether more will come
(``X-Repro-State``).

The server itself is a ``ThreadingHTTPServer``: handler threads only
parse, plan (dry-run) and read collector state under its lock — every
simulation happens on the collector's single worker thread, so
concurrent clients cannot stampede the engine.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import repro
from repro.engine.runner import ParallelRunner
from repro.errors import ConfigError
from repro.experiments.experiment import Experiment
from repro.experiments.spec import ExperimentSpec
from repro.serve.cli import DEFAULT_PORT
from repro.serve.collector import (
    BacklogFull,
    Collector,
    SpecTooLarge,
    UnknownCampaign,
)
from repro.serve.registry import CampaignRegistry


class CampaignServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one collector."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, collector: Collector, *,
                 quiet: bool = True):
        self.collector = collector
        self.quiet = quiet
        super().__init__(address, _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self) -> None:
        """Stop serving and the collector (callable from any thread
        except a handler thread)."""
        self.shutdown()
        self.server_close()
        self.collector.stop()


def create_server(host: str = "127.0.0.1", port: int = DEFAULT_PORT, *,
                  runner: ParallelRunner | None = None,
                  state_dir=None,
                  chunk_jobs: int = 32,
                  backlog_jobs: int = 10_000,
                  tenant_jobs: int = 5_000,
                  max_spec_jobs: int = 50_000,
                  retry_after_s: float = 5.0,
                  resume: bool = True,
                  quiet: bool = True) -> CampaignServer:
    """Build registry + collector + HTTP server and start the collector.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.server_address``.  The returned server is ready for
    ``serve_forever()``; call :meth:`CampaignServer.stop` to shut both
    tiers down.
    """
    registry = CampaignRegistry(state_dir)
    collector = Collector(runner or ParallelRunner(), registry,
                          chunk_jobs=chunk_jobs,
                          backlog_jobs=backlog_jobs,
                          tenant_jobs=tenant_jobs,
                          max_spec_jobs=max_spec_jobs,
                          retry_after_s=retry_after_s)
    if resume:
        collector.resume()
    server = CampaignServer((host, port), collector, quiet=quiet)
    collector.start()
    return server


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{repro.__version__}"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    @property
    def collector(self) -> Collector:
        return self.server.collector

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json",
              headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, status: int, payload,
              headers: dict | None = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, body, headers=headers)

    def _error(self, status: int, message: str,
               headers: dict | None = None) -> None:
        self._json(status, {"error": message}, headers=headers)

    def _route(self):
        parts = urlsplit(self.path)
        query = {name: values[-1]
                 for name, values in parse_qs(parts.query).items()}
        segments = [segment for segment in parts.path.split("/")
                    if segment]
        return segments, query

    @staticmethod
    def _truthy(value) -> bool:
        return str(value).strip().lower() in ("1", "true", "yes", "on")

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length > 0 else b""

    def _body_format(self) -> str | None:
        content_type = (self.headers.get("Content-Type") or "").lower()
        if "json" in content_type:
            return "json"
        if "toml" in content_type:
            return "toml"
        return None  # sniff

    # -- methods -------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        segments, query = self._route()
        if segments != ["v1", "campaigns"]:
            self._error(404, f"no such endpoint: POST {self.path}")
            return
        tenant = (self.headers.get("X-Repro-Tenant")
                  or query.get("tenant") or "default")
        try:
            spec = ExperimentSpec.from_bytes(self._read_body(),
                                             self._body_format())
            if self._truthy(query.get("dry_run", "")):
                # Plan preview on a private hermetic runner: nothing is
                # admitted, nothing simulates, nothing touches the
                # shared engine.
                summary = Experiment(spec).plan_summary()
                self._json(200, dict(summary, dry_run=True))
                return
            record = self.collector.submit(spec, tenant=tenant)
        except ConfigError as exc:
            self._error(400, str(exc))
        except SpecTooLarge as exc:
            self._error(413, str(exc))
        except BacklogFull as exc:
            self._error(429, str(exc),
                        headers={"Retry-After":
                                 max(1, int(round(exc.retry_after_s)))})
        else:
            self._json(201, record.status_dict(),
                       headers={"Location": f"/v1/campaigns/{record.id}"})

    def do_GET(self) -> None:  # noqa: N802
        segments, query = self._route()
        try:
            if segments == ["v1", "metrics"]:
                self._metrics()
            elif segments == ["v1", "campaigns"]:
                self._json(200, {"campaigns": self.collector.campaigns()})
            elif len(segments) == 3 and \
                    segments[:2] == ["v1", "campaigns"]:
                self._json(200, self.collector.status(segments[2]))
            elif len(segments) == 4 and \
                    segments[:2] == ["v1", "campaigns"] and \
                    segments[3] == "results":
                self._results(segments[2], query)
            elif len(segments) == 5 and \
                    segments[:2] == ["v1", "campaigns"] and \
                    segments[3] == "artifacts":
                rows = self.collector.artifact_rows(segments[2],
                                                    segments[4])
                self._json(200, {"artifact": segments[4], "rows": rows})
            else:
                self._error(404, f"no such endpoint: GET {self.path}")
        except UnknownCampaign as exc:
            self._error(404, exc.args[0] if exc.args
                        else "unknown campaign")
        except ConfigError as exc:
            self._error(409, str(exc))

    def do_DELETE(self) -> None:  # noqa: N802
        segments, _ = self._route()
        if len(segments) == 3 and segments[:2] == ["v1", "campaigns"]:
            try:
                self._json(200, self.collector.cancel(segments[2]))
            except UnknownCampaign as exc:
                self._error(404, exc.args[0] if exc.args
                            else "unknown campaign")
            return
        self._error(404, f"no such endpoint: DELETE {self.path}")

    # -- metrics exposition --------------------------------------------

    def _metrics(self) -> None:
        """JSON by default; Prometheus text on ``Accept: text/plain``.

        JSON stays the default (and wins whenever the client mentions
        json at all) so every existing consumer of ``/v1/metrics`` is
        untouched; only an explicit text/plain preference — what a
        Prometheus scraper sends — switches the representation.
        """
        accept = (self.headers.get("Accept") or "").lower()
        if "text/plain" in accept and "json" not in accept:
            body = self.collector.prometheus().encode("utf-8")
            self._send(200, body,
                       content_type="text/plain; version=0.0.4; "
                                    "charset=utf-8")
            return
        self._json(200, self.collector.metrics())

    # -- results streaming ---------------------------------------------

    def _results(self, campaign_id: str, query: dict) -> None:
        try:
            after = int(query.get("after", 0))
        except ValueError:
            self._error(400, f"?after= must be an integer, got "
                             f"{query.get('after')!r}")
            return
        rows, info = self.collector.rows_after(campaign_id, after)
        body = "".join(json.dumps(row, sort_keys=True) + "\n"
                       for row in rows).encode("utf-8")
        self._send(200, body, content_type="application/x-ndjson",
                   headers={"X-Repro-State": info["state"],
                            "X-Repro-Next-After": info["next_after"],
                            "X-Repro-Rows-Available":
                                info["rows_available"]})
