"""Typed in-process client for the experiment service.

:class:`ServeClient` wraps the HTTP surface in the vocabulary of the
rest of the package: it submits :class:`ExperimentSpec` values (or spec
files, or raw TOML/JSON bytes), polls status, streams NDJSON rows with
the ``?after=`` cursor, and rebuilds the campaign's
:class:`~repro.experiments.resultset.ResultSet` — bit-identical to a
local run, because rows travel as JSON (floats round-trip exactly) and
are reassembled into the same :class:`Record` values the local path
produces.  Errors arrive as :class:`ServeError` carrying the HTTP
status and, for back-pressure declines, the server's ``Retry-After``.

Only :mod:`urllib.request` is used — the client adds no dependency and
works anywhere the package imports.
"""

from __future__ import annotations

import json
import pathlib
import time
import urllib.error
import urllib.parse
import urllib.request

from repro.errors import ConfigError
from repro.experiments.resultset import Record, ResultSet
from repro.experiments.spec import ExperimentSpec
from repro.serve.cli import DEFAULT_URL

#: Campaign states after which nothing more will happen.
TERMINAL_STATES = ("done", "failed", "cancelled")


class ServeError(RuntimeError):
    """An HTTP-level decline or failure from the service."""

    def __init__(self, message: str, *, status: int | None = None,
                 retry_after_s: float | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


def record_from_row(row: dict) -> Record:
    """Rebuild one ResultSet record from its wire/registry row."""
    return Record(kind=str(row.get("kind", "")),
                  scheme=str(row.get("scheme", "")),
                  vcc_mv=row.get("vcc_mv", 0.0),
                  variant=str(row.get("variant", "")),
                  trace=str(row.get("trace", "")),
                  metrics=dict(row.get("metrics", {})))


class ServeClient:
    """HTTP client bound to one service URL (and one tenant identity)."""

    def __init__(self, url: str = DEFAULT_URL, *,
                 tenant: str = "default", timeout: float = 60.0):
        self.url = url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout

    # -- transport -----------------------------------------------------

    def _request(self, method: str, path: str,
                 body: bytes | None = None,
                 content_type: str | None = None):
        """One round trip; returns ``(payload, headers)``."""
        headers = {"X-Repro-Tenant": self.tenant}
        if content_type:
            headers["Content-Type"] = content_type
        request = urllib.request.Request(self.url + path, data=body,
                                         headers=headers, method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return response.read(), dict(response.headers)
        except urllib.error.HTTPError as exc:
            text = exc.read().decode("utf-8", "replace")
            try:
                message = json.loads(text)["error"]
            except (ValueError, KeyError, TypeError):
                message = text.strip() or f"HTTP {exc.code}"
            retry_after = exc.headers.get("Retry-After")
            raise ServeError(
                message, status=exc.code,
                retry_after_s=float(retry_after)
                if retry_after else None) from None
        except urllib.error.URLError as exc:
            raise ServeError(f"cannot reach {self.url}: "
                             f"{exc.reason}") from None

    def _json(self, method: str, path: str, body: bytes | None = None,
              content_type: str | None = None) -> dict:
        payload, _ = self._request(method, path, body, content_type)
        return json.loads(payload)

    # -- submission ----------------------------------------------------

    @staticmethod
    def _spec_body(spec) -> tuple[bytes, str]:
        """Normalize a spec argument into ``(body, content_type)``."""
        if isinstance(spec, ExperimentSpec):
            return (spec.to_json().encode("utf-8"), "application/json")
        if isinstance(spec, (bytes, bytearray)):
            return (bytes(spec), "application/octet-stream")
        path = pathlib.Path(spec)
        try:
            body = path.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read spec file {path}: {exc}")
        content_type = ("application/json" if path.suffix == ".json"
                        else "application/toml")
        return body, content_type

    def submit(self, spec, *, dry_run: bool = False) -> dict:
        """Submit a spec (value, file path, or raw bytes).

        Returns the campaign status object (with its ``id``) — or, with
        ``dry_run``, the plan summary; nothing is admitted then.
        """
        body, content_type = self._spec_body(spec)
        path = "/v1/campaigns" + ("?dry_run=1" if dry_run else "")
        return self._json("POST", path, body, content_type)

    # -- inspection ----------------------------------------------------

    def status(self, campaign_id: str) -> dict:
        return self._json("GET", f"/v1/campaigns/{campaign_id}")

    def campaigns(self) -> list[dict]:
        return self._json("GET", "/v1/campaigns")["campaigns"]

    def metrics(self) -> dict:
        return self._json("GET", "/v1/metrics")

    def cancel(self, campaign_id: str) -> dict:
        return self._json("DELETE", f"/v1/campaigns/{campaign_id}")

    # -- results -------------------------------------------------------

    def results(self, campaign_id: str, after: int = 0
                ) -> tuple[list[dict], dict]:
        """One non-blocking page of rows past the cursor.

        Returns ``(rows, info)`` where ``info`` carries ``state`` and
        ``next_after`` (the cursor for the next call).
        """
        payload, headers = self._request(
            "GET", f"/v1/campaigns/{campaign_id}/results?after={after}")
        rows = [json.loads(line)
                for line in payload.decode("utf-8").splitlines() if line]
        info = {"state": headers.get("X-Repro-State", ""),
                "next_after": int(headers.get("X-Repro-Next-After",
                                              after + len(rows)))}
        return rows, info

    def iter_rows(self, campaign_id: str, *, poll_s: float = 0.1,
                  timeout_s: float | None = None):
        """Yield rows as they land, until the campaign is terminal.

        Raises :class:`ServeError` if the campaign fails or is
        cancelled mid-stream, or on timeout.
        """
        deadline = None if timeout_s is None \
            else time.monotonic() + timeout_s
        cursor = 0
        while True:
            rows, info = self.results(campaign_id, after=cursor)
            yield from rows
            cursor = info["next_after"]
            if info["state"] == "done" and not rows:
                final, _ = self.results(campaign_id, after=cursor)
                yield from final
                return
            if info["state"] in ("failed", "cancelled"):
                status = self.status(campaign_id)
                raise ServeError(
                    f"campaign {campaign_id} {info['state']}: "
                    f"{status.get('error') or 'no detail'}")
            if not rows:
                if deadline is not None \
                        and time.monotonic() > deadline:
                    raise ServeError(
                        f"timed out waiting for campaign {campaign_id}")
                time.sleep(poll_s)

    def wait(self, campaign_id: str, *, poll_s: float = 0.1,
             timeout_s: float | None = None) -> dict:
        """Block until the campaign is terminal; returns its status."""
        deadline = None if timeout_s is None \
            else time.monotonic() + timeout_s
        while True:
            status = self.status(campaign_id)
            if status["state"] in TERMINAL_STATES:
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise ServeError(
                    f"timed out waiting for campaign {campaign_id} "
                    f"(state {status['state']}, "
                    f"{status['done_jobs']}/{status['total_jobs']} jobs)")
            time.sleep(poll_s)

    def result_set(self, campaign_id: str, *, wait: bool = True,
                   timeout_s: float | None = None) -> ResultSet:
        """The campaign's rows as a ResultSet (waits for completion).

        The rebuilt records equal the local run's bit-for-bit, so
        ``result_set(...).to_csv(path)`` matches a local
        ``repro run --export-csv`` of the same spec exactly.
        """
        if wait:
            status = self.wait(campaign_id, timeout_s=timeout_s)
            if status["state"] != "done":
                raise ServeError(
                    f"campaign {campaign_id} {status['state']}: "
                    f"{status.get('error') or 'no detail'}")
        rows, _ = self.results(campaign_id, after=0)
        return ResultSet(record_from_row(row) for row in rows)

    def artifact(self, campaign_id: str, name: str) -> list[dict]:
        return self._json(
            "GET",
            f"/v1/campaigns/{campaign_id}/artifacts/"
            f"{urllib.parse.quote(name)}")["rows"]
