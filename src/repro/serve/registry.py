"""Durable campaign registry: one atomic JSON state file per campaign.

The registry is the serve tier's source of truth.  Every state change a
campaign goes through — admitted, chunk finished, rows streamed, done,
failed, cancelled — is persisted as a whole-file atomic rewrite
(:func:`~repro.engine.cache.atomic_write`) of
``<state_dir>/campaigns/<id>.json``, so a crashed or restarted server
finds a consistent snapshot: finished campaigns keep answering
status/results/artifact requests, and campaigns that were still planned
or running are re-admitted and re-planned from their persisted spec (the
shared result cache makes the replay disk-hits, not re-simulation).

Result rows are stored as flat JSON mappings mirroring
:meth:`repro.experiments.resultset.Record.as_dict` identity plus a
``metrics`` mapping; floats survive the JSON round trip bit-exactly
(``repr`` based), which is what makes the served CSV export
bit-identical to a local ``repro run --export-csv``.
"""

from __future__ import annotations

import json
import pathlib
import time
import uuid
from dataclasses import asdict, dataclass, field

from repro.engine.cache import atomic_write
from repro.errors import ConfigError

#: Campaign lifecycle states, in rough order of progression.
STATES = ("planned", "running", "done", "failed", "cancelled")

#: States a restarted server must resume (everything non-terminal).
ACTIVE_STATES = ("planned", "running")


def jsonable(value):
    """Fold a result value into plain JSON types without losing identity.

    Floats pass through (JSON round-trips them bit-exactly); numpy
    scalars unwrap via ``.item()`` so a served row prints identically to
    the local export path; containers recurse; anything exotic falls
    back to ``str`` — rows are a data product, never executable state.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return jsonable(item())
        except (TypeError, ValueError):
            pass
    if isinstance(value, (list, tuple)):
        return [jsonable(entry) for entry in value]
    if isinstance(value, dict):
        return {str(key): jsonable(entry) for key, entry in value.items()}
    return str(value)


def record_row(record) -> dict:
    """One ResultSet record as the wire/registry row mapping."""
    return {
        "kind": record.kind,
        "scheme": record.scheme,
        "vcc_mv": jsonable(record.vcc_mv),
        "variant": record.variant,
        "trace": record.trace,
        "metrics": {name: jsonable(value)
                    for name, value in record.metrics},
    }


@dataclass
class CampaignRecord:
    """Everything the service knows about one campaign."""

    id: str
    name: str = ""
    tenant: str = "default"
    state: str = "planned"
    #: The submitted spec (``ExperimentSpec.to_dict`` form) — enough to
    #: re-plan the campaign after a server restart.
    spec: dict = field(default_factory=dict)
    created_s: float = 0.0
    updated_s: float = 0.0
    total_jobs: int = 0
    done_jobs: int = 0
    error: str = ""
    #: Warning texts raised while executing/reducing (ESS warnings...).
    warnings: list = field(default_factory=list)
    #: This campaign's share of the shared runner's EngineStats
    #: (counter deltas accumulated around its own chunks).
    stats: dict = field(default_factory=dict)
    #: Streamed result rows, strictly append-only in the canonical
    #: ResultSet order (the ``?after=`` cursor contract).
    rows: list = field(default_factory=list)
    #: Rendered artifact rows by name, available once ``state == done``.
    artifact_rows: dict = field(default_factory=dict)

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    def status_dict(self) -> dict:
        """The ``GET /v1/campaigns/{id}`` body (no row payloads)."""
        return {
            "id": self.id,
            "name": self.name,
            "tenant": self.tenant,
            "state": self.state,
            "created_s": self.created_s,
            "updated_s": self.updated_s,
            "total_jobs": self.total_jobs,
            "done_jobs": self.done_jobs,
            "rows_available": len(self.rows),
            "artifacts": sorted(self.artifact_rows),
            "error": self.error,
            "warnings": list(self.warnings),
            "stats": dict(self.stats),
        }

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignRecord":
        known = set(cls.__dataclass_fields__)
        kwargs = {key: value for key, value in dict(data).items()
                  if key in known}
        if "id" not in kwargs:
            raise ConfigError("campaign state file has no 'id' field")
        record = cls(**kwargs)
        if record.state not in STATES:
            raise ConfigError(
                f"campaign {record.id} has unknown state "
                f"{record.state!r}")
        return record


class CampaignRegistry:
    """Atomic JSON persistence for :class:`CampaignRecord` under one root."""

    def __init__(self, state_dir):
        if not state_dir:
            raise ConfigError("the serve registry needs a state directory")
        self.root = pathlib.Path(state_dir).expanduser()
        self.campaigns_dir = self.root / "campaigns"
        if self.root.exists() and not self.root.is_dir():
            raise ConfigError(f"serve state directory {self.root} exists "
                              f"but is not a directory")
        try:
            self.campaigns_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create serve state directory "
                f"{self.campaigns_dir}: {exc}")

    # -- identity ------------------------------------------------------

    @staticmethod
    def new_id() -> str:
        return uuid.uuid4().hex[:12]

    def new_record(self, *, name: str, tenant: str, spec: dict,
                   total_jobs: int) -> CampaignRecord:
        now = time.time()
        return CampaignRecord(id=self.new_id(), name=name, tenant=tenant,
                              state="planned", spec=dict(spec),
                              created_s=now, updated_s=now,
                              total_jobs=int(total_jobs))

    # -- persistence ---------------------------------------------------

    def _path(self, campaign_id: str) -> pathlib.Path:
        return self.campaigns_dir / f"{campaign_id}.json"

    def save(self, record: CampaignRecord) -> None:
        """Atomic whole-file rewrite — readers never see a torn state.

        Keys stay in their order: a spec's name-keyed tables (its RV32I
        programs) are its population order.
        """
        record.updated_s = time.time()
        atomic_write(self._path(record.id),
                     json.dumps(record.as_dict()).encode("utf-8"))

    def load(self, campaign_id: str) -> CampaignRecord | None:
        path = self._path(campaign_id)
        try:
            text = path.read_text("utf-8")
        except OSError:
            return None
        try:
            return CampaignRecord.from_dict(json.loads(text))
        except (ValueError, ConfigError, TypeError):
            return None  # torn/foreign file: not a campaign of ours

    def load_all(self) -> list[CampaignRecord]:
        """Every persisted campaign, oldest submission first."""
        records = []
        try:
            paths = sorted(self.campaigns_dir.glob("*.json"))
        except OSError:
            return records
        for path in paths:
            record = self.load(path.stem)
            if record is not None:
                records.append(record)
        records.sort(key=lambda record: (record.created_s, record.id))
        return records
