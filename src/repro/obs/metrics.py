"""Typed metrics instruments and their registry.

Three instruments — :class:`Counter`, :class:`Gauge` and
:class:`Histogram` (fixed-bucket) — are registered in a thread-safe
:class:`MetricsRegistry` that every execution layer shares.  Each count
has one home: the layer that keeps it as a plain number registers a
counter or gauge whose callback reads that number at scrape time.  The
runner's :class:`~repro.engine.runner.EngineStats` registers its
counters, the cache its hit/miss/write tallies, the queue backend its
fault counts by outcome, the supervisor its fleet counts, and the serve
collector its backlog.  The histogram is the one instrument that keeps
its own state: the queue backend's heartbeat-lag distribution is
observed as each poll measures it.

One registry, two surfaces: :meth:`MetricsRegistry.snapshot` feeds JSON
consumers and :meth:`MetricsRegistry.to_prometheus` renders the
Prometheus text exposition format (``GET /v1/metrics`` with
``Accept: text/plain``).  Everything here is stdlib-only and has no
engine imports, so the engine can depend on it without layering cycles.

Dynamic label sets (per-tenant gauges, per-state campaign counts) come
from *collector callbacks*: a callable registered with
:meth:`MetricsRegistry.collector` returns :class:`Sample` tuples at
snapshot time, so instruments never need to be created and destroyed as
tenants come and go.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass

#: Default histogram bounds (seconds): spans microsecond cache reads up
#: to minute-long shards.  Prometheus-style upper bounds; the implicit
#: +Inf bucket is always present.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)


@dataclass(frozen=True)
class Sample:
    """One dynamically-labelled measurement from a collector callback."""

    name: str
    value: float
    #: Sorted ``(label, value)`` pairs; a tuple so samples are hashable.
    labels: tuple = ()
    kind: str = "gauge"
    help: str = ""


class _Reading:
    """An instrument whose value is its owner's count, read at scrape
    time through ``fn``.

    Nothing is copied into the registry, so the value can never go
    stale and needs no update plumbing.  A callback that raises reports
    0 rather than poisoning a metrics scrape.
    """

    def __init__(self, name: str, help: str = "",
                 labels: dict | None = None, *, fn):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.fn = fn

    @property
    def value(self):
        try:
            return self._cast(self.fn())
        except Exception:
            return self._cast(0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}={self.value})"


class Counter(_Reading):
    """A monotonically non-decreasing integer count."""

    kind = "counter"
    _cast = int


class Gauge(_Reading):
    """A value that can go up and down (fleet size, backlog depth)."""

    kind = "gauge"
    _cast = float


class Histogram:
    """Fixed-bucket distribution.

    Buckets are Prometheus-style upper bounds (``le``); an implicit
    ``+Inf`` bucket catches everything beyond the last bound.  Counts
    are stored per-bucket (non-cumulative) and cumulated at render
    time.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: dict | None = None,
                 buckets=DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(not math.isfinite(b) for b in bounds) \
                or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram buckets must be finite and strictly "
                f"increasing (got {buckets!r})")
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts, ``+Inf`` last."""
        with self._lock:
            return list(self._counts)

    def cumulative(self) -> list[int]:
        """Prometheus-style cumulative ``le`` counts, ``+Inf`` last."""
        total = 0
        out = []
        for count in self.bucket_counts():
            total += count
            out.append(total)
        return out

    def as_dict(self) -> dict:
        with self._lock:
            return {"buckets": list(self.buckets),
                    "counts": list(self._counts),
                    "sum": self._sum, "count": self._count}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self._count})"


class MetricsRegistry:
    """Thread-safe instrument registry with Prometheus rendering.

    Registration is idempotent: asking for an already-registered
    ``(name, labels)`` returns the existing instrument, which keeps its
    first callback, and asking with a conflicting instrument type
    raises.
    """

    def __init__(self):
        self._lock = threading.RLock()
        #: (name, sorted label tuple) -> instrument, insertion-ordered.
        self._instruments: dict = {}
        self._collectors: list = []

    @staticmethod
    def _key(name: str, labels: dict | None) -> tuple:
        return name, tuple(sorted((labels or {}).items()))

    def _register(self, cls, name: str, help: str,
                  labels: dict | None, **kwargs):
        key = self._key(name, labels)
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}")
                return existing
            instrument = cls(name, help=help, labels=labels, **kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labels: dict | None = None, *, fn) -> Counter:
        return self._register(Counter, name, help, labels, fn=fn)

    def gauge(self, name: str, help: str = "",
              labels: dict | None = None, *, fn) -> Gauge:
        return self._register(Gauge, name, help, labels, fn=fn)

    def histogram(self, name: str, help: str = "",
                  labels: dict | None = None,
                  buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labels,
                              buckets=buckets)

    def collector(self, fn) -> None:
        """Register a callback returning :class:`Sample` iterables."""
        with self._lock:
            self._collectors.append(fn)

    def instruments(self) -> list:
        with self._lock:
            return list(self._instruments.values())

    def snapshot(self) -> dict:
        """Flat ``name{labels} -> value`` mapping (JSON/test surface)."""
        out = {}
        for instrument in self.instruments():
            label = _label_suffix(instrument.labels)
            if isinstance(instrument, Histogram):
                out[f"{instrument.name}{label}"] = instrument.as_dict()
            else:
                out[f"{instrument.name}{label}"] = instrument.value
        for sample in self._collect_samples():
            out[f"{sample.name}{_label_suffix(dict(sample.labels))}"] = \
                sample.value
        return out

    def _collect_samples(self) -> list:
        with self._lock:
            collectors = list(self._collectors)
        samples = []
        for fn in collectors:
            try:
                samples.extend(fn())
            except Exception:
                continue  # a sick collector must not poison the scrape
        return samples

    def to_prometheus(self, prefix: str = "repro_") -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        groups: dict[str, dict] = {}
        for instrument in self.instruments():
            group = groups.setdefault(
                instrument.name,
                {"kind": instrument.kind, "help": instrument.help,
                 "lines": []})
            group["lines"].extend(
                _instrument_lines(prefix, instrument))
        for sample in self._collect_samples():
            group = groups.setdefault(
                sample.name,
                {"kind": sample.kind, "help": sample.help, "lines": []})
            full = _metric_name(prefix, sample.name)
            if sample.kind == "counter":
                full += "_total"
            group["lines"].append(
                f"{full}{_label_text(dict(sample.labels))} "
                f"{_format_value(sample.value)}")
        chunks = []
        for name, group in groups.items():
            full = _metric_name(prefix, name)
            if group["kind"] == "counter":
                # The classic text format requires HELP/TYPE to name
                # the metric exactly as its samples spell it.
                full += "_total"
            if group["help"]:
                chunks.append(f"# HELP {full} {_escape_help(group['help'])}")
            chunks.append(f"# TYPE {full} {group['kind']}")
            chunks.extend(group["lines"])
        return "\n".join(chunks) + ("\n" if chunks else "")


def _instrument_lines(prefix: str, instrument) -> list[str]:
    full = _metric_name(prefix, instrument.name)
    labels = instrument.labels
    if isinstance(instrument, Counter):
        return [f"{full}_total{_label_text(labels)} "
                f"{_format_value(instrument.value)}"]
    if isinstance(instrument, Histogram):
        lines = []
        cumulative = instrument.cumulative()
        bounds = [*(str(_format_value(b)) for b in instrument.buckets),
                  "+Inf"]
        for bound, count in zip(bounds, cumulative):
            lines.append(
                f"{full}_bucket"
                f"{_label_text(dict(labels, le=bound))} {count}")
        lines.append(f"{full}_sum{_label_text(labels)} "
                     f"{_format_value(instrument.sum)}")
        lines.append(f"{full}_count{_label_text(labels)} "
                     f"{instrument.count}")
        return lines
    return [f"{full}{_label_text(labels)} "
            f"{_format_value(instrument.value)}"]


def _metric_name(prefix: str, name: str) -> str:
    text = prefix + name
    return "".join(ch if ch.isalnum() or ch in "_:" else "_"
                   for ch in text)


def _label_text(labels: dict) -> str:
    if not labels:
        return ""
    parts = ", ".join(f'{key}="{_escape_label(str(value))}"'
                      for key, value in sorted(labels.items()))
    return "{" + parts + "}"


def _label_suffix(labels: dict) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{key}={value}"
                          for key, value in sorted(labels.items())) + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"") \
        .replace("\n", r"\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value == math.floor(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
