"""Content-addressed on-disk result cache with versioned invalidation.

Completed job results are pickled under one file per canonical job key
(:func:`repro.engine.jobs.job_key`), inside a version directory named
after (a) the cache schema version and (b) a fingerprint of the whole
``repro`` package source.  Any code change — a constant recalibration, a
pipeline fix — moves the fingerprint, so stale results can never be
served; they are simply orphaned in the old version directory (reclaim
with :meth:`ResultCache.prune_stale` or ``python -m repro cache --clear``).

The cache root is ``$REPRO_CACHE_DIR`` if set, else
``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``.  All filesystem
failures degrade gracefully: an unwritable or read-only location turns
the cache into a pass-through (one warning, no crash), a corrupt entry is
treated as a miss and removed.

Size bound (LRU)
----------------
Per-trace sharding multiplies the entry count, so the store is bounded:
``$REPRO_CACHE_MAX_BYTES`` (or the ``max_bytes`` constructor argument)
caps the total payload bytes of the current version directory.  The
directory is its own LRU index: an entry's size is its file size and its
recency is its mtime.  Every write and every hit stamps the entry's
mtime.  Stamps come from one process-wide, strictly increasing
nanosecond value, so entries touched within one clock tick still order
exactly.  After each write to a bounded cache, entries are evicted in
(mtime, key) order until the total fits.
``python -m repro cache --prune`` applies the same walk offline via
:meth:`ResultCache.enforce_limit` and reports exactly what it deleted.

The disk helpers beside :func:`version_tag` — :func:`atomic_write`,
:func:`version_dirs` and :func:`remove_tree` — are shared with the queue
broker's spool and the serve tier's campaign registry.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import re
import tempfile
import threading
import time
import warnings
from dataclasses import KW_ONLY, dataclass, field

#: Bump to invalidate every existing cache entry (layout/pickle changes).
CACHE_SCHEMA_VERSION = 1

#: Name of the root-level persistent hit/miss tally (survives version
#: rotation; reset by ``repro cache --prune``).
STATS_NAME = "stats.json"

#: Sentinel distinguishing "no entry" from a cached falsy value.
MISS = object()

_FINGERPRINT: str | None = None

_STAMP_LOCK = threading.Lock()
_LAST_STAMP = 0


def cache_max_bytes() -> int | None:
    """The ``$REPRO_CACHE_MAX_BYTES`` bound, or ``None`` for unbounded."""
    env = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        warnings.warn(
            f"ignoring non-integer REPRO_CACHE_MAX_BYTES={env!r}",
            RuntimeWarning, stacklevel=2)
        return None
    return value if value > 0 else None


def code_fingerprint() -> str:
    """Hex fingerprint of the installed ``repro`` package source.

    Hashing every ``.py`` file is deliberately conservative: a one-line
    change anywhere in the simulator invalidates the cache, which is the
    only safe default for a research artifact whose numbers must always
    reflect the checked-out code.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = pathlib.Path(repro.__file__).resolve().parent
        digest = hashlib.sha256(
            f"schema={CACHE_SCHEMA_VERSION}".encode("utf-8"))
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


def version_tag() -> str:
    """Directory name binding on-disk artifacts to this exact code.

    Shared by the result cache and the queue broker's spool: both must
    rotate together, or a worker built from different code could serve
    results the runner's cache would consider current.
    """
    return f"v{CACHE_SCHEMA_VERSION}-{code_fingerprint()}"


def version_dirs(root) -> list[pathlib.Path]:
    """The version directories under ``root``, sorted by name; read-only.

    Only names of the exact shape :func:`version_tag` emits count:
    garbage collectors (``cache --prune``, ``queue --gc``) must never
    touch an operator's ``venv``/``vendor`` sitting next to the spool or
    cache.  A missing or unreadable root lists nothing.
    """
    try:
        children = sorted(pathlib.Path(root).iterdir())
    except OSError:
        return []
    return [child for child in children
            if re.fullmatch(r"v\d+-[0-9a-f]{16}", child.name)
            and child.is_dir()]


def atomic_write(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and ``os.replace``.

    Readers see the old file or the new one, never a torn write; the temp
    file is removed when anything fails, and the ``OSError`` propagates.
    """
    path = pathlib.Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def remove_tree(directory, suffix: str = "") -> int:
    """Best-effort recursive delete of ``directory``.

    Returns how many removed files end in ``suffix`` (every file when
    empty).  A file another process holds or recreates just survives
    until the next collection.
    """
    removed = 0
    for path in sorted(pathlib.Path(directory).rglob("*"), reverse=True):
        try:
            if path.is_dir():
                path.rmdir()
            else:
                path.unlink()
                if path.name.endswith(suffix):
                    removed += 1
        except OSError:
            pass
    try:
        pathlib.Path(directory).rmdir()
    except OSError:
        pass
    return removed


def user_cache_dir() -> pathlib.Path:
    """``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``: the base of
    every default on-disk location (result cache, serve state)."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg).expanduser() if xdg \
        else pathlib.Path.home() / ".cache"
    return base / "repro"


def default_cache_root() -> pathlib.Path:
    """Resolve the cache root: ``$REPRO_CACHE_DIR``, else
    :func:`user_cache_dir`."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env).expanduser()
    return user_cache_dir()


def _next_stamp() -> int:
    """Process-wide, strictly increasing nanosecond mtime stamp.

    Plain ``os.utime(path)`` takes the file-system clock, which gives
    every file touched within one tick the same mtime and so loses their
    order.
    """
    global _LAST_STAMP
    with _STAMP_LOCK:
        _LAST_STAMP = max(time.time_ns(), _LAST_STAMP + 1)
        return _LAST_STAMP


def _scan(directory: pathlib.Path) -> list[tuple[int, str, int]]:
    """``(mtime_ns, key, size)`` of every entry in ``directory``."""
    found = []
    try:
        with os.scandir(directory) as entries:
            for entry in entries:
                if not entry.name.endswith(".pkl"):
                    continue
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                found.append((stat.st_mtime_ns, entry.name[:-4],
                              stat.st_size))
    except OSError:
        pass
    return found


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0


@dataclass
class ResultCache:
    """Pickle-per-key result store under a versioned directory.

    ``max_bytes`` bounds the total payload of the current version
    directory; ``None`` means unbounded (entries are still stamped, so a
    bound can be applied later with :meth:`enforce_limit` or
    ``python -m repro cache --prune``).
    """

    root: pathlib.Path
    _: KW_ONLY
    max_bytes: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    _writable: bool | None = field(default=None, repr=False)
    #: How much of ``stats`` has already been merged into the persistent
    #: root-level tally (see :meth:`persist_stats`).
    _flushed_hits: int = field(default=0, repr=False)
    _flushed_misses: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self.root = pathlib.Path(self.root).expanduser()

    @classmethod
    def default(cls) -> "ResultCache":
        """Cache at ``$REPRO_CACHE_DIR`` / XDG / ``~/.cache/repro``,
        bounded by ``$REPRO_CACHE_MAX_BYTES`` when set."""
        return cls(root=default_cache_root(), max_bytes=cache_max_bytes())

    @property
    def version_dir(self) -> pathlib.Path:
        return self.root / version_tag()

    def _path(self, key: str) -> pathlib.Path:
        return self.version_dir / f"{key}.pkl"

    # -- read ----------------------------------------------------------

    def get(self, key: str):
        """Cached value for ``key``, or the :data:`MISS` sentinel."""
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return MISS
        except Exception:
            # Corrupt or unreadable entry: drop it and treat as a miss.
            # Arbitrary bytes can make the unpickler raise nearly anything
            # (UnpicklingError, EOFError, ValueError, ImportError, ...).
            self.stats.errors += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return MISS
        self.stats.hits += 1
        stamp = _next_stamp()
        try:
            os.utime(path, ns=(stamp, stamp))
        except OSError:
            pass  # a read-only store still serves hits
        return value

    # -- write ---------------------------------------------------------

    def put(self, key: str, value) -> bool:
        """Persist ``value`` under ``key`` (atomic rename); True on success."""
        if self._writable is False:
            return False
        path = self._path(key)
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, data)
            stamp = _next_stamp()
            os.utime(path, ns=(stamp, stamp))
        except OSError as exc:
            if self._writable is not False:
                self._writable = False
                warnings.warn(
                    f"result cache at {path.parent} is not writable "
                    f"({exc}); continuing without persistence",
                    RuntimeWarning, stacklevel=2)
            self.stats.errors += 1
            return False
        self._writable = True
        self.stats.writes += 1
        if self.max_bytes is not None:
            self.enforce_limit()
        return True

    def flush(self) -> None:
        """Merge this instance's hit/miss counts into the persistent
        tally (the runner calls this once per batch)."""
        self.persist_stats()

    # -- LRU bound -----------------------------------------------------

    def plan_evictions(self) -> list[tuple[str, int]]:
        """What :meth:`enforce_limit` *would* evict, without deleting.

        The LRU victims ``(key, size)``, oldest first: one directory scan
        ordered by (mtime, key).  Reads only, so ``cache --prune
        --dry-run`` reports from here.
        """
        if self.max_bytes is None:
            return []
        scanned = sorted(_scan(self.version_dir))
        total = sum(size for _, _, size in scanned)
        victims = []
        for _, key, size in scanned:
            if total <= self.max_bytes:
                break
            victims.append((key, size))
            total -= size
        return victims

    def enforce_limit(self) -> list[tuple[str, int]]:
        """Apply the LRU byte bound now; returns evicted ``(key, size)``.

        This is the offline arm of the same policy :meth:`put` applies
        inline — ``python -m repro cache --prune`` calls it so a freshly
        lowered ``$REPRO_CACHE_MAX_BYTES`` takes effect immediately.
        """
        victims = self.plan_evictions()
        for key, _ in victims:
            try:
                self._path(key).unlink()
            except OSError:
                pass  # already gone
        return victims

    # -- persistent hit/miss tally -------------------------------------
    #
    # ``<root>/stats.json`` accumulates hits and misses across runs —
    # the data behind ``repro cache --stats``'s hit-rate — with a
    # ``since`` wall-clock stamp marking the window start.  It lives at
    # the root (not in the version directory) so a code change does not
    # silently reset the window; ``cache --prune`` resets it
    # explicitly.  All writes are best-effort and atomic; a read-only
    # cache location simply never persists the tally.

    def _stats_path(self) -> pathlib.Path:
        return self.root / STATS_NAME

    def _load_persisted_stats(self) -> dict:
        try:
            data = json.loads(self._stats_path().read_text("utf-8"))
            since = data.get("since")
            return {"hits": int(data.get("hits", 0)),
                    "misses": int(data.get("misses", 0)),
                    "since": float(since) if since is not None else None}
        except Exception:
            return {"hits": 0, "misses": 0, "since": None}

    def _save_stats(self, data: dict) -> bool:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write(self._stats_path(),
                         json.dumps(data, separators=(",", ":"))
                         .encode("utf-8"))
        except OSError:
            return False  # best-effort: the tally is advisory
        return True

    def persist_stats(self) -> None:
        """Merge this instance's unflushed hits/misses into the tally."""
        delta_hits = self.stats.hits - self._flushed_hits
        delta_misses = self.stats.misses - self._flushed_misses
        if not delta_hits and not delta_misses:
            return
        data = self._load_persisted_stats()
        data["hits"] += delta_hits
        data["misses"] += delta_misses
        if data["since"] is None:
            data["since"] = time.time()
        if self._save_stats(data):
            self._flushed_hits = self.stats.hits
            self._flushed_misses = self.stats.misses

    def reset_persisted_stats(self) -> None:
        """Restart the hit-rate window (``cache --prune`` calls this)."""
        self._save_stats({"hits": 0, "misses": 0, "since": time.time()})
        self._flushed_hits = self.stats.hits
        self._flushed_misses = self.stats.misses

    def usage_report(self) -> dict:
        """Read-only snapshot behind ``repro cache --stats``.

        Entry counts and byte totals per version directory under the
        root, plus the persistent hit/miss tally (combined with this
        instance's unflushed lookups).  Touches nothing on disk.
        """
        current = self.version_dir.name
        versions = []
        for directory in version_dirs(self.root):
            scanned = _scan(directory)
            versions.append({"version": directory.name,
                             "current": directory.name == current,
                             "entries": len(scanned),
                             "bytes": sum(size for _, _, size in scanned)})
        mine = next((entry for entry in versions if entry["current"]),
                    {"entries": 0, "bytes": 0})
        tally = self._load_persisted_stats()
        hits = tally["hits"] + (self.stats.hits - self._flushed_hits)
        misses = tally["misses"] + (self.stats.misses
                                    - self._flushed_misses)
        lookups = hits + misses
        return {"root": str(self.root), "version": current,
                "max_bytes": self.max_bytes,
                "entries": mine["entries"], "bytes": mine["bytes"],
                "versions": versions,
                "hits": hits, "misses": misses,
                "hit_rate": (hits / lookups) if lookups else None,
                "since": tally["since"]}

    def attach_metrics(self, registry) -> None:
        """Register cache instruments on a :class:`MetricsRegistry`.

        Callback-backed gauges read the live ``stats`` and the version
        directory, so a metrics scrape always reflects the current
        store without any per-operation update plumbing.
        """
        registry.gauge("cache_entries", "Entries in the current version",
                       fn=self.entry_count)
        registry.gauge("cache_bytes",
                       "Payload bytes in the current version",
                       fn=self.total_bytes)
        registry.gauge("cache_hits", "Cache hits this process",
                       fn=lambda: self.stats.hits)
        registry.gauge("cache_misses", "Cache misses this process",
                       fn=lambda: self.stats.misses)
        registry.gauge("cache_writes", "Cache writes this process",
                       fn=lambda: self.stats.writes)
        registry.gauge("cache_errors",
                       "Cache read/write errors this process",
                       fn=lambda: self.stats.errors)

    # -- maintenance ---------------------------------------------------

    def entry_count(self) -> int:
        return len(_scan(self.version_dir))

    def total_bytes(self) -> int:
        """Total payload bytes of the current version."""
        return sum(size for _, _, size in _scan(self.version_dir))

    def stale_versions(self) -> list[tuple[str, int]]:
        """Version directories :meth:`prune_stale` would delete.

        Read-only: returns ``(name, entry_count)`` per stale version,
        sorted by name, touching nothing.
        """
        current = self.version_dir.name
        return [(directory.name, len(_scan(directory)))
                for directory in version_dirs(self.root)
                if directory.name != current]

    def prune_stale(self) -> int:
        """Delete version directories other than the current one;
        returns the number of entries removed."""
        current = self.version_dir.name
        return sum(remove_tree(directory, ".pkl")
                   for directory in version_dirs(self.root)
                   if directory.name != current)

    def clear(self) -> int:
        """Delete every entry of the current version (returns count)."""
        removed = 0
        for path in self.version_dir.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
