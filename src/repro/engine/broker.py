"""Filesystem spool broker: the wire protocol of the queue backend.

The broker turns a shared directory (``$REPRO_QUEUE_DIR`` or the
``--queue`` flag) into a crash-tolerant work queue for per-trace shards.
No server process is involved: every operation is a plain, atomic
filesystem action, so any number of runners and detached workers — on
one machine or on several sharing a network filesystem — can cooperate
through it.

Spool layout
------------
Inside the queue root the broker works under a **version directory**
named after the cache schema version plus the fingerprint of the whole
``repro`` package source (the same fingerprint the result cache uses).
A worker built from different code therefore never claims shards it
would simulate differently — it simply sees an empty spool.  The version
directory contains::

    pending/<key>.job     pickled shard waiting to be claimed
    claimed/<key>.job     shard leased by a worker (renamed from pending/)
    claimed/<key>.hb      the lease's heartbeat file (mtime = last beat)
    done/<key>.pkl        pickled WireResult envelope, written atomically
    failed/<key>.err      worker-side exception (text: repr + traceback)
    quarantine/           corrupt payloads, moved aside for post-mortem

``<key>`` is the shard's canonical job key
(:func:`repro.engine.jobs.job_key`), so the spool inherits the engine's
content-addressed identity: submitting the same shard twice is a no-op,
and a ``done/`` file left over from an interrupted batch is still a
valid answer for the next batch that needs that key.

Lease protocol
--------------
A worker claims a shard by **renaming** ``pending/<key>.job`` to
``claimed/<key>.job`` — atomic on POSIX, so exactly one worker wins —
and immediately writes the heartbeat file (its content is the worker's
identity, the lease's ownership token), which it keeps touching while
it executes.  The runner's collector watches each claim's heartbeat
mtime and treats the lease as dead once the mtime has not *changed* for
``lease_timeout`` seconds of the collector's own monotonic clock
(SIGKILLed or wedged worker); staleness is never judged by comparing a
remote mtime against local wall-clock time, so clock skew between
machines sharing the spool cannot expire a healthy lease.  A dead
shard is renamed back to ``pending/`` for another worker, bounded by
the backend's retry budget.  A straggler that was presumed dead but
finishes anyway just rewrites ``done/<key>.pkl`` — results are
deterministic per key (only the :class:`WireResult` envelope's worker
tag and timing can differ between attempts), so late double-writes are
harmless and each key is still collected exactly once — and the
ownership token keeps it from publishing failures for, or deleting, a
lease that has since been re-claimed by another worker.

Everything here is runner/worker-symmetric: the
:class:`~repro.engine.backends.QueueBackend` drives the submit/poll
side, ``python -m repro worker`` drives :func:`run_worker_loop`.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import pickle
import socket
import threading
import time
import traceback
from dataclasses import dataclass

from repro.engine.cache import atomic_write, remove_tree, version_dirs, \
    version_tag
from repro.errors import ConfigError

#: Environment variable naming the spool root for runners and workers.
QUEUE_DIR_ENV = "REPRO_QUEUE_DIR"

#: Environment variable overriding the default lease timeout (seconds).
LEASE_ENV = "REPRO_QUEUE_LEASE_S"

#: A worker lease with no heartbeat for this long is considered dead.
DEFAULT_LEASE_TIMEOUT_S = 60.0


def default_queue_root() -> str | None:
    """The ``$REPRO_QUEUE_DIR`` spool root, or ``None`` when unset."""
    return os.environ.get(QUEUE_DIR_ENV) or None


def default_lease_timeout() -> float:
    """The ``$REPRO_QUEUE_LEASE_S`` override, else the default."""
    env = os.environ.get(LEASE_ENV)
    if not env:
        return DEFAULT_LEASE_TIMEOUT_S
    try:
        value = float(env)
    except ValueError:
        raise ConfigError(f"{LEASE_ENV} must be a number of seconds, "
                          f"got {env!r}")
    if value <= 0:
        raise ConfigError(f"{LEASE_ENV} must be positive, got {env!r}")
    return value


def validated_queue_root(root) -> pathlib.Path:
    """Resolve and validate a spool root, failing with a clean message.

    A root that exists but is a plain file, cannot be created (parent is
    a file, permission denied), or is not writable raises
    :class:`~repro.errors.ConfigError` instead of letting a raw
    ``OSError`` traceback escape to the operator.
    """
    if not root:
        raise ConfigError(
            "the queue backend needs a spool directory: pass --queue DIR "
            f"or set ${QUEUE_DIR_ENV}")
    path = pathlib.Path(root).expanduser()
    if path.exists() and not path.is_dir():
        raise ConfigError(
            f"queue directory {path} exists but is not a directory "
            f"(check ${QUEUE_DIR_ENV})")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create queue directory {path}: {exc}")
    probe = path / f".probe-{os.getpid()}-{threading.get_ident()}"
    try:
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"queue directory {path} is not writable: {exc}")
    return path


# ----------------------------------------------------------------------
# Poll events (runner side)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WireResult:
    """A shard result plus its execution envelope: the one completion
    record every backend delivers to the runner.

    The worker's identity and its own monotonic measure of execute time
    ride along, so the runner can attribute execution without any
    cross-machine clock agreement (durations only, never timestamps).
    Serial and pool members get theirs from
    :func:`~repro.engine.executors.execute_chunk`; queue workers publish
    theirs as the one ``done/`` payload format.  The runner unwraps it
    before the result reaches the engine memo, so cached and golden
    results are the bare executor results.  The spool is
    version-fingerprinted (workers built from different code see an
    empty spool), so a payload from older code is never read.
    """

    result: object
    worker: str = ""
    execute_s: float = 0.0


@dataclass(frozen=True)
class CompletedEvent:
    """A shard's result landed in ``done/`` and was collected;
    ``result`` is its :class:`WireResult` envelope."""

    key: str
    result: WireResult


@dataclass(frozen=True)
class FailedEvent:
    """A worker executed the shard and it raised; ``error`` is the
    worker-side repr + traceback text."""

    key: str
    error: str


@dataclass(frozen=True)
class ExpiredEvent:
    """A claim's heartbeat went stale; the shard is back in ``pending/``."""

    key: str


@dataclass(frozen=True)
class CorruptEvent:
    """A ``done/`` payload failed to unpickle and was quarantined."""

    key: str
    quarantined: pathlib.Path


@dataclass(frozen=True)
class LostEvent:
    """No spool file exists for an outstanding shard.

    Happens when a corrupt ``pending/`` payload was quarantined by a
    claiming worker, or when another runner sharing the spool collected
    (and cleaned up) a key this runner still needs.  The caller should
    re-submit the shard — results are content-addressed, so the worst
    case is one redundant execution.  Because the poll's directory
    probes are not one atomic snapshot, a shard mid-transition can look
    lost for a single pass; callers debounce (act only on consecutive
    lost polls)."""

    key: str


@dataclass
class Claim:
    """A worker's lease on one shard (see :meth:`SpoolBroker.claim_next`)."""

    key: str
    job: object
    path: pathlib.Path
    heartbeat_path: pathlib.Path
    #: Ownership token: the identity written into the heartbeat file at
    #: claim time.  A straggler whose lease was expired and re-claimed
    #: by another worker no longer owns the heartbeat, and must not
    #: delete the new owner's lease files or publish failures for it.
    owner: str = ""

    def owns(self) -> bool:
        """Whether this claim still holds the lease (token check)."""
        try:
            return self.heartbeat_path.read_text("utf-8") == self.owner
        except OSError:
            return False  # expired (heartbeat removed) or re-claimed

    def heartbeat(self) -> None:
        """Refresh the lease (touch the heartbeat file's mtime)."""
        try:
            os.utime(self.heartbeat_path)
        except OSError:
            pass  # expired by the collector: do not resurrect the lease

    def release(self) -> None:
        """Give the shard back (un-claim it) — e.g. on worker shutdown."""
        if not self.owns():
            return
        try:
            os.rename(self.path, self.path.parent.parent
                      / SpoolBroker.PENDING / self.path.name)
        except OSError:
            pass
        self.discard()

    def discard(self) -> None:
        """Drop the lease bookkeeping files (claim + heartbeat)."""
        for path in (self.heartbeat_path, self.path):
            try:
                path.unlink()
            except OSError:
                pass


class SpoolBroker:
    """Runner/worker-symmetric access to one spool directory."""

    PENDING = "pending"
    CLAIMED = "claimed"
    DONE = "done"
    FAILED = "failed"
    QUARANTINE = "quarantine"

    def __init__(self, root, *, lease_timeout: float | None = None):
        self.root = validated_queue_root(root)
        self.lease_timeout = (default_lease_timeout()
                              if lease_timeout is None else float(lease_timeout))
        if self.lease_timeout <= 0:
            raise ConfigError("lease_timeout must be positive")
        #: Workers refresh their lease a few times per timeout window.
        self.heartbeat_interval = min(1.0, self.lease_timeout / 4.0)
        self.spool = self.root / version_tag()
        #: Collector-side lease watch: key -> (last observed heartbeat
        #: marker, monotonic time of that observation).  Expiry is
        #: judged by the marker not changing for ``lease_timeout`` of
        #: *this* process's monotonic clock — remote mtimes are treated
        #: as opaque tokens, so clock skew between machines sharing the
        #: spool can never expire a healthy lease.
        self._lease_watch: dict[str, tuple[float, float]] = {}
        #: Observability hook (an optional callable, set by the queue
        #: backend's metrics wiring): ``on_lease_lag(seconds)`` reports
        #: how long each watched lease has gone without a heartbeat at
        #: poll time.
        self.on_lease_lag = None
        for name in (self.PENDING, self.CLAIMED, self.DONE, self.FAILED,
                     self.QUARANTINE):
            try:
                (self.spool / name).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(
                    f"cannot create spool directory {self.spool / name}: "
                    f"{exc}")

    # -- paths ---------------------------------------------------------

    @property
    def pending_dir(self) -> pathlib.Path:
        return self.spool / self.PENDING

    @property
    def claimed_dir(self) -> pathlib.Path:
        return self.spool / self.CLAIMED

    @property
    def done_dir(self) -> pathlib.Path:
        return self.spool / self.DONE

    @property
    def failed_dir(self) -> pathlib.Path:
        return self.spool / self.FAILED

    @property
    def quarantine_dir(self) -> pathlib.Path:
        return self.spool / self.QUARANTINE

    # -- runner side ---------------------------------------------------

    def submit(self, key: str, job) -> bool:
        """Spool ``job`` under ``key``; False if already in flight.

        A leftover ``done/`` file (an interrupted batch's published
        result) counts as in flight too: it is already a valid answer
        for this key, and re-spooling the shard would let a worker
        redundantly re-simulate it before the collector's first poll.
        A leftover ``failed/`` report, by contrast, is *stale* — it
        describes an attempt from a batch whose collector died before
        consuming it — and is cleared here so it cannot be charged
        against the new batch's retry budget before a single execution.
        """
        if (self.done_dir / f"{key}.pkl").exists():
            return False
        stale_err = self.failed_dir / f"{key}.err"
        if (self.pending_dir / f"{key}.job").exists():
            # Not yet claimed, so any failure report predates this spool
            # entry: clear it along with declining the duplicate submit.
            try:
                stale_err.unlink()
            except OSError:
                pass
            return False
        if (self.claimed_dir / f"{key}.job").exists():
            return False
        try:
            stale_err.unlink()
        except OSError:
            pass
        payload = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write(self.pending_dir / f"{key}.job", payload)
        return True

    def poll(self, keys) -> list:
        """One collection pass over ``keys``; returns events (see module
        docstring).  Side effects: collected shards have their spool
        files removed, corrupt results are quarantined, expired claims
        are renamed back to ``pending/``.

        Each spool directory is listed **once** per pass (one scandir
        each) instead of probing four paths per key — on the network
        filesystems the queue targets, per-key stat round-trips would
        make the collector itself the bottleneck for large batches.
        """
        events = []
        now = time.monotonic()
        # List in lifecycle order (a worker publishes done/failed before
        # dropping its claim): a shard that moves on between two listings
        # shows up in a later one, so a live shard is never reported lost.
        pending_names = self._names(self.pending_dir)
        claimed_stats = self._stats(self.claimed_dir)
        done_names = self._names(self.done_dir)
        failed_names = self._names(self.failed_dir)
        for key in sorted(keys):
            if f"{key}.pkl" in done_names:
                done_path = self.done_dir / f"{key}.pkl"
                try:
                    with done_path.open("rb") as handle:
                        result = pickle.load(handle)
                except FileNotFoundError:
                    pass  # vanished since the scan: resolve next pass
                except Exception:
                    events.append(CorruptEvent(key,
                                               self._quarantine(done_path)))
                else:
                    self.forget(key)
                    events.append(CompletedEvent(key, result))
                continue
            if f"{key}.err" in failed_names:
                failed_path = self.failed_dir / f"{key}.err"
                try:
                    error = failed_path.read_text("utf-8")
                except OSError:
                    pass
                else:
                    try:
                        failed_path.unlink()
                    except OSError:
                        pass
                    events.append(FailedEvent(key, error))
                    continue
            claim_stat = claimed_stats.get(f"{key}.job")
            if claim_stat is not None:
                heartbeat = claimed_stats.get(f"{key}.hb")
                # The claim rename bumps st_ctime, covering the tiny
                # window between a worker's rename and its first
                # heartbeat write.
                marker = heartbeat.st_mtime if heartbeat is not None \
                    else claim_stat.st_ctime
                watched = self._lease_watch.get(key)
                if watched is None or watched[0] != marker:
                    # New claim, or the heartbeat moved: (re)start the
                    # local staleness clock for this lease.
                    self._lease_watch[key] = (marker, now)
                elif now - watched[1] > self.lease_timeout:
                    if self._expire(key, self.claimed_dir / f"{key}.job"):
                        events.append(ExpiredEvent(key))
                    self._lease_watch.pop(key, None)
                elif self.on_lease_lag is not None:
                    # Healthy-but-lagging lease: how stale is the beat?
                    self.on_lease_lag(now - watched[1])
                continue
            if f"{key}.job" in pending_names:
                continue  # waiting for a worker: nothing to do yet
            events.append(LostEvent(key))
        return events

    @staticmethod
    def _names(directory: pathlib.Path) -> set:
        """One-scandir snapshot of a spool directory's entry names."""
        try:
            with os.scandir(directory) as entries:
                return {entry.name for entry in entries}
        except OSError:
            return set()

    @staticmethod
    def _stats(directory: pathlib.Path) -> dict:
        """One-scandir snapshot of entry names -> stat results."""
        stats = {}
        try:
            with os.scandir(directory) as entries:
                for entry in entries:
                    try:
                        stats[entry.name] = entry.stat()
                    except OSError:
                        pass
        except OSError:
            pass
        return stats

    def _expire(self, key: str, claimed_path: pathlib.Path) -> bool:
        """Re-dispatch a dead claim: rename it back into ``pending/``."""
        try:
            os.rename(claimed_path, self.pending_dir / f"{key}.job")
        except OSError:
            return False  # the worker finished (or another runner won)
        try:
            (self.claimed_dir / f"{key}.hb").unlink()
        except OSError:
            pass
        return True

    def _quarantine(self, path: pathlib.Path) -> pathlib.Path:
        """Move a corrupt payload aside (uniquely named), best effort."""
        for attempt in range(1000):
            target = self.quarantine_dir / f"{path.name}.{attempt}"
            if target.exists():
                continue
            try:
                os.rename(path, target)
                return target
            except FileNotFoundError:
                break
            except OSError:
                break
        try:  # could not move it: drop it so it is not re-read forever
            path.unlink()
        except OSError:
            pass
        return self.quarantine_dir / f"{path.name}.lost"

    def forget(self, key: str) -> None:
        """Remove every spool file of ``key`` (collected or abandoned)."""
        self._lease_watch.pop(key, None)
        for path in (self.pending_dir / f"{key}.job",
                     self.claimed_dir / f"{key}.job",
                     self.claimed_dir / f"{key}.hb",
                     self.done_dir / f"{key}.pkl",
                     self.failed_dir / f"{key}.err"):
            try:
                path.unlink()
            except OSError:
                pass

    # -- worker side ---------------------------------------------------

    def claim_next(self, worker_id: str = "", key: str | None = None):
        """Atomically claim one pending shard (rename-based lease).

        Returns a :class:`Claim` or ``None`` when nothing is claimable.
        ``key`` restricts the claim to one specific shard (used by tests
        that script exact interleavings).  A pending file that fails to
        unpickle is quarantined and skipped.
        """
        if key is not None:
            candidates = [self.pending_dir / f"{key}.job"]
        else:
            try:
                candidates = sorted(self.pending_dir.glob("*.job"))
            except OSError:
                return None
        owner = worker_id or worker_identity()
        for path in candidates:
            target = self.claimed_dir / path.name
            try:
                os.rename(path, target)
            except OSError:
                continue  # claimed by someone else (or vanished)
            heartbeat = self.claimed_dir / f"{path.stem}.hb"
            try:
                heartbeat.write_text(owner, encoding="utf-8")
            except OSError:
                pass
            try:
                with target.open("rb") as handle:
                    job = pickle.load(handle)
            except Exception:
                self._quarantine(target)
                try:
                    heartbeat.unlink()
                except OSError:
                    pass
                continue
            return Claim(key=path.stem, job=job, path=target,
                         heartbeat_path=heartbeat, owner=owner)
        return None

    def complete(self, claim: Claim, result, *,
                 execute_s: float = 0.0) -> None:
        """Publish a claimed shard's result and drop the lease.

        The payload is always a :class:`WireResult`: the result plus the
        claim's owner as the worker tag and the execute seconds the
        worker measured.  It is always published — deterministic per
        key, so a straggler finishing after its lease was re-claimed
        only speeds the batch up (its double-write is a valid answer
        even if the envelope differs) — but the lease files are deleted
        only by their current owner, never out from under a re-claiming
        worker.
        """
        wire = WireResult(result=result, worker=claim.owner,
                          execute_s=float(execute_s))
        payload = pickle.dumps(wire, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write(self.done_dir / f"{claim.key}.pkl", payload)
        if claim.owns():
            claim.discard()

    def fail(self, claim: Claim, exc: BaseException) -> None:
        """Publish a claimed shard's failure and drop the lease.

        A straggler that no longer owns the lease stays silent: another
        worker is (or was) legitimately executing the shard, and a stale
        failure report would charge the retry budget for nothing.
        """
        if not claim.owns():
            return
        text = "".join(traceback.format_exception(type(exc), exc,
                                                  exc.__traceback__))
        atomic_write(self.failed_dir / f"{claim.key}.err",
                     text.encode("utf-8"))
        claim.discard()


def _existing_spool_root(root) -> pathlib.Path:
    """The spool root for read-only walks; never creates anything.

    A missing root is a :class:`~repro.errors.ConfigError`: inspecting
    or collecting a typo'd path must not leave a real-looking empty
    spool behind.
    """
    if not root:
        raise ConfigError(
            "spool introspection needs a spool directory: pass --queue DIR "
            f"or set ${QUEUE_DIR_ENV}")
    path = pathlib.Path(root).expanduser()
    if not path.is_dir():
        raise ConfigError(f"queue directory {path} does not exist "
                          f"(check ${QUEUE_DIR_ENV})")
    return path


def spool_status(root, *, now: float | None = None) -> dict:
    """Read-only depth/age introspection over every spool version.

    Returns a mapping with the spool ``root``, the ``current_version``
    tag of this process's code, and one entry per version directory
    found under the root: pending/claimed/done/failed shard counts plus
    the age in seconds of the oldest ``pending/`` shard (``None`` when
    nothing is pending).  This is the data source of ``repro queue``'s
    report and of the serve tier's ``/v1/metrics`` endpoint, so both
    surfaces agree by construction.

    Strictly read-only: no :class:`SpoolBroker` is built (its
    constructor creates the spool tree) and nothing is created.
    """
    path = _existing_spool_root(root)
    if now is None:
        now = time.time()
    versions = []
    for child in version_dirs(path):
        counts = {
            SpoolBroker.PENDING: 0,
            SpoolBroker.CLAIMED: 0,
            SpoolBroker.DONE: 0,
            SpoolBroker.FAILED: 0,
        }
        suffixes = {SpoolBroker.PENDING: ".job", SpoolBroker.CLAIMED: ".job",
                    SpoolBroker.DONE: ".pkl", SpoolBroker.FAILED: ".err"}
        oldest_pending: float | None = None
        for name, suffix in suffixes.items():
            try:
                with os.scandir(child / name) as entries:
                    for entry in entries:
                        if not entry.name.endswith(suffix):
                            continue
                        counts[name] += 1
                        if name == SpoolBroker.PENDING:
                            try:
                                mtime = entry.stat().st_mtime
                            except OSError:
                                continue
                            if oldest_pending is None \
                                    or mtime < oldest_pending:
                                oldest_pending = mtime
            except OSError:
                pass
        versions.append({
            "version": child.name,
            "current": child.name == version_tag(),
            "pending": counts[SpoolBroker.PENDING],
            "claimed": counts[SpoolBroker.CLAIMED],
            "done": counts[SpoolBroker.DONE],
            "failed": counts[SpoolBroker.FAILED],
            "oldest_pending_age_s":
                None if oldest_pending is None
                else max(0.0, now - oldest_pending),
        })
    return {"root": str(path), "current_version": version_tag(),
            "versions": versions}


def prune_stale_versions(root) -> list[tuple[str, int]]:
    """Delete spool version directories left by older code versions.

    The spool is code-versioned (see the module docstring): every code
    change strands the previous version directory, along with any
    pending/claimed/done payloads inside it, and nothing ever reclaims
    them.  This is the garbage collector: it removes every version
    directory under ``root`` other than the current
    :func:`~repro.engine.cache.version_tag` and returns
    ``(directory_name, files_removed)`` pairs, oldest-named first.
    Best-effort like the cache's pruner — a file another process holds
    open just survives until the next collection.  Only directories
    whose names have the exact version-tag shape are touched
    (:func:`~repro.engine.cache.version_dirs`): anything else an
    operator keeps beside the spool — a ``venv``, notes, other tools'
    state — is not ours to delete.  Like :func:`spool_status` it never
    creates the root: a missing one raises
    :class:`~repro.errors.ConfigError`.
    """
    current = version_tag()
    return [(child.name, remove_tree(child))
            for child in version_dirs(_existing_spool_root(root))
            if child.name != current]


def worker_identity() -> str:
    """Best-effort unique id for heartbeat files (debugging aid only)."""
    return f"{socket.gethostname()}:{os.getpid()}:{threading.get_ident()}"


@contextlib.contextmanager
def _heartbeat_pump(claim: Claim, interval: float):
    """Refresh ``claim``'s lease from a background thread while the
    ``with`` body executes its shard."""
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval):
            claim.heartbeat()

    thread = threading.Thread(target=beat, daemon=True, name="hb")
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def run_worker_loop(broker: SpoolBroker, *,
                    stop: threading.Event | None = None,
                    poll_interval: float = 0.2,
                    idle_exit: float | None = None,
                    max_shards: int | None = None) -> tuple[int, int]:
    """Claim-execute-publish loop shared by ``repro worker`` and the
    queue backend's in-process workers.

    Runs until ``stop`` is set, ``max_shards`` shards have been
    attempted, or nothing has been claimable for ``idle_exit`` seconds
    (``None`` = wait forever).  Returns ``(completed, failed)`` counts —
    failed attempts are published to ``failed/`` (the loop keeps
    serving) and are *not* reported as completed work.  Each claim
    leases one shard.  ``KeyboardInterrupt``/``SystemExit`` release the
    in-flight claim back to ``pending/`` and re-raise.
    """
    from repro.engine.executors import execute_job

    completed = failed = 0
    idle_since = time.monotonic()
    while stop is None or not stop.is_set():
        # Bound checked *before* claiming: --max-shards 0 means zero.
        if max_shards is not None and completed + failed >= max_shards:
            break
        claim = broker.claim_next()
        if claim is None:
            if idle_exit is not None \
                    and time.monotonic() - idle_since >= idle_exit:
                break
            if stop is not None:
                if stop.wait(poll_interval):
                    break
            else:
                time.sleep(poll_interval)
            continue
        with _heartbeat_pump(claim, broker.heartbeat_interval):
            try:
                started = time.perf_counter()
                result = execute_job(claim.job)
                elapsed = time.perf_counter() - started
            except Exception as exc:
                broker.fail(claim, exc)
                failed += 1
            except BaseException:
                claim.release()
                raise
            else:
                # Worker-measured execute time rides back in the
                # WireResult envelope so the runner can attribute
                # remote execution without clock agreement.
                broker.complete(claim, result, execute_s=elapsed)
                completed += 1
        # Reset *after* each shard: execution time is work, not
        # idleness, so a long simulation cannot trip --idle-exit on its
        # own.
        idle_since = time.monotonic()
    return completed, failed


def worker_main(root, *, lease_timeout: float | None = None,
                poll_interval: float = 0.2,
                idle_exit: float | None = None,
                max_shards: int | None = None) -> tuple[int, int]:
    """Entry point for one worker process (used by ``repro worker``).

    Module-level so ``multiprocessing`` can spawn it for
    ``--concurrency N``: each child builds its own broker handle on the
    shared spool and runs an independent claim loop.
    """
    if os.environ.get("REPRO_SELFTEST_WORKER_CRASH"):
        # Test-only: lets the suite prove that crashed worker children
        # surface as a non-zero ``repro worker`` exit instead of a
        # silent success over an unserved spool.
        raise RuntimeError("injected worker crash (selftest)")
    broker = SpoolBroker(root, lease_timeout=lease_timeout)
    try:
        return run_worker_loop(broker, poll_interval=poll_interval,
                               idle_exit=idle_exit, max_shards=max_shards)
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        return 0, 0


class WorkerSupervisor:
    """Sizes a ``repro worker`` fleet to queue depth and heals crashes.

    The supervisor owns a set of worker child processes serving one
    spool.  Each :meth:`poll_once` pass (a) reaps exited children,
    charging crashed ones (non-zero exit with work still pending)
    against a respawn budget of :attr:`MAX_RESPAWNS`, (b) measures the
    backlog with one ``pending/`` scandir, and (c) spawns workers up to
    ``ceil(backlog / SHARDS_PER_WORKER)``, at most ``max_workers``.
    Children run :func:`worker_main` with ``idle_exit`` set, so an
    over-provisioned fleet shrinks itself to zero — the supervisor only
    ever has to grow it.

    ``spawn`` is injectable for tests: any callable returning an object
    with ``is_alive()``, ``exitcode`` and ``join(timeout)``.
    """

    #: Pending shards one worker is expected to serve.
    SHARDS_PER_WORKER = 4
    #: Crash respawns allowed (with work still pending) before
    #: :meth:`poll_once` gives up on a crash-looping fleet.
    MAX_RESPAWNS = 8

    def __init__(self, root, *, max_workers: int,
                 poll_interval: float = 0.5,
                 idle_exit: float = 2.0,
                 worker_poll: float = 0.2,
                 lease_timeout: float | None = None,
                 spawn=None):
        if max_workers < 1:
            raise ConfigError(f"supervisor needs max_workers >= 1 "
                              f"(got {max_workers})")
        self.broker = SpoolBroker(root, lease_timeout=lease_timeout)
        self.max_workers = int(max_workers)
        self.poll_interval = float(poll_interval)
        self.idle_exit = float(idle_exit)
        self.worker_poll = float(worker_poll)
        self.lease_timeout = lease_timeout
        self.spawn = spawn or self._spawn_process
        self.children: list = []
        self.spawned = 0
        self.crashed = 0
        self.respawns = 0

    def attach_metrics(self, registry) -> None:
        """Register fleet gauges on a :class:`MetricsRegistry`.

        Callback-backed gauges, so a scrape always sees the live fleet —
        no per-poll update plumbing in :meth:`poll_once`.
        """
        registry.gauge("supervisor_fleet",
                       "Live supervised worker processes",
                       fn=lambda: len(self.children))
        registry.gauge("supervisor_spawned",
                       "Workers spawned since supervisor start",
                       fn=lambda: self.spawned)
        registry.gauge("supervisor_crashed",
                       "Worker crashes observed (non-zero exit)",
                       fn=lambda: self.crashed)
        registry.gauge("supervisor_respawns",
                       "Crash respawns charged against the budget",
                       fn=lambda: self.respawns)
        registry.gauge("queue_backlog_shards",
                       "Unclaimed shards in the supervised spool",
                       fn=self.backlog)

    # -- fleet mechanics -----------------------------------------------

    def _spawn_process(self):
        """Default spawn: one detached ``worker_main`` child process."""
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        process = context.Process(
            target=worker_main,
            args=(str(self.broker.root),),
            kwargs=dict(lease_timeout=self.lease_timeout,
                        poll_interval=self.worker_poll,
                        idle_exit=self.idle_exit),
        )
        process.start()
        return process

    def backlog(self) -> int:
        """Unclaimed shards in the spool (one ``pending/`` scandir)."""
        try:
            with os.scandir(self.broker.pending_dir) as entries:
                return sum(1 for entry in entries
                           if entry.name.endswith(".job"))
        except OSError:
            return 0

    def desired(self, backlog: int) -> int:
        """Fleet size for ``backlog`` pending shards."""
        need = -(-backlog // self.SHARDS_PER_WORKER)  # ceil
        return min(self.max_workers, need)

    def poll_once(self) -> dict:
        """One supervision pass; returns fleet counters (for status)."""
        alive = []
        crashed_now = 0
        for child in self.children:
            if child.is_alive():
                alive.append(child)
            elif child.exitcode not in (0, None):
                crashed_now += 1
        self.children = alive
        backlog = self.backlog()
        if crashed_now:
            self.crashed += crashed_now
            if backlog > 0:
                # A crash with work still pending is respawnable — but
                # a crash-looping fleet (bad install, poisoned shard
                # kind) must not burn CPU forever.
                self.respawns += crashed_now
                if self.respawns > self.MAX_RESPAWNS:
                    raise RuntimeError(
                        f"worker supervisor: {self.crashed} worker "
                        f"crash(es) with work still pending exceeded "
                        f"the respawn budget ({self.MAX_RESPAWNS}); "
                        f"check 'repro queue --queue {self.broker.root}' "
                        f"and the worker logs")
        target = self.desired(backlog)
        while len(self.children) < target:
            self.children.append(self.spawn())
            self.spawned += 1
        return {"backlog": backlog, "alive": len(self.children),
                "target": target, "spawned": self.spawned,
                "crashed": self.crashed}

    def run(self, stop: threading.Event | None = None) -> dict:
        """Supervise until the spool drains and the fleet exits.

        Returns the final counters.  ``stop`` (optional) ends the loop
        early; children are joined (they exit on their own via
        ``idle_exit``) either way.
        """
        status = {"backlog": 0, "alive": 0, "target": 0,
                  "spawned": self.spawned, "crashed": self.crashed}
        try:
            while stop is None or not stop.is_set():
                status = self.poll_once()
                if status["backlog"] == 0 and status["alive"] == 0:
                    break
                if stop is not None:
                    if stop.wait(self.poll_interval):
                        break
                else:
                    time.sleep(self.poll_interval)
        finally:
            for child in self.children:
                child.join(timeout=self.idle_exit
                           + 4.0 * self.worker_poll + 30.0)
        return status
