"""Crash-safe persistent analysis store (sqlite, stdlib only).

One row per problem fingerprint (:mod:`repro.service.fingerprint`),
holding the verdict record (JSON) and, for inconclusive runs, the
engine snapshot blob (:mod:`repro.reach.snapshot`) that lets a later,
deeper-``k`` request resume instead of starting over.

Layout (``STORE_SCHEMA_VERSION`` 2, tracked via ``PRAGMA
user_version``)::

    analyses(
        fingerprint      TEXT PRIMARY KEY,   -- sha256 hex
        result           TEXT,               -- JSON verdict record
        bound            INTEGER,            -- deepest explored k
        engine           TEXT,               -- lane: explicit|symbolic|auto
        snapshot         BLOB,               -- NULL once conclusive
        snapshot_version INTEGER,
        created          REAL,
        last_used        INTEGER,            -- cross-process LRU clock
        snapshot_bytes   INTEGER
    )
    leases(                                  -- blobs pinned by resuming replicas
        token            TEXT PRIMARY KEY,
        fingerprint      TEXT,
        owner            TEXT,               -- host:pid tag, for debugging
        expires          REAL                -- wall-clock lease deadline
    )
    meta(key TEXT PRIMARY KEY, value INTEGER)  -- 'lru_clock' counter

Robustness contract:

* **Crash safety** — every write commits in its own transaction; WAL
  journaling is enabled best-effort (falls back silently where the
  filesystem refuses).
* **Multi-replica safety** — N daemons may share one store file.  Every
  connection sets ``PRAGMA busy_timeout``, and every transaction is
  additionally routed through a bounded retry-with-jitter loop
  (METER ``store.busy_retries``): ``busy_timeout`` covers plain lock
  waits, the retry loop covers the cases sqlite fails *immediately*
  regardless of timeout (e.g. ``SQLITE_BUSY_SNAPSHOT`` on a
  read-to-write upgrade in WAL mode).  The LRU clock is a monotonic
  counter persisted in the ``meta`` table and bumped inside the same
  write transaction as the row touch, so recency is totally ordered
  *across processes* — an in-process clock would let two replicas hand
  out colliding or regressing ranks.
* **Lease protocol** — a replica about to resume from a snapshot blob
  registers a lease row (:meth:`AnalysisStore.acquire_lease`) and
  releases it once its run has recorded a result.  Eviction never
  frees a blob under a live lease (``store.eviction_lease_skips``
  counts the contention) and reaps *expired* leases first, so a
  crashed replica's lease times out instead of wedging eviction
  forever.
* **Corruption tolerance** — a bad row, an undecodable JSON record, or
  a wholesale-corrupt database file degrade to cache *misses*, never
  to crashes: reads catch :class:`sqlite3.DatabaseError`, and an
  unopenable file is rotated aside to ``<path>.corrupt`` and recreated
  empty.  Busy/locked errors are *never* treated as corruption — a
  contended healthy file must not be rotated away.  (Snapshot blobs are
  validated downstream — the service treats
  :class:`~repro.errors.SnapshotError` as a miss too.)
* **Degraded mode** — when the store location is unusable (read-only
  directory, unwritable file), :func:`open_store` returns a
  :class:`DegradedAnalysisStore`: every read misses, every write drops,
  and ``stats()`` says so — a service must log-and-continue store-less,
  not crash-loop at startup.
* **Schema versioning** — a version mismatch wipes and recreates the
  tables; the store holds only recomputable cache data.
* **Size bounding** — when the summed snapshot bytes exceed
  ``max_snapshot_bytes``, least-recently-used *unleased* snapshots are
  evicted (their verdict rows stay — verdicts are tiny and the
  valuable part).  Eviction fires the ``on_evict`` hook, which the
  analysis server routes to the shared
  :func:`~repro.util.caches.clear_runtime_caches` cleanup — the same
  path the benchmark runner's cold-run contract and server shutdown
  use — so size pressure also sheds the in-process canonical tables
  instead of letting a long-lived daemon accumulate them.

All methods are thread-safe (one connection guarded by a lock): the
server's bounded executor calls in from worker threads.
"""

from __future__ import annotations

import json
import os
import random
import socket
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.obs import trace
from repro.obs.metrics import LATENCY
from repro.reach.snapshot import SNAPSHOT_VERSION
from repro.util.meter import METER

STORE_SCHEMA_VERSION = 2

#: Default snapshot budget: plenty for thousands of registry-sized
#: snapshots while keeping a runaway daemon's disk use bounded.
DEFAULT_MAX_SNAPSHOT_BYTES = 64 * 1024 * 1024

#: How long sqlite itself waits on a locked database before surfacing
#: SQLITE_BUSY (``PRAGMA busy_timeout``, seconds).
DEFAULT_BUSY_TIMEOUT = 5.0

#: Bounded-retry attempts layered on top of ``busy_timeout`` for the
#: error shapes sqlite returns immediately (snapshot-upgrade busy).
DEFAULT_BUSY_RETRIES = 6

#: A crashed replica's lease survives at most this long (seconds)
#: before eviction reaps it; live replicas release far sooner.
DEFAULT_LEASE_TTL = 300.0

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS analyses (
        fingerprint      TEXT PRIMARY KEY,
        result           TEXT,
        bound            INTEGER NOT NULL DEFAULT 0,
        engine           TEXT,
        snapshot         BLOB,
        snapshot_version INTEGER,
        created          REAL NOT NULL,
        last_used        INTEGER NOT NULL,
        snapshot_bytes   INTEGER NOT NULL DEFAULT 0
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS leases (
        token       TEXT PRIMARY KEY,
        fingerprint TEXT NOT NULL,
        owner       TEXT NOT NULL,
        expires     REAL NOT NULL
    )
    """,
    "CREATE INDEX IF NOT EXISTS leases_by_fingerprint ON leases(fingerprint)",
    "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value INTEGER)",
    "INSERT OR IGNORE INTO meta (key, value) VALUES ('lru_clock', 0)",
)

#: sqlite message fragments that mean "contended", not "broken".
_BUSY_MARKERS = ("locked", "busy")


def _is_busy(error: BaseException) -> bool:
    """Is this the retryable lock-contention flavor of OperationalError?"""
    return isinstance(error, sqlite3.OperationalError) and any(
        marker in str(error).lower() for marker in _BUSY_MARKERS
    )


def _owner_tag() -> str:
    try:
        host = socket.gethostname()
    except OSError:  # pragma: no cover - exotic platforms
        host = "unknown"
    return f"{host}:{os.getpid()}"


@dataclass(slots=True)
class StoreEntry:
    """One decoded store row.  ``result`` is ``None`` when the stored
    JSON is missing or undecodable (corruption ⇒ miss); ``snapshot`` is
    ``None`` when absent, evicted, written by a different snapshot
    format version, or simply not requested (``include_snapshot=False``
    — check ``has_snapshot`` for existence without the blob
    transfer)."""

    fingerprint: str
    result: dict | None
    bound: int
    engine: str | None
    snapshot: bytes | None
    has_snapshot: bool = False


class AnalysisStore:
    """Disk-backed verdict + snapshot store keyed by fingerprint."""

    #: Real store; :class:`DegradedAnalysisStore` flips this.
    degraded = False

    def __init__(
        self,
        path: str | Path,
        *,
        max_snapshot_bytes: int = DEFAULT_MAX_SNAPSHOT_BYTES,
        on_evict=None,
        busy_timeout: float = DEFAULT_BUSY_TIMEOUT,
        busy_retries: int = DEFAULT_BUSY_RETRIES,
        retry_base: float = 0.01,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> None:
        self.path = Path(path)
        self.max_snapshot_bytes = max_snapshot_bytes
        #: Called (once per eviction sweep) after LRU eviction dropped
        #: snapshots; the server wires this to the shared runtime-cache
        #: cleanup (see the module docstring).
        self.on_evict = on_evict
        self.busy_timeout = busy_timeout
        self.busy_retries = busy_retries
        self.retry_base = retry_base
        self.lease_ttl = lease_ttl
        self.owner = _owner_tag()
        self._lock = threading.Lock()
        self._conn = self._open()

    # ------------------------------------------------------------------
    # Busy-retry discipline
    # ------------------------------------------------------------------
    def _busy_retry(self, fn):
        """Run one idempotent transaction closure, retrying the busy
        flavor of :class:`sqlite3.OperationalError` with exponential
        backoff + jitter.  ``PRAGMA busy_timeout`` already makes sqlite
        wait on plain lock conflicts; this loop covers the shapes that
        fail immediately regardless (WAL snapshot-upgrade busy), and
        bounds the total wait so a wedged peer cannot hang a replica
        forever.  Non-busy errors and exhausted retries re-raise — the
        callers' corruption handling takes over."""
        op = getattr(fn, "__name__", "txn")
        start = time.perf_counter()
        with trace.span("store.transaction", op=op) as timing:
            delay = self.retry_base
            try:
                for attempt in range(self.busy_retries + 1):
                    try:
                        return fn()
                    except sqlite3.OperationalError as error:
                        if not _is_busy(error) or attempt == self.busy_retries:
                            raise
                        METER.bump("store.busy_retries")
                        timing.set(retries=attempt + 1)
                        time.sleep(delay * (0.5 + random.random()))
                        delay = min(delay * 2, 0.25)
            finally:
                LATENCY.observe(
                    "store_transaction", time.perf_counter() - start, op=op
                )

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        try:
            return self._busy_retry(self._connect)
        except sqlite3.DatabaseError as error:
            if _is_busy(error):
                # Contended, not corrupt: rotating a healthy file another
                # replica is actively writing would throw its data away.
                raise
            # Wholesale-corrupt file: rotate it aside and start empty —
            # the store only ever holds recomputable cache data, and a
            # service must not crash-loop on a bad cache file.  The WAL
            # sidecars must move with it: an orphaned -wal next to a
            # freshly created empty database would be replayed into it
            # (SQLite's separated-WAL corruption hazard), recorrupting
            # the replacement.
            METER.bump("service.store_corrupt_rotations")
            for suffix in ("", "-wal", "-shm"):
                source = self.path.with_name(self.path.name + suffix)
                target = self.path.with_name(self.path.name + suffix + ".corrupt")
                try:
                    source.replace(target)
                except FileNotFoundError:
                    pass
                except OSError:
                    source.unlink(missing_ok=True)
            return self._busy_retry(self._connect)

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, check_same_thread=False)
        try:
            conn.execute(f"PRAGMA busy_timeout = {int(self.busy_timeout * 1000):d}")
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
        except sqlite3.DatabaseError:  # pragma: no cover - odd filesystems
            pass
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version != STORE_SCHEMA_VERSION:
            with conn:
                for table in ("analyses", "leases", "meta"):
                    conn.execute(f"DROP TABLE IF EXISTS {table}")
                conn.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION:d}")
        with conn:
            for statement in _SCHEMA:
                conn.execute(statement)
        return conn

    def close(self) -> None:
        """Flush and close (idempotent)."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.commit()
                    self._conn.close()
                except sqlite3.DatabaseError:  # pragma: no cover
                    pass
                self._conn = None

    def flush(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.commit()

    def _tick_locked(self) -> int:
        """Next cross-process LRU clock value.  Must run inside a write
        transaction on ``self._conn``: the ``UPDATE`` is an atomic RMW
        inside the database, and the surrounding transaction holds the
        write lock until the row touch commits with it — so two
        replicas can never observe the same tick."""
        self._conn.execute(
            "UPDATE meta SET value = value + 1 WHERE key = 'lru_clock'"
        )
        return self._conn.execute(
            "SELECT value FROM meta WHERE key = 'lru_clock'"
        ).fetchone()[0]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(
        self, fingerprint: str, *, include_snapshot: bool = True
    ) -> StoreEntry | None:
        """The entry for ``fingerprint`` (bumping its LRU clock), or
        ``None`` on miss — including every corruption mode.

        ``include_snapshot=False`` skips transferring the (potentially
        large) blob: verdict-only consumers — the service's hit check —
        read the cheap columns plus a ``has_snapshot`` flag and fetch
        the blob in a second call only when they actually resume."""
        blob_column = "snapshot" if include_snapshot else "NULL"

        def read():
            return self._conn.execute(
                f"SELECT result, bound, engine, {blob_column},"
                " snapshot_version, snapshot IS NOT NULL "
                "FROM analyses WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()

        def touch():
            # The meta bump comes first so the transaction opens as a
            # writer (honoring busy_timeout) instead of upgrading a
            # read lock mid-way (immediate SQLITE_BUSY in WAL mode).
            with self._conn:
                self._conn.execute(
                    "UPDATE analyses SET last_used = ? WHERE fingerprint = ?",
                    (self._tick_locked(), fingerprint),
                )

        with self._lock:
            if self._conn is None:
                return None
            try:
                row = self._busy_retry(read)
                if row is None:
                    return None
                self._busy_retry(touch)
            except sqlite3.DatabaseError:
                METER.bump("service.store_read_errors")
                return None
        result_json, bound, engine, snapshot, snapshot_version, has_snapshot = row
        result = None
        if result_json is not None:
            try:
                result = json.loads(result_json)
            except (TypeError, ValueError):
                METER.bump("service.store_corrupt_results")
        if snapshot_version is not None and snapshot_version != SNAPSHOT_VERSION:
            snapshot = None
            has_snapshot = False
        return StoreEntry(
            fingerprint, result, bound or 0, engine, snapshot, bool(has_snapshot)
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def record(
        self,
        fingerprint: str,
        result: dict,
        *,
        bound: int,
        engine: str,
        snapshot: bytes | None = None,
    ) -> None:
        """Upsert the verdict record (and snapshot, when the run was
        inconclusive and resumable) for ``fingerprint``, then enforce
        the snapshot size budget."""
        def txn():
            with self._conn:
                self._conn.execute(
                    "INSERT INTO analyses (fingerprint, result, bound, engine,"
                    " snapshot, snapshot_version, created, last_used,"
                    " snapshot_bytes) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?) "
                    "ON CONFLICT(fingerprint) DO UPDATE SET"
                    " result = excluded.result, bound = excluded.bound,"
                    " engine = excluded.engine, snapshot = excluded.snapshot,"
                    " snapshot_version = excluded.snapshot_version,"
                    " last_used = excluded.last_used,"
                    " snapshot_bytes = excluded.snapshot_bytes",
                    (
                        fingerprint,
                        json.dumps(result, sort_keys=True),
                        bound,
                        engine,
                        snapshot,
                        SNAPSHOT_VERSION if snapshot is not None else None,
                        time.time(),
                        self._tick_locked(),
                        len(snapshot) if snapshot is not None else 0,
                    ),
                )

        with self._lock:
            if self._conn is None:
                return
            try:
                self._busy_retry(txn)
            except sqlite3.DatabaseError:  # pragma: no cover - disk trouble
                METER.bump("service.store_write_errors")
                return
        self._evict_to_budget()

    # ------------------------------------------------------------------
    # Lease protocol
    # ------------------------------------------------------------------
    def acquire_lease(self, fingerprint: str, *, ttl: float | None = None) -> str | None:
        """Pin ``fingerprint``'s snapshot blob against eviction while a
        replica resumes from it.  Returns the lease token to pass to
        :meth:`release_lease`, or ``None`` when the store is closed or
        unwritable (the caller proceeds un-leased — the blob is already
        in memory, a concurrent eviction only costs a future resume).
        Expired peer leases are reaped opportunistically on the way."""
        budget = self.lease_ttl if ttl is None else ttl
        token = f"{self.owner}:{os.urandom(8).hex()}"

        def txn():
            with self._conn:
                now = time.time()
                reaped = self._conn.execute(
                    "DELETE FROM leases WHERE expires <= ?", (now,)
                ).rowcount
                self._conn.execute(
                    "INSERT INTO leases (token, fingerprint, owner, expires)"
                    " VALUES (?, ?, ?, ?)",
                    (token, fingerprint, self.owner, now + budget),
                )
                return reaped

        with self._lock:
            if self._conn is None:
                return None
            try:
                reaped = self._busy_retry(txn)
            except sqlite3.DatabaseError:
                METER.bump("service.store_write_errors")
                return None
        if reaped:
            METER.bump("store.leases_reaped", reaped)
        METER.bump("store.leases_acquired")
        return token

    def release_lease(self, fingerprint: str, token: str | None) -> None:
        """Unpin the blob; idempotent, and a no-op for ``None`` tokens
        (failed acquisition) so callers can release unconditionally."""
        if token is None:
            return

        def txn():
            with self._conn:
                return self._conn.execute(
                    "DELETE FROM leases WHERE token = ?", (token,)
                ).rowcount

        with self._lock:
            if self._conn is None:
                return
            try:
                released = self._busy_retry(txn)
            except sqlite3.DatabaseError:
                METER.bump("service.store_write_errors")
                return
        if released:
            METER.bump("store.leases_released", released)

    def live_leases(self) -> int:
        """Unexpired lease rows (health reporting / tests)."""
        with self._lock:
            if self._conn is None:
                return 0
            try:
                return self._conn.execute(
                    "SELECT COUNT(*) FROM leases WHERE expires > ?",
                    (time.time(),),
                ).fetchone()[0]
            except sqlite3.DatabaseError:
                return 0

    # ------------------------------------------------------------------
    def _evict_to_budget(self) -> None:
        """Drop least-recently-used snapshots until the summed blob
        size fits the budget; verdict rows survive eviction, and blobs
        under a live lease are skipped (``store.eviction_lease_skips``)
        — expired leases are reaped first so a crashed replica cannot
        wedge eviction past its lease TTL."""

        def sweep():
            evicted = 0
            lease_skips = 0
            reaped = 0
            with self._conn:
                now = time.time()
                reaped = self._conn.execute(
                    "DELETE FROM leases WHERE expires <= ?", (now,)
                ).rowcount
                total = self._conn.execute(
                    "SELECT COALESCE(SUM(snapshot_bytes), 0) FROM analyses"
                ).fetchone()[0]
                while total > self.max_snapshot_bytes:
                    victim = self._conn.execute(
                        "SELECT fingerprint, snapshot_bytes FROM analyses "
                        "WHERE snapshot IS NOT NULL AND fingerprint NOT IN"
                        " (SELECT fingerprint FROM leases WHERE expires > ?) "
                        "ORDER BY last_used, rowid LIMIT 1",
                        (now,),
                    ).fetchone()
                    if victim is None:
                        # Everything left is leased (or there are no
                        # blobs at all): stay over budget rather than
                        # free a blob a live replica is resuming from.
                        lease_skips = self._conn.execute(
                            "SELECT COUNT(*) FROM analyses "
                            "WHERE snapshot IS NOT NULL",
                        ).fetchone()[0]
                        break
                    self._conn.execute(
                        "UPDATE analyses SET snapshot = NULL,"
                        " snapshot_version = NULL, snapshot_bytes = 0 "
                        "WHERE fingerprint = ?",
                        (victim[0],),
                    )
                    total -= victim[1]
                    evicted += 1
            return reaped, evicted, lease_skips

        with self._lock:
            if self._conn is None:
                return
            try:
                reaped, evicted, lease_skips = self._busy_retry(sweep)
            except sqlite3.DatabaseError:  # pragma: no cover
                METER.bump("service.store_write_errors")
                return
        if reaped:
            METER.bump("store.leases_reaped", reaped)
        if lease_skips:
            METER.bump("store.eviction_lease_skips", lease_skips)
        if evicted:
            METER.bump("service.store_evictions", evicted)
            if self.on_evict is not None:
                self.on_evict()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Row/byte totals for health reporting."""
        with self._lock:
            if self._conn is None:
                return {"open": False}

            def read():
                rows, with_snapshot, snapshot_bytes = self._conn.execute(
                    "SELECT COUNT(*), COUNT(snapshot),"
                    " COALESCE(SUM(snapshot_bytes), 0) FROM analyses"
                ).fetchone()
                leases = self._conn.execute(
                    "SELECT COUNT(*) FROM leases WHERE expires > ?",
                    (time.time(),),
                ).fetchone()[0]
                return rows, with_snapshot, snapshot_bytes, leases

            try:
                rows, with_snapshot, snapshot_bytes, leases = self._busy_retry(read)
            except sqlite3.DatabaseError:  # pragma: no cover
                return {"open": True, "error": "unreadable"}
        return {
            "open": True,
            "degraded": False,
            "path": str(self.path),
            "entries": rows,
            "snapshots": with_snapshot,
            "snapshot_bytes": snapshot_bytes,
            "max_snapshot_bytes": self.max_snapshot_bytes,
            "leases": leases,
        }


class DegradedAnalysisStore:
    """Store-less fallback for an unusable store location.

    Implements the :class:`AnalysisStore` surface with every read a
    miss and every write a drop, so a replica whose store directory is
    read-only at startup serves correct (just uncached) verdicts
    instead of crash-looping.  ``/health`` surfaces the degradation via
    :meth:`stats`."""

    degraded = True

    def __init__(self, path: str | Path, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        self.on_evict = None
        self.max_snapshot_bytes = 0

    def get(self, fingerprint: str, *, include_snapshot: bool = True):
        return None

    def record(self, fingerprint: str, result: dict, **kwargs) -> None:
        return None

    def acquire_lease(self, fingerprint: str, *, ttl: float | None = None):
        return None

    def release_lease(self, fingerprint: str, token: str | None) -> None:
        return None

    def live_leases(self) -> int:
        return 0

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None

    def stats(self) -> dict:
        return {
            "open": False,
            "degraded": True,
            "reason": self.reason,
            "path": str(self.path),
        }


def open_store(path: str | Path, **kwargs) -> AnalysisStore | DegradedAnalysisStore:
    """Open the store, degrading instead of crashing when the location
    is unusable (read-only directory, unwritable file): the service
    must come up and serve engine runs even when it cannot cache them.
    ``service.store_degraded`` counts the fallback."""
    try:
        return AnalysisStore(path, **kwargs)
    except (OSError, sqlite3.Error) as broken:
        METER.bump("service.store_degraded")
        return DegradedAnalysisStore(path, f"{type(broken).__name__}: {broken}")
