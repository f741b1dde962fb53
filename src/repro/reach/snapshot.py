"""The ``CUSN`` frame of engine checkpoints.

The bounded sequences ``(Rk)`` / ``(Sk)`` / ``(Wk)`` are monotone by
level and the engines only ever append — exactly the shape that makes
checkpointing sound: persist the committed levels (plus the caches
whose contents are pure functions of them) and a restored engine's
``ensure_level`` continues from the stored bound, level-for-level
identical to an uninterrupted run, including the METER expansion counts
(differentially tested in ``tests/service/test_snapshot.py``).

Format (``SNAPSHOT_VERSION`` 4)
-------------------------------
``MAGIC ║ u16 version ║ u8 kind ║ payload`` — the payload is a pickled
dict whose integer columns are contiguous ``array('q')`` blobs.  This
module owns only the frame; each lane owns its payload codec, its
``snapshot()`` and ``restore`` classmethod, and the kind byte is the
lane's registered
:attr:`~repro.reach.base.ReachabilityEngine.snapshot_kind`.  A blob of
any other version decodes as :class:`~repro.errors.SnapshotError` — a
store miss, never a mis-resume.

Every lane memoizes, and only batched engines snapshot (the memo-free
per-state oracles are test fixtures), so blobs carry state only, never
options.

Snapshots are trusted data: they are produced and consumed by the same
store (pickle is not safe against adversarial blobs, same as every
other pickle-based checkpoint format).  A blob that fails *any* decode
step raises :class:`~repro.errors.SnapshotError`, which the store
layer treats as a cache miss.
"""

from __future__ import annotations

import pickle
import struct
import time
from contextlib import contextmanager

from repro.errors import SnapshotError
from repro.obs import trace
from repro.obs.metrics import LATENCY
from repro.util.meter import METER

MAGIC = b"CUSN"
SNAPSHOT_VERSION = 4

KIND_EXPLICIT = 1
KIND_SYMBOLIC = 2
KIND_WUBA = 3

_HEADER = struct.Struct("<4sHB")


def _encode(kind: int, payload: dict) -> bytes:
    start = time.perf_counter()
    with trace.span("snapshot.encode", kind=kind):
        blob = _HEADER.pack(MAGIC, SNAPSHOT_VERSION, kind) + pickle.dumps(
            payload, protocol=pickle.HIGHEST_PROTOCOL
        )
    METER.bump("snapshot.saves")
    METER.bump("snapshot.save_bytes", len(blob))
    LATENCY.observe("snapshot_encode", time.perf_counter() - start)
    return blob


def _parse_header(data: bytes) -> int:
    """Validate the framing header and return the kind byte; raises
    :class:`SnapshotError` on truncation, wrong magic, or another
    version."""
    try:
        magic, version, kind = _HEADER.unpack_from(data)
    except struct.error as broken:
        raise SnapshotError(f"snapshot header truncated: {broken}") from broken
    if magic != MAGIC:
        raise SnapshotError(f"bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version} != supported {SNAPSHOT_VERSION}"
        )
    return kind


def decode(data: bytes, expected_kind: int | None = None) -> tuple[int, dict]:
    """Validate framing and unpickle the payload; every failure mode —
    truncation, wrong magic, other version, garbage pickle — raises
    :class:`SnapshotError`."""
    start = time.perf_counter()
    kind = _parse_header(data)
    if expected_kind is not None and kind != expected_kind:
        raise SnapshotError(f"snapshot kind {kind} != expected {expected_kind}")
    with trace.span("snapshot.decode", kind=kind, bytes=len(data)):
        try:
            payload = pickle.loads(data[_HEADER.size :])
            if not isinstance(payload, dict):
                raise SnapshotError(
                    f"snapshot payload is {type(payload).__name__}"
                )
        except SnapshotError:
            raise
        except Exception as broken:
            raise SnapshotError(
                f"snapshot payload undecodable: {broken}"
            ) from broken
    METER.bump("snapshot.restores")
    LATENCY.observe("snapshot_decode", time.perf_counter() - start)
    return kind, payload


def snapshot_kind(data: bytes) -> int:
    """The kind byte of a blob — header validation only, so callers
    dispatching on kind before a full restore don't unpickle a large
    payload twice (or double-count ``snapshot.restores``)."""
    return _parse_header(data)


def hash_consed(values: list, memo: dict) -> list:
    """``values`` rebuilt so that equal sub-values are one object:
    tuples recursively, everything else by type and value (``1`` and
    ``True`` stay apart).  Pickle shares objects by identity, so a
    payload of hash-consed values pickles to bytes that depend on the
    values alone, not on which equal objects an engine happened to
    hold.  ``memo`` is shared across the calls of one payload."""

    # Equal values are mostly one object already: cons each object once.
    by_id: dict[int, object] = {}

    def cons(value):
        found = by_id.get(id(value))
        if found is not None:
            return found
        original = value
        if type(value) is tuple:
            value = tuple(map(cons, value))
            key = (tuple, *map(id, value))
        else:
            key = (type(value), value)
            try:
                hash(key)
            except TypeError:
                return value
        found = by_id[id(original)] = memo.setdefault(key, value)
        return found

    return [cons(value) for value in values]


def refuse_oracle(engine) -> None:
    """Raise :class:`SnapshotError` for a per-state oracle engine
    (``batched=False``), which never snapshots."""
    if not engine.batched:
        raise SnapshotError(
            f"only the batched {engine.lane} engine supports snapshots "
            "(the per-state oracle path is a differential test fixture)"
        )


@contextmanager
def reading(cls, cpds, blob: bytes):
    """Decode ``blob`` as a payload of lane ``cls`` for ``cpds`` and
    yield it; any failure in the ``with`` body other than a
    :class:`SnapshotError` is re-raised as one ("malformed"), and a
    payload of another thread count is rejected up front."""
    _kind, payload = decode(blob, expected_kind=cls.snapshot_kind)
    try:
        n_threads = payload.get("n_threads")
        if n_threads != cpds.n_threads:
            raise SnapshotError(
                f"snapshot has {n_threads} threads, CPDS has {cpds.n_threads}"
            )
        yield payload
    except SnapshotError:
        raise
    except Exception as broken:
        raise SnapshotError(f"{cls.lane} snapshot malformed: {broken}") from broken
