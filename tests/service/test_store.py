"""AnalysisStore: persistence, schema/version handling, corruption
tolerance (bad blob ⇒ miss, never a crash), and LRU size bounding."""

import json
import sqlite3

import pytest

from repro.reach.snapshot import SNAPSHOT_VERSION
from repro.service.store import STORE_SCHEMA_VERSION, AnalysisStore

RESULT = {"verdict": "safe", "bound": 4, "final": True, "cached": False}


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "cuba-store.sqlite"


class TestRoundTrip:
    def test_record_and_get(self, store_path):
        store = AnalysisStore(store_path)
        store.record("fp1", RESULT, bound=4, engine="explicit", snapshot=b"blob")
        entry = store.get("fp1")
        assert entry.result == RESULT
        assert entry.bound == 4
        assert entry.engine == "explicit"
        assert entry.snapshot is not None
        store.close()

    def test_snapshot_blob_round_trips_exactly(self, store_path):
        store = AnalysisStore(store_path)
        blob = bytes(range(256)) * 3
        store.record("fp", RESULT, bound=1, engine="explicit", snapshot=blob)
        assert store.get("fp").snapshot == blob
        store.close()

    def test_survives_reopen(self, store_path):
        store = AnalysisStore(store_path)
        store.record("fp1", RESULT, bound=4, engine="explicit", snapshot=b"blob")
        store.close()
        reopened = AnalysisStore(store_path)
        entry = reopened.get("fp1")
        assert entry is not None and entry.result == RESULT
        reopened.close()

    def test_upsert_replaces(self, store_path):
        store = AnalysisStore(store_path)
        store.record("fp", {"verdict": "unknown"}, bound=2, engine="explicit",
                     snapshot=b"early")
        store.record("fp", RESULT, bound=4, engine="explicit", snapshot=None)
        entry = store.get("fp")
        assert entry.result == RESULT
        assert entry.snapshot is None  # conclusive runs drop the snapshot
        store.close()

    def test_miss_returns_none(self, store_path):
        store = AnalysisStore(store_path)
        assert store.get("nope") is None
        store.close()

    def test_closed_store_degrades_to_misses(self, store_path):
        store = AnalysisStore(store_path)
        store.close()
        assert store.get("fp") is None
        store.record("fp", RESULT, bound=1, engine="explicit")  # no crash
        assert store.stats() == {"open": False}


class TestVersioning:
    def test_schema_mismatch_wipes(self, store_path):
        store = AnalysisStore(store_path)
        store.record("fp", RESULT, bound=4, engine="explicit")
        store.close()
        raw = sqlite3.connect(store_path)
        with raw:
            raw.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION + 1}")
        raw.close()
        reopened = AnalysisStore(store_path)
        assert reopened.get("fp") is None  # wiped, not crashed
        reopened.close()

    def test_stale_snapshot_version_reads_as_missing(self, store_path):
        store = AnalysisStore(store_path)
        store.record("fp", RESULT, bound=4, engine="explicit", snapshot=b"blob")
        raw = sqlite3.connect(store_path)
        with raw:
            raw.execute(
                "UPDATE analyses SET snapshot_version = ?",
                (SNAPSHOT_VERSION + 1,),
            )
        raw.close()
        entry = store.get("fp")
        assert entry.result == RESULT  # verdict survives
        assert entry.snapshot is None  # old-format blob is a miss
        store.close()


class TestCorruption:
    def test_wholesale_corrupt_file_is_rotated_and_recreated(self, store_path):
        store_path.write_bytes(b"this is not a sqlite database at all")
        store = AnalysisStore(store_path)
        assert store.get("anything") is None
        store.record("fp", RESULT, bound=4, engine="explicit")
        assert store.get("fp").result == RESULT
        assert store_path.with_name(store_path.name + ".corrupt").exists()
        store.close()

    def test_corrupt_rotation_takes_the_wal_sidecars_along(self, store_path):
        """An orphaned -wal next to the freshly recreated database
        would be replayed into it (SQLite's separated-WAL hazard), so
        rotation must move the sidecars together with the main file."""
        store_path.write_bytes(b"definitely not sqlite")
        store_path.with_name(store_path.name + "-wal").write_bytes(b"stale wal")
        store_path.with_name(store_path.name + "-shm").write_bytes(b"stale shm")
        store = AnalysisStore(store_path)
        store.record("fp", RESULT, bound=4, engine="explicit")
        assert store.get("fp").result == RESULT
        assert store_path.with_name(store_path.name + ".corrupt").exists()
        # The stale sidecar moved aside with the main file — whatever
        # -wal exists now belongs to the fresh database, not the crash.
        live_wal = store_path.with_name(store_path.name + "-wal")
        assert not live_wal.exists() or live_wal.read_bytes() != b"stale wal"
        store.close()
        reopened = AnalysisStore(store_path)
        assert reopened.get("fp").result == RESULT
        reopened.close()

    def test_corrupt_result_json_reads_as_missing_result(self, store_path):
        store = AnalysisStore(store_path)
        store.record("fp", RESULT, bound=4, engine="explicit", snapshot=b"blob")
        raw = sqlite3.connect(store_path)
        with raw:
            raw.execute("UPDATE analyses SET result = '{not json'")
        raw.close()
        entry = store.get("fp")
        assert entry is not None and entry.result is None
        assert entry.snapshot == b"blob"  # rest of the row still usable
        store.close()


class TestEviction:
    def test_lru_eviction_respects_budget_and_keeps_verdicts(self, store_path):
        evictions = []
        store = AnalysisStore(
            store_path, max_snapshot_bytes=250, on_evict=lambda: evictions.append(1)
        )
        for index in range(4):
            store.record(
                f"fp{index}",
                dict(RESULT, bound=index),
                bound=index,
                engine="explicit",
                snapshot=bytes(100),
            )
            store.get(f"fp{index}")  # refresh LRU clocks in insert order
        # 4 * 100 bytes against a 250-byte budget: the two oldest lose
        # their snapshots, every verdict row survives.
        with_snapshots = [
            index for index in range(4) if store.get(f"fp{index}").snapshot
        ]
        assert with_snapshots == [2, 3]
        assert all(store.get(f"fp{index}").result for index in range(4))
        assert evictions  # hook fired (routes to clear_runtime_caches)
        store.close()

    def test_get_refreshes_lru_rank(self, store_path):
        store = AnalysisStore(store_path, max_snapshot_bytes=350)
        for index in range(2):
            store.record(
                f"fp{index}", RESULT, bound=1, engine="explicit",
                snapshot=bytes(100),
            )
        store.get("fp0")  # fp0 becomes more recently used than fp1
        for index in (2, 3):
            store.record(
                f"fp{index}", RESULT, bound=1, engine="explicit",
                snapshot=bytes(100),
            )
        # 4 snapshots x 100 bytes against 350: exactly one eviction, and
        # the refreshed fp0 outranks the untouched fp1.
        assert store.get("fp0").snapshot is not None
        assert store.get("fp1").snapshot is None
        store.close()

    def test_stats_reports_totals(self, store_path):
        store = AnalysisStore(store_path)
        store.record("fp", RESULT, bound=4, engine="explicit", snapshot=bytes(10))
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["snapshots"] == 1
        assert stats["snapshot_bytes"] == 10
        store.close()


def test_result_json_is_sorted_and_stable(store_path):
    """The stored record is canonical JSON — diffable and stable across
    dict orderings."""
    store = AnalysisStore(store_path)
    store.record("fp", {"b": 1, "a": 2}, bound=0, engine="explicit")
    raw = sqlite3.connect(store_path)
    text = raw.execute("SELECT result FROM analyses").fetchone()[0]
    raw.close()
    assert text == json.dumps({"a": 2, "b": 1}, sort_keys=True)
    store.close()
