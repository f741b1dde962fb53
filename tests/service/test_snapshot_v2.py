"""SNAPSHOT_VERSION 3 behaviour: old (v1, v2) blobs degrade to misses,
the wuba kind round-trips, and the executor resolves snapshots
lane-agnostically through the registry.
"""

import pickle
import struct

import pytest

from repro.core.property import AlwaysSafe
from repro.core.result import Verdict
from repro.errors import SnapshotError
from repro.models import fig1_cpds, fig2_cpds
from repro.models.registry import smallest_per_row
from repro.reach.wuba import WubaReach
from repro.reach.snapshot import (
    KIND_EXPLICIT,
    KIND_WUBA,
    MAGIC,
    SNAPSHOT_VERSION,
    snapshot_kind,
)
from repro.service.executor import EngineJob, _restore, execute_job
from repro.util.meter import scoped


def _old_blob(version: int, kind: int = KIND_EXPLICIT) -> bytes:
    return struct.pack("<4sHB", MAGIC, version, kind) + pickle.dumps({})


class TestVersioning:
    def test_version_is_three(self):
        assert SNAPSHOT_VERSION == 3

    def test_v1_blob_is_rejected_with_version_message(self):
        for version in (1, 2):
            with pytest.raises(
                SnapshotError, match=f"snapshot version {version} != supported 3"
            ):
                snapshot_kind(_old_blob(version))

    def test_v1_blob_degrades_to_store_miss_in_executor(self):
        for version in (1, 2):
            job = EngineJob(
                cpds=fig1_cpds(),
                prop=AlwaysSafe(),
                problem="p",
                snapshot=_old_blob(version),
            )
            with scoped() as delta:
                assert _restore(job) is None
            assert delta["service.snapshot_rejects"] == 1

    def test_unknown_kind_byte_degrades_to_miss(self):
        blob = struct.pack("<4sHB", MAGIC, SNAPSHOT_VERSION, 99) + pickle.dumps({})
        job = EngineJob(cpds=fig1_cpds(), prop=AlwaysSafe(), problem="p", snapshot=blob)
        with scoped() as delta:
            assert _restore(job) is None
        assert delta["service.snapshot_rejects"] == 1


class TestWubaRoundTrip:
    def test_fig1_roundtrip_then_advance_matches_fresh(self):
        cpds = fig1_cpds()
        fresh = WubaReach(cpds)
        fresh.ensure_level(5)
        engine = WubaReach(cpds)
        engine.ensure_level(3)
        blob = engine.snapshot()
        assert snapshot_kind(blob) == KIND_WUBA
        restored = WubaReach.restore(cpds, blob)
        assert restored.k == 3
        restored.ensure_level(5)
        assert restored.levels == fresh.levels

    @pytest.mark.parametrize(
        "bench",
        [pytest.param(b, id=b.name) for b in smallest_per_row()],
    )
    def test_registry_rows_roundtrip(self, bench):
        cpds, prop = bench.build()
        if not WubaReach.applicable(cpds, prop):
            pytest.skip("WCR fails")
        engine = WubaReach(cpds)
        engine.ensure_level(4)
        restored = WubaReach.restore(cpds, engine.snapshot())
        assert restored.levels == engine.levels
        assert restored.visible_levels == engine.visible_levels

    def test_restore_against_a_different_cpds_is_rejected(self):
        engine = WubaReach(fig1_cpds())
        engine.ensure_level(2)
        blob = engine.snapshot()
        other = smallest_per_row()[0].build()[0]
        with pytest.raises(SnapshotError):
            WubaReach.restore(other, blob)

    def test_truncated_wuba_blob_is_malformed_not_a_crash(self):
        engine = WubaReach(fig1_cpds())
        engine.ensure_level(2)
        blob = engine.snapshot()
        with pytest.raises(SnapshotError):
            WubaReach.restore(fig1_cpds(), blob[:-10])


class TestExecutorLaneDispatch:
    def test_wuba_job_end_to_end(self):
        cpds = fig1_cpds()
        outcome = execute_job(
            EngineJob(
                cpds=cpds,
                prop=AlwaysSafe(),
                problem="wuba-e2e",
                engine="wuba",
                max_rounds=4,
            )
        )
        assert outcome.kind == "wuba"
        assert outcome.response["verdict"] == Verdict.UNKNOWN.value
        assert outcome.snapshot is not None
        assert snapshot_kind(outcome.snapshot) == KIND_WUBA

    def test_wuba_job_resumes_from_its_own_snapshot(self):
        cpds = fig1_cpds()
        first = execute_job(
            EngineJob(
                cpds=cpds, prop=AlwaysSafe(), problem="p", engine="wuba", max_rounds=3
            )
        )
        with scoped() as delta:
            second = execute_job(
                EngineJob(
                    cpds=cpds,
                    prop=AlwaysSafe(),
                    problem="p",
                    engine="wuba",
                    max_rounds=6,
                    snapshot=first.snapshot,
                )
            )
        assert delta["service.resumes"] == 1
        assert second.response["k"] >= first.response["k"]

    def test_lane_alias_accepted_by_job(self):
        outcome = execute_job(
            EngineJob(
                cpds=fig1_cpds(),
                prop=AlwaysSafe(),
                problem="p",
                engine="wk",
                max_rounds=2,
            )
        )
        assert outcome.kind == "wuba"

    def test_cross_lane_snapshot_is_dropped_not_misused(self):
        # An explicit-lane blob offered to a wuba job: the registry
        # restores it faithfully, then the lane guard rejects it.
        cpds = fig1_cpds()
        explicit = execute_job(
            EngineJob(
                cpds=cpds,
                prop=AlwaysSafe(),
                problem="p",
                engine="explicit",
                max_rounds=3,
            )
        )
        with scoped() as delta:
            outcome = execute_job(
                EngineJob(
                    cpds=cpds,
                    prop=AlwaysSafe(),
                    problem="p",
                    engine="wuba",
                    max_rounds=3,
                    snapshot=explicit.snapshot,
                )
            )
        assert outcome.kind == "wuba"
        assert delta["service.snapshot_rejects"] == 1

    def test_engine_config_defaults_when_unset(self):
        from repro.reach.config import EngineConfig

        job = EngineJob(cpds=fig1_cpds(), prop=AlwaysSafe(), problem="p")
        assert job.engine_config() == EngineConfig()
        explicit_config = EngineConfig(batched=False)
        job = EngineJob(
            cpds=fig1_cpds(),
            prop=AlwaysSafe(),
            problem="p",
            config=explicit_config,
        )
        assert job.engine_config() is explicit_config

    def test_wuba_job_on_inapplicable_model_is_unknown_final(self):
        """A failed precondition (fig. 2 violates WCR) is UNKNOWN for a
        reason deeper k cannot fix: final, no engine construction (which
        would diverge computing the infinite write-free closure), no
        snapshot."""
        with scoped() as delta:
            outcome = execute_job(
                EngineJob(
                    cpds=fig2_cpds(),
                    prop=AlwaysSafe(),
                    problem="p",
                    engine="wuba",
                    max_rounds=2,
                )
            )
        assert outcome.response["verdict"] == Verdict.UNKNOWN.value
        assert outcome.response["final"] is True
        assert "not applicable" in outcome.response["message"]
        assert outcome.snapshot is None
        assert delta["service.lane_rejects"] == 1
        assert "wuba.expansions" not in delta
