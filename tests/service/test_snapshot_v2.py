"""SNAPSHOT_VERSION 4 behaviour: old (v1–v3) blobs degrade to misses,
the wuba kind round-trips and resumes byte-identically, the executor
resolves snapshots lane-agnostically through the registry, and explicit
blobs carry their thread-symmetry group: a blob is refused by a CPDS
whose verified group differs, resumes level for level, and a resumed
engine's blob is byte-identical to an uninterrupted one's.
"""

import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.result import Verdict
from repro.cpds import format_cpds
from repro.cpds.cpds import CPDS
from repro.errors import SnapshotError
from repro.models import fig1_cpds, fig2_cpds
from repro.models.registry import TABLE2, smallest_per_row
from repro.reach.explicit import ExplicitReach
from repro.reach.wuba import WubaReach
from repro.reach.snapshot import (
    KIND_EXPLICIT,
    KIND_WUBA,
    MAGIC,
    SNAPSHOT_VERSION,
    snapshot_kind,
)
from repro.service.executor import EngineJob, _restore, execute_job
from repro.service.fingerprint import cpds_digest
from repro.util.meter import scoped

FIG1 = format_cpds(fig1_cpds())


def _old_blob(version: int, kind: int = KIND_EXPLICIT) -> bytes:
    return struct.pack("<4sHB", MAGIC, version, kind) + pickle.dumps({})


class TestVersioning:
    def test_version_is_four(self):
        assert SNAPSHOT_VERSION == 4

    def test_v1_blob_is_rejected_with_version_message(self):
        for version in (1, 2, 3):
            with pytest.raises(
                SnapshotError, match=f"snapshot version {version} != supported 4"
            ):
                snapshot_kind(_old_blob(version))

    def test_v1_blob_degrades_to_store_miss_in_executor(self):
        for version in (1, 2, 3):
            job = EngineJob(problem="p", cpds_text=FIG1, snapshot=_old_blob(version))
            with scoped() as delta:
                assert _restore(job, fig1_cpds()) is None
            assert delta["service.snapshot_rejects"] == 1

    def test_unknown_kind_byte_degrades_to_miss(self):
        blob = struct.pack("<4sHB", MAGIC, SNAPSHOT_VERSION, 99) + pickle.dumps({})
        job = EngineJob(problem="p", cpds_text=FIG1, snapshot=blob)
        with scoped() as delta:
            assert _restore(job, fig1_cpds()) is None
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

    @pytest.mark.parametrize(
        "bench",
        [pytest.param(b, id=b.name) for b in smallest_per_row()],
    )
    def test_resumed_blob_is_byte_identical_to_an_uninterrupted_one(self, bench):
        """The stack pool and shared rows are hash-consed, so a resumed
        engine holding the blob's unpickled copies pickles exactly as
        one holding the cpds's own objects."""
        cpds, prop = bench.build()
        if not WubaReach.applicable(cpds, prop):
            pytest.skip("WCR fails")
        straight = WubaReach(cpds)
        straight.ensure_level(4)
        part = WubaReach(cpds)
        part.ensure_level(2)
        resumed = WubaReach.restore(cpds, part.snapshot())
        resumed.ensure_level(4)
        assert resumed.snapshot() == straight.snapshot()

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


def _row(name: str):
    return next(bench for bench in TABLE2 if bench.name == name).build()


def _trivial_copy(cpds: CPDS) -> CPDS:
    """The same threads without declared symmetry candidates.  (The
    ``.cpds`` text format cannot spell translated tuple states, so the
    round trip is a re-wrap: same rules, same fingerprint, no group.)"""
    return CPDS(cpds.threads, cpds.initial_stacks, name=cpds.name)


class TestExplicitSymmetryGroup:
    def test_blob_of_another_group_is_refused(self):
        cpds, _prop = _row("4/BST-Insert [2+1]")
        plain = _trivial_copy(cpds)
        assert cpds_digest(plain) == cpds_digest(cpds)
        engine = ExplicitReach(cpds)
        engine.ensure_level(2)
        assert engine.table.order == 2
        blob = engine.snapshot()
        with pytest.raises(SnapshotError, match="another thread-symmetry group"):
            ExplicitReach.restore(plain, blob)
        # ...and the other way round.
        unreduced = ExplicitReach(plain)
        unreduced.ensure_level(2)
        with pytest.raises(SnapshotError, match="another thread-symmetry group"):
            ExplicitReach.restore(cpds, unreduced.snapshot())
        # The service treats the refusal as a store miss, never a resume.
        # ``_restore`` is handed the compiled CPDS, so the job needs no
        # program text: no text spells this hand-built copy.
        job = EngineJob(problem="p", snapshot=blob)
        with scoped() as delta:
            assert _restore(job, plain) is None
        assert delta["service.snapshot_rejects"] == 1

    def test_blob_of_the_same_permutations_but_another_shared_map_is_refused(self):
        """Two replicas whose rules are also symmetric under swapping the
        shared states 1 and 2: the swap verifies with ``σ`` the identity
        and with ``σ = (1 2)``.  Equal thread permutations, equal
        fingerprints, other orbits, so the blob must not resume."""
        from repro.pds.pds import PDS

        def build(shared_map):
            threads = []
            for index in range(2):
                pds = PDS(initial_shared="0", shared_states=["0", "1", "2"],
                          alphabet=["a", "b"], name=f"T{index}")
                for low, high in (("1", "2"), ("2", "1")):
                    pds.rule("0", "a", low, ("b",))
                    pds.rule(low, "b", "0", ())
                    pds.rule(low, "a", high, ("b",))
                threads.append(pds)
            return CPDS(threads, [("a",), ("a",)], name="twins",
                        symmetry_candidates=[((1, 0), shared_map)])

        plain = build({"0": "0", "1": "1", "2": "2"})
        crossed = build({"0": "0", "1": "2", "2": "1"})
        assert cpds_digest(plain) == cpds_digest(crossed)
        engine = ExplicitReach(plain)
        engine.ensure_level(2)
        other = ExplicitReach(crossed)
        assert engine.symmetry.perms == other.symmetry.perms
        assert engine.table.order == other.table.order == 2
        blob = engine.snapshot()
        with pytest.raises(SnapshotError, match="another thread-symmetry group"):
            ExplicitReach.restore(crossed, blob)
        assert ExplicitReach.restore(plain, blob).level_sizes() == engine.level_sizes()

    @pytest.mark.parametrize(
        "name", ["4/BST-Insert [2+1]", "5/FileCrawler [1•+2]"]
    )
    def test_restore_then_advance_matches_uninterrupted(self, name):
        cpds, prop = _row(name)
        k = 2
        fresh = ExplicitReach(cpds)
        fresh.ensure_level(k + 2)
        engine = ExplicitReach(cpds)
        engine.ensure_level(k)
        restored = ExplicitReach.restore(cpds, engine.snapshot())
        assert restored.table.order == 2
        assert restored.level_sizes() == engine.level_sizes()
        assert restored.table._ids == engine.table._ids  # the image entries
        restored.ensure_level(k + 2)
        assert restored.level_sizes() == fresh.level_sizes()
        assert restored.levels == fresh.levels
        assert restored.visible_levels == fresh.visible_levels
        assert restored.stats() == fresh.stats()
        for level in range(k + 3):
            assert restored.violation_at(level, prop) == fresh.violation_at(level, prop)
        assert restored._parent_ids == fresh._parent_ids
        assert restored._parent_actions == fresh._parent_actions
        assert restored.snapshot() == fresh.snapshot()


    def test_blob_resumes_on_an_equal_cpds_with_rules_in_another_order(self):
        """The fingerprint ignores rule order, so the store may hand a
        blob to a CPDS whose rule lists are permuted: rules travel by
        value and resolve to the restoring CPDS's own objects."""
        from repro.pds.pds import PDS
        from repro.reach.witness import validate_trace

        cpds, _prop = _row("4/BST-Insert [2+1]")
        threads = []
        for pds in cpds.threads:
            copy = PDS(
                initial_shared=pds.initial_shared,
                shared_states=pds.shared_states,
                alphabet=pds.alphabet,
                name=pds.name,
            )
            copy.add_actions(pds.actions[::-1])
            threads.append(copy)
        reordered = CPDS(
            threads, cpds.initial_stacks, name=cpds.name,
            symmetry_candidates=cpds.symmetry_candidates,
        )
        assert cpds_digest(reordered) == cpds_digest(cpds)
        engine = ExplicitReach(cpds)
        engine.ensure_level(2)
        restored = ExplicitReach.restore(reordered, engine.snapshot())
        fresh = ExplicitReach(reordered)
        fresh.ensure_level(4)
        restored.ensure_level(4)
        assert restored.levels == fresh.levels
        for state in restored.states_new_at(2):
            validate_trace(reordered, restored.trace(state))


BYTES_SCRIPT = """
from repro.models.registry import TABLE2
from repro.reach.explicit import ExplicitReach

for name in ("1/Bluetooth-1 [1+1]", "4/BST-Insert [2+1]"):
    cpds, _prop = next(b for b in TABLE2 if b.name == name).build()
    fresh = ExplicitReach(cpds)
    fresh.ensure_level(2)
    engine = ExplicitReach(cpds)
    engine.ensure_level(1)
    resumed = ExplicitReach.restore(cpds, engine.snapshot())
    resumed.ensure_level(2)
    first, second = fresh.snapshot(), resumed.snapshot()
    print(name, len(first), len(second), first == second)
"""


def test_resumed_blob_is_byte_identical_to_an_uninterrupted_one():
    """Rules travel by value and the pools hash-consed, so which
    equal objects an engine held (the cpds's, or a blob's unpickled
    copies) cannot change the pickled bytes."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    done = subprocess.run(
        [sys.executable, "-c", BYTES_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        *_name, first, second, same = line.split()
        assert same == "True", line
        assert first == second


class TestExecutorLaneDispatch:
    def test_wuba_job_end_to_end(self):
        outcome = execute_job(
            EngineJob(
                cpds_text=FIG1,
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
        first = execute_job(
            EngineJob(cpds_text=FIG1, problem="p", engine="wuba", max_rounds=3)
        )
        with scoped() as delta:
            second = execute_job(
                EngineJob(
                    cpds_text=FIG1,
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
                cpds_text=FIG1,
                problem="p",
                engine="wk",
                max_rounds=2,
            )
        )
        assert outcome.kind == "wuba"

    def test_cross_lane_snapshot_is_dropped_not_misused(self):
        # An explicit-lane blob offered to a wuba job: the registry
        # restores it faithfully, then the lane guard rejects it.
        explicit = execute_job(
            EngineJob(
                cpds_text=FIG1,
                problem="p",
                engine="explicit",
                max_rounds=3,
            )
        )
        with scoped() as delta:
            outcome = execute_job(
                EngineJob(
                    cpds_text=FIG1,
                    problem="p",
                    engine="wuba",
                    max_rounds=3,
                    snapshot=explicit.snapshot,
                )
            )
        assert outcome.kind == "wuba"
        assert delta["service.snapshot_rejects"] == 1

    def test_wuba_job_on_inapplicable_model_is_unknown_final(self):
        """A failed precondition (fig. 2 violates WCR) is UNKNOWN for a
        reason deeper k cannot fix: final, no engine construction (which
        would diverge computing the infinite write-free closure), no
        snapshot."""
        with scoped() as delta:
            outcome = execute_job(
                EngineJob(
                    cpds_text=format_cpds(fig2_cpds()),
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
