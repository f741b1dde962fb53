"""Snapshot round-trip differentials (resume soundness).

``restore(snapshot(engine))`` followed by ``ensure_level(k+2)`` must be
level-for-level identical to an uninterrupted run — same level sets,
same visible projections, same METER expansion counts (summed over the
checkpointed prefix and the resumed suffix) — on every registry row and
on randomized FCR instances, in both lanes.  The checks mirror the
acceptance criterion of the persistent-service PR: a deeper-``k``
request served from a stored snapshot is indistinguishable from a
fresh, deeper run.
"""

import pytest

from repro.core.property import AlwaysSafe
from repro.errors import ContextExplosionError, SnapshotError
from repro.models.random_gen import RandomSpec, random_cpds
from repro.models.registry import smallest_per_row
from repro.cuba.scheme1 import scheme1_rk
from repro.cuba.verifier import Cuba
from repro.reach.explicit import ExplicitReach
from repro.reach.symbolic import SymbolicReach
from repro.reach.witness import validate_trace
from repro.reach.snapshot import KIND_EXPLICIT, MAGIC, _encode, decode
from repro.util.meter import scoped

K = 3

REGISTRY = smallest_per_row()
FCR_ROWS = smallest_per_row(lambda b: b.fcr)
SPEC = RandomSpec(n_threads=2, n_shared=2, n_symbols=2, rules_per_thread=5)

_EXPLICIT_METERS = (
    "explicit.expansions",
    "explicit.level_unique_views",
    "explicit.context_cache_hits",
)
_SYMBOLIC_METERS = (
    "symbolic.expansions",
    "symbolic.level_unique_views",
    "symbolic.expansion_cache_hits",
)


def _sum(*deltas):
    merged: dict = {}
    for delta in deltas:
        for name, value in delta.items():
            merged[name] = merged.get(name, 0) + value
    return merged


def _explicit_roundtrip(cpds, *, max_states=None):
    """Fresh engine to K+2 vs checkpoint-at-K + resume; returns both."""
    kwargs = {} if max_states is None else {"max_states_per_context": max_states}
    with scoped() as fresh_work:
        fresh = ExplicitReach(cpds, **kwargs)
        fresh.ensure_level(K + 2)
    with scoped() as prefix_work:
        engine = ExplicitReach(cpds, **kwargs)
        engine.ensure_level(K)
    blob = engine.snapshot()
    restored = ExplicitReach.restore(cpds, blob)
    assert restored.k == K
    with scoped() as suffix_work:
        restored.ensure_level(K + 2)

    for k in range(K + 3):
        assert fresh.states_new_at(k) == restored.states_new_at(k), f"k={k}"
        assert fresh.visible_new_at(k) == restored.visible_new_at(k), f"k={k}"
    assert fresh.first_seen == restored.first_seen
    assert fresh.level_sizes() == restored.level_sizes()

    resumed_work = _sum(prefix_work, suffix_work)
    for name in _EXPLICIT_METERS:
        assert fresh_work.get(name, 0) == resumed_work.get(name, 0), name
    return fresh, restored


def _symbolic_roundtrip(cpds):
    with scoped() as fresh_work:
        fresh = SymbolicReach(cpds)
        fresh.ensure_level(K + 2)
    with scoped() as prefix_work:
        engine = SymbolicReach(cpds)
        engine.ensure_level(K)
    blob = engine.snapshot()
    restored = SymbolicReach.restore(cpds, blob)
    assert restored.k == K
    with scoped() as suffix_work:
        restored.ensure_level(K + 2)

    for k in range(K + 3):
        assert fresh.levels[k] == restored.levels[k], f"k={k}"
        assert fresh.visible_new_at(k) == restored.visible_new_at(k), f"k={k}"

    resumed_work = _sum(prefix_work, suffix_work)
    for name in _SYMBOLIC_METERS:
        assert fresh_work.get(name, 0) == resumed_work.get(name, 0), name
    return fresh, restored


@pytest.mark.parametrize("bench", FCR_ROWS, ids=lambda b: b.row)
def test_explicit_roundtrip_on_registry_rows(bench):
    cpds, _prop = bench.build()
    _fresh, restored = _explicit_roundtrip(cpds)
    # Witness machinery survives the round trip: parents restored.
    sample = sorted(restored.states_up_to(2), key=str)[:5]
    for state in sample:
        validate_trace(cpds, restored.trace(state))


@pytest.mark.parametrize("bench", REGISTRY, ids=lambda b: b.row)
def test_symbolic_roundtrip_on_registry_rows(bench):
    cpds, _prop = bench.build()
    _symbolic_roundtrip(cpds)


@pytest.mark.parametrize("seed", range(20))
def test_random_roundtrip_both_lanes(seed):
    """20 random seeds, both lanes; non-FCR instances are skipped for
    the explicit lane exactly like the batched differential suite."""
    cpds = random_cpds(seed, SPEC)
    symbolic_fresh, _ = _symbolic_roundtrip(cpds)
    assert symbolic_fresh.k == K + 2
    try:
        _explicit_roundtrip(cpds, max_states=300)
    except ContextExplosionError:
        pytest.skip("non-FCR seed (explicit lane diverges by design)")


def test_symbolic_snapshot_survives_foreign_intern_order(tmp_path):
    """A restarted daemon's symbol-intern history need not match the
    snapshotting process's: canonical forms are order-dependent, so
    restore re-canonicalizes stored signatures under the current
    process's alphabets.  Produce the snapshot in a subprocess whose
    global symbol order is deliberately perturbed, restore here, and
    resume — levels must match an uninterrupted local run."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    blob_path = tmp_path / "foreign.snap"
    script = f"""
import sys
from repro.automata.intern import order_of
# Hostile interning history: this process sees the fig1 alphabets (and
# noise) in reverse order before the engine ever touches them.
for symbol in (9999, "zz", 6, 5, 4, 2, 1):
    order_of(symbol)
from repro.models import fig1_cpds
from repro.reach.symbolic import SymbolicReach
engine = SymbolicReach(fig1_cpds())
engine.ensure_level({K})
open({str(blob_path)!r}, "wb").write(engine.snapshot())
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, timeout=120
    )

    from repro.models import fig1_cpds

    cpds = fig1_cpds()
    restored = SymbolicReach.restore(cpds, blob_path.read_bytes())
    assert restored.k == K
    restored.ensure_level(K + 2)
    fresh = SymbolicReach(cpds)
    fresh.ensure_level(K + 2)
    for k in range(K + 3):
        assert fresh.levels[k] == restored.levels[k], f"k={k}"
        assert fresh.visible_new_at(k) == restored.visible_new_at(k), f"k={k}"


class TestResumedVerdicts:
    def test_scheme1_resumed_verdict_matches_fresh(self):
        bench = next(b for b in FCR_ROWS if b.row.startswith("9/"))
        cpds, prop = bench.build()
        fresh = scheme1_rk(cpds, prop, max_rounds=10)

        engine = ExplicitReach(cpds)
        engine.ensure_level(2)
        restored = ExplicitReach.restore(cpds, engine.snapshot())
        resumed = scheme1_rk(cpds, prop, max_rounds=10, engine=restored)
        assert (resumed.verdict, resumed.bound, resumed.method) == (
            fresh.verdict,
            fresh.bound,
            fresh.method,
        )

    def test_cuba_resumed_report_matches_fresh(self):
        bench = next(b for b in FCR_ROWS if b.row.startswith("9/"))
        cpds, prop = bench.build()
        fresh = Cuba(cpds, prop).verify(max_rounds=12)

        engine = ExplicitReach(cpds)
        engine.ensure_level(2)
        restored = ExplicitReach.restore(cpds, engine.snapshot())
        resumed = Cuba(cpds, prop).verify(max_rounds=12, engine=restored)
        assert resumed.verdict is fresh.verdict
        assert (resumed.rk_bound, resumed.trk_bound, resumed.winner) == (
            fresh.rk_bound,
            fresh.trk_bound,
            fresh.winner,
        )

    def test_deeper_snapshot_does_not_leak_past_a_shallow_budget(self):
        """max_rounds is a TOTAL budget even when the restored engine
        already holds deeper levels: verdicts beyond the budget must
        not leak out of the replay."""
        from repro.core.property import SharedStateReachability
        from repro.models import fig1_cpds

        cpds = fig1_cpds()
        prop = SharedStateReachability({3})  # first violated at k=2
        engine = ExplicitReach(cpds)
        engine.ensure_level(4)
        restored = ExplicitReach.restore(cpds, engine.snapshot())
        shallow = scheme1_rk(cpds, prop, max_rounds=1, engine=restored)
        fresh = scheme1_rk(cpds, prop, max_rounds=1)
        assert (shallow.verdict, shallow.bound) == (fresh.verdict, fresh.bound)
        assert shallow.verdict.value == "unknown" and shallow.bound == 1

    def test_resumed_refutation_carries_a_valid_trace(self):
        """A violation first reachable beyond the checkpoint level must
        be found by the resumed run with a replayable witness."""
        from repro.core.property import SharedStateReachability
        from repro.models import fig1_cpds

        cpds = fig1_cpds()
        prop = SharedStateReachability({3})
        engine = ExplicitReach(cpds)
        engine.ensure_level(1)  # ⟨3|...⟩ first appears at k=2
        restored = ExplicitReach.restore(cpds, engine.snapshot())
        result = scheme1_rk(cpds, prop, max_rounds=10, engine=restored)
        assert result.is_unsafe and result.bound == 2
        validate_trace(cpds, result.trace)


class TestRejection:
    def test_per_state_engine_refuses_to_snapshot(self):
        from repro.models import fig1_cpds

        engine = ExplicitReach(fig1_cpds(), batched=False)
        with pytest.raises(SnapshotError):
            engine.snapshot()
        symbolic = SymbolicReach(fig1_cpds(), batched=False)
        with pytest.raises(SnapshotError):
            symbolic.snapshot()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda blob: blob[: len(MAGIC) - 1],           # truncated header
            lambda blob: b"NOPE" + blob[4:],               # wrong magic
            lambda blob: blob[:4] + b"\xff\xff" + blob[6:],  # future version
            lambda blob: blob[:-20],                       # truncated payload
            lambda blob: blob[:12] + b"garbage",           # mangled pickle
        ],
        ids=["header", "magic", "version", "payload", "pickle"],
    )
    def test_corrupt_blobs_raise_snapshot_error(self, mutate):
        from repro.models import fig1_cpds

        cpds = fig1_cpds()
        engine = ExplicitReach(cpds)
        engine.ensure_level(2)
        blob = mutate(engine.snapshot())
        with pytest.raises(SnapshotError):
            ExplicitReach.restore(cpds, blob)

    def test_restore_against_a_different_cpds_is_rejected(self):
        from repro.models import fig1_cpds

        cpds = fig1_cpds()
        engine = ExplicitReach(cpds)
        engine.ensure_level(2)
        blob = engine.snapshot()
        other = random_cpds(0, SPEC)
        with pytest.raises(SnapshotError):
            ExplicitReach.restore(other, blob)

    def test_symbolic_restore_against_a_different_cpds_is_rejected(self):
        from repro.models import fig1_cpds

        cpds = fig1_cpds()
        engine = SymbolicReach(cpds)
        engine.ensure_level(2)
        blob = engine.snapshot()
        other = random_cpds(0, SPEC)
        with pytest.raises(SnapshotError):
            SymbolicReach.restore(other, blob)

    def test_kind_mismatch_is_rejected(self):
        from repro.models import fig1_cpds

        cpds = fig1_cpds()
        explicit_blob = ExplicitReach(cpds).snapshot()
        with pytest.raises(SnapshotError):
            SymbolicReach.restore(cpds, explicit_blob)


def test_snapshot_of_unknown_budget_run_resumes_to_safe():
    """The service's anytime-knob story end to end at engine level:
    checkpoint an inconclusive bounded run, resume past the collapse
    bound, get SAFE — identical to the uninterrupted verdict."""
    bench = next(b for b in FCR_ROWS if b.row.startswith("9/"))
    cpds, _prop = bench.build()
    short = scheme1_rk(cpds, AlwaysSafe(), max_rounds=2)
    assert short.verdict.value == "unknown"

    engine = ExplicitReach(cpds)
    engine.ensure_level(2)
    restored = ExplicitReach.restore(cpds, engine.snapshot())
    deep = scheme1_rk(cpds, AlwaysSafe(), max_rounds=20, engine=restored)
    fresh = scheme1_rk(cpds, AlwaysSafe(), max_rounds=20)
    assert deep.is_safe and (deep.verdict, deep.bound) == (
        fresh.verdict,
        fresh.bound,
    )


def _reencode(blob, edit):
    """``blob``'s explicit payload after ``edit``, framed again."""
    _kind, payload = decode(blob, expected_kind=KIND_EXPLICIT)
    edit(payload)
    return _encode(KIND_EXPLICIT, payload)


class TestMoverColumn:
    """The same-thread pruning column (payload key ``movers``) is a
    required part of the explicit payload: it round-trips exactly, and
    it also carries the witness threads."""

    @pytest.mark.parametrize("bench", FCR_ROWS, ids=lambda b: b.row)
    def test_roundtrip_preserves_movers(self, bench):
        cpds, _prop = bench.build()
        engine = ExplicitReach(cpds)
        engine.ensure_level(K)
        restored = ExplicitReach.restore(cpds, engine.snapshot())
        assert restored._movers == engine._movers

    def test_blob_without_movers_is_malformed(self):
        from repro.models import fig1_cpds

        cpds = fig1_cpds()
        engine = ExplicitReach(cpds)
        engine.ensure_level(2)
        blob = _reencode(engine.snapshot(), lambda p: p.pop("movers"))
        with pytest.raises(SnapshotError, match="malformed"):
            ExplicitReach.restore(cpds, blob)

    def test_mover_column_length_mismatch_is_rejected(self):
        from repro.models import fig1_cpds

        cpds = fig1_cpds()
        engine = ExplicitReach(cpds)
        engine.ensure_level(2)
        blob = _reencode(
            engine.snapshot(), lambda p: p["movers"].pop()
        )
        with pytest.raises(SnapshotError):
            ExplicitReach.restore(cpds, blob)


class TestWitnessParentColumns:
    """Every batched engine records witness parents, so every explicit
    payload carries the parent columns and no ``track_traces`` option.
    Blobs of the earlier shape, which carried that key, stay readable;
    a blob without parents is refused."""

    @pytest.mark.parametrize("bench", FCR_ROWS, ids=lambda b: b.row)
    def test_blob_with_a_track_traces_key_restores(self, bench):
        cpds, _prop = bench.build()
        engine = ExplicitReach(cpds)
        engine.ensure_level(1)
        blob = _reencode(
            engine.snapshot(), lambda p: p.update(track_traces=True)
        )
        resumed = ExplicitReach.restore(cpds, blob)
        resumed.ensure_level(K)
        uninterrupted = ExplicitReach(cpds)
        uninterrupted.ensure_level(K)
        assert resumed._level_ids == uninterrupted._level_ids
        assert resumed._parent_ids == uninterrupted._parent_ids
        assert resumed._parent_actions == uninterrupted._parent_actions
        for state in sorted(uninterrupted.states_new_at(K), key=repr)[:5]:
            assert resumed.trace(state) == uninterrupted.trace(state)

    def test_blob_without_parents_is_refused(self):
        from repro.models import fig1_cpds

        cpds = fig1_cpds()
        engine = ExplicitReach(cpds)
        engine.ensure_level(2)
        blob = _reencode(
            engine.snapshot(),
            lambda p: p.update(track_traces=False, parents=None),
        )
        with pytest.raises(SnapshotError):
            ExplicitReach.restore(cpds, blob)
