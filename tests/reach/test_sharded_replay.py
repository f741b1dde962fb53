"""Tracked ≡ restored replay differential and snapshot resume.

The batched explicit advance replays each context tree through one
member loop, which records witness parents.  Two engines run every
case:

* tracked batched;
* tracked batched, restored from its own k=1 snapshot and continued.

They must produce identical levels (the same dense ids, hence the same
movers), identical witness parents, identical ``T(Rk)`` sequences and
*exact* METER equality on the six work counters, phase by phase
(levels up to 1, then up to ``K``): a restore re-derives its derived
state without touching a counter.  On every engine and phase the
batching identity ``expansions + context_cache_hits ==
level_unique_views`` holds.

Run on every FCR registry row and on 40 random CPDS seeds (non-FCR
instances must diverge in both engines), plus a resume compared with
an uninterrupted run.
"""

import pytest

from repro.errors import ContextExplosionError
from repro.models.random_gen import RandomSpec, random_cpds
from repro.models.registry import smallest_per_row
from repro.reach.explicit import ExplicitReach
from repro.reach.snapshot import decode
from repro.util.meter import METER

K = 2

FCR_BENCHES = smallest_per_row(lambda b: b.fcr)

METER_KEYS = (
    "explicit.expansions",
    "explicit.level_views",
    "explicit.level_unique_views",
    "explicit.context_cache_hits",
    "explicit.context_cache_misses",
    "explicit.replay_pairs",
)

MODES = ("tracked", "restored")


def _phases(cpds, mode, max_states=None):
    """Run one engine of ``mode`` to ``K``; return it with the METER
    deltas of its two phases (levels up to 1, then up to ``K``)."""
    kwargs = {}
    if max_states is not None:
        kwargs["max_states_per_context"] = max_states
    engine = ExplicitReach(cpds, **kwargs)
    before = METER.snapshot()
    engine.ensure_level(1)
    first = METER.delta(before)
    if mode == "restored":
        engine = ExplicitReach.restore(cpds, engine.snapshot(), **kwargs)
    before = METER.snapshot()
    engine.ensure_level(K)
    return engine, (first, METER.delta(before))


def _assert_agreement(engines, deltas, context=""):
    tracked, restored = engines
    assert tracked._level_ids == restored._level_ids, (
        f"{context}: level ids disagree"
    )
    assert tracked._movers == restored._movers, context
    assert tracked._parent_ids == restored._parent_ids, context
    assert tracked._parent_actions == restored._parent_actions, context
    for k in range(K + 1):
        assert tracked.states_new_at(k) == restored.states_new_at(k), (
            f"{context} k={k}: levels disagree"
        )
        assert tracked.visible_new_at(k) == restored.visible_new_at(k), (
            f"{context} k={k}: visible projections disagree"
        )
    for phase in range(2):
        for key in METER_KEYS:
            counts = [delta[phase].get(key, 0) for delta in deltas]
            assert counts[0] == counts[1], (
                f"{context} phase {phase} METER {key}: {counts}"
            )
        for mode, delta in zip(MODES, deltas):
            work = delta[phase]
            assert work.get("explicit.expansions", 0) + work.get(
                "explicit.context_cache_hits", 0
            ) == work.get("explicit.level_unique_views", 0), (
                f"{context} {mode} phase {phase}"
            )


class TestThreeWayDifferential:
    @pytest.mark.parametrize("bench", FCR_BENCHES, ids=lambda b: b.row)
    def test_registry_rows(self, bench):
        cpds, _prop = bench.build()
        runs = [_phases(cpds, mode) for mode in MODES]
        engines, deltas = zip(*runs)
        assert deltas[0][1].get("explicit.replay_pairs", 0) > 0, bench.row
        _assert_agreement(engines, deltas, context=bench.row)

    @pytest.mark.parametrize("seed", range(40))
    def test_randomized(self, seed):
        """Random CPDSs agree level for level with exact METER equality;
        non-FCR instances diverge in every engine."""
        spec = RandomSpec(n_threads=2, n_shared=2, n_symbols=2, rules_per_thread=5)
        cpds = random_cpds(seed, spec)
        runs = []
        for mode in MODES:
            try:
                runs.append(_phases(cpds, mode, max_states=300))
            except ContextExplosionError:
                runs.append(None)
        exploded = [run is None for run in runs]
        assert exploded[0] == exploded[1], (
            f"seed {seed}: divergence disagrees across engines: {exploded}"
        )
        if exploded[0]:
            return
        engines, deltas = zip(*runs)
        _assert_agreement(engines, deltas, context=f"seed {seed}")


class TestShardedSnapshotResume:
    def test_restore_carries_the_execution_knobs(self):
        """A blob restores with its witness parents and continues
        identically to an uninterrupted run: same ids, movers, witness parents and
        traces, and the same snapshot payload at the deeper level (the
        bytes may differ only in how pickle shares equal objects)."""
        cpds, _prop = FCR_BENCHES[0].build()
        origin = ExplicitReach(cpds)
        origin.ensure_level(1)
        resumed = ExplicitReach.restore(cpds, origin.snapshot())
        assert resumed.batched
        assert resumed._parent_ids is not None
        resumed.ensure_level(K)
        oracle = ExplicitReach(cpds)
        oracle.ensure_level(K)
        assert resumed._level_ids == oracle._level_ids
        assert resumed._movers == oracle._movers
        assert resumed._parent_ids == oracle._parent_ids
        assert resumed._parent_actions == oracle._parent_actions
        for k in range(K + 1):
            assert resumed.visible_new_at(k) == oracle.visible_new_at(k)
        deepest = sorted(oracle.states_new_at(K), key=repr)
        assert deepest
        for state in deepest[:5]:
            assert resumed.trace(state) == oracle.trace(state)
        assert decode(resumed.snapshot()) == decode(oracle.snapshot())
