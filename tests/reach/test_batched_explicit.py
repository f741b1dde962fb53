"""Sharded/batched explicit expansion ≡ seed per-state expansion.

:meth:`ExplicitReach.advance` shards each frontier level by the moving
thread's interned local view ``(thread, shared_id, stack_id)`` and
saturates every unique view once, replaying the id-encoded context tree
across the shard; the memo-free per-state path (``batched=False``) is
the seed behavior kept as the differential oracle.  The two must
produce identical global-state levels and identical ``T(Rk)`` sequences
on every FCR registry row and on randomized CPDSs, and METER must
confirm the batching invariant: every unique view per level is exactly
one ``thread_context_post``-grade saturation or one hit of the
cross-level tree memo."""

import pytest

from repro.errors import ContextExplosionError
from repro.models.random_gen import RandomSpec, random_cpds
from repro.models.registry import TABLE2, smallest_per_row
from repro.reach.explicit import ExplicitReach, mover_column
from repro.reach.witness import validate_trace
from repro.util.meter import scoped

K = 3

FCR_BENCHES = smallest_per_row(lambda b: b.fcr)


def _levels(engine, k_max):
    engine.ensure_level(k_max)
    return [engine.states_new_at(k) for k in range(k_max + 1)]


@pytest.mark.parametrize("bench", FCR_BENCHES, ids=lambda b: b.row)
def test_batched_levels_match_per_state_levels(bench):
    cpds, _prop = bench.build()
    batched = ExplicitReach(cpds)
    per_state = ExplicitReach(cpds, batched=False)
    assert _levels(batched, K) == _levels(per_state, K)
    for k in range(K + 1):
        assert batched.visible_up_to(k) == per_state.visible_up_to(k), f"k={k}"
        assert batched.visible_new_at(k) == per_state.visible_new_at(k), f"k={k}"
    assert batched.first_seen == per_state.first_seen


@pytest.mark.parametrize("bench", FCR_BENCHES[:3], ids=lambda b: b.row)
def test_batched_matches_non_incremental_per_state(bench):
    """Cross both axes: a batched engine restored mid-run (its tree memo
    read back from the blob) vs the memo-free per-state seed path."""
    cpds, _prop = bench.build()
    fast = ExplicitReach(cpds)
    fast.ensure_level(1)
    resumed = ExplicitReach.restore(cpds, fast.snapshot())
    naive = ExplicitReach(cpds, batched=False)
    assert _levels(resumed, K) == _levels(naive, K)


@pytest.mark.parametrize("bench", FCR_BENCHES[:4], ids=lambda b: b.row)
def test_one_expansion_per_unique_view_per_level(bench):
    """METER invariant, per level: every unique ``(thread, shared,
    local-view)`` shard is exactly one context saturation or one hit of
    the cross-level tree memo."""
    cpds, _prop = bench.build()
    engine = ExplicitReach(cpds)
    for _ in range(K):
        with scoped() as level_work:
            engine.advance()
        unique = level_work.get("explicit.level_unique_views", 0)
        expansions = level_work.get("explicit.expansions", 0)
        hits = level_work.get("explicit.context_cache_hits", 0)
        views = level_work.get("explicit.level_views", 0)
        assert expansions + hits == unique, (
            f"level {engine.k}: {expansions} saturations + {hits} memo hits "
            f"for {unique} unique views"
        )
        assert views >= unique


def test_per_state_mode_expands_duplicates():
    """Sanity check that the oracle really is less shared: on a model
    whose frontier repeats thread views (FileCrawler), the memo-free
    per-state path saturates strictly more often than sharding."""
    bench = next(b for b in FCR_BENCHES if b.row.startswith("5/"))
    cpds, _prop = bench.build()
    with scoped() as batched_work:
        ExplicitReach(cpds).ensure_level(K)
    with scoped() as per_state_work:
        ExplicitReach(cpds, batched=False).ensure_level(K)
    assert (
        per_state_work["explicit.expansions"] > batched_work["explicit.expansions"]
    )


@pytest.mark.parametrize("n_threads", [15, 16, 17, 20])
def test_many_threads_views_do_not_alias(n_threads):
    """The packed view key's thread field is sized per engine: with more
    than 16 threads a fixed 4-bit field would silently alias views (a
    thread index spilling into the stack-id field) and corrupt Rk."""
    spec = RandomSpec(
        n_threads=n_threads, n_shared=2, n_symbols=2, rules_per_thread=2
    )
    cpds = random_cpds(7, spec)
    batched = ExplicitReach(
        cpds, max_states_per_context=200
    )
    per_state = ExplicitReach(
        cpds, max_states_per_context=200, batched=False
    )
    exploded = [False, False]
    for position, engine in enumerate((batched, per_state)):
        try:
            engine.ensure_level(2)
        except ContextExplosionError:
            exploded[position] = True
    assert exploded[0] == exploded[1]
    if not exploded[0]:
        for k in range(3):
            assert batched.states_new_at(k) == per_state.states_new_at(k)


@pytest.mark.parametrize("seed", range(40))
def test_randomized_differential(seed):
    """Randomized CPDSs: batched and per-state engines agree level for
    level; divergent (non-FCR) instances must diverge identically."""
    spec = RandomSpec(n_threads=2, n_shared=2, n_symbols=2, rules_per_thread=5)
    cpds = random_cpds(seed, spec)
    batched = ExplicitReach(
        cpds, max_states_per_context=300
    )
    per_state = ExplicitReach(
        cpds, max_states_per_context=300, batched=False
    )
    exploded = [False, False]
    for position, engine in enumerate((batched, per_state)):
        try:
            engine.ensure_level(K)
        except ContextExplosionError:
            exploded[position] = True
    assert exploded[0] == exploded[1], f"seed {seed}: divergence disagrees"
    if exploded[0]:
        return
    for k in range(K + 1):
        assert batched.states_new_at(k) == per_state.states_new_at(k), (
            f"seed {seed}, k={k}"
        )
        assert batched.visible_new_at(k) == per_state.visible_new_at(k)


@pytest.mark.parametrize("seed", range(10))
def test_randomized_batched_traces_are_real_executions(seed):
    """Every witness the batched engine reconstructs replays against the
    CPDS step semantics (the guarantee behind UNSAFE counterexamples)."""
    spec = RandomSpec(n_threads=2, n_shared=2, n_symbols=2, rules_per_thread=4)
    cpds = random_cpds(seed, spec)
    engine = ExplicitReach(cpds, max_states_per_context=300)
    try:
        engine.ensure_level(2)
    except ContextExplosionError:
        pytest.skip("non-FCR instance")
    for state in engine.states_up_to(2):
        validate_trace(cpds, engine.trace(state))  # raises on illegal steps


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-state"])
def test_divergence_rolls_back_partial_level(batched):
    """A ContextExplosionError mid-advance must leave the interned core
    exactly as before the call: no half-committed states in first_seen
    or the table, and stats consistent (sum of levels == n_states)."""
    from repro.models import fig2_cpds

    cpds = fig2_cpds()  # diverges within one context
    engine = ExplicitReach(
        cpds,
        max_states_per_context=5,
        batched=batched,
    )
    n_before = engine.n_states
    keys_before = len(engine.table)
    k_before = engine.k
    with pytest.raises(ContextExplosionError):
        engine.ensure_level(3)
    assert engine.n_states == n_before
    assert len(engine.table) == keys_before
    assert len(engine._movers) == n_before
    assert engine.k == k_before
    assert sum(len(level) for level in engine.levels) == engine.n_states
    assert engine.states_up_to() == frozenset([cpds.initial_state()])
    # The initial state's witness entry survives; nothing dangles.
    assert len(engine.trace(cpds.initial_state())) == 0


def test_warm_start_after_plateau_query():
    """Regression: querying observations at the plateau and then asking
    ``ensure_level`` for more rounds must keep the interned core
    consistent (empty levels, stable cumulative sets, no new work)."""
    bench = next(b for b in FCR_BENCHES if b.row.startswith("9/"))
    cpds, _prop = bench.build()
    engine = ExplicitReach(cpds)
    while not engine.plateaued_at(engine.k):
        engine.advance()
    k0 = engine.k
    states_at_plateau = engine.states_up_to()
    visible_at_plateau = engine.visible_up_to()
    n_states = engine.n_states
    with scoped() as warm_work:
        engine.ensure_level(k0 + 2)
    assert engine.k == k0 + 2
    for k in range(k0, k0 + 3):
        assert engine.plateaued_at(k)
        assert engine.states_new_at(k) == frozenset()
    assert engine.states_up_to() == states_at_plateau
    assert engine.visible_up_to() == visible_at_plateau
    assert engine.n_states == n_states
    # An empty frontier shards into zero views: no saturation happens.
    assert warm_work.get("explicit.expansions", 0) == 0
    assert warm_work.get("explicit.level_unique_views", 0) == 0


#: name -> (explicit.replay_pairs, explicit.level_unique_views) of a
#: fresh engine advanced to its plateau.  Same-thread pruning never
#: expands a state by the thread whose context produced it; re-expanding
#: the mover (3,780,528 / 7,802 and 4,153 / 320 before pruning) fails
#: here.  BST-Insert [2+2] replays one representative per orbit of its
#: S2×S2 thread symmetry (1,472,572 / 5,978 without the reduction).
PINNED_REPLAY_WORK = {
    "4/BST-Insert [2+2]": (411_976, 3_169),
    "1/Bluetooth-1 [1+1]": (1_131, 156),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPLAY_WORK))
def test_replay_work_pinned(name):
    bench = next(b for b in TABLE2 if b.name == name)
    cpds, _prop = bench.build()
    engine = ExplicitReach(cpds)
    with scoped() as work:
        while not engine.plateaued_at(engine.k):
            engine.advance()
    assert (
        work.get("explicit.replay_pairs", 0),
        work.get("explicit.level_unique_views", 0),
    ) == PINNED_REPLAY_WORK[name]


@pytest.mark.parametrize("bench", FCR_BENCHES[:4], ids=lambda b: b.row)
def test_level_views_count_the_grouped_cells(bench):
    """``explicit.level_views`` counts the (state, thread) cells actually
    grouped: every thread for the root, every thread but the mover for
    any state produced by a context."""
    cpds, _prop = bench.build()
    n = cpds.n_threads
    engine = ExplicitReach(cpds)
    for _ in range(K):
        frontier = engine.level_sizes()[-1]
        with scoped() as level_work:
            engine.advance()
        expected = n if engine.k == 1 else (n - 1) * frontier
        assert level_work.get("explicit.level_views", 0) == expected
        assert len(engine._movers) == engine.n_states


def test_mover_column_is_compact():
    assert mover_column(2, [2]).itemsize == 1
    assert mover_column(255, [255])[0] == 255
    assert mover_column(256, [256]).itemsize == 2
    assert mover_column(70_000, [70_000])[0] == 70_000
