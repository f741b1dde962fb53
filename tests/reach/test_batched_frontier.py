"""Batched frontier expansion ≡ per-state expansion, level for level.

:meth:`SymbolicReach.advance` groups each level's thread views by
``(thread, shared, signature)`` and expands every unique view once; the
memo-free per-state path (``batched=False``) is the seed behavior kept
as the differential oracle.  The two must produce identical
symbolic-state levels and identical ``T(Sk)`` sequences on every
registry model, and METER must confirm the batching invariant: every
unique view per level is exactly one saturation or one hit of the
cross-level memo.
"""

import pytest

from repro.models.registry import smallest_per_row
from repro.reach.symbolic import SymbolicReach
from repro.util.meter import scoped

K = 3

FCR_BENCHES = smallest_per_row(lambda b: b.fcr)
ALL_BENCHES = smallest_per_row()


def _signature_levels(engine):
    return [
        frozenset((s.shared, s.signatures) for s in level) for level in engine.levels
    ]


@pytest.mark.parametrize("bench", ALL_BENCHES, ids=lambda b: b.row)
def test_batched_levels_match_per_state_levels(bench):
    cpds, _prop = bench.build()
    batched = SymbolicReach(cpds)
    per_state = SymbolicReach(cpds, batched=False)
    batched.ensure_level(K)
    per_state.ensure_level(K)
    assert _signature_levels(batched) == _signature_levels(per_state)
    for k in range(K + 1):
        assert batched.visible_up_to(k) == per_state.visible_up_to(k), f"k={k}"
        assert batched.visible_new_at(k) == per_state.visible_new_at(k), f"k={k}"


@pytest.mark.parametrize("bench", FCR_BENCHES[:3], ids=lambda b: b.row)
def test_batched_matches_non_incremental_per_state(bench):
    """Cross both axes: a batched engine restored mid-run (its memo read
    back from the blob) vs the memo-free per-state oracle."""
    cpds, _prop = bench.build()
    fast = SymbolicReach(cpds)
    fast.ensure_level(1)
    resumed = SymbolicReach.restore(cpds, fast.snapshot())
    naive = SymbolicReach(cpds, batched=False)
    resumed.ensure_level(K)
    naive.ensure_level(K)
    assert _signature_levels(resumed) == _signature_levels(naive)


@pytest.mark.parametrize("bench", ALL_BENCHES[:4], ids=lambda b: b.row)
def test_one_expansion_per_unique_view_per_level(bench):
    """METER invariant, per level: every unique view is exactly one
    saturation or one hit of the cross-level memo."""
    cpds, _prop = bench.build()
    engine = SymbolicReach(cpds)
    for _ in range(K):
        with scoped() as level_work:
            engine.advance()
        unique = level_work.get("symbolic.level_unique_views", 0)
        expansions = level_work.get("symbolic.expansions", 0)
        hits = level_work.get("symbolic.expansion_cache_hits", 0)
        views = level_work.get("symbolic.level_views", 0)
        assert expansions + hits == unique, (
            f"level {engine.k}: {expansions} saturations + {hits} memo hits "
            f"for {unique} unique views"
        )
        assert views >= unique


def test_per_state_mode_expands_duplicates():
    """Sanity check that the oracle really is less shared: on a model
    whose frontier repeats thread views (FileCrawler), the memo-free
    per-state path saturates strictly more often than batching."""
    bench = next(b for b in ALL_BENCHES if b.row.startswith("5/"))
    cpds, _prop = bench.build()
    with scoped() as batched_work:
        SymbolicReach(cpds).ensure_level(K)
    with scoped() as per_state_work:
        SymbolicReach(cpds, batched=False).ensure_level(K)
    assert (
        per_state_work["symbolic.expansions"] > batched_work["symbolic.expansions"]
    )
