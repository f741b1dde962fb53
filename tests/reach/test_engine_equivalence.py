"""End-to-end: explicit and symbolic engines agree on ``T(Sk)``.

``γ(Sk) = Rk`` (paper App. E), so the two engines must produce identical
visible-projection sequences ``T(R0), T(R1), ...`` on every model both
support — i.e. every registry benchmark satisfying FCR (the explicit
engine's precondition).  The agreement must hold for the memoizing
batched engines *and* the memo-free per-state oracles, and the four
runs must agree level by level, which pins down both the cross-engine
semantics and the exactness of the cross-level memos (expansion
memoization, context-tree memoization).

One configuration per registry row — the smallest — keeps the quadratic
explicit product spaces tier-1-affordable; larger configurations change
constants, not semantics (they share the thread programs).
"""

import pytest

from repro.models.registry import smallest_per_row
from repro.reach.explicit import ExplicitReach
from repro.reach.symbolic import SymbolicReach

#: Context bound up to which the sequences are compared.
K = 3

BENCHES = smallest_per_row(lambda b: b.fcr)


def _visible_sequence(engine, k_max):
    engine.ensure_level(k_max)
    return tuple(engine.visible_up_to(k) for k in range(k_max + 1))


@pytest.mark.parametrize("bench", BENCHES, ids=lambda b: b.row)
def test_explicit_and_symbolic_tsk_sequences_match(bench):
    cpds, _prop = bench.build()
    runs = {
        "explicit+memo": ExplicitReach(cpds),
        "explicit": ExplicitReach(cpds, batched=False),
        "symbolic+memo": SymbolicReach(cpds),
        "symbolic": SymbolicReach(cpds, batched=False),
    }
    sequences = {name: _visible_sequence(engine, K) for name, engine in runs.items()}
    reference = sequences["explicit"]
    for name, sequence in sequences.items():
        assert sequence == reference, (
            f"{bench.row}: T(Sk) sequence of {name} diverges from the "
            f"memo-free explicit oracle at some k <= {K}"
        )
    # Per-level increments must agree too (they derive from the same
    # cumulative sets, but this pins _record_visible bookkeeping).
    for name, engine in runs.items():
        for k in range(K + 1):
            assert engine.visible_new_at(k) == runs["explicit"].visible_new_at(k)


@pytest.mark.parametrize("bench", BENCHES[:2], ids=lambda b: b.row)
def test_symbolic_membership_matches_explicit_states(bench):
    """Spot check beyond projections: every explicitly reached global
    state is accepted by the symbolic state sets at the same bound."""
    cpds, _prop = bench.build()
    explicit = ExplicitReach(cpds)
    symbolic = SymbolicReach(cpds)
    explicit.ensure_level(K)
    symbolic.ensure_level(K)
    for k in range(K + 1):
        for state in explicit.states_up_to(k):
            assert symbolic.accepts(state, k), (state, k)
