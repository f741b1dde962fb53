"""Same-thread pruning of the explicit ``(Rk)`` replay.

The batched engine never expands a state by its *mover*, the thread
whose context first produced it (see "Same-thread pruning" in
:mod:`repro.reach.explicit`).  This suite checks that the pruning is
exact:

* On random CPDSs with 3–4 threads (where one state is often produced by
  several threads at one level) the pruned engine equals the unpruned
  per-state oracle level for level, and diverges at the same level when
  the oracle does.  Ids may differ: the view insertion order changed.
* Every unsafe Table 2 row still yields a replayable witness.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuba import scheme1_rk
from repro.errors import ContextExplosionError
from repro.models import runnable_benchmarks
from repro.models.random_gen import RandomSpec, random_cpds
from repro.reach.explicit import ExplicitReach
from repro.reach.witness import validate_trace

K = 4
MAX_STATES = 200

#: Few pushes and nonempty initial stacks keep most instances FCR and
#: growing for several levels (tens to hundreds of states).
WIDE_SPECS = st.builds(
    RandomSpec,
    n_threads=st.integers(min_value=3, max_value=4),
    n_shared=st.integers(min_value=3, max_value=4),
    n_symbols=st.just(2),
    rules_per_thread=st.integers(min_value=4, max_value=8),
    push_bias=st.just(0.15),
    empty_read_bias=st.just(0.3),
    max_initial_stack=st.just(2),
)


def _advance_to(engine, k_max):
    """Advance to ``k_max``; return the level whose advance raised
    :class:`ContextExplosionError`, or None."""
    while engine.k < k_max:
        try:
            engine.advance()
        except ContextExplosionError:
            return engine.k + 1
    return None


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), spec=WIDE_SPECS)
def test_pruned_engine_matches_per_state_oracle(seed, spec):
    cpds = random_cpds(seed, spec)
    pruned = ExplicitReach(
        cpds, max_states_per_context=MAX_STATES
    )
    oracle = ExplicitReach(
        cpds, max_states_per_context=MAX_STATES, batched=False
    )
    assert _advance_to(pruned, K) == _advance_to(oracle, K)
    assert pruned.k == oracle.k
    # A partial level rolled back truncates the mover column too.
    assert len(pruned._movers) == pruned.n_states
    assert len(oracle._movers) == oracle.n_states
    for k in range(pruned.k + 1):
        assert pruned.states_new_at(k) == oracle.states_new_at(k), f"k={k}"
        assert pruned.visible_new_at(k) == oracle.visible_new_at(k), f"k={k}"


@pytest.mark.parametrize(
    "bench",
    [bench for bench in runnable_benchmarks() if not bench.safe],
    ids=lambda bench: bench.name,
)
def test_unsafe_table2_witnesses_replay(bench):
    cpds, prop = bench.build()
    result = scheme1_rk(cpds, prop, max_rounds=bench.max_rounds)
    assert result.is_unsafe
    validate_trace(cpds, result.trace)
    assert prop.violated_by(result.trace.target.visible())
