"""Same-thread pruning of the explicit ``(Rk)`` replay.

The batched engine never expands a state by its *mover*, the thread
whose context first produced it (see "Same-thread pruning" in
:mod:`repro.reach.explicit`).  This suite checks that the pruning is
exact and that every replay path prunes alike:

* On random CPDSs with 3–4 threads (where one state is often produced by
  several threads at one level) the pruned engine equals the unpruned
  per-state oracle level for level, and diverges at the same level when
  the oracle does.  Ids may differ: the view insertion order changed.
* The numpy replay paths, forced on for every level, assign the serial
  loop's ids, parents and movers, so they prune the same cells.
* Every unsafe Table 2 row still yields a replayable witness.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuba import scheme1_rk
from repro.errors import ContextExplosionError
from repro.models import runnable_benchmarks
from repro.models.random_gen import RandomSpec, random_cpds
from repro.reach import vectorized
from repro.reach.config import EngineConfig
from repro.reach.explicit import ExplicitReach
from repro.reach.witness import validate_trace
from repro.util.meter import scoped

K = 4
MAX_STATES = 200

METER_KEYS = (
    "explicit.expansions",
    "explicit.level_views",
    "explicit.level_unique_views",
    "explicit.context_cache_hits",
    "explicit.context_cache_misses",
    "explicit.replay_pairs",
)

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
THREE_THREADS = RandomSpec(
    n_threads=3, n_shared=3, rules_per_thread=6, push_bias=0.15,
    empty_read_bias=0.3, max_initial_stack=2,
)

needs_numpy = pytest.mark.skipif(
    not vectorized.numpy_available(), reason="numpy not installed"
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
        cpds, max_states_per_context=MAX_STATES, track_traces=False,
        config=EngineConfig(backend="python"),
    )
    oracle = ExplicitReach(
        cpds, max_states_per_context=MAX_STATES, track_traces=False,
        config=EngineConfig(batched=False),
    )
    assert _advance_to(pruned, K) == _advance_to(oracle, K)
    assert pruned.k == oracle.k
    # A partial level rolled back truncates the mover column too.
    assert len(pruned._movers) == pruned.n_states
    assert len(oracle._movers) == oracle.n_states
    for k in range(pruned.k + 1):
        assert pruned.states_new_at(k) == oracle.states_new_at(k), f"k={k}"
        assert pruned.visible_new_at(k) == oracle.visible_new_at(k), f"k={k}"


@needs_numpy
@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
@pytest.mark.parametrize("seed", range(16))
def test_forced_numpy_paths_record_the_serial_movers(seed, track, monkeypatch):
    """With the work floors at 1, every level groups through
    ``vectorized.group_views`` and replays through
    ``vectorized.replay_level``; ids, movers, parents and METER must
    equal the scalar loop's exactly."""
    monkeypatch.setattr(vectorized, "NUMPY_MIN_WORK", 1)
    monkeypatch.setattr(vectorized, "NUMPY_MIN_ENTRY_AVG", 1)
    cpds = random_cpds(seed, THREE_THREADS)
    engines = [
        ExplicitReach(
            cpds, max_states_per_context=MAX_STATES, track_traces=track,
            config=EngineConfig(backend=backend),
        )
        for backend in ("python", "numpy")
    ]
    deltas = []
    for engine in engines:
        with scoped() as work:
            exploded = _advance_to(engine, K)
        deltas.append(work)
    if exploded is not None:
        pytest.skip("non-FCR instance")
    python, numpy = engines
    assert python._level_ids == numpy._level_ids
    assert python._movers == numpy._movers
    assert python._parents == numpy._parents
    for key in METER_KEYS:
        assert deltas[0].get(key, 0) == deltas[1].get(key, 0), key
    if deltas[0].get("explicit.replay_pairs", 0):
        assert deltas[1].get("explicit.replay_numpy_views", 0) > 0


@pytest.mark.parametrize(
    "bench",
    [bench for bench in runnable_benchmarks() if not bench.safe],
    ids=lambda bench: bench.name,
)
def test_unsafe_table2_witnesses_replay(bench):
    cpds, prop = bench.build()
    result = scheme1_rk(cpds, prop, max_rounds=bench.max_rounds, config=EngineConfig())
    assert result.is_unsafe
    validate_trace(cpds, result.trace)
    assert prop.violated_by(result.trace.target.visible())
