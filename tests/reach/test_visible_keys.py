"""``T(Rk)`` kept as visible keys by the explicit engine.

The explicit lane never builds a ``VisibleState`` to answer the
algorithms' questions: it records each level's new visible keys as ints, tests
properties on them, and serves ``visible_up_to`` as a key-backed set
view (see "T(Rk) as visible keys" in :mod:`repro.reach.explicit`).
This suite checks the key path against the decoded states:

* per level, the decoded ``visible_new_at(k)`` equals the projections of
  that level's global states minus ``T(R≤k−1)``;
* for each of the four property classes, ``violation_at`` is None iff
  ``find_violation`` on the decoded level is, and otherwise returns the
  greatest violator by ``visible_token`` (a value order, independent of
  the key numbering);
* ``GeneratorSearch.unseen`` answers the same on the view as on its
  frozenset;
* ``in`` is False for a visible state whose shared state or top was
  never interned, and asking never interns anything;
* a SAFE verify decodes no ``VisibleState`` beyond level 0's.
"""

import pytest

from repro.core.property import (
    AlwaysSafe,
    MutualExclusion,
    SharedStateReachability,
    VisiblePredicate,
    visible_token,
)
from repro.cpds.interning import StateTable
from repro.cpds.state import GlobalState, VisibleState
from repro.cuba import Cuba
from repro.cuba.generators import generator_analysis
from repro.cuba.overapprox import GeneratorSearch
from repro.errors import ContextExplosionError
from repro.models import runnable_benchmarks
from repro.models.random_gen import RandomSpec, random_cpds
from repro.models.registry import smallest_per_row
from repro.pds.state import EMPTY
from repro.reach.explicit import ExplicitReach
from repro.util.meter import scoped

K = 3
MAX_STATES = 300

FCR_BENCHES = smallest_per_row(lambda b: b.fcr)
SPEC = RandomSpec(
    n_threads=2, n_shared=3, n_symbols=2, rules_per_thread=5, max_initial_stack=2
)
SEEDS = range(30)

@pytest.fixture(params=["python"])
def backend(request):
    """The replay loop under test; ``python`` names the one loop there
    is (the param keeps the test ids stable)."""
    return request.param


def _properties(cpds):
    """One property per class, each aimed at states the model has."""
    shared = sorted(cpds.shared_states, key=repr)
    tops = [sorted(cpds.alphabet(index), key=repr) for index in range(cpds.n_threads)]
    critical = {
        index: {EMPTY, *symbols[: len(symbols) // 2 + 1]}
        for index, symbols in enumerate(tops)
    }
    return [
        SharedStateReachability(shared[len(shared) // 2 :]),
        SharedStateReachability({("never", "interned")}),
        MutualExclusion(critical),
        AlwaysSafe(),
        VisiblePredicate(lambda v: repr(v.tops).count("1") >= 1, "a top mentions 1"),
    ]


def _check_engine(cpds, engine):
    cumulative: set = set()
    table = engine.table
    for k in range(engine.k + 1):
        expected = {state.visible() for state in engine.states_new_at(k)} - cumulative
        decoded = engine.visible_new_at(k)
        assert decoded == expected, f"k={k}"
        cumulative |= decoded
        view = engine.visible_up_to(k)
        assert len(view) == len(cumulative) and view == cumulative, f"k={k}"
        assert engine.visible_plateaued_at(k) == (k >= 1 and not decoded)
        for prop in _properties(cpds):
            witness = engine.violation_at(k, prop)
            reference = prop.find_violation(decoded)
            assert (witness is None) == (reference is None), (k, prop.describe())
            if witness is not None:
                assert witness in decoded and prop.violated_by(witness)
                violators = [v for v in decoded if prop.violated_by(v)]
                assert witness == max(violators, key=visible_token)

    sizes = (len(table._shareds), [len(ids) for ids in table._top_ids], len(table))
    view = engine.visible_up_to()
    initial = cpds.initial_state().visible()
    assert initial in view
    assert VisibleState(("never", "interned"), initial.tops) not in view
    alien_tops = (object(),) + initial.tops[1:]
    assert VisibleState(initial.shared, alien_tops) not in view
    assert VisibleState(initial.shared, initial.tops + (EMPTY,)) not in view
    assert "not a visible state" not in view
    assert (len(table._shareds), [len(ids) for ids in table._top_ids], len(table)) == sizes

    analysis = generator_analysis(cpds)
    on_view = GeneratorSearch(cpds, analysis).unseen(view)
    on_set = GeneratorSearch(cpds, analysis).unseen(frozenset(view))
    assert on_view == on_set


def _engine(cpds):
    return ExplicitReach(cpds, max_states_per_context=MAX_STATES)


#: Every batched engine records witness parents; the one value keeps
#: the test ids stable, as ``backend`` does.
TRACKED = pytest.mark.parametrize("track", ["tracked"])


@TRACKED
@pytest.mark.parametrize("bench", FCR_BENCHES, ids=lambda b: b.row)
def test_registry_rows(bench, backend, track):
    cpds, _prop = bench.build()
    engine = _engine(cpds)
    engine.ensure_level(K)
    _check_engine(cpds, engine)


@TRACKED
@pytest.mark.parametrize("seed", SEEDS)
def test_random_models(seed, backend, track):
    cpds = random_cpds(seed, SPEC)
    engine = _engine(cpds)
    try:
        engine.ensure_level(K)
    except ContextExplosionError:
        pytest.skip("non-FCR instance")
    _check_engine(cpds, engine)


def test_safe_verify_decodes_nothing_past_level_zero():
    """Regression guard: the algorithms read ``T(Rk)`` as keys, so a SAFE
    verdict materializes no ``VisibleState`` beyond level 0's."""
    bench = next(b for b in runnable_benchmarks() if b.name == "4/BST-Insert [2+1]")
    cpds, prop = bench.build()
    with scoped() as work:
        report = Cuba(cpds, prop).verify(max_rounds=bench.max_rounds)
    assert report.result.is_safe
    # T(R0) is the initial state's projection alone.
    assert work.get("explicit.visible_decoded", 0) <= 1


def test_visible_keys_outgrowing_int64_become_a_list():
    """Two 31-bit top fields leave room for shared ids 0 and 1 in an
    int64 key; the third shared state turns the column into a list,
    and the keys stay exact."""
    table = StateTable(2, top_bits=(31, 31))
    states = [GlobalState(q, (("a",), ("b", "c"))) for q in range(5)]
    sids = [table.intern(state) for state in states]
    assert isinstance(table._vkeys, list)
    assert table._vkeys[2] >= 1 << 63
    for state, sid in zip(states, sids):
        assert table.visible(sid) == state.visible()
        assert table.encode_visible(state.visible()) == table._vkeys[sid]
