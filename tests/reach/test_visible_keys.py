"""``T(Rk)`` kept as visible keys by the explicit engine.

The explicit lane never builds a ``VisibleState`` to answer the
algorithms' questions: it records each level's new visible keys as ints, tests
properties on them, and serves ``visible_up_to`` as a key-backed set
view (see "T(Rk) as visible keys" in :mod:`repro.reach.explicit`).
This suite checks the key path against the decoded states, under the
scalar loop and under numpy with its work floors forced to 1 (every
level replays through ``vectorized.replay_level``):

* per level, the decoded ``visible_new_at(k)`` equals the projections of
  that level's global states minus ``T(R≤k−1)``;
* for each of the four property classes, ``violation_at`` is None iff
  ``find_violation`` on the decoded level is, and otherwise returns the
  violator with the smallest key;
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
from repro.reach import vectorized
from repro.reach.config import EngineConfig
from repro.reach.explicit import ExplicitReach
from repro.util.meter import scoped

K = 3
MAX_STATES = 300

FCR_BENCHES = smallest_per_row(lambda b: b.fcr)
SPEC = RandomSpec(
    n_threads=2, n_shared=3, n_symbols=2, rules_per_thread=5, max_initial_stack=2
)
SEEDS = range(30)

BACKENDS = ["python"] + (["numpy"] if vectorized.numpy_available() else [])


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setattr(vectorized, "NUMPY_MIN_WORK", 1)
        monkeypatch.setattr(vectorized, "NUMPY_MIN_ENTRY_AVG", 1)
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
                keys = [table.encode_visible(v) for v in decoded if prop.violated_by(v)]
                assert table.encode_visible(witness) == min(keys)

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


def _engine(cpds, backend, track):
    return ExplicitReach(
        cpds,
        max_states_per_context=MAX_STATES,
        track_traces=track,
        config=EngineConfig(backend=backend),
    )


@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
@pytest.mark.parametrize("bench", FCR_BENCHES, ids=lambda b: b.row)
def test_registry_rows(bench, backend, track):
    cpds, _prop = bench.build()
    engine = _engine(cpds, backend, track)
    engine.ensure_level(K)
    _check_engine(cpds, engine)


@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
@pytest.mark.parametrize("seed", SEEDS)
def test_random_models(seed, backend, track):
    cpds = random_cpds(seed, SPEC)
    engine = _engine(cpds, backend, track)
    try:
        engine.ensure_level(K)
    except ContextExplosionError:
        pytest.skip("non-FCR instance")
    _check_engine(cpds, engine)


def test_backends_record_identical_keys(monkeypatch):
    if not vectorized.numpy_available():
        pytest.skip("numpy not installed")
    monkeypatch.setattr(vectorized, "NUMPY_MIN_WORK", 1)
    monkeypatch.setattr(vectorized, "NUMPY_MIN_ENTRY_AVG", 1)
    for bench in FCR_BENCHES:
        cpds, _prop = bench.build()
        python, numpy = (_engine(cpds, name, True) for name in ("python", "numpy"))
        python.ensure_level(K)
        numpy.ensure_level(K)
        assert list(python.table._vkeys) == list(numpy.table._vkeys), bench.row
        assert python._vnew == numpy._vnew, bench.row


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
    which also routes numpy replay to the scalar loop."""
    table = StateTable(2, top_bits=(31, 31))
    states = [GlobalState(q, (("a",), ("b", "c"))) for q in range(5)]
    sids = [table.intern(state) for state in states]
    assert isinstance(table._vkeys, list)
    assert not table.vkeys_fit_int64
    assert not vectorized.table_fits_int64(table)
    for state, sid in zip(states, sids):
        assert table.visible(sid) == state.visible()
        assert table.encode_visible(state.visible()) == table._vkeys[sid]
