"""The dense-table form memo of :func:`repro.automata.dense.canonical_form`.

``canonical_form`` keys one bounded LRU by the exact ``(rows,
accepting)`` table its subset construction produced and runs Hopcroft
only on a miss.  These tests drive it with random complete tables
(wrapped as NFAs) and pin that the memo never changes an answer:

* a cold run yields the minimal form — the one the Moore oracle
  :func:`~repro.automata.canonical.moore_canonical_form` produces;
* an exact repeat is a ``canonical.form_hits`` hit with the same form,
  a different table is a ``canonical.form_misses`` miss;
* the memo stays within :data:`~repro.automata.dense.FORM_CACHE_SIZE`
  and :func:`~repro.automata.dense.form_cache_clear` empties it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import NFA, dense
from repro.automata.canonical import moore_canonical_form
from repro.automata.dense import canonical_form
from repro.automata.intern import sort_symbols
from repro.util.meter import scoped

N_STATES = 40
SYMBOLS = tuple(sort_symbols(("a", "b")))


def _random_table(rng, n=N_STATES, m=len(SYMBOLS)):
    rows = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
    acc = [rng.random() < 0.3 for _ in range(n)]
    return rows, acc


def _as_nfa(rows, acc):
    """The complete DFA ``rows``/``acc`` as an NFA entered at state 0."""
    nfa = NFA(initial=[0], accepting=[q for q, a in enumerate(acc) if a])
    for q, row in enumerate(rows):
        nfa.add_state(q)
        for symbol, target in zip(SYMBOLS, row):
            nfa.add_transition(q, symbol, target)
    return nfa


def _moore_form(nfa):
    return moore_canonical_form(nfa, SYMBOLS)


class TestIncrementalEqualsFull:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_cold_path_is_minimal(self, seed):
        nfa = _as_nfa(*_random_table(random.Random(seed)))
        dense.form_cache_clear()
        with scoped() as work:
            form = canonical_form(nfa, SYMBOLS)
        assert work.get("canonical.form_misses", 0) == 1
        assert form == _moore_form(nfa)

    def test_exact_repeat_returns_the_cached_partition(self):
        rows, acc = _random_table(random.Random(7))
        dense.form_cache_clear()
        first = canonical_form(_as_nfa(rows, acc), SYMBOLS)
        with scoped() as work:
            second = canonical_form(_as_nfa(rows, acc), SYMBOLS)
        assert second == first
        assert work.get("canonical.form_hits", 0) == 1
        assert work.get("canonical.form_misses", 0) == 0


class TestMeterCounters:
    def test_distant_tables_miss(self):
        dense.form_cache_clear()
        canonical_form(_as_nfa(*_random_table(random.Random(3))), SYMBOLS)
        other = _as_nfa(*_random_table(random.Random(4)))
        with scoped() as work:
            canonical_form(other, SYMBOLS)
        assert work.get("canonical.form_misses", 0) == 1
        assert work.get("canonical.form_hits", 0) == 0

    def test_incremental_cache_is_bounded(self):
        dense.form_cache_clear()
        rng = random.Random(11)
        for _ in range(dense.FORM_CACHE_SIZE + 10):
            canonical_form(_as_nfa(*_random_table(rng, n=35)), SYMBOLS)
        assert len(dense._form_cache) <= dense.FORM_CACHE_SIZE

    def test_pre_cache_clear_drops_the_incremental_cache(self):
        canonical_form(_as_nfa(*_random_table(random.Random(13))), SYMBOLS)
        assert len(dense._form_cache) >= 1
        dense.form_cache_clear()
        assert len(dense._form_cache) == 0
