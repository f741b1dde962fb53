"""Hopcroft (dense fused pipeline) vs Moore: identical canonical forms.

The dense pipeline of :mod:`repro.automata.dense` replaces the seed's
determinize → complete → Moore-refine → renumber chain on the hot path;
Moore survives in :func:`repro.automata.ops.minimize` as the oracle.
Both must produce the *same* canonical signature for every input — the
canonical minimal complete DFA is unique, so any divergence is a bug in
one of the minimizers.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import EPSILON, NFA
from repro.automata.canonical import backend, canonical_cache_clear, canonical_nfa
from repro.automata.dense import canonical_form, hopcroft, subset_tables
from repro.automata.intern import sort_symbols

ALPHABET = ("a", "b")


def _signature(nfa, alphabet, which):
    canonical_cache_clear()  # force a recomputation through `which`
    with backend(which):
        _dfa, sig = canonical_nfa(nfa, alphabet)
    return sig


@st.composite
def random_nfa(draw):
    n_states = draw(st.integers(min_value=1, max_value=5))
    states = list(range(n_states))
    nfa = NFA(
        initial=draw(st.sets(st.sampled_from(states), min_size=1, max_size=2)),
        accepting=draw(st.sets(st.sampled_from(states), max_size=3)),
    )
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        nfa.add_transition(
            draw(st.sampled_from(states)),
            draw(st.sampled_from(["a", "b", EPSILON])),
            draw(st.sampled_from(states)),
        )
    return nfa


@settings(max_examples=120, deadline=None)
@given(random_nfa())
def test_hopcroft_and_moore_identical_signatures(nfa):
    dense_sig = _signature(nfa, ALPHABET, "dense")
    moore_sig = _signature(nfa, ALPHABET, "moore")
    assert dense_sig == moore_sig
    assert dense_sig.key == moore_sig.key


@settings(max_examples=60, deadline=None)
@given(random_nfa(), st.sets(st.sampled_from([0, 1, 2, 3, 4]), min_size=1, max_size=2))
def test_backends_agree_on_entry_override(nfa, entry):
    entry = {s for s in entry if s in nfa.states} or set(nfa.initial)
    dense_sig = _signature(nfa, ALPHABET, "dense")  # warm the intern order
    del dense_sig
    canonical_cache_clear()
    with backend("dense"):
        _, dense_sig = canonical_nfa(nfa, ALPHABET, initial=entry)
    canonical_cache_clear()
    with backend("moore"):
        _, moore_sig = canonical_nfa(nfa, ALPHABET, initial=entry)
    assert dense_sig == moore_sig


@settings(max_examples=60, deadline=None)
@given(random_nfa())
def test_dense_canonical_dfa_accepts_same_language(nfa):
    canonical_cache_clear()
    with backend("dense"):
        dfa, _sig = canonical_nfa(nfa, ALPHABET)
    for length in range(5):
        for word in itertools.product(ALPHABET, repeat=length):
            assert dfa.accepts(word) == nfa.accepts(word), word


class TestDenseTables:
    def test_subset_tables_complete(self):
        nfa = NFA(initial=["i"], accepting=["f"])
        nfa.add_transition("i", "a", "f")
        symbols = sort_symbols(ALPHABET)
        rows, acc = subset_tables(nfa, symbols)
        n = len(rows)
        assert all(len(row) == len(symbols) for row in rows)
        assert all(0 <= target < n for row in rows for target in row)
        assert len(acc) == n and any(acc)

    def test_hopcroft_merges_equivalent_states(self):
        # Two states with identical futures collapse into one block.
        rows = [[1, 2], [1, 2], [2, 2]]
        accepting = [False, False, True]
        block_of = hopcroft(rows, accepting)
        assert block_of[0] == block_of[1]
        assert block_of[0] != block_of[2]

    def test_empty_language_single_state(self):
        bits, table = canonical_form(NFA(initial=["i"]), sort_symbols(ALPHABET))
        assert bits == (False,)
        assert table == ((0, 0),)

    def test_universal_language_single_state(self):
        nfa = NFA(initial=["i"], accepting=["i"])
        nfa.add_transition("i", "a", "i")
        nfa.add_transition("i", "b", "i")
        bits, table = canonical_form(nfa, sort_symbols(ALPHABET))
        assert bits == (True,)
        assert table == ((0, 0),)


class TestInverseEdgeCache:
    """Canonical forms are memoized per exact dense table: a repeated
    table (even from a differently built automaton) skips Hopcroft,
    visible through ``canonical.form_hits`` / ``canonical.form_misses``,
    and yields the form an uncached run does."""

    def _nfa(self, length=6):
        nfa = NFA(initial=[0], accepting=[length])
        for i in range(length):
            nfa.add_transition(i, "a", i + 1)
            nfa.add_transition(i, "b", i)
        return nfa

    def _word(self, word):
        """The one-word language {word}: distinct words, distinct tables."""
        nfa = NFA(initial=[0], accepting=[len(word)])
        for i, symbol in enumerate(word):
            nfa.add_transition(i, symbol, i + 1)
        return nfa

    def test_rebuilds_drop_on_repeated_canonicalization(self):
        from repro.automata import dense
        from repro.util.meter import scoped

        nfa = self._nfa()
        dense.form_cache_clear()
        canonical_cache_clear()
        with backend("dense"), scoped() as first:
            canonical_nfa(nfa, ALPHABET)
        assert first.get("canonical.form_misses", 0) == 1
        assert first.get("canonical.form_hits", 0) == 0
        # A second canonicalization (structural memo cleared, so the
        # dense pipeline runs again) hits the form memo: no Hopcroft.
        canonical_cache_clear()
        with backend("dense"), scoped() as second:
            canonical_nfa(nfa, ALPHABET)
        assert second.get("canonical.form_misses", 0) == 0
        assert second.get("canonical.form_hits", 0) == 1

    def test_small_tables_bypass_the_cache(self):
        """There is no small-table bypass any more: a 2-state table is
        memoized like any other, and ``clear_runtime_caches`` empties
        the memo."""
        from repro.automata import dense
        from repro.util.caches import clear_runtime_caches
        from repro.util.meter import scoped

        clear_runtime_caches()
        symbols = sort_symbols(ALPHABET)
        with scoped() as work:
            canonical_form(self._word("a"), symbols)
            canonical_form(self._word("a"), symbols)
        assert work.get("canonical.form_misses", 0) == 1
        assert work.get("canonical.form_hits", 0) == 1
        assert len(dense._form_cache) == 1
        clear_runtime_caches()
        assert len(dense._form_cache) == 0

    def test_cached_lists_produce_identical_partition(self):
        from repro.automata import dense

        symbols = sort_symbols(ALPHABET)
        renamed = NFA(initial=["s0"], accepting=["s6"])
        for i in range(6):
            renamed.add_transition(f"s{i}", "a", f"s{i + 1}")
            renamed.add_transition(f"s{i}", "b", f"s{i}")
        dense.form_cache_clear()
        cold = canonical_form(self._nfa(), symbols)
        assert len(dense._form_cache) == 1
        warm = canonical_form(renamed, symbols)  # same table: a hit
        assert len(dense._form_cache) == 1
        dense.form_cache_clear()
        assert cold == warm == canonical_form(renamed, symbols)

    def test_cache_is_bounded(self):
        import itertools

        from repro.automata import dense

        symbols = sort_symbols(ALPHABET)
        words = itertools.product(ALPHABET, repeat=10)
        dense.form_cache_clear()
        for word in itertools.islice(words, dense.FORM_CACHE_SIZE + 10):
            canonical_form(self._word(word), symbols)
        assert len(dense._form_cache) == dense.FORM_CACHE_SIZE


class TestUsefulEdges:
    def test_dead_sink_edges_dropped(self):
        from repro.automata.canonical import CanonicalNFA

        nfa = NFA(initial=["i"], accepting=["f"])
        nfa.add_transition("i", "a", "f")
        canonical_cache_clear()
        dfa, _sig = canonical_nfa(nfa, ALPHABET)
        assert isinstance(dfa, CanonicalNFA)
        useful = dfa.useful_edges()
        assert useful is dfa.useful_edges()  # cached
        # The complete DFA has a dead sink; no useful edge touches it.
        coreachable = dfa.coreachable_states()
        assert len(coreachable) < len(dfa)
        for src, _label, dst in useful:
            assert src in coreachable and dst in coreachable
        # The useful part still carries the accepting path.
        assert any(dst in dfa.accepting for _s, _l, dst in useful)
