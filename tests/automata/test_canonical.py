"""Tests for canonical language signatures and their memoization."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import EPSILON, NFA, canonical_signature, determinize, language_equal
from repro.automata.canonical import canonical_cache_clear, canonical_nfa
from repro.util.meter import scoped

ALPHABET = ("a", "b")


def ends_in_b():
    nfa = NFA(initial=["q0"], accepting=["q1"])
    nfa.add_transition("q0", "a", "q0")
    nfa.add_transition("q0", "b", "q0")
    nfa.add_transition("q0", "b", "q1")
    return nfa


class TestCanonicalSignature:
    def test_signature_is_hashable(self):
        hash(canonical_signature(ends_in_b(), ALPHABET))

    def test_equal_languages_equal_signatures(self):
        nfa = ends_in_b()
        assert canonical_signature(nfa, ALPHABET) == canonical_signature(
            determinize(nfa), ALPHABET
        )

    def test_renamed_states_equal_signatures(self):
        renamed = NFA(initial=["X"], accepting=["Y"])
        renamed.add_transition("X", "a", "X")
        renamed.add_transition("X", "b", "X")
        renamed.add_transition("X", "b", "Y")
        assert canonical_signature(renamed, ALPHABET) == canonical_signature(
            ends_in_b(), ALPHABET
        )

    def test_different_languages_differ(self):
        other = NFA(initial=["q0"], accepting=["q0"])
        other.add_transition("q0", "a", "q0")
        assert canonical_signature(other, ALPHABET) != canonical_signature(
            ends_in_b(), ALPHABET
        )

    def test_empty_language_signature_stable(self):
        first = canonical_signature(NFA(initial=["i"]), ALPHABET)
        second = canonical_signature(NFA(initial=["zzz"]), ALPHABET)
        assert first == second


@st.composite
def random_nfa(draw):
    n_states = draw(st.integers(min_value=1, max_value=4))
    states = list(range(n_states))
    nfa = NFA(
        initial=draw(st.sets(st.sampled_from(states), min_size=1, max_size=2)),
        accepting=draw(st.sets(st.sampled_from(states), max_size=2)),
    )
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        nfa.add_transition(
            draw(st.sampled_from(states)),
            draw(st.sampled_from(["a", "b", EPSILON])),
            draw(st.sampled_from(states)),
        )
    return nfa


@settings(max_examples=40, deadline=None)
@given(random_nfa(), random_nfa())
def test_signature_equality_iff_language_equality(left, right):
    same_sig = canonical_signature(left, ALPHABET) == canonical_signature(right, ALPHABET)
    assert same_sig == language_equal(left, right, ALPHABET)


# ---------------------------------------------------------------------------
# Memoization: structural-hash cache of canonical_nfa/canonical_signature.
# ---------------------------------------------------------------------------


def _words(max_len=4, alphabet=ALPHABET):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


class TestCanonicalMemoization:
    def test_second_call_returns_identical_cached_objects(self):
        canonical_cache_clear()
        dfa1, sig1 = canonical_nfa(ends_in_b(), ALPHABET)
        dfa2, sig2 = canonical_nfa(ends_in_b(), ALPHABET)
        assert dfa1 is dfa2
        assert sig1 is sig2

    def test_cache_hit_counted(self):
        canonical_cache_clear()
        with scoped() as work:
            canonical_nfa(ends_in_b(), ALPHABET)
            canonical_nfa(ends_in_b(), ALPHABET)
        assert work.get("canonical.cache_hits", 0) == 1
        assert work.get("canonical.cache_misses", 0) == 1

    def test_clear_forces_recomputation_with_equal_results(self):
        canonical_cache_clear()
        dfa1, sig1 = canonical_nfa(ends_in_b(), ALPHABET)
        canonical_cache_clear()
        dfa2, sig2 = canonical_nfa(ends_in_b(), ALPHABET)
        assert dfa1 is not dfa2  # fresh computation...
        assert sig1 == sig2      # ...same canonical result
        accepted1 = {w for w in _words() if dfa1.accepts(w)}
        accepted2 = {w for w in _words() if dfa2.accepts(w)}
        assert accepted1 == accepted2

    def test_mutating_input_changes_key_not_stale_result(self):
        canonical_cache_clear()
        nfa = ends_in_b()
        _, sig_before = canonical_nfa(nfa, ALPHABET)
        nfa.add_transition("q0", "a", "q1")  # language changes
        _, sig_after = canonical_nfa(nfa, ALPHABET)
        assert sig_before != sig_after

    def test_distinct_initial_views_cached_separately(self):
        canonical_cache_clear()
        nfa = ends_in_b()
        dfa_q0, sig_q0 = canonical_nfa(nfa, ALPHABET, initial=["q0"])
        dfa_q1, sig_q1 = canonical_nfa(nfa, ALPHABET, initial=["q1"])
        assert sig_q0 != sig_q1
        # Each view hits its own entry on repetition.
        assert canonical_nfa(nfa, ALPHABET, initial=["q0"])[0] is dfa_q0
        assert canonical_nfa(nfa, ALPHABET, initial=["q1"])[0] is dfa_q1


@settings(max_examples=40, deadline=None)
@given(random_nfa())
def test_cache_hits_never_change_the_accepted_language(nfa):
    """Property: the memoized result accepts exactly the input language
    (up to bounded word length), and a repeat call — a guaranteed cache
    hit — returns the identical object."""
    cold, sig = canonical_nfa(nfa, ALPHABET)
    warm, sig2 = canonical_nfa(nfa, ALPHABET)
    assert warm is cold and sig2 is sig
    for word in _words():
        assert cold.accepts(word) == nfa.accepts(word)


@settings(max_examples=30, deadline=None)
@given(random_nfa())
def test_signature_function_shares_cache_with_canonical_nfa(nfa):
    dfa, sig_pair = canonical_nfa(nfa, ALPHABET)
    assert canonical_signature(nfa, ALPHABET) is sig_pair
