"""Symbolic engine tests: Fig. 1 cross-validation, Fig. 2 (Ex. 8), and
the per-context ``post*`` of every Table 2 row against the naive oracle.

Fig. 2 is the decisive case: its per-context reachable sets are infinite
(no FCR), so only the symbolic engine can analyze it.
"""

import pytest

from repro.automata import NFA
from repro.automata.canonical import canonical_nfa
from repro.cpds import GlobalState, VisibleState
from repro.models import fig1_cpds, fig2_cpds
from repro.models.figure2 import BOTTOM
from repro.models.registry import smallest_per_row
from repro.pds import EMPTY, PSA, PostStarEngine, post_star_naive
from repro.reach import ExplicitReach, SymbolicReach
from repro.reach.symbolic import embed_context, nfa_tops, word_nfa


def gs(shared, stack1, stack2):
    return GlobalState(shared, (tuple(stack1), tuple(stack2)))


class TestWordNfa:
    def test_accepts_exactly_the_word(self):
        nfa = word_nfa(("a", "b"))
        assert nfa.accepts(["a", "b"])
        assert not nfa.accepts(["a"])
        assert not nfa.accepts(["a", "b", "b"])
        assert not nfa.accepts([])

    def test_empty_word(self):
        nfa = word_nfa(())
        assert nfa.accepts([])
        assert not nfa.accepts(["a"])


class TestNfaTops:
    def test_tops_of_word(self):
        assert nfa_tops(word_nfa(("a", "b"))) == frozenset({"a"})

    def test_tops_of_empty_word(self):
        assert nfa_tops(word_nfa(())) == frozenset({EMPTY})

    def test_tops_through_epsilon(self):
        from repro.automata import EPSILON, NFA

        nfa = NFA(initial=["i"], accepting=["f"])
        nfa.add_transition("i", EPSILON, "m")
        nfa.add_transition("m", "x", "f")
        assert nfa_tops(nfa) == frozenset({"x"})

    def test_dead_edges_ignored(self):
        from repro.automata import NFA

        nfa = NFA(initial=["i"], accepting=["f"])
        nfa.add_transition("i", "x", "f")
        nfa.add_transition("i", "y", "junk")
        assert nfa_tops(nfa) == frozenset({"x"})


class TestFig1CrossValidation:
    """On an FCR program both engines must agree on every T level."""

    def test_visible_levels_agree_with_explicit(self):
        explicit = ExplicitReach(fig1_cpds())
        symbolic = SymbolicReach(fig1_cpds())
        explicit.ensure_level(7)
        symbolic.ensure_level(7)
        for k in range(8):
            assert symbolic.visible_up_to(k) == explicit.visible_up_to(k), f"k={k}"

    def test_membership_matches_explicit(self):
        explicit = ExplicitReach(fig1_cpds())
        symbolic = SymbolicReach(fig1_cpds())
        explicit.ensure_level(4)
        symbolic.ensure_level(4)
        for k in (1, 2, 3, 4):
            for state in explicit.states_up_to(k):
                assert symbolic.accepts(state, k), f"{state} missing at k={k}"

    def test_does_not_accept_unreachable(self):
        symbolic = SymbolicReach(fig1_cpds())
        symbolic.ensure_level(4)
        assert not symbolic.accepts(gs(0, [2], [4]))
        assert not symbolic.accepts(gs(3, [1], [4]))

    def test_initial_level(self):
        symbolic = SymbolicReach(fig1_cpds())
        assert symbolic.visible_up_to(0) == frozenset(
            {VisibleState(0, (1, 4))}
        )
        assert symbolic.accepts(fig1_cpds().initial_state(), 0)


class TestFig2Example8:
    """Ex. 8: ⟨1|4,9⟩ ∈ R2 \\ R1; the sequence (Rk) collapses at 2."""

    @pytest.fixture(scope="class")
    def symbolic(self):
        engine = SymbolicReach(fig2_cpds())
        engine.ensure_level(4)
        return engine

    def test_witness_in_r2(self, symbolic):
        witness = gs(1, [4], [9])
        assert symbolic.accepts(witness, 2)

    def test_witness_not_in_r1(self, symbolic):
        witness = gs(1, [4], [9])
        assert not symbolic.accepts(witness, 1)

    def test_unbounded_recursion_within_one_context(self, symbolic):
        # foo can push 2 (4)^n within its very first context.
        for depth in (1, 2, 3):
            state = gs(0, [2] + [4] * depth, [6])
            assert symbolic.accepts(state, 1), f"depth {depth}"

    def test_initial_state_accepted(self, symbolic):
        assert symbolic.accepts(gs(BOTTOM, [2], [6]), 0)

    def test_sampled_r3_states_already_in_r2(self, symbolic):
        """R2 = R3 (Ex. 8): every small state in γ(S3) is in γ(S2)."""
        from itertools import product

        alphabet1 = [2, 3, 4, 5]
        alphabet2 = [6, 7, 8, 9]
        stacks1 = [()] + [tuple(w) for n in (1, 2) for w in product(alphabet1, repeat=n)]
        stacks2 = [()] + [tuple(w) for n in (1, 2) for w in product(alphabet2, repeat=n)]
        for shared in (BOTTOM, 0, 1):
            for stack1 in stacks1:
                for stack2 in stacks2:
                    state = GlobalState(shared, (stack1, stack2))
                    if symbolic.accepts(state, 3):
                        assert symbolic.accepts(state, 2), f"{state} new at 3"


class TestRealModelPostStarDifferential:
    """The worklist engine emits push-helper edges lazily, the naive
    oracle eagerly; both must give every control the same language.

    The randomized harness in ``tests/pds`` builds PDSs of a few rules
    without procedure structure; this one saturates the contexts the
    symbolic lane really expands on each Table 2 row — every unique
    thread view of its first two levels — and compares canonical
    signatures per co-reachable control."""

    @pytest.mark.parametrize(
        "bench", smallest_per_row(), ids=lambda bench: bench.row
    )
    def test_first_two_levels_match_naive(self, bench):
        cpds, _prop = bench.build()
        engine = SymbolicReach(cpds)
        engine.ensure_level(1)
        views = {}
        for level in engine.levels[:2]:
            for state in level:
                for index in range(cpds.n_threads):
                    key = (index, state.shared, state.signatures[index])
                    views.setdefault(key, state.automata[index])
        controls = cpds.shared_states
        compared = 0
        for (index, shared, _signature), automaton in views.items():
            pds = cpds.thread(index)
            alphabet = cpds.symbol_table(index)
            edges, accepting = embed_context(shared, automaton)
            lazy = PostStarEngine.from_edges(
                pds, edges, accepting, controls=controls
            ).detach_nfa()
            initial = NFA(states=controls, accepting=accepting)
            initial.add_transitions(edges)
            eager = post_star_naive(pds, PSA(initial, controls)).automaton
            coreachable = lazy.coreachable_states() & controls
            assert coreachable == eager.coreachable_states() & controls
            for control in coreachable:
                assert (
                    canonical_nfa(lazy, alphabet, initial=[control])[1]
                    == canonical_nfa(eager, alphabet, initial=[control])[1]
                ), f"thread {index} from {shared!r}, control {control!r}"
                compared += 1
        assert compared >= len(views)
