"""Tests for post* saturation and pushdown store automata.

The centerpiece golden test is the PDS of the paper's Fig. 7 (App. C),
whose reachable set from ⟨q0|σ0⟩ is infinite but regular.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ContextExplosionError, ModelError
from repro.automata import NFA
from repro.models.random_gen import random_cpds
from repro.pds import (
    EMPTY,
    PDS,
    PDSState,
    PSA,
    post_star,
    post_star_explicit,
    psa_for_configs,
)
from repro.pds.saturation import shallow_configs_psa
from repro.util import scoped


def fig7_pds():
    """App. C, Fig. 7: P over Q={q0,q1,q2}, Σ={s0,s1,s2}."""
    pds = PDS(initial_shared="q0")
    pds.rule("q0", "s0", "q1", ("s1", "s0"))
    pds.rule("q1", "s1", "q2", ("s2", "s0"))
    pds.rule("q2", "s2", "q0", ("s1",))
    pds.rule("q0", "s1", "q0", ())
    return pds


class TestPsaForConfigs:
    def test_accepts_exactly_given_configs(self):
        pds = fig7_pds()
        configs = [PDSState("q0", ("s0",)), PDSState("q1", ("s1", "s0"))]
        psa = psa_for_configs(pds, configs)
        for config in configs:
            assert psa.accepts(config)
        assert not psa.accepts(PDSState("q0", ()))
        assert not psa.accepts(PDSState("q1", ("s0",)))
        assert not psa.accepts(PDSState("q2", ("s1", "s0")))

    def test_empty_stack_config(self):
        pds = fig7_pds()
        psa = psa_for_configs(pds, [PDSState("q1", ())])
        assert psa.accepts(PDSState("q1", ()))
        assert not psa.accepts(PDSState("q0", ()))

    def test_accepts_pair_form(self):
        pds = fig7_pds()
        psa = psa_for_configs(pds, [("q0", ("s0",))])
        assert psa.accepts_config("q0", ("s0",))

    def test_unknown_shared_state_rejected(self):
        with pytest.raises(ModelError):
            psa_for_configs(fig7_pds(), [PDSState("zz", ())])


class TestPostStarFig7:
    def test_matches_explicit_on_finite_prefix(self):
        pds = fig7_pds()
        start = PDSState("q0", ("s0",))
        psa = post_star(pds, psa_for_configs(pds, [start]))
        # The reachable set is infinite; compare against explicit search
        # truncated by steps: every explicitly reached state is accepted.
        frontier = {start}
        seen = {start}
        from repro.pds import successors

        for _round in range(8):
            nxt = set()
            for state in frontier:
                for _a, succ in successors(pds, state):
                    if succ not in seen:
                        nxt.add(succ)
            seen |= nxt
            frontier = nxt
        for state in seen:
            assert psa.accepts(state), f"missing {state}"

    def test_accepts_pumped_stacks(self):
        # ⟨q0|s0^n⟩ is reachable for every n ≥ 1 (pop after push cycle).
        pds = fig7_pds()
        psa = post_star(pds, psa_for_configs(pds, [PDSState("q0", ("s0",))]))
        for n in (1, 2, 3, 5):
            assert psa.accepts(PDSState("q0", ("s0",) * n))

    def test_rejects_unreachable_states(self):
        pds = fig7_pds()
        psa = post_star(pds, psa_for_configs(pds, [PDSState("q0", ("s0",))]))
        assert not psa.accepts(PDSState("q0", ()))  # stack never empties fully
        assert not psa.accepts(PDSState("q1", ("s0",)))
        assert not psa.accepts(PDSState("q2", ("s1", "s0")))

    def test_language_is_infinite(self):
        pds = fig7_pds()
        psa = post_star(pds, psa_for_configs(pds, [PDSState("q0", ("s0",))]))
        assert not psa.language_is_finite()
        assert psa.has_loop()


class TestEmptyStackRules:
    def test_empty_push_fires_only_when_empty_reachable(self):
        pds = PDS(initial_shared=0)
        pds.rule(0, None, 1, ("a",))
        psa = post_star(pds)  # initial ⟨0|ε⟩
        assert psa.accepts(PDSState(0, ()))
        assert psa.accepts(PDSState(1, ("a",)))
        assert not psa.accepts(PDSState(1, ()))

    def test_empty_overwrite_chains(self):
        pds = PDS(initial_shared=0, shared_states={0, 1, 2})
        pds.rule(0, None, 1, ())
        pds.rule(1, None, 2, ())
        psa = post_star(pds)
        assert psa.accepts(PDSState(2, ()))

    def test_pop_then_empty_push_interaction(self):
        # Pop empties the stack, then an empty-push restarts it.
        pds = PDS(initial_shared=0)
        pds.rule(0, "a", 1, ())        # pop
        pds.rule(1, None, 0, ("a",))   # empty push back
        start = psa_for_configs(pds, [PDSState(0, ("a",))])
        psa = post_star(pds, start)
        assert psa.accepts(PDSState(1, ()))
        assert psa.accepts(PDSState(0, ("a",)))
        explicit = post_star_explicit(pds, PDSState(0, ("a",)))
        assert explicit == {PDSState(0, ("a",)), PDSState(1, ())}

    def test_pop_below_initial_stack(self):
        # Stack of size 2: pops twice, shared state records the count.
        pds = PDS(initial_shared=0, shared_states={0, 1, 2})
        pds.rule(0, "a", 1, ())
        pds.rule(1, "a", 2, ())
        psa = post_star(pds, psa_for_configs(pds, [PDSState(0, ("a", "a"))]))
        assert psa.accepts(PDSState(1, ("a",)))
        assert psa.accepts(PDSState(2, ()))
        assert not psa.accepts(PDSState(2, ("a",)))


class TestPreconditions:
    def test_transition_into_control_state_rejected(self):
        pds = fig7_pds()
        nfa = NFA(states=pds.shared_states, accepting=["f"])
        nfa.add_transition("q0", "s0", "q1")  # illegal: into control state
        with pytest.raises(ModelError):
            post_star(pds, PSA(nfa, pds.shared_states))

    def test_accepting_control_state_rejected(self):
        pds = fig7_pds()
        nfa = NFA(states=pds.shared_states, accepting=["q0"])
        with pytest.raises(ModelError):
            post_star(pds, PSA(nfa, pds.shared_states))


class TestTops:
    def test_tops_of_fig7(self):
        pds = fig7_pds()
        psa = post_star(pds, psa_for_configs(pds, [PDSState("q0", ("s0",))]))
        assert psa.tops("q0") == frozenset({"s0", "s1"})
        assert psa.tops("q1") == frozenset({"s1"})
        assert psa.tops("q2") == frozenset({"s2"})

    def test_tops_includes_empty(self):
        pds = PDS(initial_shared=0)
        pds.rule(0, "a", 1, ())
        psa = post_star(pds, psa_for_configs(pds, [PDSState(0, ("a",))]))
        assert EMPTY in psa.tops(1)
        assert psa.tops(0) == frozenset({"a"})

    def test_tops_unknown_control(self):
        pds = fig7_pds()
        psa = post_star(pds, psa_for_configs(pds, [PDSState("q0", ("s0",))]))
        assert psa.tops("nope") == frozenset()

    def test_visible_states(self):
        pds = PDS(initial_shared=0)
        pds.rule(0, "a", 1, ())
        psa = post_star(pds, psa_for_configs(pds, [PDSState(0, ("a",))]))
        assert set(psa.visible_states()) == {(0, "a"), (1, EMPTY)}


class TestShallowConfigs:
    def test_fig7_shallow_set_is_infinite(self):
        # Fig. 7 has genuine pumping: R(Q×Σ≤1) is infinite.
        psa = shallow_configs_psa(fig7_pds())
        assert not psa.language_is_finite()

    def test_finite_program_shallow_set_finite(self):
        pds = PDS(initial_shared=0)
        pds.rule(0, "a", 1, ("b",))
        pds.rule(1, "b", 0, ())
        psa = shallow_configs_psa(pds)
        assert psa.language_is_finite()


# ---------------------------------------------------------------------------
# Property-based cross-validation: post* == explicit reachability whenever
# the reachable set is finite.
# ---------------------------------------------------------------------------

SYMBOLS = ("a", "b")
SHARED = (0, 1)


@st.composite
def random_pds(draw):
    pds = PDS(initial_shared=0, shared_states=SHARED, alphabet=SYMBOLS)
    n_rules = draw(st.integers(min_value=1, max_value=7))
    for _ in range(n_rules):
        src = draw(st.sampled_from(SHARED))
        dst = draw(st.sampled_from(SHARED))
        read = draw(st.sampled_from([None, "a", "b"]))
        if read is None:
            write = draw(st.sampled_from([(), ("a",), ("b",)]))
        else:
            write = draw(
                st.sampled_from(
                    [(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
                )
            )
        pds.rule(src, read, dst, write)
    stack = tuple(draw(st.lists(st.sampled_from(SYMBOLS), max_size=2)))
    return pds, PDSState(0, stack)


@settings(max_examples=120, deadline=None)
@given(random_pds())
def test_post_star_equals_explicit_when_finite(case):
    pds, start = case
    try:
        explicit = post_star_explicit(pds, start, max_states=1500)
    except ContextExplosionError:
        assume(False)  # divergent instance: skip
        return
    psa = post_star(pds, psa_for_configs(pds, [start]))
    max_stack = max((s.stack_size for s in explicit), default=0)
    symbolic = set(psa.enumerate_states(max_stack + 2))
    assert symbolic == explicit


@settings(max_examples=60, deadline=None)
@given(random_pds())
def test_post_star_complete_on_step_bounded_prefix(case):
    """Even for divergent instances: explicit N-step reach ⊆ L(post*)."""
    from repro.pds import successors

    pds, start = case
    psa = post_star(pds, psa_for_configs(pds, [start]))
    seen = {start}
    frontier = {start}
    for _ in range(6):
        nxt = set()
        for state in frontier:
            for _a, succ in successors(pds, state):
                if succ not in seen:
                    nxt.add(succ)
        seen |= nxt
        frontier = nxt
    for state in seen:
        assert psa.accepts(state)


@settings(max_examples=60, deadline=None)
@given(random_pds())
def test_finiteness_verdict_matches_explicit_guard(case):
    """If the PSA says the language is finite, explicit search terminates."""
    pds, start = case
    psa = post_star(pds, psa_for_configs(pds, [start]))
    if psa.language_is_finite():
        explicit = post_star_explicit(pds, start, max_states=100_000)
        max_stack = max((s.stack_size for s in explicit), default=0)
        assert set(psa.enumerate_states(max_stack + 1)) == explicit


class TestLazyPushHelpers:
    """A push rule's helper edge ``p' --ρ0--> ("__push__", p', ρ0)``
    enters the automaton only when the push first fires, so a procedure
    no entry reaches costs the saturation nothing."""

    @staticmethod
    def _pds(with_unreachable_procedure: bool) -> PDS:
        pds = PDS(initial_shared=0)
        pds.rule(0, "m0", 0, ("f0", "m1"))  # main calls f
        pds.rule(0, "f0", 0, ("f1",))
        pds.rule(0, "f1", 0, ())  # f returns
        pds.rule(0, "m1", 1, ("m2",))
        if with_unreachable_procedure:
            # g is called only from u0, which never reaches the stack.
            pds.rule(1, "u0", 1, ("g0", "u1"))
            pds.rule(1, "g0", 1, ("g1",))
            pds.rule(1, "g1", 1, ())
        return pds

    @staticmethod
    def _saturate(pds: PDS):
        with scoped() as work:
            psa = post_star(pds, psa_for_configs(pds, [PDSState(0, ("m0",))]))
        return psa, work.get("post_star.edges_added", 0)

    def test_unreachable_procedure_adds_no_edge(self):
        psa, edges = self._saturate(self._pds(True))
        transitions = set(psa.automaton.transitions())
        # Schwoon's midpoints: f's call fires, g's never does.
        assert (0, "f0", ("__push__", 0, "f0")) in transitions
        unreached = ("__push__", 1, "g0")
        assert not [t for t in transitions if unreached in (t[0], t[2])]
        assert psa.accepts_config(1, ("m2",))
        _plain, plain_edges = self._saturate(self._pds(False))
        assert edges == plain_edges


def _post_star_inputs():
    """Fig. 7 from ⟨q0|s0⟩ and every thread of a few random CPDSs from
    its initial configuration, as ``pytest.param``s."""
    pds = fig7_pds()
    yield pytest.param(pds, PDSState("q0", ("s0",)), id="fig7")
    for seed in range(4):
        cpds = random_cpds(seed)
        initial = cpds.initial_state()
        for index, pds in enumerate(cpds.threads):
            start = PDSState(initial.shared, initial.stacks[index])
            yield pytest.param(pds, start, id=f"random{seed}-t{index}")


class TestPostStarOwnsItsResult:
    """``post_star`` hands the engine's own transition dicts over without
    a copy.  The input must stay as it was, and no two results may share
    a dict: growing one automaton never shows up in another."""

    @staticmethod
    def _grow(nfa: NFA) -> None:
        # Touch every level of the state -> label -> targets structure:
        # each existing target set, a new label per source, a new source.
        for src, label, _dst in list(nfa.transitions()):
            nfa.add_transition(src, label, "__probe__")
            nfa.add_transition(src, "__probe_label__", "__probe__")
        nfa.add_transition("__probe_src__", "__probe_label__", "__probe__")

    @pytest.mark.parametrize("pds, start", _post_star_inputs())
    def test_input_and_other_results_untouched(self, pds, start):
        initial = psa_for_configs(pds, [start])
        edges_before = set(initial.automaton.transitions())
        first = post_star(pds, initial)
        assert set(initial.automaton.transitions()) == edges_before
        second = post_star(pds, initial)
        second_edges = set(second.automaton.transitions())
        assert set(first.automaton.transitions()) == second_edges
        self._grow(first.automaton)
        assert set(second.automaton.transitions()) == second_edges
        assert set(initial.automaton.transitions()) == edges_before
