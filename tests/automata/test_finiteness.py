"""Tests for language finiteness / loop analysis (drives the FCR check)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import EPSILON, NFA, enumerate_words, has_graph_cycle, language_is_finite
from repro.automata.finiteness import loop_analysis
from repro.cuba.fcr import check_fcr, thread_shallow_psa
from repro.models import runnable_benchmarks
from repro.reach.wuba import WubaReach


def chain(words_accepting=True):
    nfa = NFA(initial=["0"], accepting=["2"])
    nfa.add_transition("0", "a", "1")
    nfa.add_transition("1", "b", "2")
    return nfa


class TestLanguageIsFinite:
    def test_finite_chain(self):
        assert language_is_finite(chain())

    def test_infinite_self_loop(self):
        nfa = chain()
        nfa.add_transition("1", "a", "1")
        assert not language_is_finite(nfa)

    def test_infinite_two_state_cycle(self):
        nfa = chain()
        nfa.add_transition("1", "x", "0")
        assert not language_is_finite(nfa)

    def test_useless_cycle_is_ignored(self):
        nfa = chain()
        # Cycle reachable but not co-reachable to accepting.
        nfa.add_transition("0", "z", "junk")
        nfa.add_transition("junk", "z", "junk")
        assert language_is_finite(nfa)

    def test_unreachable_cycle_is_ignored(self):
        nfa = chain()
        nfa.add_transition("ghost", "z", "ghost")
        nfa.add_transition("ghost", "a", "2")
        assert language_is_finite(nfa)

    def test_epsilon_only_cycle_is_finite(self):
        nfa = chain()
        # ε-only cycle between "1" and a helper: pumps nothing.
        nfa.add_transition("1", EPSILON, "m")
        nfa.add_transition("m", EPSILON, "1")
        assert language_is_finite(nfa)

    def test_empty_language_is_finite(self):
        assert language_is_finite(NFA(initial=["i"]))

    def test_epsilon_cycle_with_real_edge_inside_is_infinite(self):
        nfa = chain()
        nfa.add_transition("1", EPSILON, "m")
        nfa.add_transition("m", "c", "1")
        assert not language_is_finite(nfa)


class TestHasGraphCycle:
    def test_acyclic(self):
        assert not has_graph_cycle(chain())

    def test_self_loop(self):
        nfa = chain()
        nfa.add_transition("1", "a", "1")
        assert has_graph_cycle(nfa)

    def test_epsilon_self_loop_counts_as_graph_cycle(self):
        nfa = chain()
        nfa.add_transition("1", EPSILON, "1")
        assert has_graph_cycle(nfa)

    def test_useless_cycle_ignored_by_default(self):
        nfa = chain()
        nfa.add_transition("junk", "z", "junk")
        assert not has_graph_cycle(nfa)
        assert has_graph_cycle(nfa, useful_only=False)


class TestEnumerateWords:
    def test_enumerates_exactly(self):
        nfa = NFA(initial=["0"], accepting=["0"])
        nfa.add_transition("0", "a", "0")
        words = set(enumerate_words(nfa, 3))
        assert words == {(), ("a",), ("a", "a"), ("a", "a", "a")}

    def test_finite_language_fully_listed(self):
        words = set(enumerate_words(chain(), 5))
        assert words == {("a", "b")}


@st.composite
def random_nfa(draw):
    n_states = draw(st.integers(min_value=1, max_value=5))
    states = list(range(n_states))
    nfa = NFA(
        initial=draw(st.sets(st.sampled_from(states), min_size=1, max_size=2)),
        accepting=draw(st.sets(st.sampled_from(states), max_size=3)),
    )
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        nfa.add_transition(
            draw(st.sampled_from(states)),
            draw(st.sampled_from(["a", "b", EPSILON])),
            draw(st.sampled_from(states)),
        )
    return nfa


@settings(max_examples=80, deadline=None)
@given(random_nfa())
def test_finite_verdict_consistent_with_enumeration(nfa):
    """If declared finite, the word count must saturate well below the
    pumping threshold; if infinite, a longer word must keep appearing."""
    n = len(nfa.states)
    short = set(enumerate_words(nfa, n))
    longer = set(enumerate_words(nfa, 2 * n + 2))
    if language_is_finite(nfa):
        assert short == longer
    else:
        assert longer - short or any(len(w) > n for w in longer)


# ---------------------------------------------------------------------------
# Differential against the original quadratic scan, kept here as an oracle:
# Tarjan into a list of SCC sets, then one full pass over δ per SCC.
# ---------------------------------------------------------------------------

def _oracle_sccs(nfa: NFA, restrict: frozenset) -> list[set]:
    index_of: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[set] = []
    counter = 0
    adjacency: dict = {state: set() for state in restrict}
    for src, _label, dst in nfa.transitions():
        if src in restrict and dst in restrict:
            adjacency[src].add(dst)

    def connect(node):
        nonlocal counter
        index_of[node] = lowlink[node] = counter
        counter += 1
        stack.append(node)
        on_stack.add(node)
        for nxt in adjacency[node]:
            if nxt not in index_of:
                connect(nxt)
                lowlink[node] = min(lowlink[node], lowlink[nxt])
            elif nxt in on_stack:
                lowlink[node] = min(lowlink[node], index_of[nxt])
        if lowlink[node] == index_of[node]:
            component = set()
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.add(member)
                if member == node:
                    break
            components.append(component)

    for root in restrict:
        if root not in index_of:
            connect(root)
    return components


def oracle_language_is_finite(nfa: NFA) -> bool:
    useful = nfa.useful_states()
    for component in _oracle_sccs(nfa, useful):
        for src, label, dst in nfa.transitions():
            if src in component and dst in component and label is not EPSILON:
                return False
    return True


def oracle_has_graph_cycle(nfa: NFA, useful_only: bool = True) -> bool:
    restrict = nfa.useful_states() if useful_only else nfa.states
    for component in _oracle_sccs(nfa, restrict):
        if len(component) > 1:
            return True
        member = next(iter(component))
        for label in nfa.labels_from(member):
            if member in nfa.targets(member, label):
                return True
    return False


@st.composite
def cyclic_nfa(draw):
    """Up to 12 states with ε labels, self-loops, and cycles that are
    useless (no path to accepting) or unreachable (no path from initial)."""
    n_states = draw(st.integers(min_value=1, max_value=12))
    states = list(range(n_states))
    nfa = NFA(
        states=states,
        initial=draw(st.sets(st.sampled_from(states), max_size=2)),
        accepting=draw(st.sets(st.sampled_from(states), max_size=3)),
    )
    labels = st.sampled_from(["a", "b", EPSILON])
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        nfa.add_transition(
            draw(st.sampled_from(states)), draw(labels), draw(st.sampled_from(states))
        )
    for state in draw(st.lists(st.sampled_from(states), max_size=3)):
        nfa.add_transition(state, draw(labels), state)
    # A cycle hanging off the automaton with no way back to accepting,
    # and one that nothing initial can reach but that feeds accepting.
    if draw(st.booleans()):
        nfa.add_transition(draw(st.sampled_from(states)), "a", "dead-1")
        nfa.add_transition("dead-1", draw(labels), "dead-2")
        nfa.add_transition("dead-2", "b", "dead-1")
    if draw(st.booleans()):
        nfa.add_transition("ghost-1", draw(labels), "ghost-2")
        nfa.add_transition("ghost-2", "a", "ghost-1")
        nfa.add_transition("ghost-2", "b", draw(st.sampled_from(states)))
    return nfa


@settings(max_examples=300, deadline=None)
@given(cyclic_nfa())
def test_linear_analysis_matches_quadratic_oracle(nfa):
    finite = oracle_language_is_finite(nfa)
    loop = oracle_has_graph_cycle(nfa)
    assert language_is_finite(nfa) == finite
    assert has_graph_cycle(nfa) == loop
    assert has_graph_cycle(nfa, useful_only=False) == oracle_has_graph_cycle(
        nfa, useful_only=False
    )
    assert loop_analysis(nfa) == (finite, loop)


@settings(max_examples=150, deadline=None)
@given(cyclic_nfa(), st.sets(st.integers(min_value=0, max_value=11), max_size=3))
def test_initial_override_equals_adding_initial_states(nfa, extra):
    """``initial=`` is the copy-free form of adding initial states."""
    extra = {state for state in extra if state in nfa}
    copied = nfa.copy()
    for state in extra:
        copied.add_initial(state)
    expected = (oracle_language_is_finite(copied), oracle_has_graph_cycle(copied))
    assert loop_analysis(nfa, nfa.initial | extra) == expected


def _forbid_coreachability(monkeypatch):
    def refuse(self):
        raise AssertionError("usefulness computed on an acyclic automaton")

    monkeypatch.setattr(NFA, "coreachable_states", refuse)


def test_acyclic_nfa_skips_the_usefulness_passes(monkeypatch):
    """No edge inside an SCC: the answer is (finite, no loop) from the
    Tarjan pass alone, with or without ``useful_only``."""
    nfa = chain()
    nfa.add_transition("0", EPSILON, "2")
    nfa.add_transition("dead", "a", "0")  # unreachable, still acyclic
    _forbid_coreachability(monkeypatch)
    assert loop_analysis(nfa) == (True, False)
    assert loop_analysis(nfa, useful_only=False) == (True, False)


def test_cyclic_nfa_computes_usefulness(monkeypatch):
    nfa = chain()
    nfa.add_transition("1", "a", "1")
    _forbid_coreachability(monkeypatch)
    with pytest.raises(AssertionError, match="usefulness"):
        loop_analysis(nfa)


def test_fcr_holding_rows_skip_the_usefulness_passes(monkeypatch):
    """Every thread of an FCR row has an acyclic shallow PSA."""
    cpds, _prop = _row("1/Bluetooth-1 [1+1]").build()
    _forbid_coreachability(monkeypatch)
    assert check_fcr(cpds).holds


# ---------------------------------------------------------------------------
# The FCR / WCR preconditions on Table 2.
# ---------------------------------------------------------------------------

def _row(name: str):
    return next(bench for bench in runnable_benchmarks() if bench.name == name)


def test_fcr_scans_each_transition_at_most_twice(monkeypatch):
    """check_fcr is linear: ≤ 2·|δ| transitions() yields per thread on
    Bluetooth-1 [1+1] (the quadratic scan took ≈1.15M there)."""
    cpds, _prop = _row("1/Bluetooth-1 [1+1]").build()
    delta = sum(
        thread_shallow_psa(pds).automaton.num_transitions() for pds in cpds.threads
    )
    original = NFA.transitions
    yields = 0

    def counting(self):
        nonlocal yields
        for edge in original(self):
            yields += 1
            yield edge

    monkeypatch.setattr(NFA, "transitions", counting)
    report = check_fcr(cpds)
    assert report.holds
    assert 0 < yields <= 2 * delta, (yields, delta)


#: Per runnable Table 2 row: (thread_finite, thread_has_loop, WCR holds),
#: as computed by the quadratic scan over copied automata.
TABLE2_PRECONDITIONS = {
    "1/Bluetooth-1 [1+1]": ((True, True), (False, False), True),
    "1/Bluetooth-1 [1+2]": ((True, True, True), (False, False, False), True),
    "1/Bluetooth-1 [2+1]": ((True, True, True), (False, False, False), True),
    "2/Bluetooth-2 [1+1]": ((True, True), (False, False), True),
    "2/Bluetooth-2 [1+2]": ((True, True, True), (False, False, False), True),
    "2/Bluetooth-2 [2+1]": ((True, True, True), (False, False, False), True),
    "3/Bluetooth-3 [1+1]": ((True, True), (False, False), True),
    "3/Bluetooth-3 [1+2]": ((True, True, True), (False, False, False), True),
    "3/Bluetooth-3 [2+1]": ((True, True, True), (False, False, False), True),
    "4/BST-Insert [1+1]": ((True, True), (False, False), True),
    "4/BST-Insert [2+1]": ((True, True, True), (False, False, False), True),
    "4/BST-Insert [2+2]": ((True,) * 4, (False,) * 4, True),
    "5/FileCrawler [1•+2]": ((True, True, True), (False, False, False), True),
    "6/K-Induction [1+1]": ((False, False), (True, True), False),
    "7/Proc-2 [2+2•]": ((False, False, True, True), (True, True, False, False), False),
    "8/Stefan-1 [2]": ((False, False), (True, True), True),
    "8/Stefan-1 [4]": ((False,) * 4, (True,) * 4, True),
    "9/Dekker [2•]": ((True, True), (False, False), True),
}


def test_every_runnable_row_is_pinned():
    assert {bench.name for bench in runnable_benchmarks()} == set(TABLE2_PRECONDITIONS)


@pytest.mark.parametrize("name", sorted(TABLE2_PRECONDITIONS))
def test_table2_preconditions_unchanged(name):
    bench = _row(name)
    cpds, prop = bench.build()
    finite, loops, wcr = TABLE2_PRECONDITIONS[name]
    report = check_fcr(cpds)
    assert report.thread_finite == finite
    assert report.thread_has_loop == loops
    assert report.holds == bench.fcr
    assert WubaReach.applicable(cpds, prop) == wcr
