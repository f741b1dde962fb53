"""Language finiteness and loop analysis.

The FCR check of the paper (Sec. 5, Fig. 4) decides whether the language
of a pushdown store automaton is finite: "every path from an initial state
to an accepting state is simple".  Equivalently, the language is infinite
exactly if some *useful* state (reachable from an initial state and
co-reachable to an accepting state) lies on a cycle that can pump at least
one real symbol.  ε-only cycles do not lengthen accepted words, so they
are ignored by :func:`language_is_finite` (but reported by
:func:`has_graph_cycle`, which mirrors the paper's cruder "no loops"
statement on trimmed automata).

Both answers come out of one :func:`loop_analysis` in O(|S| + |δ|): one
Tarjan pass over the whole transition graph builds a state → SCC-id map.
An edge with both endpoints in one SCC lies on a cycle (a singleton SCC
only has such an edge as a self-loop), so the graph has a loop iff such
an edge exists, and the language is infinite iff a useful one reads a
real symbol.  Every state on a cycle through a useful state is itself
useful, so an SCC is wholly useful or wholly useless: usefulness
(reachable ∩ co-reachable) is computed only when some edge lies inside
an SCC, and then only those edges are tested.  An acyclic automaton —
every thread for which FCR holds — costs one edge scan and the Tarjan
pass.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from repro.automata.nfa import EPSILON, NFA

Symbol = Hashable
State = Hashable


def _scc_ids(successors: dict[State, list[State]]) -> tuple[dict[State, int], bool]:
    """Iterative Tarjan over every node reachable in ``successors`` (a
    node without an entry has no successors): ``(node → SCC id, some
    SCC has more than one member)``."""
    index_of: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    component_of: dict = {}
    counter = 0
    no_successors: tuple = ()
    nontrivial = False

    for root in successors:
        if root in index_of:
            continue
        work = [(root, iter(successors[root]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, pending = work[-1]
            advanced = False
            for nxt in pending:
                if nxt not in index_of:
                    index_of[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(successors.get(nxt, no_successors))))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = index_of[node]
                member = stack.pop()
                on_stack.discard(member)
                component_of[member] = component
                while member != node:
                    nontrivial = True
                    member = stack.pop()
                    on_stack.discard(member)
                    component_of[member] = component
    return component_of, nontrivial


def loop_analysis(
    nfa: NFA, initial: Iterable[State] | None = None, useful_only: bool = True
) -> tuple[bool, bool]:
    """``(language finite, graph has a loop)`` in one linear pass.

    ``initial`` overrides the automaton's initial states without copying
    it (a PSA's control states act as its initial states).  With
    ``useful_only`` (the default) only states on initial→accepting paths
    are considered; finiteness is always decided on those.
    """
    successors: dict[State, list[State]] = {}
    self_loop = False
    for src, _label, dst in nfa.transitions():
        successors.setdefault(src, []).append(dst)
        if src == dst:
            self_loop = True
    component_of, nontrivial = _scc_ids(successors)
    if not (self_loop or nontrivial):
        return True, False
    # Some edge lies inside an SCC.  An SCC is wholly useful or wholly
    # useless (a state on a cycle through a useful state is reachable
    # and co-reachable through it), so an internal edge is useful iff
    # its source is.
    useful = nfa.useful_states(initial)
    finite = True
    has_loop = not useful_only
    for src, label, dst in nfa.transitions():
        if src not in useful or component_of[src] != component_of[dst]:
            continue
        has_loop = True
        if label is not EPSILON:
            finite = False
            break
    return finite, has_loop


def language_is_finite(nfa: NFA) -> bool:
    """True iff the automaton accepts finitely many words.

    Infinite exactly if a useful SCC contains an internal edge labeled
    with a real (non-ε) symbol: that edge can be pumped on an accepting
    path arbitrarily often.
    """
    return loop_analysis(nfa)[0]


def has_graph_cycle(nfa: NFA, useful_only: bool = True) -> bool:
    """True iff the transition graph contains a cycle (any labels).

    With ``useful_only`` (the default) only states on initial→accepting
    paths are considered, matching the paper's reading of PSA loops.
    """
    return loop_analysis(nfa, useful_only=useful_only)[1]


def enumerate_words(nfa: NFA, max_length: int) -> Iterator[tuple]:
    """Yield every accepted word of length ≤ ``max_length`` (as tuples).

    Used by tests to compare automata against explicitly enumerated
    languages; exponential, keep ``max_length`` small.
    """
    symbols = sorted(nfa.alphabet(), key=lambda s: (type(s).__qualname__, repr(s)))
    start = nfa.epsilon_closure(nfa.initial)
    frontier: list[tuple[tuple, frozenset]] = [((), start)]
    while frontier:
        word, states = frontier.pop(0)
        if states & nfa.accepting:
            yield word
        if len(word) == max_length:
            continue
        for symbol in symbols:
            nxt = nfa.step(states, symbol)
            if nxt:
                frontier.append((word + (symbol,), nxt))
