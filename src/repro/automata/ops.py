"""Classical constructions on NFAs.

All operations are purely functional: they build fresh automata and never
mutate their inputs.  Determinization uses the subset construction;
minimization uses Moore partition refinement on a completed DFA.  These
automata stay small in this library (stack alphabets of benchmark CPDS
have a handful of symbols), so clarity wins over asymptotic tuning.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable

from repro.automata.intern import sort_symbols
from repro.automata.nfa import EPSILON, NFA

Symbol = Hashable

#: Canonical dead state added when completing a DFA.
DEAD = ("__dead__",)


def _sorted_alphabet(nfa: NFA, alphabet: Iterable[Symbol] | None) -> list[Symbol]:
    symbols = nfa.alphabet() if alphabet is None else alphabet
    return sort_symbols(symbols)


def determinize(
    nfa: NFA,
    alphabet: Iterable[Symbol] | None = None,
    initial: Iterable | None = None,
) -> NFA:
    """Subset construction.  The result has frozenset states, a single
    initial state, no ε-transitions, and is deterministic (but possibly
    incomplete: missing transitions mean rejection).

    ``initial`` overrides the automaton's initial states — used to read
    one automaton from several entry points without copying it."""
    symbols = _sorted_alphabet(nfa, alphabet)
    start = nfa.epsilon_closure(nfa.initial if initial is None else initial)
    dfa = NFA(initial=[start])
    if start & nfa.accepting:
        dfa.add_accepting(start)
    work = deque([start])
    seen = {start}
    while work:
        current = work.popleft()
        for symbol in symbols:
            nxt = nfa.step(current, symbol)
            if not nxt:
                continue
            dfa.add_transition(current, symbol, nxt)
            if nxt not in seen:
                seen.add(nxt)
                if nxt & nfa.accepting:
                    dfa.add_accepting(nxt)
                work.append(nxt)
    return dfa


def complete(dfa: NFA, alphabet: Iterable[Symbol]) -> NFA:
    """Return a total version of a deterministic automaton: every state
    has exactly one outgoing transition per alphabet symbol (a dead sink
    is added when needed)."""
    symbols = sort_symbols(alphabet)
    total = dfa.copy()
    need_dead = False
    for state in list(total.states):
        for symbol in symbols:
            if not total.targets(state, symbol):
                total.add_transition(state, symbol, DEAD)
                need_dead = True
    if need_dead:
        for symbol in symbols:
            total.add_transition(DEAD, symbol, DEAD)
    return total


def complement(nfa: NFA, alphabet: Iterable[Symbol]) -> NFA:
    """Complement with respect to ``alphabet*``."""
    total = complete(determinize(nfa, alphabet), alphabet)
    flipped = NFA(total.states, total.initial, total.states - total.accepting)
    for src, label, dst in total.transitions():
        flipped.add_transition(src, label, dst)
    return flipped


def intersect(left: NFA, right: NFA) -> NFA:
    """Product automaton for language intersection.

    ε-transitions are handled by letting either component move alone.
    """
    product = NFA()
    start_pairs = [(lhs, r) for lhs in left.initial for r in right.initial]
    work = deque(start_pairs)
    seen = set(start_pairs)
    for pair in start_pairs:
        product.add_initial(pair)
    while work:
        (lhs, r) = work.popleft()
        if lhs in left.accepting and r in right.accepting:
            product.add_accepting((lhs, r))
        moves: list[tuple[Symbol, tuple]] = []
        for dst in left.targets(lhs, EPSILON):
            moves.append((EPSILON, (dst, r)))
        for dst in right.targets(r, EPSILON):
            moves.append((EPSILON, (lhs, dst)))
        shared = (left.labels_from(lhs) - {EPSILON}) & (right.labels_from(r) - {EPSILON})
        for symbol in shared:
            for ldst in left.targets(lhs, symbol):
                for rdst in right.targets(r, symbol):
                    moves.append((symbol, (ldst, rdst)))
        for symbol, pair in moves:
            product.add_transition((lhs, r), symbol, pair)
            if pair not in seen:
                seen.add(pair)
                work.append(pair)
    return product


def union(left: NFA, right: NFA) -> NFA:
    """Disjoint union (language union); states are tagged to avoid clashes."""
    result = NFA()
    for tag, nfa in (("L", left), ("R", right)):
        for state in nfa.initial:
            result.add_initial((tag, state))
        for state in nfa.accepting:
            result.add_accepting((tag, state))
        for state in nfa.states:
            result.add_state((tag, state))
        for src, label, dst in nfa.transitions():
            result.add_transition((tag, src), label, (tag, dst))
    return result


def is_empty(nfa: NFA) -> bool:
    """True iff the automaton accepts no word."""
    return not (nfa.reachable_states() & nfa.accepting)


def language_contains(big: NFA, small: NFA, alphabet: Iterable[Symbol] | None = None) -> bool:
    """True iff L(small) ⊆ L(big)."""
    if alphabet is None:
        alphabet = set(big.alphabet()) | set(small.alphabet())
    return is_empty(intersect(small, complement(big, alphabet)))


def language_equal(left: NFA, right: NFA, alphabet: Iterable[Symbol] | None = None) -> bool:
    """True iff the two automata accept the same language."""
    if alphabet is None:
        alphabet = set(left.alphabet()) | set(right.alphabet())
    return language_contains(left, right, alphabet) and language_contains(
        right, left, alphabet
    )


def minimize(
    nfa: NFA,
    alphabet: Iterable[Symbol] | None = None,
    initial: Iterable | None = None,
) -> NFA:
    """Minimal complete DFA for the automaton's language.

    Moore partition refinement over an integer-indexed transition table
    of the subset automaton (completed with a virtual dead state only
    when the DFA is partial).  State names in the result are the block
    ids; use :func:`repro.automata.canonical.canonical_signature` for a
    renaming-independent form.  ``initial`` is forwarded to
    :func:`determinize`.
    """
    symbols = _sorted_alphabet(nfa, alphabet)
    dfa = determinize(nfa, symbols, initial=initial)

    states = list(dfa.states)
    index = {state: i for i, state in enumerate(states)}
    n = len(states)
    dead = n
    table: list[list[int]] = []
    need_dead = False
    for state in states:
        row = []
        for symbol in symbols:
            targets = dfa.targets(state, symbol)
            if targets:
                row.append(index[next(iter(targets))])
            else:
                row.append(dead)
                need_dead = True
        table.append(row)
    total = n + 1 if need_dead else n
    if need_dead:
        table.append([dead] * len(symbols))
    accepting_bits = [state in dfa.accepting for state in states]
    if need_dead:
        accepting_bits.append(False)

    block = [1 if bit else 0 for bit in accepting_bits]
    while True:
        mapping: dict = {}
        new_block = [0] * total
        for i in range(total):
            key = (block[i], tuple(block[t] for t in table[i]))
            if key not in mapping:
                mapping[key] = len(mapping)
            new_block[i] = mapping[key]
        if new_block == block:
            break
        block = new_block

    representative: dict[int, int] = {}
    for i in range(total):
        representative.setdefault(block[i], i)

    start_block = block[index[next(iter(dfa.initial))]]
    minimal = NFA(initial=[start_block])
    for block_id, rep in representative.items():
        minimal.add_state(block_id)
        if accepting_bits[rep]:
            minimal.add_accepting(block_id)
        for j, symbol in enumerate(symbols):
            minimal.add_transition(block_id, symbol, block[table[rep][j]])
    return minimal
