"""Canonical, hashable signatures for automata languages — hash-consed.

The symbolic engine (paper Sec. 6, approach 3) must decide whether a
freshly computed symbolic state ``⟨q|A1..An⟩`` was already seen.  Automata
are only meaningful up to language equality, so we canonicalize: minimize
to the unique minimal complete DFA and number its states by a breadth-first
traversal that visits alphabet symbols in a fixed order.  Two automata get
the same signature exactly if they accept the same language over the given
alphabet.

Performance notes
-----------------
Canonicalization dominates the symbolic engine's per-expansion cost, and
the same languages recur constantly across context expansions, so two
layers keep it cheap:

1. **Dense fused pipeline.**  Every call runs the fused
   subset-construction → completion → Hopcroft O(n log n) minimization
   of :mod:`repro.automata.dense` over contiguous int tables, behind
   that module's exact ``(table, accepting) → form`` memo: inputs that
   subset-construct to a known table skip Hopcroft.  The memo is keyed
   by the table the call just built, so mutating an *input* automaton
   can never serve a stale form.  The seed's determinize → complete →
   Moore path (kept as the differential oracle
   :func:`moore_canonical_form`) built three intermediate automata per
   call and re-sorted symbols by ``repr()``.
   Symbol order now comes from the intern tables of
   :mod:`repro.automata.intern`.
2. **Hash-consing.**  Every canonical result is interned by its canonical
   table: language-equal automata — however they were built — share one
   immutable :class:`CanonicalNFA` and one
   :class:`Signature` object.  Signature hashes are precomputed and
   equality short-circuits on identity, so symbolic-state dedup degrades
   to pointer/int comparisons.  The interned DFA also memoizes the
   per-language analyses (``coreachable_states``, the engines'
   ``nfa_tops``) that App. E's ``T(Ai)`` projection needs: they are
   computed once per *language*, not once per call.

Callers must treat returned automata as immutable (every in-library
caller does; copy first if you need to mutate).
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Hashable, Iterable
from itertools import count

from repro.automata import dense
from repro.automata.intern import SymbolTable, sort_symbols
from repro.automata.nfa import NFA
from repro.automata.ops import minimize
from repro.util.meter import METER

Symbol = Hashable

#: Hash-cons table: canonical (symbols, bits, table) -> interned pair.
#: Not bounded: it holds one small DFA per distinct language ever seen,
#: and stable identity is the point.
_interned: dict[tuple, tuple["CanonicalNFA", "Signature"]] = {}
#: Guards the hash-cons table: the analysis service can run engines on
#: a thread executor, and two threads must not intern two pairs for one
#: language.  The heavy work — the dense pipeline itself — runs outside
#: the lock; at worst two threads canonicalize the same language and
#: the second's result is discarded at intern time.
_lock = threading.Lock()
_token = count()


class Signature:
    """Hash-consed identity of a language over a fixed alphabet.

    ``key`` is the canonical ``(symbols, accepting bits, transition
    table)`` tuple; ``token`` a small per-process serial.  The hash is
    precomputed at intern time and equality short-circuits on identity,
    so container operations on signatures cost O(1) after interning.
    Signatures with equal keys compare equal even across
    :func:`canonical_cache_clear` (tokens then differ — compare
    signatures, never tokens, across clears).
    """

    __slots__ = ("key", "token", "_hash")

    def __init__(self, key: tuple, token: int) -> None:
        self.key = key
        self.token = token
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, Signature):
            return self.key == other.key
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Signature(token={self.token}, states={len(self.key[2])})"


class CanonicalNFA(NFA):
    """An interned canonical minimal complete DFA.

    Immutable by convention; carries its :class:`Signature` and lazily
    caches the per-language analyses the reachability engines keep
    asking for (``coreachable_states``; the tops cache is filled by
    :func:`repro.reach.symbolic.nfa_tops`)."""

    __slots__ = ("signature", "_tops", "_coreach", "_useful_edges")

    def __init__(self) -> None:
        super().__init__(initial=[0])
        self.signature: Signature | None = None
        self._tops = None
        self._coreach = None
        self._useful_edges = None

    def coreachable_states(self) -> frozenset:
        if self._coreach is None:
            self._coreach = super().coreachable_states()
        return self._coreach

    def useful_edges(self) -> tuple[tuple, ...]:
        """Transitions between coreachable states, cached.

        A canonical DFA is complete, so it carries a dead sink and every
        transition into it; consumers embedding the automaton for
        language-preserving constructions (the symbolic engine's context
        expansion) only need the useful part.  All states are reachable
        by construction, so useful == coreachable here.
        """
        if self._useful_edges is None:
            keep = self.coreachable_states()
            self._useful_edges = tuple(
                edge
                for edge in self.transitions()
                if edge[0] in keep and edge[2] in keep
            )
        return self._useful_edges


def canonical_cache_clear() -> None:
    """Drop the hash-cons table (test isolation; the shared
    runtime-cache cleanup)."""
    with _lock:
        _interned.clear()


def moore_canonical_form(
    nfa: NFA, symbols: tuple, initial: Iterable | None = None
) -> tuple[tuple, tuple]:
    """The differential oracle for :func:`repro.automata.dense.canonical_form`:
    the seed pipeline (determinize → complete → Moore → BFS renumber)
    emitting the same ``(bits, table)`` form over the same ordered
    ``symbols``.  Memo-free; nothing on the production path calls it."""
    symbols = list(symbols)
    dfa = minimize(nfa, symbols, initial=initial)
    start = next(iter(dfa.initial))
    numbering = {start: 0}
    order = [start]
    work = deque([start])
    while work:
        state = work.popleft()
        for symbol in symbols:
            targets = dfa.targets(state, symbol)
            if not targets:
                continue
            target = next(iter(targets))
            if target not in numbering:
                numbering[target] = len(numbering)
                order.append(target)
                work.append(target)
    bits = tuple(state in dfa.accepting for state in order)
    table = tuple(
        tuple(numbering[next(iter(dfa.targets(state, symbol)))] for symbol in symbols)
        for state in order
    )
    return bits, table


def _intern(symbols: tuple, bits: tuple, table: tuple):
    """Hash-cons a canonical form into its unique (DFA, signature) pair."""
    key = (symbols, bits, table)
    pair = _interned.get(key)
    if pair is not None:
        METER.bump("canonical.intern_hits")
        return pair
    dfa = CanonicalNFA()
    for state, (accepting, row) in enumerate(zip(bits, table)):
        dfa.add_state(state)
        if accepting:
            dfa.add_accepting(state)
        for symbol, target in zip(symbols, row):
            dfa.add_transition(state, symbol, target)
    signature = Signature(key, next(_token))
    dfa.signature = signature
    pair = (dfa, signature)
    _interned[key] = pair
    return pair


def intern_canonical_form(
    symbols: tuple, bits: tuple, table: tuple
) -> tuple[CanonicalNFA, Signature]:
    """Hash-cons an already-canonical ``(symbols, bits, table)`` form —
    the payload of a :class:`Signature` key — into its unique interned
    ``(DFA, signature)`` pair.

    This is the restore path of symbolic engine snapshots
    (:meth:`repro.reach.symbolic.SymbolicReach.restore`): a persisted
    frontier stores signature keys only, and rebuilding through the
    hash-cons table guarantees the restored automata share identity
    (and the per-language analysis caches) with anything the process
    canonicalizes afterwards.  The caller vouches that the form really
    is canonical (snapshots only ever persist keys that came out of
    :func:`canonical_nfa`).
    """
    with _lock:
        return _intern(symbols, bits, table)


def canonical_nfa(
    nfa: NFA, alphabet: Iterable[Symbol], initial: Iterable | None = None
) -> tuple[CanonicalNFA, Signature]:
    """Minimal complete DFA with integer states in canonical BFS order.

    Returns the interned automaton together with its signature: automata
    with equal languages over ``alphabet`` yield the *identical* pair of
    objects (see the module's Performance notes), which keeps
    long-running symbolic exploration from accumulating ever-deeper
    nested state names and makes symbolic-state dedup cheap.  Treat the
    returned automaton as read-only.

    Passing the alphabet as a :class:`~repro.automata.intern.SymbolTable`
    skips the sort entirely (the table is already in canonical order).
    """
    if isinstance(alphabet, SymbolTable):
        symbols = alphabet.symbols
    else:
        alphabet = symbols = tuple(sort_symbols(alphabet))
    bits, table = dense.canonical_form(nfa, alphabet, initial=initial)
    with _lock:
        return _intern(symbols, bits, table)


def canonical_signature(
    nfa: NFA, alphabet: Iterable[Symbol], initial: Iterable | None = None
) -> Signature:
    """Return a hashable value identifying ``L(nfa)`` over ``alphabet``.

    ``initial`` overrides the automaton's entry states (forwarded to the
    subset construction).  Shares the form memo and hash-cons table with
    :func:`canonical_nfa`.
    """
    return canonical_nfa(nfa, alphabet, initial=initial)[1]
