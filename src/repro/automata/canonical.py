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
the same languages recur constantly across context expansions, so three
layers keep it cheap:

1. **Structural memo (LRU).**  Calls are keyed by a *structural hash* —
   the exact edge set reachable from the entry states, the reachable
   accepting states, and the target alphabet — in a bounded LRU
   (:data:`CANONICAL_CACHE_SIZE`).  A hit skips canonicalization
   entirely.  Mutating an *input* automaton is safe: its structural key
   changes, so stale entries can never be served.
2. **Dense fused pipeline.**  Misses run the fused subset-construction →
   completion → Hopcroft O(n log n) minimization of
   :mod:`repro.automata.dense` over contiguous int tables, behind that
   module's own exact ``(table, accepting) → form`` memo: structurally
   different inputs that subset-construct to the same table skip
   Hopcroft.  The seed's determinize → complete → Moore path (kept as
   the ``"moore"`` backend, see :func:`set_backend`) built three
   intermediate automata per call and re-sorted symbols by ``repr()``.
   Symbol order now comes from the intern tables of
   :mod:`repro.automata.intern`.
3. **Hash-consing.**  Every canonical result is interned by its canonical
   table: language-equal automata — even ones with *different* structural
   keys — share one immutable :class:`CanonicalNFA` and one
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
from collections import OrderedDict, deque
from collections.abc import Hashable, Iterable
from contextlib import contextmanager
from itertools import count

from repro.automata import dense
from repro.automata.intern import SymbolTable, sort_symbols
from repro.automata.nfa import NFA
from repro.automata.ops import minimize
from repro.util.meter import METER

Symbol = Hashable

#: Bound on the number of memoized canonicalizations (LRU eviction).  The
#: hash-cons table is *not* bounded: it holds one small DFA per distinct
#: language ever seen, and stable identity is the point.
CANONICAL_CACHE_SIZE = 4096

_NO_EDGES: dict = {}

_cache: OrderedDict[tuple, tuple["CanonicalNFA", "Signature"]] = OrderedDict()
#: Hash-cons table: canonical (symbols, bits, table) -> interned pair.
_interned: dict[tuple, tuple["CanonicalNFA", "Signature"]] = {}
#: Guards the memo and hash-cons tables.  The analysis
#: service (PR 5) runs engines on a thread executor, which made these
#: previously single-threaded globals concurrently mutated for the
#: first time (``get`` → ``move_to_end`` must not race a clear or an
#: eviction, and two threads must not intern two pairs for one
#: language).  The heavy work — the dense pipeline itself — runs
#: outside the lock; at worst two threads canonicalize the same miss
#: and the second's result is discarded at intern time.
_lock = threading.Lock()
_token = count()

#: Active minimization backend: "dense" (Hopcroft, default) or "moore"
#: (the seed pipeline, kept for differential tests and benchmarking).
_backend = "dense"


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


def set_backend(name: str) -> str:
    """Select the minimization backend (``"dense"`` or ``"moore"``);
    returns the previous one.  Both produce identical canonical forms
    (property-tested) and share the memo and hash-cons tables."""
    global _backend
    if name not in ("dense", "moore"):
        raise ValueError(f"unknown canonicalization backend {name!r}")
    previous = _backend
    _backend = name
    return previous


@contextmanager
def backend(name: str):
    """Temporarily switch the minimization backend (benchmark harness)."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def canonical_cache_clear() -> None:
    """Drop every memoized canonicalization and the hash-cons table
    (test isolation; the shared runtime-cache cleanup)."""
    with _lock:
        _cache.clear()
        _interned.clear()


def _structural_key(nfa: NFA, symbols: tuple, entry: frozenset) -> tuple:
    """Exact fingerprint of the part of ``nfa`` a canonicalization sees:
    every edge reachable from ``entry`` (ε included), the reachable
    accepting states, and the target alphabet.  The traversal emits each
    edge exactly once (deduplicated by construction); the key uses a
    frozenset so automata built with different insertion orders — hence
    different traversal orders — still share one cache entry."""
    seen = set(entry)
    work = deque(entry)
    edges: list[tuple] = []
    while work:
        state = work.popleft()
        for label, targets in nfa._delta.get(state, _NO_EDGES).items():
            for target in targets:
                edges.append((state, label, target))
                if target not in seen:
                    seen.add(target)
                    work.append(target)
    return (
        entry,
        symbols,
        frozenset(edges),
        frozenset(nfa.accepting & seen),
    )


def _canonical_form_moore(nfa: NFA, symbols: list, initial):
    """The seed pipeline (determinize → complete → Moore → BFS renumber)
    emitting the same ``(bits, table)`` form as the dense path."""
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

    This is the restore path of engine snapshots
    (:mod:`repro.service.snapshot`): a persisted symbolic frontier
    stores signature keys only, and rebuilding through the hash-cons
    table guarantees the restored automata share identity (and the
    per-language analysis caches) with anything the process
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
        symbols = tuple(sort_symbols(alphabet))
    if initial is not None:
        initial = list(initial)
    entry = frozenset(nfa.initial if initial is None else initial)
    key = _structural_key(nfa, symbols, entry)
    with _lock:
        cached = _cache.get(key)
        if cached is not None:
            _cache.move_to_end(key)
            METER.bump("canonical.cache_hits")
            return cached
    METER.bump("canonical.cache_misses")
    if _backend == "dense":
        bits, table = dense.canonical_form(nfa, symbols, initial=initial)
    else:
        bits, table = _canonical_form_moore(nfa, list(symbols), initial)
    with _lock:
        result = _intern(symbols, bits, table)
        _cache[key] = result
        while len(_cache) > CANONICAL_CACHE_SIZE:
            _cache.popitem(last=False)
    return result


def canonical_signature(
    nfa: NFA, alphabet: Iterable[Symbol], initial: Iterable | None = None
) -> Signature:
    """Return a hashable value identifying ``L(nfa)`` over ``alphabet``.

    ``initial`` overrides the automaton's entry states (forwarded to the
    subset construction).  Shares the memo and hash-cons tables with
    :func:`canonical_nfa`.
    """
    return canonical_nfa(nfa, alphabet, initial=initial)[1]
