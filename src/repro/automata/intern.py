"""Symbol interning: a process-global total order and dense per-alphabet ids.

Canonicalization (:mod:`repro.automata.canonical`) and every construction
in :mod:`repro.automata.ops` need a *stable total order* on stack symbols
so that two equal-language automata are traversed identically and receive
identical signatures.  The seed ordered symbols by ``(qualname, repr)``,
which calls ``repr()`` on every symbol on every sort — measurable on the
symbolic engine's hot path, where the same few alphabets are re-sorted
thousands of times.

This module replaces that with interning: every symbol is assigned a
small integer *order id* exactly once, and all sorts compare those ints.
Ordering within a batch of not-yet-interned symbols falls back to the old
``(qualname, repr)`` key, so the first sort of any alphabet produces the
same sequence the seed did (reproducible signatures) and ``repr()`` runs
at most once per symbol per process.  Ad-hoc automata whose symbols were
never interned through a :class:`SymbolTable` take the same fallback path
— order ids are handed out on demand.

:class:`SymbolTable` is the per-alphabet (in practice per-PDS / per-CPDS
thread) view: a frozen tuple of the alphabet in global order plus a dense
``symbol -> 0..n-1`` index used by the dense canonical pipeline
(:mod:`repro.automata.dense`).
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Iterable

Symbol = Hashable

#: Global symbol order: symbol -> order id, assigned at first intern.
_ORDER: dict[Symbol, int] = {}
#: Guards order-id assignment.  The analysis service (PR 5) interns
#: from executor threads; two racing first-interns must not hand the
#: same rank to two symbols (equal ranks would make the canonical sort
#: unstable and split signatures for equal languages).  Reads of
#: already-assigned ids stay lock-free.
_order_lock = threading.Lock()


def value_key(value: Symbol) -> tuple[str, str]:
    """Process-independent identity of a model value (shared state or
    stack symbol): its type's qualname, then its repr.

    The one definition of value identity: it orders symbols not
    interned yet, tokenizes values in the service fingerprint, and
    orders visible states (:func:`repro.core.property.visible_token`)."""
    return (type(value).__qualname__, repr(value))


def order_of(symbol: Symbol) -> int:
    """The symbol's global order id, interning it if it is new."""
    rank = _ORDER.get(symbol)
    if rank is None:
        with _order_lock:
            rank = _ORDER.get(symbol)
            if rank is None:
                rank = len(_ORDER)
                _ORDER[symbol] = rank
    return rank


def intern_symbols(symbols: Iterable[Symbol]) -> None:
    """Intern a batch of symbols, assigning fresh order ids in fallback
    order so the batch sorts exactly as the seed's repr-keyed sort did."""
    with _order_lock:
        fresh = {s for s in symbols if s not in _ORDER}
        for symbol in sorted(fresh, key=value_key):
            _ORDER[symbol] = len(_ORDER)


def sort_symbols(symbols: Iterable[Symbol]) -> list[Symbol]:
    """Sort symbols by the global interned order (interning new ones).

    Deduplicates.  For a batch interned together this coincides with the
    seed's ``(qualname, repr)`` order; afterwards every sort is pure int
    comparisons.
    """
    unique = set(symbols)
    fresh = unique - _ORDER.keys()
    if fresh:
        intern_symbols(fresh)
    return sorted(unique, key=_ORDER.__getitem__)


def interned_count() -> int:
    """Number of symbols interned so far (diagnostics / tests)."""
    return len(_ORDER)


class SymbolTable:
    """A frozen, densely indexed alphabet.

    ``symbols`` is the alphabet as a tuple in global interned order;
    ``index`` maps each symbol to its position ``0..n-1``.  Tables are
    cheap views over the global order — building one for an alphabet that
    was already interned performs no ``repr()`` calls.  Iterating or
    indexing a table is the fast path handed to
    :func:`repro.automata.canonical.canonical_nfa` by the reachability
    engines (it skips re-sorting).
    """

    __slots__ = ("symbols", "index")

    def __init__(self, symbols: Iterable[Symbol]) -> None:
        self.symbols: tuple[Symbol, ...] = tuple(sort_symbols(symbols))
        self.index: dict[Symbol, int] = {
            symbol: i for i, symbol in enumerate(self.symbols)
        }

    def id_of(self, symbol: Symbol) -> int:
        """Dense id of ``symbol`` within this table (KeyError if absent)."""
        return self.index[symbol]

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self.index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SymbolTable({list(self.symbols)!r})"
