"""Fused determinize → complete → minimize over dense integer tables.

The seed canonicalization pipeline materialized three intermediate
automata per call: the subset construction built a frozenset-state NFA,
``minimize`` re-indexed it into an integer table and ran Moore partition
refinement (O(n²·m) per pass, a fresh key tuple per state per pass), and
the canonical renumbering rebuilt the result once more.  This module
fuses the pipeline: the subset construction writes *directly* into a
contiguous ``rows[state][symbol] -> state`` int table (completing with a
dead sink on the fly, and walking each subset's outgoing edges rather
than probing every alphabet symbol), Hopcroft's O(n log n) partition
refinement runs on that table, and the canonical breadth-first
renumbering is emitted as
plain tuples — the only :class:`~repro.automata.nfa.NFA` ever built is
the final canonical DFA, constructed by the caller
(:mod:`repro.automata.canonical`) from the returned table.

One memo sits between the subset construction and Hopcroft.  Distinct
NFAs routinely subset-construct to the *same* dense table (language-equal
saturation results with different state names; the same frontier
automaton rebuilt object-fresh every level).  :func:`canonical_form`
keys a bounded LRU by the exact ``(rows, accepting)`` table and runs
Hopcroft and the renumbering only on a miss (METER
``canonical.form_hits`` / ``canonical.form_misses``).  The key is the
whole table, so a hit returns exactly the form a fresh run would.

Moore refinement survives in :func:`repro.automata.ops.minimize` as the
differential oracle; ``tests/automata/test_hopcroft.py`` checks the two
produce identical canonical forms on randomized NFAs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable, Sequence

from repro.automata.intern import SymbolTable
from repro.automata.nfa import NFA
from repro.obs import trace
from repro.util.meter import METER

Symbol = Hashable

_NO_EDGES: dict = {}

#: Bound on the memoized canonical forms (LRU eviction).
FORM_CACHE_SIZE = 512

#: Canonical forms keyed by the exact dense table:
#: ``(rows, accepting) -> (accepting bits, table)``.  Value-keyed and
#: deterministic, so it is never invalidated, only evicted (and cleared
#: by :func:`form_cache_clear` for test isolation / benchmark cold runs).
_form_cache: OrderedDict[tuple, tuple] = OrderedDict()
#: The analysis service's thread executor shares the memo; ``get`` →
#: ``move_to_end`` must not race a clear or an eviction.  Hopcroft runs
#: outside the lock.
_form_lock = threading.Lock()


def form_cache_clear() -> None:
    """Drop the memoized canonical forms (test isolation; the shared
    runtime-cache cleanup)."""
    with _form_lock:
        _form_cache.clear()


def subset_tables(
    nfa: NFA, symbols: Sequence[Symbol] | SymbolTable, initial=None
) -> tuple[list[list[int]], list[bool]]:
    """Subset-construct a *complete* DFA as dense int tables.

    Returns ``(rows, accepting)`` where ``rows[q][a]`` is the successor
    of state ``q`` under ``symbols[a]`` and ``accepting[q]`` its
    acceptance.  State 0 is the start (the ε-closure of ``initial`` /
    the automaton's initial states); a dead sink is appended only when
    some transition was missing.

    Each subset walks its members' outgoing edges once, bucketing the
    targets by symbol position (ε-edges and labels outside ``symbols``
    are skipped), instead of probing every alphabet symbol: saturated
    automata use a few symbols of a large alphabet per state.  New
    subsets are numbered in ascending symbol position, so the tables are
    the ones a symbol-major walk produces.  A
    :class:`~repro.automata.intern.SymbolTable` lends its dense index;
    a plain sequence is indexed per call.
    """
    if isinstance(symbols, SymbolTable):
        position = symbols.index
    else:
        position = {symbol: a for a, symbol in enumerate(symbols)}
    width = len(position)
    delta = nfa._delta
    closure_of = nfa._closure_of
    accepting = nfa._accepting
    start = nfa.epsilon_closure(nfa.initial if initial is None else initial)
    index: dict[frozenset, int] = {start: 0}
    subsets: list[frozenset] = [start]
    rows: list[list[int]] = []
    acc: list[bool] = [not accepting.isdisjoint(start)]
    need_dead = False
    i = 0
    while i < len(subsets):
        current = subsets[i]
        i += 1
        raw: dict[int, set] = {}
        for state in current:
            for label, targets in delta.get(state, _NO_EDGES).items():
                a = position.get(label)
                if a is None or not targets:
                    continue
                bucket = raw.get(a)
                if bucket is None:
                    raw[a] = set(targets)
                else:
                    bucket |= targets
        row = [-1] * width
        if len(raw) < width:
            need_dead = True
        for a in sorted(raw):
            closed: set = set()
            for state in raw[a]:
                closed |= closure_of(state)
            key = frozenset(closed)
            j = index.get(key)
            if j is None:
                j = len(subsets)
                index[key] = j
                subsets.append(key)
                acc.append(not accepting.isdisjoint(key))
            row[a] = j
        rows.append(row)
    if need_dead:
        dead = len(rows)
        for row in rows:
            for a, target in enumerate(row):
                if target < 0:
                    row[a] = dead
        rows.append([dead] * width)
        acc.append(False)
    return rows, acc


def hopcroft(rows: list[list[int]], accepting: list[bool]) -> list[int]:
    """Hopcroft partition refinement on a complete int-table DFA.

    Returns ``block_of[state] -> block id`` for the coarsest partition
    that separates accepting from rejecting states and is stable under
    every symbol.

    Worklist discipline: the smaller of the accepting/rejecting blocks
    is queued for every symbol; when a block splits, the carved part is
    queued for every symbol if the old block was queued, else the
    smaller half is — the "smaller half" rule that bounds total splitter
    work by O(n log n) preimage visits.
    """
    n = len(rows)
    if n == 0:
        return []
    m = len(rows[0])
    # Inverse transition lists: pre[a][q] = states reaching q under a.
    pre: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(m)]
    for src, row in enumerate(rows):
        for a in range(m):
            pre[a][row[a]].append(src)

    blocks: list[set[int]] = []
    block_of = [0] * n
    acc_states = [q for q in range(n) if accepting[q]]
    rej_states = [q for q in range(n) if not accepting[q]]
    for group in (acc_states, rej_states):
        if group:
            bid = len(blocks)
            blocks.append(set(group))
            for q in group:
                block_of[q] = bid

    pending: list[tuple[int, int]] = []
    if len(blocks) == 2:
        seed = 0 if len(blocks[0]) <= len(blocks[1]) else 1
        pending = [(seed, a) for a in range(m)]
    pending_set = set(pending)
    while pending:
        item = pending.pop()
        pending_set.discard(item)
        bid, a = item
        preimage_of = pre[a]
        preimage: set[int] = set()
        for q in blocks[bid]:
            preimage.update(preimage_of[q])
        if not preimage:
            continue
        touched: dict[int, list[int]] = {}
        for p in preimage:
            touched.setdefault(block_of[p], []).append(p)
        for cid, members in touched.items():
            old = blocks[cid]
            if len(members) == len(old):
                continue  # the whole block maps into the splitter
            nid = len(blocks)
            carved = set(members)
            blocks.append(carved)
            old -= carved
            for p in carved:
                block_of[p] = nid
            smaller = nid if len(carved) <= len(old) else cid
            for b in range(m):
                if (cid, b) in pending_set:
                    grown = (nid, b)
                else:
                    grown = (smaller, b)
                if grown not in pending_set:
                    pending.append(grown)
                    pending_set.add(grown)
    return block_of


def canonical_form(
    nfa: NFA, symbols: Sequence[Symbol] | SymbolTable, initial=None
) -> tuple[tuple[bool, ...], tuple[tuple[int, ...], ...]]:
    """Canonical minimal complete DFA as ``(accepting bits, table)``.

    States are numbered by breadth-first traversal from the start state
    visiting ``symbols`` in the given order — the numbering is unique, so
    two automata yield identical tuples exactly if they accept the same
    language over ``symbols``.  Produces the same form as the Moore path
    :func:`repro.automata.canonical.moore_canonical_form` (the
    differential oracle).
    """
    if not trace.enabled():
        return _canonical_form(nfa, symbols, initial)
    with trace.span("canonical.form") as timing:
        bits, table = _canonical_form(nfa, symbols, initial)
        timing.set(states=len(table))
        return bits, table


def _canonical_form(
    nfa: NFA, symbols: Sequence[Symbol] | SymbolTable, initial=None
) -> tuple[tuple[bool, ...], tuple[tuple[int, ...], ...]]:
    rows, acc = subset_tables(nfa, symbols, initial=initial)
    key = (tuple(map(tuple, rows)), tuple(acc))
    with _form_lock:
        form = _form_cache.get(key)
        if form is not None:
            _form_cache.move_to_end(key)
    if form is not None:
        METER.bump("canonical.form_hits")
        # Hand out fresh tuples: tables of different alphabets share a
        # memo entry, and pickle's identity memo would otherwise make a
        # symbolic snapshot's bytes depend on the memo's history.
        bits, table = form
        return tuple(list(bits)), tuple([tuple(list(row)) for row in table])
    METER.bump("canonical.form_misses")
    form = _minimal_form(rows, acc)
    with _form_lock:
        _form_cache[key] = form
        while len(_form_cache) > FORM_CACHE_SIZE:
            _form_cache.popitem(last=False)
    return form


def _minimal_form(
    rows: list[list[int]], acc: list[bool]
) -> tuple[tuple[bool, ...], tuple[tuple[int, ...], ...]]:
    """Minimize the table with :func:`hopcroft` and renumber the blocks
    breadth-first from the start state."""
    block_of = hopcroft(rows, acc)
    n_blocks = max(block_of) + 1 if block_of else 0
    brows: list[list[int] | None] = [None] * n_blocks
    bacc = [False] * n_blocks
    for q, row in enumerate(rows):
        b = block_of[q]
        if brows[b] is None:
            brows[b] = [block_of[t] for t in row]
            bacc[b] = acc[q]
    if not brows:  # unreachable in practice: subsets always has a start
        return (), ()
    start = block_of[0]
    number = {start: 0}
    order = [start]
    for b in order:  # grows during iteration: breadth-first
        for t in brows[b]:
            if t not in number:
                number[t] = len(number)
                order.append(t)
    table = tuple(tuple(number[t] for t in brows[b]) for b in order)
    bits = tuple(bacc[b] for b in order)
    return bits, table
