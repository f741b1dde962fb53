"""Context-insensitive overapproximation ``Z`` (paper Sec. 4.1.3, Alg. 2).

Each thread's PDS is cut off at stack depth 1: pushes forget what lies
underneath, and pops nondeterministically "emerge" any symbol ever
written under a push (the candidate set ``E``), or nothing.  The
asynchronous product of these finite systems is explored exhaustively;
its reachable set ``Z`` overapproximates the reachable visible states
``T(R)`` (Lemma 12) and is used to bound the reachable generators
``G ∩ T(R) ⊆ G ∩ Z``.  :class:`GeneratorSearch` answers Thm. 11's test
``G ∩ Z ⊆ T(R≤k)`` without building ``Z`` unless it has to.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterator, Set as AbstractSet
from dataclasses import dataclass

from repro.cpds.cpds import CPDS
from repro.cpds.state import VisibleState
from repro.cuba.generators import GeneratorAnalysis
from repro.pds.action import ActionKind
from repro.pds.pds import PDS
from repro.pds.state import EMPTY
from repro.util.meter import METER

Shared = Hashable
Symbol = Hashable

#: A state of the finite abstraction ``Mi``: (shared, top ∈ Σ≤1).
MState = tuple


@dataclass(frozen=True)
class FiniteAbstraction:
    """The finite-state system ``M = (Q×Σ≤1, T)`` produced by Alg. 2."""

    transitions: dict[MState, frozenset[MState]]
    emerging: frozenset[Symbol]

    def successors(self, state: MState) -> frozenset[MState]:
        return self.transitions.get(state, frozenset())

    def n_transitions(self) -> int:
        return sum(len(targets) for targets in self.transitions.values())


def build_abstraction(pds: PDS) -> FiniteAbstraction:
    """Alg. 2: cut the stack off at size 1.

    Every action contributes ``(q,w) ↦ (q', T(w'))``; actions that leave
    the stack empty additionally contribute ``(q,w) ↦ (q', ρ)`` for every
    emerging candidate ``ρ ∈ E`` (we follow the paper and apply this to
    every action with ``w' = ε``, pops and empty-stack overwrites alike —
    a context-insensitive overapproximation either way).
    """
    emerging: set[Symbol] = set()
    for action in pds.actions:
        if action.kind is ActionKind.PUSH:
            emerging.add(action.write[1])

    transitions: dict[MState, set[MState]] = {}

    def add(src: MState, dst: MState) -> None:
        transitions.setdefault(src, set()).add(dst)

    for action in pds.actions:
        read_top = action.read[0] if action.read else EMPTY
        write_top = action.write[0] if action.write else EMPTY
        source = (action.from_shared, read_top)
        add(source, (action.to_shared, write_top))
        if not action.write:  # stack left empty: emerging candidates
            for candidate in emerging:
                add(source, (action.to_shared, candidate))

    return FiniteAbstraction(
        {src: frozenset(dsts) for src, dsts in transitions.items()},
        frozenset(emerging),
    )


def abstract_visible_levels(cpds: CPDS, max_levels: int = 64) -> list[frozenset[VisibleState]]:
    """The *stratified* abstract sequence ``(A_k)`` with ``T(Rk) ⊆ A_k``.

    The paper's conclusion asks whether ``T(Rk)`` can be computed by
    abstract transfer functions instead of projections from ``Rk``.
    This is the context-insensitive answer: ``A_0`` is the initial
    visible state and ``A_{k+1}`` closes ``A_k``'s frontier under one
    abstract context per thread (a BFS over the Alg. 2 system ``Mi``).
    By the Lemma 12 argument applied per context, ``T(Rk) ⊆ A_k`` for
    every ``k``; the limit of the sequence is exactly ``Z``.

    Returns cumulative levels; the sequence is monotone over a finite
    domain and collapses within ``|Q×Σ≤1×...×Σ≤1|`` steps (``max_levels``
    is a safety rail only).
    """
    abstractions = [build_abstraction(pds) for pds in cpds.threads]

    def context_closure(state: VisibleState, index: int) -> set[VisibleState]:
        abstraction = abstractions[index]
        closed = {state}
        work = deque([state])
        while work:
            current = work.popleft()
            METER.bump("overapprox.abstract_steps")
            local = (current.shared, current.tops[index])
            for shared, top in abstraction.successors(local):
                tops = list(current.tops)
                tops[index] = top
                successor = VisibleState(shared, tuple(tops))
                if successor not in closed:
                    closed.add(successor)
                    work.append(successor)
        return closed

    initial = cpds.initial_state().visible()
    levels = [frozenset([initial])]
    seen: set[VisibleState] = {initial}
    frontier: set[VisibleState] = {initial}
    while frontier and len(levels) <= max_levels:
        fresh: set[VisibleState] = set()
        for state in frontier:
            for index in range(cpds.n_threads):
                fresh |= context_closure(state, index)
        fresh -= seen
        if not fresh:
            break
        seen |= fresh
        levels.append(frozenset(seen))
        frontier = fresh
    return levels


def abstract_bug_lower_bound(cpds: CPDS, prop) -> int | None:
    """Sound lower bound on the context bound of any violation.

    If the first abstract level containing a violating visible state is
    ``k0``, then no execution with fewer than ``k0`` contexts violates
    the property (``T(Rk) ⊆ A_k``).  Returns ``None`` when even the
    abstract limit (= ``Z``) is violation-free — i.e. the program is
    safe outright (the :func:`~repro.cuba.quickcheck.quick_check` case).
    """
    for k, level in enumerate(abstract_visible_levels(cpds)):
        if prop.find_violation(level) is not None:
            return k
    return None


class _LocalMoves(dict):
    """One thread's moves in :class:`_ZSpace`'s packed-key space.

    Maps the ``(shared, top)`` bits of a key to the key deltas of that
    local state's Alg. 2 successors; an entry is built on first lookup,
    so only local states ``Z`` actually visits are ever encoded.
    """

    __slots__ = (
        "_table", "_shared_ids", "_shared_of", "_shared_mask",
        "_top_ids", "_tops_of", "_shift",
    )

    def __init__(self, table, shared_ids, shared_of, shared_mask, top_ids, tops_of, shift):
        super().__init__()
        self._table = table
        self._shared_ids = shared_ids
        self._shared_of = shared_of
        self._shared_mask = shared_mask
        self._top_ids = top_ids
        self._tops_of = tops_of
        self._shift = shift

    def __missing__(self, local: int) -> tuple[int, ...]:
        shared_ids, top_ids, shift = self._shared_ids, self._top_ids, self._shift
        source = (self._shared_of[local & self._shared_mask], self._tops_of[local >> shift])
        deltas = tuple(
            (shared_ids[shared] | top_ids[top] << shift) - local
            for shared, top in self._table.get(source, ())
        )
        self[local] = deltas
        return deltas


def _field_width(n_values: int) -> int:
    return max(1, (n_values - 1).bit_length())


class _ZSpace:
    """Resumable exploration of ``Z`` over packed-int keys.

    The shared state and each thread's top get dense ids, laid out as
    bit fields of one int key (shared id in the low bits, then one field
    per thread), so a move of thread ``i`` is a lookup on the key's
    ``(shared, top_i)`` bits plus an integer delta.  Iterating yields
    each key of ``Z`` once, in DFS order, after pushing its successors;
    a caller may stop early and iterate again later to resume.
    """

    __slots__ = (
        "seen", "_work", "_keys", "_threads", "_fields",
        "_shared_of", "_shared_ids", "_shared_mask",
    )

    def __init__(self, cpds: CPDS) -> None:
        shared_of = list(cpds.shared_states)
        shared_ids = {shared: index for index, shared in enumerate(shared_of)}
        shift = _field_width(len(shared_of))
        shared_mask = (1 << shift) - 1
        start = cpds.initial_state().visible()
        initial = shared_ids[start.shared]
        threads: list[tuple[int, _LocalMoves]] = []
        fields: list[tuple[int, int, list[Symbol], dict[Symbol, int]]] = []
        for pds, top in zip(cpds.threads, start.tops):
            tops_of = [EMPTY, *pds.alphabet]
            top_ids = {symbol: index for index, symbol in enumerate(tops_of)}
            top_mask = (1 << _field_width(len(tops_of))) - 1
            moves = _LocalMoves(
                build_abstraction(pds).transitions,
                shared_ids, shared_of, shared_mask, top_ids, tops_of, shift,
            )
            threads.append((shared_mask | top_mask << shift, moves))
            fields.append((shift, top_mask, tops_of, top_ids))
            initial |= top_ids[top] << shift
            shift += top_mask.bit_length()
        self._threads = threads
        self._fields = fields
        self._shared_of = shared_of
        self._shared_ids = shared_ids
        self._shared_mask = shared_mask
        self.seen = {initial}
        self._work = [initial]
        self._keys = self._explore()

    def __iter__(self) -> Iterator[int]:
        return self._keys

    def _explore(self) -> Iterator[int]:
        seen, work, threads = self.seen, self._work, self._threads
        while work:
            key = work.pop()
            for mask, moves in threads:
                for delta in moves[key & mask]:
                    successor = key + delta
                    if successor not in seen:
                        seen.add(successor)
                        work.append(successor)
            yield key

    @property
    def expanded(self) -> int:
        """Keys yielded so far (each expanded before it is yielded)."""
        return len(self.seen) - len(self._work)

    def decode(self, key: int) -> VisibleState:
        return VisibleState(
            self._shared_of[key & self._shared_mask],
            tuple([tops[key >> shift & mask] for shift, mask, tops, _ids in self._fields]),
        )

    def states(self) -> frozenset[VisibleState]:
        """Every state discovered so far (all of ``Z`` once exhausted)."""
        return frozenset(map(self.decode, self.seen))

    def generator_bits(
        self, analysis: GeneratorAnalysis
    ) -> tuple[tuple[int, frozenset[int]], ...]:
        """Eq. 2 on keys: a key is a generator iff, for some thread,
        ``key & mask`` is in that thread's pattern set — the
        ``(shared, top)`` fields of a pop target with a top in
        ``emerging ∪ {ε}``.  Threads without pops are left out."""
        shared_ids, shared_mask = self._shared_ids, self._shared_mask
        tests = []
        for (shift, top_mask, _tops, top_ids), pops, unders in zip(
            self._fields, analysis.pop_targets, analysis.emerging
        ):
            bits = frozenset(
                shared_ids[shared] | top_ids[top] << shift
                for shared in pops
                for top in (EMPTY, *unders)
            )
            if bits:
                tests.append((shared_mask | top_mask << shift, bits))
        return tuple(tests)


def compute_z(cpds: CPDS) -> frozenset[VisibleState]:
    """Reachable set ``Z`` of the asynchronous product ``Mn``.

    Starts from the projection of the CPDS initial state (the paper
    starts ``M2`` in ``⟨0|1,4⟩`` for Fig. 1) and explores exhaustively —
    the state space is contained in ``Q × Σ≤1_1 × ... × Σ≤1_n``.  The
    exploration runs over packed integers (:class:`_ZSpace`); each
    :class:`VisibleState` is built once, when the finished set is
    decoded.
    """
    space = _ZSpace(cpds)
    deque(space, maxlen=0)
    METER.bump("overapprox.abstract_steps", len(space.seen))
    return space.states()


class GeneratorSearch:
    """Thm. 11's test ``G ∩ Z ⊆ seen``, answered lazily.

    Alg. 3 asks the test only at a new plateau and only needs a yes/no
    answer, so instead of building ``G ∩ Z`` up front this runs a DFS
    over ``Z``'s packed keys that stops at the first generator missing
    from ``seen``.  The generators it finds unseen are kept and checked
    first on the next call; only when they are all seen does the DFS
    resume where it stopped.  The answer "all of ``G ∩ Z`` is seen"
    is given only once ``Z`` is exhausted, so it is exactly the eager
    test's answer — provided the ``seen`` sets of successive calls only
    grow (a generator once seen is never checked again).
    """

    __slots__ = ("_space", "_tests", "_pending", "generators", "exhausted")

    def __init__(self, cpds: CPDS, analysis: GeneratorAnalysis) -> None:
        self._space = _ZSpace(cpds)
        self._tests = self._space.generator_bits(analysis)
        self._pending: frozenset[VisibleState] = frozenset()
        #: Generators found so far: ``|G ∩ Z|`` once :attr:`exhausted`.
        self.generators = 0
        #: True once the DFS has visited all of ``Z``.
        self.exhausted = False

    @property
    def z_size(self) -> int:
        """States of ``Z`` discovered so far: ``|Z|`` once exhausted."""
        return len(self._space.seen)

    def states(self) -> frozenset[VisibleState]:
        """The part of ``Z`` discovered so far (all of it once exhausted)."""
        return self._space.states()

    def unseen(self, seen: AbstractSet[VisibleState]) -> frozenset[VisibleState]:
        """Generators of ``Z`` found missing from ``seen``; empty iff
        ``G ∩ Z ⊆ seen``.  ``seen`` must contain every earlier call's."""
        missing = frozenset(state for state in self._pending if state not in seen)
        if not missing and not self.exhausted:
            missing = self._search(seen)
        self._pending = missing
        return missing

    def _search(self, seen: AbstractSet[VisibleState]) -> frozenset[VisibleState]:
        space, tests = self._space, self._tests
        before = space.expanded
        try:
            for key in space:
                for mask, bits in tests:
                    if key & mask in bits:
                        self.generators += 1
                        generator = space.decode(key)
                        if generator not in seen:
                            return frozenset([generator])
                        break
            self.exhausted = True
            return frozenset()
        finally:
            METER.bump("overapprox.abstract_steps", space.expanded - before)
