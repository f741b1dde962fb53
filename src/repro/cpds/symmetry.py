"""Thread symmetry of a CPDS: declared candidates, their verification,
and the permutation group they generate.

A program that instantiates one thread template several times (two
``inserter`` threads, two ``adder`` threads) has a reachable product
space that is closed under swapping the replicas — provided the shared
states that name a thread (an ``owner`` field, say) are relabelled
along.  A **symmetry element** ``g = (π, σ)`` is a thread permutation
``π`` (thread ``i``'s stack moves to position ``π(i)``) together with a
bijection ``σ`` of the shared states ``Q``; it acts on a global state as

    g⟨q|w_0, ..., w_{n-1}⟩ = ⟨σ(q)|w'⟩  with  w'_{π(i)} = w_i

and is an *automorphism* of the CPDS when, for every thread ``i``, the
image of thread ``i``'s rule set under ``σ`` (``(q, γ) → (q', w)``
becoming ``(σ(q), γ) → (σ(q'), w)``) is exactly thread ``π(i)``'s rule
set, thread ``π(i)`` starts with thread ``i``'s stack and alphabet, and
``σ`` fixes the initial shared state.  An automorphism maps every run
with ``k`` contexts to a run with ``k`` contexts, so every ``Rk`` is a
union of orbits, and ``T(g(s)) = g(T(s))`` on visible states.

Models *declare* candidate generators as plain data
(:attr:`CPDS.symmetry_candidates <repro.cpds.cpds.CPDS>`: tuples of
``(permutation tuple, shared-state dict)``, never closures, so a CPDS
pickles); :func:`verified_symmetry` checks each candidate rule for rule
and closes the verified generators into a :class:`ThreadSymmetry`,
memoized on the CPDS per thread version.  Any mismatch — a rule missing
from one replica, a shared map that is not a bijection of ``Q`` or
moves the initial state, unequal initial stacks or alphabets, a group
past :data:`MAX_ORDER` — yields the trivial group: a symmetry is never
inferred from names alone.
"""

from __future__ import annotations

from operator import attrgetter

from repro.automata.intern import value_key
from repro.cpds.state import GlobalState

#: Largest group enumerated; a larger candidate set (six or more
#: replicas of one template) falls back to the trivial group rather
#: than inserting hundreds of images per new orbit.
MAX_ORDER = 120


class ThreadSymmetry:
    """A verified thread-permutation group, enumerated.

    Element 0 is the identity.  ``perms[e]`` is element ``e``'s thread
    permutation and ``shared_maps[e]`` its shared-state map (``None``
    for the identity); ``mult[a][b]`` is the index of ``a ∘ b`` (apply
    ``b`` first); ``pools[i]`` is the smallest thread in thread ``i``'s
    orbit — threads of one orbit run the same template, so an engine
    can let them share component numbering; ``inverse[e]`` is the index
    of ``e``'s inverse.

    :meth:`canonical_view` names the orbit of a thread view ``(thread,
    shared)``.  Replicas share their alphabet, so a stack language
    means the same in every replica and the group acts on a view
    ``(thread, shared, L)`` through ``(thread, shared)`` alone."""

    __slots__ = ("perms", "shared_maps", "mult", "pools", "inverse", "_views")

    def __init__(self, perms: list[tuple[int, ...]], shared_maps: list) -> None:
        self.perms = tuple(perms)
        self.shared_maps = tuple(shared_maps)
        index = {perm: position for position, perm in enumerate(self.perms)}
        self.mult = tuple(
            tuple(index[tuple(a[i] for i in b)] for b in self.perms)
            for a in self.perms
        )
        n = len(self.perms[0])
        self.pools = tuple(min(perm[i] for perm in self.perms) for i in range(n))
        self.inverse = tuple(row.index(0) for row in self.mult)
        #: canonical_view memo: (thread, shared) -> (element, thread0, shared0).
        self._views: dict[tuple, tuple] = {}

    @property
    def order(self) -> int:
        return len(self.perms)

    def apply(self, element: int, state: GlobalState) -> GlobalState:
        """``g(state)`` for element index ``element``."""
        if not element:
            return state
        perm = self.perms[element]
        stacks = [()] * len(perm)
        for index, stack in enumerate(state.stacks):
            stacks[perm[index]] = stack
        return GlobalState(self.shared_maps[element][state.shared], tuple(stacks))

    def canonical_view(self, thread: int, shared) -> tuple:
        """``(element, thread0, shared0)``: the least ``(thread,
        value_key(shared))`` in the orbit of the view ``(thread,
        shared)``, and the first element ``h`` (in element order) with
        ``h(thread, shared) = (thread0, shared0)``.  Memoized.  Every
        member of an orbit gets the same ``(thread0, shared0)``, so it
        keys work that depends on a view only up to symmetry: what the
        canonical view computes, ``h⁻¹`` maps onto the member."""
        key = (thread, shared)
        found = self._views.get(key)
        if found is None:
            best = None
            for element, perm in enumerate(self.perms):
                image = self.shared_maps[element][shared] if element else shared
                rank = (perm[thread], value_key(image))
                if best is None or rank < best[0]:
                    best = (rank, element, perm[thread], image)
            found = self._views[key] = best[1:]
        return found

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadSymmetry(order={self.order}, pools={self.pools})"


def trivial_symmetry(n_threads: int) -> ThreadSymmetry:
    """The one-element group on ``n_threads`` threads."""
    return ThreadSymmetry([tuple(range(n_threads))], [None])


def verified_symmetry(cpds) -> ThreadSymmetry:
    """The group generated by ``cpds``'s declared candidates if every
    one is an automorphism, else the trivial group (see the module
    docstring).  Memoized on ``cpds`` until a thread's rules change."""
    versions = tuple(pds.version for pds in cpds.threads)
    cached = cpds._symmetry_memo
    if cached is None or cached[0] != versions:
        cached = (versions, _verify(cpds))
        cpds._symmetry_memo = cached
    return cached[1]


def _verify(cpds) -> ThreadSymmetry:
    n = cpds.n_threads
    candidates = cpds.symmetry_candidates
    if not candidates:
        return trivial_symmetry(n)
    shared = cpds.shared_states
    for perm, shared_map in candidates:
        if sorted(perm) != list(range(n)):
            return trivial_symmetry(n)
        if not all(q in shared_map for q in shared):
            return trivial_symmetry(n)
        if shared_map[cpds.initial_shared] != cpds.initial_shared:
            return trivial_symmetry(n)
        if {shared_map[q] for q in shared} != shared:
            return trivial_symmetry(n)
        for index in range(n):
            target = perm[index]
            if (
                cpds.initial_stacks[target] != cpds.initial_stacks[index]
                or cpds.alphabet(target) != cpds.alphabet(index)
                or not _maps_onto(
                    cpds.thread(index).actions,
                    cpds.thread(target).actions,
                    shared_map,
                )
            ):
                return trivial_symmetry(n)
    return _close(n, shared, candidates)


_FROM, _READ, _TO, _WRITE = (
    attrgetter(name) for name in ("from_shared", "read", "to_shared", "write")
)


def _maps_onto(actions, targets, shared_map: dict) -> bool:
    """True iff ``σ`` (``shared_map``) maps the rule set ``actions``
    onto the rule set ``targets`` exactly.  Replicas built by one
    translator emit their rules in corresponding order, so the rule
    lists are compared position by position first (column-wise, at C
    speed); only when that fails are the rule sets compared."""
    relabel = shared_map.__getitem__
    if len(actions) == len(targets) and (
        list(map(relabel, map(_FROM, actions))) == list(map(_FROM, targets))
        and list(map(relabel, map(_TO, actions))) == list(map(_TO, targets))
        and list(map(_READ, actions)) == list(map(_READ, targets))
        and list(map(_WRITE, actions)) == list(map(_WRITE, targets))
    ):
        return True
    return {
        (relabel(a.from_shared), a.read, relabel(a.to_shared), a.write)
        for a in actions
    } == {(a.from_shared, a.read, a.to_shared, a.write) for a in targets}


def _close(n: int, shared: frozenset, generators) -> ThreadSymmetry:
    """Enumerate the group the verified ``generators`` generate,
    breadth first (so element order is deterministic).  An element is
    named by its permutation; two products with one permutation but
    different shared maps, or more than :data:`MAX_ORDER` elements,
    give the trivial group."""
    identity = tuple(range(n))
    perms: list[tuple[int, ...]] = [identity]
    maps: list[dict | None] = [None]
    index = {identity: 0}
    for element in perms:  # grows while iterated: breadth-first closure
        element_map = maps[index[element]]
        for perm, shared_map in generators:
            product = tuple(perm[element[i]] for i in range(n))
            product_map = {
                q: shared_map[q if element_map is None else element_map[q]]
                for q in shared
            }
            known = index.get(product)
            if known is not None:
                known_map = maps[known]
                if any(
                    product_map[q] != (q if known_map is None else known_map[q])
                    for q in shared
                ):
                    return trivial_symmetry(n)
                continue
            if len(perms) >= MAX_ORDER:
                return trivial_symmetry(n)
            index[product] = len(perms)
            perms.append(product)
            maps.append(product_map)
    return ThreadSymmetry(perms, maps)
