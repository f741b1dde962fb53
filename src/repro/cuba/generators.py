"""Generator sets (paper Sec. 4.1.1–4.1.2, Eq. 2, Theorem 11).

A generator set ``G`` certifies convergence: if the visible-state
sequence plateaus *and* every reachable generator has already been seen,
the sequence has collapsed (Def. 10).  The paper's concrete ``G`` is
purely syntactic — visible states in which some thread's visible state
could have just emerged from a pop::

    G = { ⟨q|σ1,...,σn⟩ : ∃i. (q,ε) is the target of a pop edge in Δi
                          and (σi = ε or (?,?σi) is the target of a
                               push edge in Δi) }

``G`` leaves the other threads' symbols arbitrary, so it is huge; we keep
it *intensionally* (pop-target shared states and emerging symbols per
thread) and only ever intersect it with finite sets such as ``Z``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

from repro.cpds.cpds import CPDS
from repro.cpds.state import VisibleState
from repro.pds.action import ActionKind
from repro.pds.state import EMPTY

Shared = Hashable
Symbol = Hashable


@dataclass(frozen=True, slots=True)
class GeneratorAnalysis:
    """Intensional representation of the generator set ``G`` of Eq. (2).

    ``pop_targets[i]`` — shared states that some pop of thread ``i``
    can produce; ``emerging[i]`` — symbols ``ρ1`` written under the top
    by some push of thread ``i`` (the candidates to surface after a
    pop).
    """

    pop_targets: tuple[frozenset[Shared], ...]
    emerging: tuple[frozenset[Symbol], ...]

    @property
    def n_threads(self) -> int:
        return len(self.pop_targets)

    def is_generator(self, visible: VisibleState) -> bool:
        """Membership of a visible state in ``G`` (Eq. 2)."""
        for index in range(min(self.n_threads, visible.n_threads)):
            if visible.shared not in self.pop_targets[index]:
                continue
            top = visible.tops[index]
            if top is EMPTY or top in self.emerging[index]:
                return True
        return False

    def intersect(self, visibles: Iterable[VisibleState]) -> frozenset[VisibleState]:
        """``G ∩ visibles`` for a finite collection (e.g. ``G ∩ Z``).

        Same test as :meth:`is_generator`, indexed by shared state: one
        dict lookup selects the threads that state is a pop target of,
        then each costs one set lookup of its top in ``emerging ∪ {ε}``.
        """
        surfacing: dict[Shared, list[tuple[int, frozenset[Symbol]]]] = {}
        for index, (pops, unders) in enumerate(zip(self.pop_targets, self.emerging)):
            surfaced = unders | {EMPTY}
            for shared in pops:
                surfacing.setdefault(shared, []).append((index, surfaced))
        generators = []
        for visible in visibles:
            threads = surfacing.get(visible.shared)
            if threads is None:
                continue
            tops = visible.tops
            for index, surfaced in threads:
                if index < len(tops) and tops[index] in surfaced:
                    generators.append(visible)
                    break
        return frozenset(generators)


def generator_analysis(cpds: CPDS) -> GeneratorAnalysis:
    """Extract Eq. (2)'s ingredients syntactically from the programs.

    Pop edges are actions consuming a symbol and writing nothing; the
    empty-stack "overwrites" ``(q,ε)→(q',ε)`` do not pop anything and are
    excluded.  Push edges contribute their under-symbol ``ρ1``.
    """
    pop_targets: list[frozenset[Shared]] = []
    emerging: list[frozenset[Symbol]] = []
    for pds in cpds.threads:
        pops: set[Shared] = set()
        unders: set[Symbol] = set()
        for action in pds.actions:
            kind = action.kind
            if kind is ActionKind.POP:
                pops.add(action.to_shared)
            elif kind is ActionKind.PUSH:
                unders.add(action.write[1])
        pop_targets.append(frozenset(pops))
        emerging.append(frozenset(unders))
    return GeneratorAnalysis(tuple(pop_targets), tuple(emerging))
