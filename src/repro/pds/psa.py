"""Pushdown store automata (paper App. C).

A PSA is a finite automaton ``A = (S, Σ, δ, I, F)`` with ``Q ⊆ S`` whose
control states double as entry points: a PDS state ``⟨q|w⟩`` is accepted
if reading ``w`` from automaton state ``q`` reaches a state in ``F``.
This wrapper couples the underlying :class:`~repro.automata.nfa.NFA`
with the set of control states and implements acceptance, the
top-of-stack projection ``T(A)`` of Alg. 4, and the finiteness analysis
used by the FCR check (Sec. 5, Fig. 4).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from repro.automata import EPSILON, NFA
from repro.automata.finiteness import loop_analysis
from repro.pds.state import EMPTY, PDSState

Shared = Hashable
Symbol = Hashable

#: The unique accepting sink every saturation-produced PSA carries.
FINAL_SINK = ("__psa_final__",)


class PSA:
    """A pushdown store automaton over a fixed set of control states."""

    def __init__(self, automaton: NFA, control_states: Iterable[Shared]) -> None:
        self.automaton = automaton
        self.control_states = frozenset(control_states)

    # ------------------------------------------------------------------
    # Acceptance
    # ------------------------------------------------------------------
    def accepts(self, state: PDSState) -> bool:
        """True iff PDS state ``⟨q|w⟩`` is in the represented set."""
        if state.shared not in self.control_states:
            return False
        return self.automaton.accepts_from(state.shared, state.stack)

    def accepts_config(self, shared: Shared, stack: Iterable[Symbol]) -> bool:
        return self.accepts(PDSState(shared, tuple(stack)))

    # ------------------------------------------------------------------
    # Projections (Alg. 4, corrected for ε-edges)
    # ------------------------------------------------------------------
    def tops(self, shared: Shared) -> frozenset[Symbol]:
        """``T(A)`` from control state ``shared``: the set of top-of-stack
        symbols over all accepted stacks, with :data:`EMPTY` standing for
        the empty stack.

        Alg. 4 in the paper scans edges out of ``q``; since saturation
        introduces ε-edges, we additionally close over ε before reading
        the first symbol, and emit :data:`EMPTY` exactly if ``⟨q|ε⟩`` is
        accepted.
        """
        if shared not in self.control_states:
            return frozenset()
        nfa = self.automaton
        closure = nfa.epsilon_closure([shared])
        coreachable = nfa.coreachable_states()
        result: set[Symbol] = set()
        if closure & nfa.accepting:
            result.add(EMPTY)
        for state in closure:
            for label in nfa.labels_from(state):
                if label is EPSILON:
                    continue
                if any(target in coreachable for target in nfa.targets(state, label)):
                    result.add(label)
        return frozenset(result)

    def visible_states(self) -> Iterator[tuple[Shared, Symbol]]:
        """All thread-visible states ``(q, T(w))`` of accepted configs."""
        for shared in self.control_states:
            for top in self.tops(shared):
                yield (shared, top)

    # ------------------------------------------------------------------
    # Finiteness (FCR support, Sec. 5)
    # ------------------------------------------------------------------
    def finiteness(self) -> tuple[bool, bool]:
        """``(language_is_finite(), has_loop())`` from one linear pass.

        The control states act as initial states (the PDS shared-state
        set is finite, so finiteness only hinges on stack words).
        """
        nfa = self.automaton
        return loop_analysis(nfa, nfa.initial | self.control_states)

    def language_is_finite(self) -> bool:
        """True iff the PSA accepts finitely many PDS states."""
        return self.finiteness()[0]

    def has_loop(self) -> bool:
        """The paper's coarser Fig. 4 check: any useful graph cycle."""
        return self.finiteness()[1]

    # ------------------------------------------------------------------
    # Enumeration (for tests and explicit conversion under FCR)
    # ------------------------------------------------------------------
    def enumerate_states(self, max_stack: int) -> Iterator[PDSState]:
        """Enumerate accepted states with stack size ≤ ``max_stack``."""
        from repro.automata.finiteness import enumerate_words

        for shared in sorted(self.control_states, key=lambda s: (str(type(s)), repr(s))):
            # Same transition structure, but words must start at `shared`.
            single = NFA(initial=[shared], accepting=self.automaton.accepting)
            for src, label, dst in self.automaton.transitions():
                single.add_transition(src, label, dst)
            for word in enumerate_words(single, max_stack):
                yield PDSState(shared, word)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PSA(controls={len(self.control_states)}, "
            f"states={len(self.automaton)}, "
            f"transitions={self.automaton.num_transitions()})"
        )
