"""Nondeterministic finite automata with ε-transitions.

States and symbols are arbitrary hashable Python objects; ε is the
module-level sentinel :data:`EPSILON`.  The class is deliberately mutable:
the ``post*`` saturation procedure (paper App. C) grows an automaton
in-place until a fixpoint is reached.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator
from typing import Any


class _Epsilon:
    """Singleton sentinel for the empty-word transition label."""

    _instance: "_Epsilon | None" = None

    def __new__(cls) -> "_Epsilon":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ε"

    def __reduce__(self):  # keep singleton identity across pickling
        return (_Epsilon, ())


EPSILON = _Epsilon()

State = Hashable
Symbol = Hashable


class NFA:
    """A nondeterministic finite automaton with ε-transitions.

    Transitions are stored as ``state -> label -> set of states``.  All
    query methods tolerate states that were never explicitly added.

    The class is slotted: reachability engines hold thousands of small
    automata alive at once (one per symbolic-state thread slot, plus the
    saturation snapshots), and the per-instance ``__dict__`` was pure
    overhead.  Subclasses must declare ``__slots__`` themselves to stay
    dict-free (:class:`repro.automata.canonical.CanonicalNFA` does).
    """

    __slots__ = (
        "_states",
        "_initial",
        "_accepting",
        "_delta",
        "_eps_version",
        "_eps_memo",
    )

    def __init__(
        self,
        states: Iterable[State] = (),
        initial: Iterable[State] = (),
        accepting: Iterable[State] = (),
    ) -> None:
        self._states: set[State] = set(states)
        self._initial: set[State] = set(initial)
        self._accepting: set[State] = set(accepting)
        self._states |= self._initial | self._accepting
        self._delta: dict[State, dict[Symbol, set[State]]] = {}
        # ε-closure cache: state -> (version, closure).  Entries are valid
        # while no new ε-edge has been added since they were computed;
        # non-ε additions never invalidate (they cannot change a closure).
        self._eps_version: int = 0
        self._eps_memo: dict[State, tuple[int, frozenset[State]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_state(self, state: State) -> State:
        self._states.add(state)
        return state

    def add_initial(self, state: State) -> None:
        self._states.add(state)
        self._initial.add(state)

    def add_accepting(self, state: State) -> None:
        self._states.add(state)
        self._accepting.add(state)

    def add_transition(self, src: State, label: Symbol, dst: State) -> bool:
        """Add ``src --label--> dst``; return True iff it is new."""
        self._states.add(src)
        self._states.add(dst)
        targets = self._delta.setdefault(src, {}).setdefault(label, set())
        if dst in targets:
            return False
        targets.add(dst)
        if label is EPSILON:
            self._eps_version += 1
        return True

    def add_transitions(self, edges: Iterable[tuple[State, Symbol, State]]) -> None:
        """Bulk-add ``(src, label, dst)`` edges.

        Equivalent to calling :meth:`add_transition` per edge but with
        one ε-version bump and no per-edge call overhead — the fast path
        for snapshotting saturation results.
        """
        states = self._states
        delta = self._delta
        saw_epsilon = False
        for src, label, dst in edges:
            states.add(src)
            states.add(dst)
            delta.setdefault(src, {}).setdefault(label, set()).add(dst)
            if label is EPSILON:
                saw_epsilon = True
        if saw_epsilon:
            self._eps_version += 1

    def copy(self) -> "NFA":
        clone = NFA(self._states, self._initial, self._accepting)
        clone.add_transitions(self.transitions())
        return clone

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def states(self) -> frozenset[State]:
        return frozenset(self._states)

    @property
    def initial(self) -> frozenset[State]:
        return frozenset(self._initial)

    @property
    def accepting(self) -> frozenset[State]:
        return frozenset(self._accepting)

    def has_transition(self, src: State, label: Symbol, dst: State) -> bool:
        return dst in self._delta.get(src, {}).get(label, ())

    def targets(self, src: State, label: Symbol) -> frozenset[State]:
        """Direct (non-closed) successors of ``src`` under ``label``."""
        return frozenset(self._delta.get(src, {}).get(label, ()))

    def labels_from(self, src: State) -> frozenset[Symbol]:
        return frozenset(self._delta.get(src, {}))

    def alphabet(self) -> frozenset[Symbol]:
        """All non-ε labels that appear on some transition."""
        symbols: set[Symbol] = set()
        for by_label in self._delta.values():
            symbols.update(label for label in by_label if label is not EPSILON)
        return frozenset(symbols)

    def transitions(self) -> Iterator[tuple[State, Symbol, State]]:
        for src, by_label in self._delta.items():
            for label, targets in by_label.items():
                for dst in targets:
                    yield (src, label, dst)

    def num_transitions(self) -> int:
        return sum(
            len(targets)
            for by_label in self._delta.values()
            for targets in by_label.values()
        )

    # ------------------------------------------------------------------
    # Core queries
    # ------------------------------------------------------------------
    def epsilon_closure(self, states: Iterable[State]) -> frozenset[State]:
        """All states reachable from ``states`` via ε-transitions only.

        Closures are memoized per state and invalidated whenever a new
        ε-edge appears; the closure of a set is the union of the member
        closures, so repeated queries (saturation, ``tops``, word runs)
        cost one dict lookup per state after the first computation.
        """
        states = list(states)
        if len(states) == 1:
            return self._closure_of(states[0])
        closure: set[State] = set()
        for state in states:
            closure |= self._closure_of(state)
        return frozenset(closure)

    def _closure_of(self, state: State) -> frozenset[State]:
        version = self._eps_version
        cached = self._eps_memo.get(state)
        if cached is not None and cached[0] == version:
            return cached[1]
        closure: set[State] = {state}
        work = deque([state])
        while work:
            current = work.popleft()
            for nxt in self._delta.get(current, {}).get(EPSILON, ()):
                if nxt in closure:
                    continue
                hit = self._eps_memo.get(nxt)
                if hit is not None and hit[0] == version:
                    closure |= hit[1]
                else:
                    closure.add(nxt)
                    work.append(nxt)
        result = frozenset(closure)
        self._eps_memo[state] = (version, result)
        return result

    def step(self, states: Iterable[State], symbol: Symbol) -> frozenset[State]:
        """ε-closed move: close ``states``, read ``symbol``, close again."""
        if symbol is EPSILON:
            raise ValueError("step() reads a real symbol; use epsilon_closure for ε")
        closed = self.epsilon_closure(states)
        after: set[State] = set()
        for state in closed:
            after.update(self._delta.get(state, {}).get(symbol, ()))
        return self.epsilon_closure(after)

    def reads(self, src: State, symbol: Symbol) -> frozenset[State]:
        """States reachable from ``src`` by ε* · symbol · ε*.

        This is the relation written ``p --γ--> q`` in the saturation
        rules of the ``post*`` construction.
        """
        return self.step([src], symbol)

    def run(self, word: Iterable[Symbol], start: Iterable[State] | None = None) -> frozenset[State]:
        current = self.epsilon_closure(self._initial if start is None else start)
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                break
        return current

    def accepts(self, word: Iterable[Symbol], start: Iterable[State] | None = None) -> bool:
        return bool(self.run(word, start) & self._accepting)

    def accepts_from(self, state: State, word: Iterable[Symbol]) -> bool:
        """Acceptance reading ``word`` from a designated start state.

        Pushdown store automata accept a PDS state ``⟨q|w⟩`` by reading
        the stack word ``w`` starting at automaton state ``q`` (App. C).
        """
        return self.accepts(word, start=[state])

    # ------------------------------------------------------------------
    # Graph utilities
    # ------------------------------------------------------------------
    def reachable_states(self, start: Iterable[State] | None = None) -> frozenset[State]:
        """States reachable from ``start`` (default: initial) via any edge."""
        seen: set[State] = set(self._initial if start is None else start)
        work = deque(seen)
        while work:
            state = work.popleft()
            for by_label in (self._delta.get(state, {}),):
                for targets in by_label.values():
                    for nxt in targets:
                        if nxt not in seen:
                            seen.add(nxt)
                            work.append(nxt)
        return frozenset(seen)

    def coreachable_states(self) -> frozenset[State]:
        """States from which some accepting state is reachable."""
        reverse: dict[State, set[State]] = {}
        for src, by_label in self._delta.items():
            for targets in by_label.values():
                for dst in targets:
                    reverse.setdefault(dst, set()).add(src)
        seen: set[State] = set(self._accepting)
        work = deque(seen)
        while work:
            state = work.popleft()
            for prv in reverse.get(state, ()):
                if prv not in seen:
                    seen.add(prv)
                    work.append(prv)
        return frozenset(seen)

    def useful_states(self, initial: Iterable[State] | None = None) -> frozenset[State]:
        """States on some path from an initial (default: the automaton's
        own initial states) to an accepting state."""
        return self.reachable_states(initial) & self.coreachable_states()

    def trim(self) -> "NFA":
        """Return a copy restricted to useful states."""
        keep = self.useful_states()
        trimmed = NFA(keep, self._initial & keep, self._accepting & keep)
        for src, label, dst in self.transitions():
            if src in keep and dst in keep:
                trimmed.add_transition(src, label, dst)
        return trimmed

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __contains__(self, state: Any) -> bool:
        return state in self._states

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NFA(states={len(self._states)}, "
            f"transitions={self.num_transitions()}, "
            f"initial={len(self._initial)}, accepting={len(self._accepting)})"
        )
