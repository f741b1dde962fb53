"""Global and visible states of a CPDS, and the projection ``T``.

A global state is ``⟨q|w1,...,wn⟩``; its visible projection keeps only
the top of each stack (Sec. 2.2, Eq. 1):
``T(s) = ⟨q|T(w1),...,T(wn)⟩`` with ``T(w) = σ1`` for ``w = σ1..σz`` and
``ε`` (here :data:`~repro.pds.state.EMPTY`) for the empty stack.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.pds.state import EMPTY, PDSState, format_stack, format_top

Shared = Hashable
Symbol = Hashable


@dataclass(frozen=True, slots=True)
class GlobalState:
    """A CPDS state ``⟨q|w1,...,wn⟩`` (stacks top-first).

    The hash is precomputed at construction: global states are hashed
    far more often than they are created (seen-set membership, parent
    maps, context-tree caches), and re-hashing the nested stack tuples
    on every lookup was a measurable product-space cost.
    """

    shared: Shared
    stacks: tuple[tuple[Symbol, ...], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Only the container is checked, as for :class:`VisibleState`:
        # a tuple holding a list fails at ``hash`` with a TypeError.
        if not isinstance(self.stacks, tuple):
            object.__setattr__(
                self, "stacks", tuple(tuple(stack) for stack in self.stacks)
            )
        object.__setattr__(self, "_hash", hash((self.shared, self.stacks)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_threads(self) -> int:
        return len(self.stacks)

    def thread(self, index: int) -> PDSState:
        """Thread ``index``'s thread state ``(q, w_index)``."""
        return PDSState(self.shared, self.stacks[index])

    def tops(self) -> tuple[Symbol, ...]:
        """``T(w1),...,T(wn)``: each stack's top, or ε when empty."""
        return tuple(stack[0] if stack else EMPTY for stack in self.stacks)

    def visible(self) -> "VisibleState":
        """The projection ``T(s)`` (Eq. 1 extended to global states)."""
        return VisibleState(self.shared, self.tops())

    def max_stack_size(self) -> int:
        return max((len(stack) for stack in self.stacks), default=0)

    def __str__(self) -> str:
        stacks = ",".join(format_stack(stack) for stack in self.stacks)
        return f"⟨{self.shared}|{stacks}⟩"


@dataclass(frozen=True, slots=True)
class VisibleState:
    """A visible state ``⟨q|σ1,...,σn⟩``; ``σi`` is a top symbol or ε.

    Hash precomputed for the same reason as :class:`GlobalState`: the
    visible products of the symbolic engine and the cumulative ``T(Rk)``
    sets hash each visible state many times per construction.
    """

    shared: Shared
    tops: tuple[Symbol, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.tops, tuple):
            object.__setattr__(self, "tops", tuple(self.tops))
        object.__setattr__(self, "_hash", hash((self.shared, self.tops)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_threads(self) -> int:
        return len(self.tops)

    def thread_visible(self, index: int) -> tuple[Shared, Symbol]:
        """Thread ``index``'s visible state ``(q, σ_index)``."""
        return (self.shared, self.tops[index])

    def __str__(self) -> str:
        tops = ",".join(format_top(top) for top in self.tops)
        return f"⟨{self.shared}|{tops}⟩"


def project(states) -> frozenset[VisibleState]:
    """``T(S)`` for a collection of global states: the set of projections."""
    return frozenset(state.visible() for state in states)
