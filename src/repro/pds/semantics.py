"""Explicit step semantics of sequential pushdown systems (Sec. 2.1).

These functions realize the ``→`` relation on PDS states and its
reflexive-transitive closure by explicit enumeration.  Explicit
enumeration may diverge on programs whose stack grows without bound
inside a single run — the situation the FCR condition (Sec. 5) rules
out — so :func:`post_star_explicit` takes a state-count guard and raises
:class:`~repro.errors.ContextExplosionError` when it trips.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.errors import ContextExplosionError
from repro.pds.action import Action, ActionKind
from repro.pds.pds import PDS
from repro.pds.state import PDSState

#: Default guard for explicit per-context exploration.
DEFAULT_STATE_LIMIT = 200_000


def enabled_actions(pds: PDS, state: PDSState) -> tuple[Action, ...]:
    """Actions enabled in ``state`` (depend only on the visible state)."""
    return pds.actions_for(state.shared, state.top)


def step(state: PDSState, action: Action) -> PDSState:
    """Apply one enabled action to ``state`` (paper Sec. 2.1 (a)/(b)).

    The caller guarantees enabledness; this function only transforms.
    """
    kind = action.kind
    stack = state.stack
    if kind is ActionKind.POP:
        return PDSState(action.to_shared, stack[1:])
    if kind is ActionKind.OVERWRITE:
        return PDSState(action.to_shared, action.write + stack[1:])
    if kind is ActionKind.PUSH:
        # write = (ρ0, ρ1): ρ1 overwrites the old top, ρ0 goes above.
        return PDSState(action.to_shared, action.write + stack[1:])
    if kind is ActionKind.EMPTY_OVERWRITE:
        return PDSState(action.to_shared, ())
    # EMPTY_PUSH
    return PDSState(action.to_shared, action.write)


def successors(pds: PDS, state: PDSState) -> Iterator[tuple[Action, PDSState]]:
    """All one-step successors of ``state`` with the action taken."""
    for action in enabled_actions(pds, state):
        yield action, step(state, action)


def post_star_explicit(
    pds: PDS,
    start: PDSState,
    max_states: int = DEFAULT_STATE_LIMIT,
) -> set[PDSState]:
    """``R(start)``: every state reachable from ``start``, by BFS.

    Raises :class:`ContextExplosionError` after ``max_states`` distinct
    states, the library's divergence guard for non-FCR programs.
    """
    seen: set[PDSState] = {start}
    work: deque[PDSState] = deque([start])
    while work:
        state = work.popleft()
        for _action, nxt in successors(pds, state):
            if nxt in seen:
                continue
            seen.add(nxt)
            if len(seen) > max_states:
                raise ContextExplosionError(
                    f"explicit post* from {start} exceeded {max_states} states; "
                    "the program likely violates finite context reachability",
                    states_seen=len(seen),
                )
            work.append(nxt)
    return seen
