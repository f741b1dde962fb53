"""PDS actions ``(q, w) → (q', w')`` with ``|w| ≤ 1`` and ``|w'| ≤ 2``.

The paper's Sec. 2.1 semantics distinguishes five shapes, captured by
:class:`ActionKind`:

==================  =============  ==============  =======================
kind                reads          writes          models
==================  =============  ==============  =======================
POP                 one symbol     nothing         procedure return
OVERWRITE           one symbol     one symbol      intraprocedural step
PUSH                one symbol     two symbols     procedure call
EMPTY_OVERWRITE     empty stack    nothing         shared-state change
EMPTY_PUSH          empty stack    one symbol      (re)starting a frame
==================  =============  ==============  =======================

Push and pop actions may change the shared state, exactly as the paper
allows.
"""

from __future__ import annotations

import enum
from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field

from repro.errors import ModelError

Shared = Hashable
Symbol = Hashable


class ActionKind(enum.Enum):
    POP = "pop"
    OVERWRITE = "overwrite"
    PUSH = "push"
    EMPTY_OVERWRITE = "empty-overwrite"
    EMPTY_PUSH = "empty-push"

    @property
    def reads_empty_stack(self) -> bool:
        return self in (ActionKind.EMPTY_OVERWRITE, ActionKind.EMPTY_PUSH)


def _classify(read: tuple, write: tuple) -> ActionKind:
    if len(read) > 1:
        raise ModelError(f"action reads {len(read)} symbols; at most 1 allowed")
    if len(write) > 2:
        raise ModelError(f"action writes {len(write)} symbols; at most 2 allowed")
    if read:
        if not write:
            return ActionKind.POP
        if len(write) == 1:
            return ActionKind.OVERWRITE
        return ActionKind.PUSH
    # Empty-stack actions write at most one symbol (paper Sec. 2.1 (b)).
    if len(write) == 2:
        raise ModelError("empty-stack actions may write at most 1 symbol")
    if not write:
        return ActionKind.EMPTY_OVERWRITE
    return ActionKind.EMPTY_PUSH


def check_kind(action: "Action") -> None:
    """Raise :class:`ModelError` unless ``action.kind`` is the kind its
    ``read``/``write`` shape has (see :func:`_classify`)."""
    expected = _classify(action.read, action.write)  # raises on a bad shape
    if expected is not action.kind:
        raise ModelError(
            f"action {action} is declared {action.kind.value}, "
            f"but its shape is {expected.value}"
        )


@dataclass(frozen=True, slots=True)
class Action:
    """One pushdown rule ``(from_shared, read) → (to_shared, write)``.

    ``read`` is ``()`` (empty stack) or a 1-tuple; ``write`` has length
    0–2.  For pushes ``write = (ρ0, ρ1)``: ``ρ1`` overwrites the current
    top and ``ρ0`` is pushed above it, so the new stack reads
    ``ρ0 ρ1 σ2..σz`` — the paper's convention.  ``label`` is a free-form
    name used in traces (e.g. ``f1`` in Fig. 1).
    """

    from_shared: Shared
    read: tuple[Symbol, ...]
    to_shared: Shared
    write: tuple[Symbol, ...]
    label: str = field(default="", compare=False)
    #: Shape classification, computed once at construction.  The
    #: saturation engine reads ``kind`` per rule application; recomputing
    #: the classification there was a measurable hot-path cost.
    kind: ActionKind = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.read, tuple):
            object.__setattr__(self, "read", tuple(self.read))
        if not isinstance(self.write, tuple):
            object.__setattr__(self, "write", tuple(self.write))
        # Validates the shape eagerly as a side effect.
        object.__setattr__(self, "kind", _classify(self.read, self.write))

    @property
    def read_symbol(self) -> Symbol | None:
        """Symbol the action consumes, or ``None`` for empty-stack actions."""
        return self.read[0] if self.read else None

    @staticmethod
    def make(
        from_shared: Shared,
        read: Sequence[Symbol] | Symbol | None,
        to_shared: Shared,
        write: Sequence[Symbol],
        label: str = "",
    ) -> "Action":
        """Convenience constructor: ``read`` may be a bare symbol, a
        sequence, or ``None`` (empty stack); ``write`` any sequence."""
        if read is None:
            read_tuple: tuple = ()
        elif isinstance(read, (list, tuple)):
            read_tuple = tuple(read)
        else:
            read_tuple = (read,)
        return Action(from_shared, read_tuple, to_shared, tuple(write), label)

    @staticmethod
    def of_kind(
        from_shared: Shared,
        read: tuple[Symbol, ...],
        to_shared: Shared,
        write: tuple[Symbol, ...],
        kind: ActionKind,
    ) -> "Action":
        """Unlabelled action whose ``kind`` the caller already knows.

        The generated constructor pays for two ``isinstance`` checks,
        :func:`_classify` and a frozen-dataclass ``__setattr__`` per
        field; a translator emitting tens of thousands of rules of a
        handful of known shapes need not.  ``read`` and ``write`` must
        be tuples.  Nothing is checked here: :meth:`PDS.add_actions
        <repro.pds.pds.PDS.add_actions>` rejects a ``kind`` that does
        not match the shape (:func:`check_kind`).
        """
        action = _new(Action)
        _set_from(action, from_shared)
        _set_read(action, read)
        _set_to(action, to_shared)
        _set_write(action, write)
        _set_label(action, "")
        _set_kind(action, kind)
        return action

    def __str__(self) -> str:
        name = f"{self.label}: " if self.label else ""
        read = "".join(str(s) for s in self.read) or "ε"
        write = "".join(str(s) for s in self.write) or "ε"
        return f"{name}({self.from_shared},{read})→({self.to_shared},{write})"


# Slot setters behind Action.of_kind: frozen only guards __setattr__.
_new = object.__new__
_set_from, _set_read, _set_to, _set_write, _set_label, _set_kind = (
    vars(Action)[name].__set__
    for name in ("from_shared", "read", "to_shared", "write", "label", "kind")
)
