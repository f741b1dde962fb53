"""The sequential pushdown system ``P = (Q, Σ, Δ, qI)``."""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence

from repro.automata.intern import SymbolTable
from repro.errors import ModelError
from repro.pds.action import Action, check_kind
from repro.pds.state import PDSState

Shared = Hashable
Symbol = Hashable


class PDS:
    """A sequential pushdown system (paper Sec. 2.1).

    Shared states and alphabet symbols are registered automatically as
    actions are added; they can also be declared up front so that a PDS
    can mention states no action touches (useful when several threads
    share ``Q``).
    """

    def __init__(
        self,
        initial_shared: Shared,
        shared_states: Iterable[Shared] = (),
        alphabet: Iterable[Symbol] = (),
        name: str = "",
    ) -> None:
        self.name = name
        self.initial_shared = initial_shared
        self._shared_states: set[Shared] = {initial_shared, *shared_states}
        self._alphabet: set[Symbol] = set(alphabet)
        self._actions: list[Action] = []
        # Enabledness index: (shared, read symbol or None) -> actions.
        self._by_trigger: dict[tuple, list[Action]] = {}
        # Mutation counter: bumped whenever Q, Σ, or Δ change, so the
        # derived caches below (and per-CPDS aggregates) can validate
        # cheaply instead of rebuilding frozensets on every access.
        self._version = 0
        self._frozen_cache: tuple[int, frozenset, frozenset] | None = None
        self._trigger_cache: tuple[int, dict[tuple, tuple[Action, ...]]] | None = None
        self._symbol_table: tuple[int, SymbolTable] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_action(self, action: Action) -> Action:
        """Register an action, updating ``Q`` and ``Σ`` as needed."""
        self.add_actions((action,))
        return action

    def add_actions(self, actions: Sequence[Action]) -> None:
        """Register ``actions`` in order; the version bumps once per call.

        All of them are checked before any is added: no stack symbol
        may be ``None`` (reserved for ε), and each ``kind`` must match
        its shape (:func:`~repro.pds.action.check_kind`), so actions
        built by :meth:`Action.of_kind` are held to the rules the
        generated constructor enforces.  ``Q``, ``Σ`` and the trigger
        index then grow per action in the order ``from_shared``,
        ``to_shared``, ``read``, ``write``, so one call with many
        actions orders the sets and every trigger's tuple as many
        calls with one action each would.
        """
        for action in actions:
            if None in action.read or None in action.write:
                raise ModelError("stack symbols must not be None (reserved for ε)")
            check_kind(action)
        add_shared = self._shared_states.add
        add_symbols = self._alphabet.update
        by_trigger = self._by_trigger
        for action in actions:
            add_shared(action.from_shared)
            add_shared(action.to_shared)
            add_symbols(action.read)
            add_symbols(action.write)
            by_trigger.setdefault((action.from_shared, action.read_symbol), []).append(action)
        self._actions.extend(actions)
        self._version += 1

    def filtered(self, keep: Callable[[Action], bool], name: str = "") -> "PDS":
        """The PDS over the same ``Q`` and ``Σ`` with only the actions
        ``keep`` accepts, in their order here.

        It equals what :meth:`add_actions` with the kept actions builds
        on a PDS declaring this one's ``Q`` and ``Σ``, orders included,
        but is cheaper: the actions were checked when they were added
        here, and ``Q`` and ``Σ`` already hold every state and symbol
        they mention, so only the trigger index is built again."""
        sub = PDS(
            self.initial_shared,
            shared_states=self.shared_states,
            alphabet=self.alphabet,
            name=name,
        )
        kept = [action for action in self._actions if keep(action)]
        by_trigger = sub._by_trigger
        for action in kept:
            by_trigger.setdefault((action.from_shared, action.read_symbol), []).append(action)
        sub._actions = kept
        sub._version += 1
        return sub

    def rule(
        self,
        from_shared: Shared,
        read: Sequence[Symbol] | Symbol | None,
        to_shared: Shared,
        write: Sequence[Symbol],
        label: str = "",
    ) -> Action:
        """Shorthand: build an :class:`Action` via ``Action.make`` and add it."""
        return self.add_action(Action.make(from_shared, read, to_shared, write, label))

    def declare_symbol(self, symbol: Symbol) -> None:
        """Register a stack symbol no action mentions (e.g. an initial
        stack symbol for a thread that never reads it)."""
        if symbol is None:
            raise ModelError("stack symbols must not be None (reserved for ε)")
        self._alphabet.add(symbol)
        self._version += 1

    def declare_shared(self, shared: Shared) -> None:
        """Register a shared state no action mentions."""
        self._shared_states.add(shared)
        self._version += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter (grows on any ``Q``/``Σ``/``Δ`` change)."""
        return self._version

    @property
    def shared_states(self) -> frozenset[Shared]:
        cached = self._frozen_cache
        if cached is None or cached[0] != self._version:
            cached = (
                self._version,
                frozenset(self._shared_states),
                frozenset(self._alphabet),
            )
            self._frozen_cache = cached
        return cached[1]

    @property
    def alphabet(self) -> frozenset[Symbol]:
        cached = self._frozen_cache
        if cached is None or cached[0] != self._version:
            self.shared_states  # rebuilds the shared cache entry
            cached = self._frozen_cache
        return cached[2]

    @property
    def actions(self) -> tuple[Action, ...]:
        return tuple(self._actions)

    def actions_for(self, shared: Shared, top: Symbol | None) -> tuple[Action, ...]:
        """Actions triggered by thread-visible state ``(shared, top)``
        (``top is None`` means the stack is empty)."""
        return self.trigger_index().get((shared, top), ())

    def trigger_index(self) -> dict[tuple, tuple[Action, ...]]:
        """The full ``(shared, top) -> actions`` dispatch table as an
        immutable-valued dict, rebuilt only when the PDS mutates.

        Building the index also interns the alphabet into the PDS's
        :meth:`symbol_table`, so every consumer downstream of the rule
        index (saturation, canonicalization) sees the same dense symbol
        order.  The saturation engine grabs this dict once per run
        instead of paying a method call plus tuple construction per
        popped transition.
        """
        cached = self._trigger_cache
        if cached is None or cached[0] != self._version:
            self.symbol_table()
            index = {
                trigger: tuple(actions)
                for trigger, actions in self._by_trigger.items()
            }
            cached = (self._version, index)
            self._trigger_cache = cached
        return cached[1]

    def symbol_table(self) -> SymbolTable:
        """The PDS's interned stack alphabet (dense ids, canonical order),
        rebuilt only when the alphabet grows."""
        cached = self._symbol_table
        if cached is None or cached[0] != self._version:
            cached = (self._version, SymbolTable(self._alphabet))
            self._symbol_table = cached
        return cached[1]

    def initial_state(self, stack: Sequence[Symbol] = ()) -> PDSState:
        """``⟨qI|stack⟩``; by default the paper's ``⟨qI|ε⟩``."""
        for symbol in stack:
            if symbol not in self._alphabet:
                raise ModelError(f"initial stack symbol {symbol!r} not in alphabet")
        return PDSState(self.initial_shared, tuple(stack))

    def validate(self) -> None:
        """Check global well-formedness; raise :class:`ModelError` if broken."""
        if self.initial_shared not in self._shared_states:
            raise ModelError("initial shared state missing from Q")
        for action in self._actions:
            for symbol in (*action.read, *action.write):
                if symbol not in self._alphabet:
                    raise ModelError(f"action {action} uses unknown symbol {symbol!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = f" {self.name!r}" if self.name else ""
        return (
            f"PDS{name}(|Q|={len(self._shared_states)}, "
            f"|Σ|={len(self._alphabet)}, |Δ|={len(self._actions)})"
        )
