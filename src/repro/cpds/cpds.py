"""The concurrent pushdown system ``Pn = (P1, ..., Pn)``."""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.automata.intern import SymbolTable
from repro.errors import ModelError
from repro.cpds.state import GlobalState
from repro.pds.pds import PDS

Shared = Hashable
Symbol = Hashable


class CPDS:
    """A fixed-thread concurrent pushdown system (paper Sec. 2.2).

    All member PDSs share the set ``Q`` of shared states (taken as the
    union of the members' sets) and the initial shared state; each thread
    has its own stack alphabet and pushdown program.

    The paper starts all stacks empty but routinely "omits the main
    thread" by seeding each stack with one symbol (Fig. 1, Fig. 2);
    ``initial_stacks`` supports both conventions.

    ``symmetry_candidates`` declares candidate thread-symmetry
    generators as plain data (see :mod:`repro.cpds.symmetry`); the
    explicit engine verifies them before use, and a CPDS without any
    has the trivial group.  They are not part of the model's
    structure: the exchange format and the fingerprint ignore them.
    """

    def __init__(
        self,
        threads: Sequence[PDS],
        initial_stacks: Sequence[Sequence[Symbol]] | None = None,
        name: str = "",
        symmetry_candidates: Sequence[tuple[tuple[int, ...], dict]] = (),
    ) -> None:
        if not threads:
            raise ModelError("a CPDS needs at least one thread")
        self.name = name
        self.threads: tuple[PDS, ...] = tuple(threads)
        initials = {pds.initial_shared for pds in self.threads}
        if len(initials) != 1:
            raise ModelError(f"threads disagree on the initial shared state: {initials}")
        self.initial_shared: Shared = next(iter(initials))
        if initial_stacks is None:
            initial_stacks = [()] * len(self.threads)
        if len(initial_stacks) != len(self.threads):
            raise ModelError(
                f"{len(initial_stacks)} initial stacks for {len(self.threads)} threads"
            )
        self.initial_stacks: tuple[tuple[Symbol, ...], ...] = tuple(
            tuple(stack) for stack in initial_stacks
        )
        for pds, stack in zip(self.threads, self.initial_stacks):
            for symbol in stack:
                if symbol not in pds.alphabet:
                    raise ModelError(
                        f"initial stack symbol {symbol!r} not in thread alphabet"
                    )

        self.symmetry_candidates: tuple[tuple[tuple[int, ...], dict], ...] = tuple(
            (tuple(perm), shared_map) for perm, shared_map in symmetry_candidates
        )
        self._shared_cache: tuple[tuple[int, ...], frozenset] | None = None
        #: ``(thread versions, verified group)``, filled by
        #: :func:`repro.cpds.symmetry.verified_symmetry`.
        self._symmetry_memo: tuple | None = None

    # ------------------------------------------------------------------
    @property
    def n_threads(self) -> int:
        return len(self.threads)

    @property
    def shared_states(self) -> frozenset[Shared]:
        versions = tuple(pds.version for pds in self.threads)
        cached = self._shared_cache
        if cached is None or cached[0] != versions:
            states: set[Shared] = set()
            for pds in self.threads:
                states |= pds.shared_states
            cached = (versions, frozenset(states))
            self._shared_cache = cached
        return cached[1]

    def thread(self, index: int) -> PDS:
        return self.threads[index]

    def alphabet(self, index: int) -> frozenset[Symbol]:
        return self.threads[index].alphabet

    def symbol_table(self, index: int) -> SymbolTable:
        """Thread ``index``'s interned stack alphabet (see
        :meth:`repro.pds.pds.PDS.symbol_table`)."""
        return self.threads[index].symbol_table()

    def initial_state(self) -> GlobalState:
        return GlobalState(self.initial_shared, self.initial_stacks)

    def validate(self) -> None:
        for pds in self.threads:
            pds.validate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = f" {self.name!r}" if self.name else ""
        return f"CPDS{name}(n={self.n_threads}, |Q|={len(self.shared_states)})"
