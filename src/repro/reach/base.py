"""Common interface — the *lane contract* — of the reachability engines.

An engine computes, level by level, an observation sequence of the
paper: after ``advance()`` has been called ``k`` times the engine has
determined level ``k`` of its sequence (``Rk`` for the explicit
context-unbounded lane, ``Sk`` symbolically, ``Wk`` for the
write-unbounded lane) and the visible projection ``T(·)``.  Levels are
cumulative and monotone by construction (Def. 1: observation sequences
are monotone).

Beyond the level mechanics, every concrete engine is a **lane**: a
pluggable analysis family registered in :mod:`repro.reach.registry`.
The class-level attributes below are the contract a lane must fill in
so that the verifier, CLI, bench runner, and service can drive it
without knowing the concrete class:

``lane``
    Canonical lane name — the single spelling used by ``--lane``, the
    BENCH ``lane`` field, the service fingerprint ``engine`` token, and
    the registry key.
``sequence_name``
    The observation sequence the lane computes (``"Rk"``, ``"Sk"``,
    ``"Wk"``); used in result ``method`` strings.
``snapshot_kind``
    The kind byte of this lane's snapshots in the ``CUSN`` frame (see
    :mod:`repro.reach.snapshot`); must be unique across lanes.  The
    lane owns its payload codec: ``snapshot()`` writes it and the
    ``restore`` classmethod reads it.
``meter_prefix``
    Prefix of this lane's METER counters, ``"<lane>."`` by convention;
    the bench runner and service meter windows aggregate by it.
``supports_witness``
    True iff the lane can materialize a counterexample trace
    (``find_visible`` / ``trace``).
``generator_test``
    True iff the lane's levels count contexts, so Thm. 11's generator
    test applies to its ``T(·)`` (explicit, symbolic; not wuba, whose
    levels count writes).

Every lane is driven by the one convergence driver,
:func:`repro.cuba.lanes.converge`.  A lane run always asks its fixpoint
test ``plateaued_at`` (an empty frontier, hence a true fixpoint, on
every lane) and adds Alg. 3's generator test when the lane sets
``generator_test``; for that test the driver reads ``cpds``, the model
the engine explores.  It reads the projected sequence only through
three questions, so a lane may keep ``T(·)`` in any representation
that answers them:

``violation_at(k, prop)``
    A visible state first reached at level ``k`` that violates
    ``prop``, or None.  The base implementation asks
    ``prop.find_violation(visible_new_at(k))``; a lane may answer on
    its own encoding (the explicit lane tests packed visible keys) but
    must pick its witness by a fixed rule of the visible states'
    values, never by set iteration order or its own id numbering.
``visible_plateaued_at(k)``
    ``T(k−1) = T(k)``.
``visible_up_to(k)``
    ``T(≤k)`` as a :class:`VisibleView` on every lane — for Thm. 11's
    generator test, reports and external callers.

``T(·)`` as visible keys
------------------------
The base class keeps one ledger of ``T(·)`` for every lane.  A lane
hands :meth:`ReachabilityEngine._record_visible` the visible *keys* of
each level's states — any hashable encoding of a visible state, with
repeats — and names the encoding through two hooks:
:meth:`~ReachabilityEngine._visible_key` (a :class:`VisibleState` to its
key, or None if no state of the lane can project to it) and
:meth:`~ReachabilityEngine._decode_visible` (back).  The default
encoding is the ``(shared, tops)`` tuple: the symbolic lane feeds the
elements of App. E's products ``{q} × T(A1) × … × T(An)`` straight
from ``itertools.product``, the write-unbounded lane the projection of
each global state.  The explicit lane's keys are its packed ints.

The ledger maps every key to the level that first reached it and keeps
each level's new keys and the cumulative counts ``|T(≤k)|``.  The
plateau test compares counts, :class:`VisibleView` membership encodes
the query and compares levels, and ``visible_new_at`` decodes a level
on first use (memoized: levels are append-only).  Snapshots carry no
ledger: a restored engine re-records its levels' keys.
"""

from __future__ import annotations

import abc
from collections.abc import Hashable, Iterable, Iterator, Set
from typing import TYPE_CHECKING

from repro.cpds.state import VisibleState
from repro.obs import trace
from repro.pds.semantics import DEFAULT_STATE_LIMIT

if TYPE_CHECKING:
    from repro.core.property import Property
    from repro.cpds.cpds import CPDS


class VisibleView(Set):
    """``T(≤k)`` of an engine as a read-only set.

    Membership encodes the queried :class:`VisibleState` into the
    engine's visible key (never interning) and compares the level that
    first reached it; ``len`` reads the cumulative key count.  Iteration
    decodes lazily through the engine's per-level memo.  Set operators
    return frozensets, and the view compares equal to the frozenset of
    its elements.  The view of a computed bound never changes."""

    __slots__ = ("_engine", "_k")

    def __init__(self, engine: "ReachabilityEngine", k: int) -> None:
        self._engine = engine
        self._k = k

    def __contains__(self, visible) -> bool:
        if not isinstance(visible, VisibleState):
            return False
        key = self._engine._visible_key(visible)
        if key is None:
            return False
        return self._engine._vlevel.get(key, self._k + 1) <= self._k

    def __len__(self) -> int:
        return self._engine._vcounts[self._k] if self._k >= 0 else 0

    def __iter__(self) -> Iterator[VisibleState]:
        for level in range(self._k + 1):
            yield from self._engine.visible_new_at(level)

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        return frozenset(iterable)

    def __repr__(self) -> str:
        return f"VisibleView(k={self._k}, size={len(self)})"


class ReachabilityEngine(abc.ABC):
    """Level-by-level driver for an observation sequence over a CPDS."""

    # -- lane contract (overridden by every registered engine class) ----
    lane: str = ""
    sequence_name: str = ""
    snapshot_kind: int = 0
    meter_prefix: str = ""
    supports_witness: bool = False
    generator_test: bool = False
    cpds: "CPDS"

    def __init__(self) -> None:
        self._clear_visible()

    def _clear_visible(self) -> None:
        """Empty the ``T(·)`` ledger (see "T(·) as visible keys"): key ->
        first level, the per-level new keys, the cumulative counts
        ``|T(≤k)|`` and the lazily decoded levels."""
        self._vlevel: dict[Hashable, int] = {}
        self._vnew: list[tuple[Hashable, ...]] = []
        self._vcounts: list[int] = []
        self._decoded_visible: list[frozenset[VisibleState] | None] = []

    # ------------------------------------------------------------------
    # Level mechanics
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Largest context bound computed so far (−1 before the first)."""
        return len(self._vcounts) - 1

    def advance(self) -> bool:
        """Compute the next level; return True iff it adds *any* new
        element to the underlying (non-projected) observation set.

        Template method: the concrete work lives in the lane's
        :meth:`_advance`; this wrapper emits the per-level
        ``<lane>.level`` span when tracing is on, so every lane —
        including ones registered later — inherits per-level timing
        with no code of its own."""
        if not trace.enabled():
            return self._advance()
        with trace.span(
            f"{self.lane}.level", lane=self.lane, level=self.k + 1
        ):
            return self._advance()

    @abc.abstractmethod
    def _advance(self) -> bool:
        """Lane-specific level computation (see :meth:`advance`)."""

    def ensure_level(self, k: int) -> None:
        """Advance until level ``k`` has been computed."""
        while self.k < k:
            self.advance()

    def _record_visible(self, keys: Iterable[Hashable]) -> None:
        """Record the next level of ``T(·)`` from the visible keys of
        that level's states (repeats and earlier levels' keys allowed:
        they are filtered here, in order)."""
        vlevel = self._vlevel
        level = len(self._vnew)
        new = []
        for key in keys:
            if key not in vlevel:
                vlevel[key] = level
                new.append(key)
        self._vnew.append(tuple(new))
        self._vcounts.append(len(vlevel))
        self._decoded_visible.append(None)

    def _visible_key(self, visible: VisibleState) -> Hashable | None:
        """The ledger key of ``visible`` (None: no state projects to
        it); the ``(shared, tops)`` tuple unless the lane encodes."""
        return (visible.shared, visible.tops)

    def _decode_visible(self, key: Hashable) -> VisibleState:
        """The visible state of a ledger key (inverse of
        :meth:`_visible_key`)."""
        return VisibleState(*key)

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    @property
    def visible_levels(self) -> list[frozenset[VisibleState]]:
        """``visible_levels[k]`` = visible states first seen at bound k
        (decoded lazily)."""
        return [self.visible_new_at(k) for k in range(len(self._vnew))]

    def visible_up_to(self, k: int | None = None) -> VisibleView:
        """``T(≤k)`` — all visible states reached within bound ``k``
        (default: the latest computed bound)."""
        k = self.k if k is None else min(k, self.k)
        return VisibleView(self, max(k, -1))

    def visible_new_at(self, k: int) -> frozenset[VisibleState]:
        """``T(≤k) \\ T(≤k−1)`` — visible states first reached at bound
        k, decoded from the level's new keys on first use."""
        if not 0 <= k < len(self._vnew):
            return frozenset()
        decoded = self._decoded_visible[k]
        if decoded is None:
            decoded = frozenset(map(self._decode_visible, self._vnew[k]))
            self._decoded_visible[k] = decoded
        return decoded

    def visible_plateaued_at(self, k: int) -> bool:
        """True iff ``T(≤k−1) = T(≤k)`` (a plateau, Table 1), on key
        counts."""
        counts = self._vcounts
        return 1 <= k < len(counts) and counts[k] == counts[k - 1]

    def violation_at(self, k: int, prop: "Property") -> VisibleState | None:
        """A visible state first reached at bound ``k`` that violates
        ``prop`` (:meth:`Property.find_violation`'s deterministic pick),
        or None."""
        return prop.find_violation(self.visible_new_at(k))

    # ------------------------------------------------------------------
    # Lane contract
    # ------------------------------------------------------------------
    @classmethod
    def applicable(cls, cpds: "CPDS", prop: "Property | None" = None) -> bool:
        """Precondition for this lane on ``(cpds, prop)`` — e.g. FCR for
        the explicit lane.  Lanes without a precondition return True."""
        return True

    @classmethod
    def create(
        cls,
        cpds: "CPDS",
        *,
        max_states_per_context: int | None = None,
    ) -> "ReachabilityEngine":
        """Construct a fresh engine from the uniform lane arguments: the
        divergence guard defaults to
        :data:`~repro.pds.semantics.DEFAULT_STATE_LIMIT`.  A lane without
        a guard overrides this."""
        return cls(
            cpds,
            max_states_per_context=(
                DEFAULT_STATE_LIMIT
                if max_states_per_context is None
                else max_states_per_context
            ),
        )

    @classmethod
    def restore(
        cls,
        cpds: "CPDS",
        blob: bytes,
        *,
        max_states_per_context: int | None = None,
    ) -> "ReachabilityEngine":
        """Rebuild a warm engine from a :meth:`snapshot` blob of this
        lane taken on ``cpds``, taking the same uniform arguments as
        :meth:`create`; raises :class:`~repro.errors.SnapshotError` on
        any undecodable or mismatched blob."""
        raise NotImplementedError

    @abc.abstractmethod
    def plateaued_at(self, k: int) -> bool:
        """True iff the *underlying* (non-projected) sequence added
        nothing at level ``k`` — the lane's fixpoint/plateau test."""

    @abc.abstractmethod
    def snapshot(self) -> bytes:
        """Serialize resumable engine state (header carries
        ``snapshot_kind``; see :mod:`repro.reach.snapshot`)."""

    @abc.abstractmethod
    def stats(self) -> dict:
        """Work counters; every lane must include a ``"levels"`` key."""
