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
    ``T(≤k)`` as a ``collections.abc.Set`` — a frozenset here, a lazily
    decoded view on the explicit lane — for Thm. 11's generator test,
    reports and external callers.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.cpds.state import VisibleState
from repro.obs import trace
from repro.pds.semantics import DEFAULT_STATE_LIMIT

if TYPE_CHECKING:
    from repro.core.property import Property
    from repro.cpds.cpds import CPDS


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
        self._visible_levels: list[frozenset[VisibleState]] = []
        self._visible_cumulative: list[frozenset[VisibleState]] = []

    # ------------------------------------------------------------------
    # Level mechanics
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Largest context bound computed so far (−1 before the first)."""
        return len(self._visible_levels) - 1

    @property
    def visible_levels(self) -> list[frozenset[VisibleState]]:
        """``visible_levels[k]`` = visible states first seen at bound k."""
        return self._visible_levels

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

    def _record_visible(self, new_visible: frozenset[VisibleState]) -> None:
        previous = (
            self._visible_cumulative[-1] if self._visible_cumulative else frozenset()
        )
        fresh = frozenset(new_visible) - previous
        self._visible_levels.append(fresh)
        self._visible_cumulative.append(previous | fresh)

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def visible_up_to(self, k: int | None = None) -> frozenset[VisibleState]:
        """``T(Rk)`` — all visible states reachable within ``k`` contexts
        (default: the latest computed bound)."""
        if not self._visible_cumulative:
            return frozenset()
        if k is None:
            return self._visible_cumulative[-1]
        k = min(k, len(self._visible_cumulative) - 1)
        if k < 0:
            return frozenset()
        return self._visible_cumulative[k]

    def visible_new_at(self, k: int) -> frozenset[VisibleState]:
        """``T(Rk) \\ T(Rk−1)`` — visible states first reached at bound k."""
        if 0 <= k < len(self._visible_levels):
            return self._visible_levels[k]
        return frozenset()

    def visible_plateaued_at(self, k: int) -> bool:
        """True iff ``T(Rk−1) = T(Rk)`` (a plateau, Table 1)."""
        return k >= 1 and k <= self.k and not self.visible_new_at(k)

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
