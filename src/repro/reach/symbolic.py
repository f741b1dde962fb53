"""Symbolic computation of the sets ``Sk`` (paper Sec. 6, App. E).

A *symbolic state* is ``τ = ⟨q|A1,...,An⟩``: a shared state plus one
finite automaton per thread; its concretization (App. E, Eq. 3) is the
product ``γ(τ) = {⟨q|w1,...,wn⟩ : ∀i. wi ∈ L(Ai)}``.  Because a context
moves a single thread, the reachable set within any context bound is a
finite union of such products — the Qadeer/Rehof insight [35] — and one
context expansion is a ``post*`` saturation of the moving thread's
automaton, split by resulting shared state.

Thread automata are kept in canonical minimal-DFA form
(:func:`~repro.automata.canonical.canonical_nfa`), which both bounds
their growth across contexts and makes symbolic states hashable for
frontier dedup, so plateau detection on ``T(Sk)`` terminates.

Canonical signatures also drive cross-expansion reuse: the result of
expanding thread ``i`` from ``⟨q|Ai⟩`` depends only on ``(i, q, L(Ai))``,
so saturations are memoized per ``(thread, shared, signature)`` instead
of being recomputed from scratch whenever the same thread view recurs at
a later context bound (``incremental=True``, the default).  This is the
sound granularity for reuse — warm-starting one saturated PSA from a
different entry control would mix languages (see the Performance notes
in :mod:`repro.pds.saturation`).

Performance notes
-----------------
:meth:`SymbolicReach.advance` expands the frontier *batched*: the level's
``(thread, shared, signature)`` views are grouped first and each unique
view is saturated once per level, no matter how many symbolic states
contain it (``batched=True``, the default; the per-state path is kept
for differential testing).  METER records the grouping —
``symbolic.level_views`` vs ``symbolic.level_unique_views`` — so
harnesses can assert one expansion per unique view per level.  Thread
automata are interned (:mod:`repro.automata.canonical`), so signature
comparisons inside the frontier dedup are pointer comparisons, and the
per-language projections ``T(Ai)`` (:func:`nfa_tops`) and coreachability
are cached on the canonical DFA — computed once per language, not per
call.  Alphabets are passed as per-thread
:class:`~repro.automata.intern.SymbolTable` views, which skips symbol
re-sorting in canonicalization.  The visible products ``T(τ)`` are
doubly shared: whole products are memoized per tops profile, and the
product *elements* are interned per ``(shared, tops)`` — on
product-bound models (Proc-2) distinct profiles overlap so heavily that
almost every product element is a dict hit instead of a fresh
:class:`~repro.cpds.state.VisibleState`.

Unlike the explicit engine this one does not require finite context
reachability: the sets ``γ(Sk)`` may be infinite (e.g. Stefan-1, whose
stack pumps within one context)."""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterator

from repro.automata import EPSILON, NFA
from repro.automata.canonical import CanonicalNFA, canonical_nfa
from repro.cpds.cpds import CPDS
from repro.cpds.state import GlobalState, VisibleState
from repro.obs import trace
from repro.pds.saturation import PostStarEngine
from repro.pds.state import EMPTY
from repro.reach.base import ReachabilityEngine
from repro.reach.config import EngineConfig, merge_legacy_kwargs
from repro.reach.registry import register
from repro.util.meter import METER

Shared = Hashable
Symbol = Hashable


def word_nfa(word: tuple[Symbol, ...]) -> NFA:
    """Automaton accepting exactly one word."""
    nfa = NFA(initial=[0], accepting=[len(word)])
    for position, symbol in enumerate(word):
        nfa.add_transition(position, symbol, position + 1)
    return nfa


def nfa_tops(automaton: NFA) -> frozenset[Symbol]:
    """First symbols of accepted words; :data:`EMPTY` if ε is accepted.

    This is ``T(Ai)`` of App. E (Alg. 4) for single-entry automata,
    corrected for ε-edges by closing before the first symbol.  For
    interned canonical DFAs the result is cached on the automaton, so
    ``T(Ai)`` is computed once per *language* however many symbolic
    states and levels share it.
    """
    tops = getattr(automaton, "_tops", None)
    if tops is not None:
        return tops
    closure = automaton.epsilon_closure(automaton.initial)
    coreachable = automaton.coreachable_states()
    tops_set: set[Symbol] = set()
    if closure & automaton.accepting:
        tops_set.add(EMPTY)
    for state in closure:
        for label in automaton.labels_from(state):
            if label is EPSILON:
                continue
            if any(target in coreachable for target in automaton.targets(state, label)):
                tops_set.add(label)
    tops = frozenset(tops_set)
    if isinstance(automaton, CanonicalNFA):
        automaton._tops = tops
    return tops


class SymbolicState:
    """``⟨q|A1,...,An⟩`` with canonical automata; hashable by language."""

    __slots__ = ("shared", "automata", "signatures", "_hash")

    def __init__(self, shared: Shared, automata: tuple[NFA, ...], signatures: tuple) -> None:
        self.shared = shared
        self.automata = automata
        self.signatures = signatures
        self._hash = hash((shared, signatures))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicState):
            return NotImplemented
        return self.shared == other.shared and self.signatures == other.signatures

    def __hash__(self) -> int:
        return self._hash

    def accepts(self, state: GlobalState) -> bool:
        """Membership in the concretization ``γ(τ)`` (App. E, Eq. 3)."""
        if state.shared != self.shared or state.n_threads != len(self.automata):
            return False
        return all(
            automaton.accepts(stack)
            for automaton, stack in zip(self.automata, state.stacks)
        )

    def visible_states(self) -> Iterator[VisibleState]:
        """``T(τ) = {q} × T(A1) × ... × T(An)`` (App. E, Eq. 4)."""
        per_thread = [nfa_tops(automaton) for automaton in self.automata]
        for tops in itertools.product(*per_thread):
            yield VisibleState(self.shared, tops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ",".join(str(len(a)) for a in self.automata)
        return f"SymbolicState(shared={self.shared!r}, |Ai|=[{sizes}])"


@register
class SymbolicReach(ReachabilityEngine):
    """Frontier-based symbolic engine for ``(Sk)`` and ``(T(Sk))``."""

    lane = "symbolic"
    sequence_name = "Sk"
    snapshot_kind = 2
    meter_prefix = "symbolic."
    supports_witness = False
    preferred_algorithm = "algorithm3"

    def __init__(
        self,
        cpds: CPDS,
        *,
        incremental: bool | None = None,
        batched: bool | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        super().__init__()
        config = merge_legacy_kwargs(config, "SymbolicReach", batched=batched)
        self.config = config
        incremental = config.incremental if incremental is None else incremental
        self.cpds = cpds
        self._alphabets = [cpds.symbol_table(i) for i in range(cpds.n_threads)]
        self.batched = config.batched
        #: ``levels[k]`` = symbolic states first produced at bound k.
        self.levels: list[frozenset[SymbolicState]] = []
        self._seen: set[SymbolicState] = set()
        #: Cross-expansion memo: (thread, shared, signature) -> splice
        #: parts (new shared, canonical automaton, signature) — exact,
        #: because an expansion depends on nothing else (see module doc).
        self._expansions: dict[tuple, tuple] | None = {} if incremental else None
        #: ``T(τ)`` product memo: (shared, per-thread tops) -> visible
        #: set.  Many symbolic states share one tops profile (especially
        #: at higher thread counts), and the product blow-up dominates
        #: models like Proc-2; the per-thread tops are already cached on
        #: the canonical DFAs, so the key costs one tuple.
        self._visible_memo: dict[tuple, frozenset[VisibleState]] = {}
        #: Interned visible states: (shared, tops) -> the one
        #: :class:`VisibleState`.  Distinct tops profiles overlap
        #: heavily element-wise (on Proc-2, 51k product elements cover
        #: 2.4k distinct visible states), so the product loop swaps
        #: object construction for a dict hit almost always.
        self._visible_intern: dict[tuple, VisibleState] = {}

        automata = []
        signatures = []
        for index, stack in enumerate(cpds.initial_stacks):
            automaton, signature = canonical_nfa(word_nfa(stack), self._alphabets[index])
            automata.append(automaton)
            signatures.append(signature)
        initial = SymbolicState(
            cpds.initial_shared, tuple(automata), tuple(signatures)
        )
        self.levels.append(frozenset([initial]))
        self._seen.add(initial)
        self._record_visible(
            self._visible_product(
                initial.shared,
                tuple(nfa_tops(automaton) for automaton in initial.automata),
            )
        )

    # ------------------------------------------------------------------
    # Level mechanics
    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        """Compute ``S(k+1)``; True iff a language-new symbolic state
        appears.  (A plateau here implies ``R(k+1) = Rk``; the converse
        need not hold, which is why Alg. 3's convergence test works on
        the finite projection ``T(Sk)`` instead.)

        Batched mode groups the level's thread views first and saturates
        each unique ``(thread, shared, signature)`` exactly once — see
        the module's Performance notes."""
        frontier = self.levels[-1]
        fresh: set[SymbolicState] = set()
        if self.batched:
            self._advance_batched(frontier, fresh)
        else:
            for symbolic in frontier:
                for index in range(self.cpds.n_threads):
                    for successor in self._expand(symbolic, index):
                        if successor not in self._seen:
                            self._seen.add(successor)
                            fresh.add(successor)
        self.levels.append(frozenset(fresh))
        visible: set[VisibleState] = set()
        for symbolic in fresh:
            visible |= self._visible_product(
                symbolic.shared,
                tuple(nfa_tops(automaton) for automaton in symbolic.automata),
            )
        self._record_visible(frozenset(visible))
        return bool(fresh)

    def _visible_product(self, shared: Shared, tops_profile: tuple) -> frozenset:
        """``T(τ) = {q} × T(A1) × ... × T(An)`` (App. E, Eq. 4) —
        the engine's memoized, interned form of
        :meth:`SymbolicState.visible_states`: whole products are cached
        per tops profile and the elements are interned per
        ``(shared, tops)``, so repeated profiles cost a dict hit."""
        key = (shared, tops_profile)
        cached = self._visible_memo.get(key)
        if cached is None:
            intern = self._visible_intern
            bucket = []
            for tops in itertools.product(*tops_profile):
                visible_key = (shared, tops)
                state = intern.get(visible_key)
                if state is None:
                    state = VisibleState(shared, tops)
                    intern[visible_key] = state
                bucket.append(state)
            cached = frozenset(bucket)
            self._visible_memo[key] = cached
        return cached

    def _advance_batched(
        self, frontier: frozenset[SymbolicState], fresh: set[SymbolicState]
    ) -> None:
        """Group the frontier by unique thread view, expand each view
        once, then splice the parts back into every containing state."""
        consumers: dict[tuple, list[SymbolicState]] = {}
        for symbolic in frontier:
            for index in range(self.cpds.n_threads):
                key = (index, symbolic.shared, symbolic.signatures[index])
                consumers.setdefault(key, []).append(symbolic)
        METER.bump("symbolic.level_views", sum(map(len, consumers.values())))
        METER.bump("symbolic.level_unique_views", len(consumers))
        seen = self._seen
        memo = self._expansions
        for key, states in consumers.items():
            index = key[0]
            parts = memo.get(key) if memo is not None else None
            if parts is not None:
                METER.bump("symbolic.expansion_cache_hits")
            else:
                parts = self._expand_parts(key[1], states[0].automata[index], index)
                if memo is not None:
                    memo[key] = parts
            for symbolic in states:
                for successor in self._splice(symbolic, index, parts):
                    if successor not in seen:
                        seen.add(successor)
                        fresh.add(successor)

    # ------------------------------------------------------------------
    # Context expansion
    # ------------------------------------------------------------------
    def _expand(self, symbolic: SymbolicState, index: int) -> Iterator[SymbolicState]:
        """One context of thread ``index`` from ``symbolic``."""
        key = (index, symbolic.shared, symbolic.signatures[index])
        if self._expansions is not None:
            parts = self._expansions.get(key)
            if parts is not None:
                METER.bump("symbolic.expansion_cache_hits")
                yield from self._splice(symbolic, index, parts)
                return
        parts = self._expand_parts(symbolic.shared, symbolic.automata[index], index)
        if self._expansions is not None:
            self._expansions[key] = parts
        yield from self._splice(symbolic, index, parts)

    def _expand_parts(
        self, shared_from: Shared, automaton: NFA, index: int
    ) -> tuple[tuple[Shared, NFA, tuple], ...]:
        """Saturate one context of thread ``index`` entered at
        ``shared_from`` with stack language ``L(automaton)``; return the
        per-resulting-shared-state canonical automata."""
        METER.bump("symbolic.expansions")
        pds = self.cpds.thread(index)
        controls = self.cpds.shared_states

        # Initial edge set for the config set {(q, w) : w ∈ L(Ai)}: embed
        # the thread automaton disjointly and enter it from control q by
        # ε.  Feeding raw edges to the engine skips materializing an
        # intermediate P-automaton (the preconditions hold by
        # construction: "emb"-tagged states are never controls).
        useful = getattr(automaton, "useful_edges", automaton.transitions)
        edges = [
            (shared_from, EPSILON, ("emb", start)) for start in automaton.initial
        ]
        edges.extend(
            (("emb", src), label, ("emb", dst)) for src, label, dst in useful()
        )
        accepting = [("emb", state) for state in automaton.accepting]
        if not trace.enabled():
            saturated, coreachable = self._saturate(pds, edges, accepting, controls)
        else:
            with trace.span("symbolic.saturate", thread=index):
                saturated, coreachable = self._saturate(pds, edges, accepting, controls)
        parts = []
        for shared in controls:
            if shared not in coreachable:
                continue
            # Read the saturated automaton from `shared` without copying.
            canonical, signature = canonical_nfa(
                saturated, self._alphabets[index], initial=[shared]
            )
            parts.append((shared, canonical, signature))
        return tuple(parts)

    @staticmethod
    def _saturate(pds, edges, accepting, controls) -> tuple[NFA, frozenset]:
        """post* of the embedded edge set, and the states that co-reach
        acceptance in the result.

        One backward reachability pass answers "is some ⟨shared|w⟩
        accepted?" for every control at once (shared must co-reach an
        accepting state), replacing a forward search per control."""
        saturated = PostStarEngine.from_edges(
            pds, edges, accepting, controls=controls
        ).detach_nfa()
        return saturated, saturated.coreachable_states()

    @staticmethod
    def _splice(
        symbolic: SymbolicState, index: int, parts
    ) -> Iterator[SymbolicState]:
        for shared, canonical, signature in parts:
            automata = list(symbolic.automata)
            signatures = list(symbolic.signatures)
            automata[index] = canonical
            signatures[index] = signature
            yield SymbolicState(shared, tuple(automata), tuple(signatures))

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def symbolic_up_to(self, k: int | None = None) -> frozenset[SymbolicState]:
        """``Sk`` (default: the latest computed bound)."""
        if k is None:
            k = self.k
        k = min(k, self.k)
        result: set[SymbolicState] = set()
        for level in self.levels[: k + 1]:
            result |= level
        return frozenset(result)

    def accepts(self, state: GlobalState, k: int | None = None) -> bool:
        """Membership of a global state in ``γ(Sk)`` (= ``Rk``)."""
        return any(symbolic.accepts(state) for symbolic in self.symbolic_up_to(k))

    def plateaued_at(self, k: int) -> bool:
        """True iff no new symbolic state appeared at bound ``k``
        (sufficient — not necessary — for ``Rk−1 = Rk``)."""
        return k >= 1 and k <= self.k and not self.levels[k]

    def stats(self) -> dict:
        """Work summary for verification-result plumbing."""
        return {
            "symbolic_states": len(self._seen),
            "levels": [len(level) for level in self.levels],
            "expansion_memo": (
                len(self._expansions) if self._expansions is not None else 0
            ),
            "batched": self.batched,
        }

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Serialize the canonical-signature frontier (per-level
        symbolic states) and the cross-expansion memo into a versioned
        binary blob (:mod:`repro.service.snapshot`); automata persist
        as signature keys and are rebuilt through the hash-cons table
        on restore."""
        from repro.service.snapshot import snapshot_symbolic

        return snapshot_symbolic(self)

    @classmethod
    def restore(
        cls, cpds: CPDS, data: bytes, *, batched: bool | None = None
    ) -> "SymbolicReach":
        """Rebuild a warm engine from a :meth:`snapshot` blob taken on
        the same CPDS; raises :class:`~repro.errors.SnapshotError` on
        any undecodable or mismatched blob."""
        from repro.service.snapshot import restore_symbolic

        return restore_symbolic(cpds, data, batched=batched)

    # ------------------------------------------------------------------
    # Lane contract
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        cpds: CPDS,
        *,
        max_states_per_context: int | None = None,
        config: EngineConfig | None = None,
    ) -> "SymbolicReach":
        # The symbolic lane has no divergence guard: γ(Sk) may be
        # infinite by design, so max_states_per_context is ignored.
        return cls(cpds, config=config)

    @classmethod
    def restore_engine(
        cls,
        cpds: CPDS,
        data: bytes,
        *,
        max_states_per_context: int | None = None,
        config: EngineConfig | None = None,
    ) -> "SymbolicReach":
        # batched=None keeps the snapshotted engine's mode: EngineConfig
        # cannot distinguish "unset" from its default, and overriding a
        # pure execution knob on resume is never required.
        return cls.restore(cpds, data, batched=None)
