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
so the batched advance memoizes saturations per ``(thread, shared,
signature)`` (orbit-canonical under the thread symmetry, see below)
instead of recomputing them whenever the same thread view recurs at a
later context bound.  This is the sound granularity for
reuse — warm-starting one saturated PSA from a different entry control
would mix languages (see the Performance notes in
:mod:`repro.pds.saturation`).

Performance notes
-----------------
:meth:`SymbolicReach.advance` expands the frontier *batched*: the level's
orbit-canonical ``(thread, shared, signature)`` views are grouped first
and each unique view is saturated once per level, no matter how many
symbolic states contain it (``batched=True``, the default).  The
memo-free per-state path (``batched=False``) saturates every (state,
thread) pair afresh
and is kept as the differential oracle; it cannot be snapshotted.
METER records the grouping — ``symbolic.level_views`` vs
``symbolic.level_unique_views`` — and the memo makes
``expansions + expansion_cache_hits == level_unique_views`` an exact
per-level identity.  Thread automata are interned
(:mod:`repro.automata.canonical`), so signature comparisons inside the
frontier dedup are pointer comparisons, and the per-language
projections ``T(Ai)`` (:func:`nfa_tops`) and coreachability are cached
on the canonical DFA — computed once per language, not per call.
Alphabets are passed as per-thread
:class:`~repro.automata.intern.SymbolTable` views, which skips symbol
re-sorting in canonicalization.  The visible products ``T(τ)`` keep
no memo or intern table of their own: each fresh state's product
elements go to the base class's ``T(·)`` ledger as ``(shared, tops)``
keys straight from ``itertools.product`` (see "T(·) as visible keys" in
:mod:`repro.reach.base`), which keeps each distinct key once and
decodes a level's :class:`~repro.cpds.state.VisibleState` objects only
when asked.

Symmetry reduction
------------------
A verified thread-symmetry group ``G``
(:func:`~repro.cpds.symmetry.verified_symmetry`; replica swaps the
translator declares) acts on symbolic states as on global states:
``g⟨q|A1..An⟩ = ⟨σ(q)|A'⟩`` with ``A'_π(i) = A_i``.  Replicas share
their alphabet, so this is well defined on canonical automata, and an
automorphism maps the successors of ``τ`` onto those of ``g(τ)``, so
every level of ``(Sk)`` is a union of orbits.  The batched engine
exploits that three ways, none of which changes a level, a ``T(Sk)``
level or a verdict:

* every new successor enters ``_seen`` and its level together with its
  images, so levels stay closed under ``G`` and everything the
  algorithms observe (``Sk``, ``T(Sk)``, snapshot rows) is the
  unreduced engine's;
* the frontier expands one state per orbit: the states an advance
  found new, whose images it inserted alongside;
* thread views are grouped by an orbit-canonical key ``(i0, q0, L)``,
  the least ``(thread, value_key(shared))`` in the view's orbit
  (:meth:`~repro.cpds.symmetry.ThreadSymmetry.canonical_view`).  Each
  member view ``(i, q, L)`` keeps the element ``h`` mapping it onto the
  key, and the key's expansion parts are mapped back through
  ``σ_h⁻¹``.  Keying by the raw view would make
  ``symbolic.level_unique_views`` depend on which orbit member the
  frontier's iteration happened to pick.

A restored blob may carry memo keys taken under another group (the
same threads without declared candidates share the fingerprint); they
are re-keyed by their canonical view.  ``stats()["symmetry_order"]`` is
``|G|``; the per-state oracle (``batched=False``) never reduces.

Unlike the explicit engine this one does not require finite context
reachability: the sets ``γ(Sk)`` may be infinite (e.g. Stefan-1, whose
stack pumps within one context)."""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Hashable, Iterator

from repro.automata import EPSILON, NFA
from repro.automata.canonical import (
    CanonicalNFA,
    canonical_nfa,
    intern_canonical_form,
)
from repro.cpds.cpds import CPDS
from repro.cpds.state import GlobalState
from repro.cpds.symmetry import trivial_symmetry, verified_symmetry
from repro.errors import SnapshotError
from repro.obs import trace
from repro.pds.saturation import PostStarEngine
from repro.pds.state import EMPTY
from repro.reach.base import ReachabilityEngine
from repro.reach.registry import register
from repro.reach.snapshot import KIND_SYMBOLIC, _encode, reading, refuse_oracle
from repro.util.meter import METER

Shared = Hashable
Symbol = Hashable


def word_nfa(word: tuple[Symbol, ...]) -> NFA:
    """Automaton accepting exactly one word."""
    nfa = NFA(initial=[0], accepting=[len(word)])
    for position, symbol in enumerate(word):
        nfa.add_transition(position, symbol, position + 1)
    return nfa


def embed_context(shared_from: Shared, automaton: NFA) -> tuple[list, list]:
    """Initial edges and accepting states of one context's ``post*``:
    the config set ``{⟨shared_from|w⟩ : w ∈ L(automaton)}``.

    The thread automaton is embedded disjointly and entered from control
    ``shared_from`` by ε.  Feeding raw edges to the engine skips
    materializing an intermediate P-automaton (the preconditions hold by
    construction: "emb"-tagged states are never controls)."""
    useful = getattr(automaton, "useful_edges", automaton.transitions)
    edges = [(shared_from, EPSILON, ("emb", start)) for start in automaton.initial]
    edges.extend((("emb", src), label, ("emb", dst)) for src, label, dst in useful())
    return edges, [("emb", state) for state in automaton.accepting]


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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ",".join(str(len(a)) for a in self.automata)
        return f"SymbolicState(shared={self.shared!r}, |Ai|=[{sizes}])"


def _visible_keys(level) -> Iterator[tuple]:
    """The ``T(·)`` ledger keys ``(q, tops)`` of ``level``'s products
    ``T(τ) = {q} × T(A1) × ... × T(An)`` (App. E, Eq. 4), repeats
    included."""
    for symbolic in level:
        shared = symbolic.shared
        for tops in itertools.product(*map(nfa_tops, symbolic.automata)):
            yield (shared, tops)


@register
class SymbolicReach(ReachabilityEngine):
    """Frontier-based symbolic engine for ``(Sk)`` and ``(T(Sk))``."""

    lane = "symbolic"
    sequence_name = "Sk"
    snapshot_kind = KIND_SYMBOLIC
    meter_prefix = "symbolic."
    supports_witness = False
    generator_test = True

    def __init__(
        self,
        cpds: CPDS,
        *,
        batched: bool = True,
    ) -> None:
        super().__init__()
        self.cpds = cpds
        self._alphabets = [cpds.symbol_table(i) for i in range(cpds.n_threads)]
        self.batched = batched
        #: The verified thread-symmetry group (see "Symmetry reduction"
        #: in the module doc); the per-state oracle never reduces.
        self.symmetry = (
            verified_symmetry(cpds) if batched else trivial_symmetry(cpds.n_threads)
        )
        #: ``levels[k]`` = symbolic states first produced at bound k.
        self.levels: list[frozenset[SymbolicState]] = []
        self._seen: set[SymbolicState] = set()
        #: One state per orbit of the last level, as the batched advance
        #: found them (``None``: recompute from the level).
        self._frontier: list[SymbolicState] | None = None
        #: Cross-expansion memo of the batched advance: orbit-canonical
        #: view (thread, shared, signature) -> splice parts (new shared,
        #: canonical automaton, signature) — exact, because an expansion
        #: depends on nothing else (see module doc).
        self._expansions: dict[tuple, tuple] = {}

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
        self._record_visible(_visible_keys(self.levels[0]))

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
                    parts = self._expand_parts(
                        symbolic.shared, symbolic.automata[index], index
                    )
                    for successor in self._splice(symbolic, index, parts):
                        if successor not in self._seen:
                            self._seen.add(successor)
                            fresh.add(successor)
        self.levels.append(frozenset(fresh))
        self._record_visible(_visible_keys(fresh))
        return bool(fresh)

    def _advance_batched(
        self, frontier: frozenset[SymbolicState], fresh: set[SymbolicState]
    ) -> None:
        """Group the frontier's orbit representatives by orbit-canonical
        thread view, expand each view once, map the parts onto every
        member view and splice them into its state.  Each new successor
        enters with its whole orbit, so the level stays closed under the
        group."""
        symmetry = self.symmetry
        canonical_view = symmetry.canonical_view
        n = self.cpds.n_threads
        consumers: dict[tuple, list[tuple]] = {}
        representatives = self._frontier
        if representatives is None:
            representatives = self._representatives(frontier)
        found: list[SymbolicState] = []
        for symbolic in representatives:
            shared = symbolic.shared
            signatures = symbolic.signatures
            for index in range(n):
                element, thread, canonical_shared = canonical_view(index, shared)
                key = (thread, canonical_shared, signatures[index])
                consumers.setdefault(key, []).append((symbolic, index, element))
        METER.bump("symbolic.level_views", n * len(representatives))
        METER.bump("symbolic.level_unique_views", len(consumers))
        seen = self._seen
        memo = self._expansions
        inverse = symmetry.inverse
        shared_maps = symmetry.shared_maps
        images = range(1, symmetry.order)
        for key, members in consumers.items():
            parts = memo.get(key)
            if parts is not None:
                METER.bump("symbolic.expansion_cache_hits")
            else:
                symbolic, index, _element = members[0]
                parts = self._expand_parts(key[1], symbolic.automata[index], key[0])
                memo[key] = parts
            mapped = {0: parts}
            for symbolic, index, element in members:
                member_parts = mapped.get(element)
                if member_parts is None:
                    back = shared_maps[inverse[element]]
                    member_parts = mapped[element] = tuple(
                        (back[shared], canonical, signature)
                        for shared, canonical, signature in parts
                    )
                for successor in self._splice(symbolic, index, member_parts):
                    if successor in seen:
                        continue
                    seen.add(successor)
                    fresh.add(successor)
                    found.append(successor)
                    for other in images:
                        image = self._image(successor, other)
                        if image not in seen:
                            seen.add(image)
                            fresh.add(image)
        self._frontier = found

    def _image(self, symbolic: SymbolicState, element: int) -> SymbolicState:
        """``g(τ)`` for group element ``element``: the shared state
        through ``σ``, thread ``i``'s automaton moved to ``π(i)``."""
        perm = self.symmetry.perms[element]
        automata = [None] * len(perm)
        signatures = [None] * len(perm)
        for index, target in enumerate(perm):
            automata[target] = symbolic.automata[index]
            signatures[target] = symbolic.signatures[index]
        return SymbolicState(
            self.symmetry.shared_maps[element][symbolic.shared],
            tuple(automata),
            tuple(signatures),
        )

    def _representatives(self, level) -> list[SymbolicState]:
        """One state per orbit of ``level`` (a union of orbits)."""
        if self.symmetry.order == 1:
            return list(level)
        covered: set[SymbolicState] = set()
        representatives = []
        for symbolic in level:
            if symbolic in covered:
                continue
            representatives.append(symbolic)
            covered.update(
                self._image(symbolic, element)
                for element in range(1, self.symmetry.order)
            )
        return representatives

    # ------------------------------------------------------------------
    # Context expansion
    # ------------------------------------------------------------------
    def _expand_parts(
        self, shared_from: Shared, automaton: NFA, index: int
    ) -> tuple[tuple[Shared, NFA, tuple], ...]:
        """Saturate one context of thread ``index`` entered at
        ``shared_from`` with stack language ``L(automaton)``; return the
        per-resulting-shared-state canonical automata."""
        METER.bump("symbolic.expansions")
        pds = self.cpds.thread(index)
        controls = self.cpds.shared_states
        edges, accepting = embed_context(shared_from, automaton)
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
            "expansion_memo": len(self._expansions),
            "batched": self.batched,
            "symmetry_order": self.symmetry.order,
        }

    # ------------------------------------------------------------------
    # Checkpoint / resume (the payload of a ``CUSN`` frame, see
    # :mod:`repro.reach.snapshot`)
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Checkpoint the canonical-signature frontier as a kind-2 blob:
        pools of distinct shared states and canonical signature keys,
        the per-level symbolic states as ``(shared_idx, sig_idx...)``
        rows, and the cross-expansion memo.  Automata persist as
        signature keys only.  Only the batched engine snapshots: the
        per-state oracle raises :class:`~repro.errors.SnapshotError`."""
        refuse_oracle(self)
        shared_ids: dict = {}
        shared_pool: list = []
        sig_ids: dict = {}
        sig_pool: list = []

        def shared_idx(value) -> int:
            idx = shared_ids.get(value)
            if idx is None:
                idx = shared_ids[value] = len(shared_pool)
                shared_pool.append(value)
            return idx

        def sig_idx(signature) -> int:
            idx = sig_ids.get(signature)
            if idx is None:
                idx = sig_ids[signature] = len(sig_pool)
                sig_pool.append(signature.key)
            return idx

        state_rows = array("q")
        for level in self.levels:
            for symbolic in level:
                state_rows.append(shared_idx(symbolic.shared))
                state_rows.extend(sig_idx(s) for s in symbolic.signatures)

        keys = array("q")
        part_lens = array("q")
        part_pairs = array("q")
        for (thread, shared, signature), parts in self._expansions.items():
            keys.extend((thread, shared_idx(shared), sig_idx(signature)))
            part_lens.append(len(parts))
            for part_shared, _canonical, part_sig in parts:
                part_pairs.extend((shared_idx(part_shared), sig_idx(part_sig)))

        return _encode(
            KIND_SYMBOLIC,
            {
                "n_threads": self.cpds.n_threads,
                "shared_pool": shared_pool,
                "sig_pool": sig_pool,
                "level_lens": array("q", map(len, self.levels)),
                "state_rows": state_rows,
                "expansions": (keys, part_lens, part_pairs),
            },
        )

    @classmethod
    def restore(
        cls,
        cpds: CPDS,
        blob: bytes,
        *,
        max_states_per_context: int | None = None,
    ) -> "SymbolicReach":
        """Rebuild a warm batched engine from a :meth:`snapshot` blob
        taken on ``cpds`` (the lane has no guard, so
        ``max_states_per_context`` is ignored).  Raises
        :class:`~repro.errors.SnapshotError` on any undecodable or
        mismatched blob."""
        with reading(cls, cpds, blob) as payload:
            n = cpds.n_threads
            engine = cls(cpds)
            initial_level = engine.levels[0]

            shared_pool = payload["shared_pool"]
            # Stored canonical forms embed the *snapshotting* process's
            # symbol order (canonical BFS numbering visits symbols in
            # SymbolTable order, which depends on interning history).  A
            # restarted daemon with different history would compute
            # different signatures for the same languages, so every
            # stored form is re-canonicalized under THIS process's
            # per-thread alphabet — a no-op returning the identical
            # interned pair when the orders agree, and an exact
            # translation when they don't.
            raw = [intern_canonical_form(*key) for key in payload["sig_pool"]]
            alphabets = engine._alphabets
            translated: dict[tuple[int, int], tuple] = {}

            def pair_for(idx: int, thread: int) -> tuple:
                pair = translated.get((idx, thread))
                if pair is None:
                    pair = canonical_nfa(raw[idx][0], alphabets[thread])
                    translated[(idx, thread)] = pair
                return pair

            levels: list[frozenset] = []
            cursor = 0
            state_rows = payload["state_rows"]
            for length in payload["level_lens"]:
                bucket = []
                for _ in range(length):
                    shared = shared_pool[state_rows[cursor]]
                    chosen = tuple(
                        pair_for(state_rows[cursor + 1 + offset], offset)
                        for offset in range(n)
                    )
                    bucket.append(
                        SymbolicState(
                            shared,
                            tuple(pair[0] for pair in chosen),
                            tuple(pair[1] for pair in chosen),
                        )
                    )
                    cursor += 1 + n
                levels.append(frozenset(bucket))
            if not levels or levels[0] != initial_level:
                raise SnapshotError("snapshot does not belong to this CPDS")

            # A memo key taken under another group (a blob from the
            # same threads without declared candidates) need not be
            # orbit-canonical: it is re-keyed by its canonical view,
            # its parts mapped along.
            keys, part_lens, part_pairs = payload["expansions"]
            memo = engine._expansions
            canonical_view = engine.symmetry.canonical_view
            shared_maps = engine.symmetry.shared_maps
            pair_cursor = 0
            for position, length in enumerate(part_lens):
                thread, shared, sig = keys[3 * position : 3 * position + 3]
                element, canonical_thread, canonical_shared = canonical_view(
                    thread, shared_pool[shared]
                )
                forward = shared_maps[element] if element else None
                parts = []
                for _ in range(length):
                    part_shared = shared_pool[part_pairs[pair_cursor]]
                    if forward is not None:
                        part_shared = forward[part_shared]
                    dfa, signature = pair_for(part_pairs[pair_cursor + 1], thread)
                    parts.append((part_shared, dfa, signature))
                    pair_cursor += 2
                memo.setdefault(
                    (canonical_thread, canonical_shared, pair_for(sig, thread)[1]),
                    tuple(parts),
                )

            engine.levels = levels
            engine._seen = set().union(*levels)
            engine._frontier = None
            engine._clear_visible()
            for level in levels:
                engine._record_visible(_visible_keys(level))
            return engine

    # ------------------------------------------------------------------
    # Lane contract
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        cpds: CPDS,
        *,
        max_states_per_context: int | None = None,
    ) -> "SymbolicReach":
        # The symbolic lane has no divergence guard: γ(Sk) may be
        # infinite by design, so max_states_per_context is ignored.
        return cls(cpds)
