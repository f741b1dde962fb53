"""Explicit-state computation of the sets ``Rk`` (paper Secs. 2.3, 5),
rebuilt on a flat array-encoded interned core.

``R0 = {⟨qI|w1,...,wn⟩}`` and ``Rk`` adds, for every state first reached
at bound ``k−1`` and every thread ``i``, all states thread ``i`` can
reach in one context.  Because a context includes the empty run,
expanding only the frontier is exact: states discovered at earlier
levels were already expanded.

Architecture (PR 3 view grouping, PR 4 flat arrays)
---------------------------------------------------
The engine is *product-space bound*: the dominant cost is not the local
BFS trees (tiny, heavily shared) but the per-state bookkeeping of the
global product.  Three layers kill it:

* A :class:`~repro.cpds.interning.StateTable` interns every component
  (shared states, per-thread stack words) and packs every global state
  into a **single integer key** (fixed-width bit fields, adaptively
  widened); ``first_seen`` is an id-indexed list, levels are id tuples,
  parents an int-keyed dict, and the visible projection is memoized per
  id.  The table doubles as the seen-set: an intern miss *is* the
  freshness test.
* ``advance`` **groups** each frontier level by the moving thread's view
  ``(thread, shared_id, stack_id)`` and saturates each unique view
  exactly once per level via
  :func:`~repro.cpds.semantics.thread_view_post`, which emits a flat
  CSR-encoded :class:`~repro.cpds.semantics.ContextTree`
  (``array('q')`` edge offsets + target id columns).  METER records the
  grouping — ``explicit.level_views`` (the ``(state, thread)`` cells
  actually grouped, after same-thread pruning) vs
  ``explicit.level_unique_views`` vs ``explicit.expansions`` — so
  harnesses can assert one saturation per unique view per level (with
  ``incremental=True`` cross-level reuse, ``expansions +
  context_cache_hits`` accounts for every view).
* The tree is **replayed** across all global states sharing the view by
  pure integer arithmetic: mask the moving thread's bit field out of
  the member's packed key and OR in the tree's precomputed per-edge
  delta — no tuple allocation, no nested re-hashing, no ``GlobalState``
  materialized anywhere on the path.  Decoding happens lazily in the
  observation API.  Large levels replay as one numpy broadcast
  (:mod:`repro.reach.vectorized`, ``backend=``); both backends assign
  identical ids, parents, movers and METER work counts.

Same-thread pruning
-------------------
A context is one uninterrupted run of one thread, so two back-to-back
contexts of the same thread are one context.  Let ``m`` be first
reached at level ``k`` by a context of thread ``t`` from a frontier
state ``p``: then ``post_t(m) ⊆ post_t(p) ⊆ Rk``, so expanding ``m`` by
``t`` at level ``k+1`` can only produce states already seen.  The
engine records each state's *mover* — the thread of the view whose
replay first produced it, in the serial view/member/edge scan order; the
root and states of unknown origin carry the sentinel ``n_threads``
("expand every thread") — in a compact ``array`` column aligned with
the state ids, and grouping skips the ``(state, mover)`` view.  Both
grouping and replay backends (scalar, numpy) skip and record
identically, so the levels and the METER work counts stay equal across
them; ``explicit.replay_pairs`` counts the member x tree-edge pairs
actually replayed.  The skipped view's tree is a subtree of one already
saturated within the divergence guard, so pruning cannot move the
level at which :class:`~repro.errors.ContextExplosionError` fires.

The seed per-state formulation — one
:func:`~repro.cpds.semantics.thread_context_post` call per (state,
thread) — is kept *unpruned* behind ``batched=False`` as the
differential oracle;
``tests/reach/test_batched_explicit.py`` and
``tests/reach/test_vectorized_backend.py`` prove the modes agree level
for level on every FCR registry row and on randomized CPDSs.

Explicit enumeration requires every ``Rk`` to be finite — the finite
context reachability condition (Sec. 5).  Programs violating FCR trip
the per-context divergence guard with
:class:`~repro.errors.ContextExplosionError`.
"""

from __future__ import annotations

from array import array
from itertools import repeat

from repro.cpds.cpds import CPDS
from repro.cpds.interning import StateTable
from repro.cpds.semantics import ContextTree, thread_context_post, thread_view_post
from repro.cpds.state import GlobalState, VisibleState
from repro.obs import trace
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.reach import vectorized
from repro.reach.base import ReachabilityEngine
from repro.reach.config import EngineConfig
from repro.reach.registry import register
from repro.reach.witness import Trace, TraceStep, rebuild_trace
from repro.util.meter import METER

#: A frontier view key packs ``(thread, shared_id, stack_id)`` into one
#: int — ``(qid << (t + 32)) | (wid << t) | thread`` for a per-engine
#: thread-field width ``t`` sized to the CPDS at construction —
#: independent of the table's adaptive packing geometry, so the
#: cross-level tree cache keyed by it survives repacks.  Stack pools
#: cannot outgrow 2**32 entries.
View = int

_VIEW_WID_MASK = 0xFFFFFFFF


def mover_column(n_threads: int, values=()) -> array:
    """A compact per-state mover column (see "Same-thread pruning" in
    the module docstring): the narrowest unsigned ``array`` typecode
    that holds the sentinel ``n_threads``."""
    typecode = "B" if n_threads <= 0xFF else "H" if n_threads <= 0xFFFF else "L"
    return array(typecode, values)


@register
class ExplicitReach(ReachabilityEngine):
    """View-batched explicit engine for the observation
    sequences ``(Rk)`` and ``(T(Rk))`` (see the module docstring)."""

    lane = "explicit"
    sequence_name = "Rk"
    snapshot_kind = 1
    meter_prefix = "explicit."
    supports_witness = True
    preferred_algorithm = "scheme1"

    def __init__(
        self,
        cpds: CPDS,
        max_states_per_context: int = DEFAULT_STATE_LIMIT,
        track_traces: bool = True,
        incremental: bool | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        super().__init__()
        config = config if config is not None else EngineConfig()
        self.config = config
        # ``incremental`` stays a direct engine parameter (differential
        # harnesses toggle it per instance); None defers to the config.
        incremental = config.incremental if incremental is None else incremental
        batched = config.batched
        self.cpds = cpds
        #: Requested replay backend knob (``auto``/``python``/``numpy``);
        #: a pure execution knob like ``batched`` — never fingerprinted
        #: or snapshotted.  ``resolved_backend`` is what actually runs.
        self.backend = vectorized.validate_backend(config.backend)
        self._use_numpy = vectorized.resolve_backend(config.backend) == "numpy"
        self.max_states_per_context = max_states_per_context
        self.batched = batched
        #: View-key geometry (see :data:`View`): the thread field is
        #: sized to this CPDS so view keys cannot alias however many
        #: threads the product has.
        self._view_wid_shift = max(4, cpds.n_threads.bit_length())
        self._view_qid_shift = self._view_wid_shift + 32
        self._view_index_mask = (1 << self._view_wid_shift) - 1
        #: Interned global-state core shared with the context-tree
        #: builders; dense ids index ``_first_seen`` and key parents.
        self.table = StateTable(cpds.n_threads)
        #: Cross-level memo of array-encoded context trees, keyed by
        #: ``(thread, shared_id, stack_id)`` (``incremental=True``): a
        #: context depends only on the moving thread's local view, which
        #: recurs under many global states and levels.
        self._tree_cache: dict[View, ContextTree] | None = (
            {} if incremental else None
        )
        #: Seed-formulation memo for the per-state oracle path, keyed by
        #: ``(thread, PDSState)`` (see :func:`thread_context_post`).
        self._context_cache: dict | None = {} if incremental else None
        #: Per-thread successor memos shared by every in-process tree
        #: saturation (see :func:`thread_view_post`).
        self._succ_memos: tuple[dict, ...] = tuple(
            {} for _ in range(cpds.n_threads)
        )
        #: ``_level_ids[k]`` = ids of states first reached at bound k.
        self._level_ids: list[tuple[int, ...]] = []
        #: id -> level at which the state was first reached (dense).
        self._first_seen: list[int] = []
        #: id -> the thread whose context first produced the state, or
        #: the sentinel ``n_threads`` (root, unknown origin): grows and
        #: rolls back in lock-step with ``_first_seen``.
        self._movers = mover_column(cpds.n_threads)
        #: Witness parents: id-keyed ``sid -> (parent_sid, thread,
        #: action)`` in batched mode, the seed's ``GlobalState``-keyed
        #: dict on the per-state oracle path, ``None`` when traces are
        #: off.  The root maps to ``None`` in both.
        self._parents: dict | None = {} if track_traces else None
        #: Lazily decoded ``levels`` view (append-only, so a prefix
        #: cache never goes stale).
        self._decoded_levels: list[frozenset[GlobalState]] = []
        self._first_seen_view: tuple[int, dict] | None = None

        initial = cpds.initial_state()
        sid = self.table.intern(initial)
        self._first_seen.append(0)
        self._movers.append(cpds.n_threads)
        self._level_ids.append((sid,))
        if self._parents is not None:
            self._parents[sid if batched else initial] = None
        self._record_visible(frozenset([self.table.visible(sid)]))

    # ------------------------------------------------------------------
    # Level mechanics
    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        """Compute ``R(k+1)``; return True iff it strictly grows ``Rk``.

        Exception-safe: if a context trips the divergence guard
        (:class:`~repro.errors.ContextExplosionError`) mid-level, every
        state discovered by the partial level is rolled back — ids,
        ``first_seen`` and parents stay consistent with the committed
        levels, so callers that catch the guard (Scheme 1's UNKNOWN
        path) report coherent stats and a later retry re-discovers the
        rolled-back states."""
        frontier = self._level_ids[-1]
        level = len(self._level_ids)
        fresh: list[int] = []
        base = len(self._first_seen)
        try:
            if self.batched:
                self._advance_batched(frontier, level, fresh)
            else:
                self._advance_per_state(frontier, level, fresh)
        except BaseException:
            self._rollback(base)
            raise
        self._level_ids.append(tuple(fresh))
        if not trace.enabled():
            self._record_visible(self._project(fresh))
        else:
            with trace.span("explicit.decode", states=len(fresh)):
                self._record_visible(self._project(fresh))
        return bool(fresh)

    def _project(self, fresh: list[int]) -> frozenset[VisibleState]:
        """The visible projections of the states ``fresh`` (ids)."""
        if (
            self._use_numpy
            and len(fresh) >= vectorized.NUMPY_MIN_DECODE
            and vectorized.table_fits_int64(self.table)
        ):
            return frozenset(vectorized.visible_batch(self.table, fresh))
        visible = self.table.visible
        return frozenset([visible(sid) for sid in fresh])

    def _rollback(self, base: int) -> None:
        """Discard every state interned at id ``base`` or later (the
        half-committed partial level).  Ids are dense and append-only,
        and the engine is the only writer of global ids, so truncation
        restores exactly the pre-``advance`` state."""
        table = self.table
        if self._parents is not None:
            if self.batched:
                for sid in range(base, len(table)):
                    self._parents.pop(sid, None)
            else:
                for sid in range(base, len(table)):
                    self._parents.pop(table.state(sid), None)
        table.truncate(base)
        del self._first_seen[base:]
        del self._movers[base:]

    def _advance_batched(
        self, frontier: tuple[int, ...], level: int, fresh: list[int]
    ) -> None:
        """Group the frontier by unique thread view (skipping each
        state's mover thread), saturate each view once, then replay the
        array-encoded tree across every member by packed-key
        substitution."""
        table = self.table
        n = self.cpds.n_threads
        bits = table._bits
        mask = table._mask
        qshift = table._qshift
        packed = table._packed
        shifts = tuple(bits * index for index in range(n))
        threads = tuple(range(n))
        view_wid_shift = self._view_wid_shift
        view_qid_shift = self._view_qid_shift
        movers = self._movers
        groups: dict[View, list[int]] = {}
        if (
            self._use_numpy
            and n * len(frontier) >= vectorized.NUMPY_MIN_WORK
            and vectorized.table_fits_int64(table)
            and vectorized.views_fit_int64(
                table, view_qid_shift, view_wid_shift
            )
        ):
            groups = vectorized.group_views(
                table, frontier, movers, n, view_qid_shift, view_wid_shift
            )
        else:
            for sid in frontier:
                key = packed[sid]
                qbase = (key >> qshift) << view_qid_shift
                mover = movers[sid]  # same-thread pruning: skip its view
                for index in threads:
                    if index != mover:
                        groups.setdefault(
                            qbase
                            | (((key >> shifts[index]) & mask) << view_wid_shift)
                            | index,
                            [],
                        ).append(sid)
        # Every grouped (state, thread) cell is one view member.
        METER.bump("explicit.level_views", sum(map(len, groups.values())))
        METER.bump("explicit.level_unique_views", len(groups))
        if not groups:
            return
        trees = self._trees_for(list(groups))

        if self._use_numpy:
            if vectorized.table_fits_int64(table):
                # Geometry is stable from here on: every tree saturated
                # in _trees_for, so replay interns no components and
                # cannot repack.
                bits = table._bits
                qshift = table._qshift
                low_mask = (1 << qshift) - 1
                entries = []
                total = 0
                for view, members in groups.items():
                    tree = trees[view]
                    if not len(tree.qids):
                        continue
                    index = view & self._view_index_mask
                    move_clear = ~(table._mask << (bits * index))
                    entries.append(
                        (members, tree, index, low_mask & move_clear)
                    )
                    total += len(members) * len(tree.qids)
                if (
                    entries
                    and total >= vectorized.NUMPY_MIN_WORK
                    and total
                    >= len(entries) * vectorized.NUMPY_MIN_ENTRY_AVG
                ):
                    vectorized.bump_view(len(entries))
                    METER.bump("explicit.replay_pairs", total)
                    vectorized.replay_level(
                        table, entries, level, self._first_seen,
                        movers, self._parents, fresh.append,
                    )
                    return
            else:
                # Packed keys exceed int64 (high thread counts /
                # adaptive repacks): the whole level routes to the
                # pure-int loop.
                vectorized.bump_fallback()

        first_seen = self._first_seen
        parents = self._parents
        append_fresh = fresh.append
        pairs = 0
        for view, members in groups.items():
            tree = trees[view]
            if not len(tree.qids):
                continue  # the context reaches nothing beyond its root
            index = view & self._view_index_mask
            pairs += len(members) * len(tree.qids)
            # Saturating later views grows the component pools, which
            # can repack the table — re-read the geometry per view.
            # Within one view's replay only global ids grow, and the
            # repack mutates dict/list objects in place, so these
            # references stay valid for the whole view.
            bits = table._bits
            qshift = table._qshift
            packed = table._packed
            ids = table._ids
            states = table._states
            visibles = table._visibles
            low_mask = (1 << qshift) - 1
            move_clear = ~(table._mask << (bits * index))
            deltas = tree.deltas(table)
            if parents is None:
                for sid in members:
                    # ``StateTable.intern_key`` inlined on packed keys
                    # (see the coupling note there): this loop runs once
                    # per (member, tree edge) and the call overhead is
                    # the hot-path cost.
                    frozen = packed[sid] & low_mask & move_clear
                    for delta in deltas:
                        key = frozen | delta
                        if key not in ids:
                            ids[key] = nsid = len(packed)
                            packed.append(key)
                            states.append(None)
                            visibles.append(None)
                            first_seen.append(level)
                            append_fresh(nsid)
            else:
                edge_rows = tree.edge_rows(table)
                for sid in members:
                    frozen = packed[sid] & low_mask & move_clear
                    for delta, parent_pos, action in edge_rows:
                        key = frozen | delta
                        if key not in ids:
                            ids[key] = nsid = len(packed)
                            packed.append(key)
                            states.append(None)
                            visibles.append(None)
                            first_seen.append(level)
                            append_fresh(nsid)
                            # BFS order: the parent node's edge came
                            # earlier in this member's row, so its key is
                            # already interned.
                            parents[nsid] = (
                                ids[frozen | deltas[parent_pos - 1]]
                                if parent_pos
                                else sid,
                                index,
                                action,
                            )
            # Every id this view interned is fresh and moved by
            # ``index``: fill the mover column once per view instead of
            # once per state in the loops above.
            grown = len(first_seen) - len(movers)
            if grown:
                movers.extend(repeat(index, grown))
        METER.bump("explicit.replay_pairs", pairs)

    def _view_parts(self, view: View) -> tuple[int, int, int]:
        """Unpack a view key to ``(thread, shared_id, stack_id)``."""
        return (
            view & self._view_index_mask,
            view >> self._view_qid_shift,
            (view >> self._view_wid_shift) & _VIEW_WID_MASK,
        )

    def _trees_for(self, views: list[View]) -> dict[View, ContextTree]:
        """A context tree per view: cross-level cache hits first, then
        the misses saturated in-process."""
        cache = self._tree_cache
        trees: dict[View, ContextTree] = {}
        missing: list[View] = []
        for view in views:
            tree = cache.get(view) if cache is not None else None
            if tree is not None:
                METER.bump("explicit.context_cache_hits")
                trees[view] = tree
            else:
                missing.append(view)
        for view in missing:
            index, qid, wid = self._view_parts(view)
            tree = thread_view_post(
                self.cpds, self.table, index, qid, wid,
                self.max_states_per_context,
                succ_memo=self._succ_memos[index],
                build_rows=self._parents is not None,
            )
            if cache is not None:
                METER.bump("explicit.context_cache_misses")
                cache[view] = tree
            trees[view] = tree
        return trees

    def _advance_per_state(
        self, frontier: tuple[int, ...], level: int, fresh: list[int]
    ) -> None:
        """The seed formulation: one :func:`thread_context_post` call
        per (frontier state, thread) — the differential oracle, never
        pruned (it records movers only to keep the column aligned)."""
        table = self.table
        intern = table.intern
        state_of = table.state
        first_seen = self._first_seen
        movers = self._movers
        for sid in frontier:
            state = state_of(sid)
            for index in range(self.cpds.n_threads):
                reached = thread_context_post(
                    self.cpds,
                    state,
                    index,
                    max_states=self.max_states_per_context,
                    parents=self._parents,
                    cache=self._context_cache,
                )
                for nxt in reached:
                    nsid = intern(nxt)
                    if nsid == len(first_seen):
                        first_seen.append(level)
                        movers.append(index)
                        fresh.append(nsid)

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    @property
    def levels(self) -> list[frozenset[GlobalState]]:
        """``levels[k]`` = global states first reached at bound k,
        decoded lazily from the interned core."""
        decoded = self._decoded_levels
        state_of = self.table.state
        while len(decoded) < len(self._level_ids):
            decoded.append(
                frozenset(state_of(sid) for sid in self._level_ids[len(decoded)])
            )
        return decoded

    @property
    def first_seen(self) -> dict[GlobalState, int]:
        """state -> level at which it was first reached (decoded view;
        use :attr:`n_states` when only the count is needed)."""
        view = self._first_seen_view
        count = len(self._first_seen)
        if view is None or view[0] != count:
            state_of = self.table.state
            view = (
                count,
                {
                    state_of(sid): lvl
                    for sid, lvl in enumerate(self._first_seen)
                },
            )
            self._first_seen_view = view
        return view[1]

    @property
    def n_states(self) -> int:
        """``|Rk|`` at the latest computed bound, without decoding."""
        return len(self._first_seen)

    def level_sizes(self) -> list[int]:
        """``|Rk \\ Rk−1|`` per level, without decoding."""
        return [len(level) for level in self._level_ids]

    def states_up_to(self, k: int | None = None) -> frozenset[GlobalState]:
        """``Rk`` (default: the latest computed bound)."""
        if k is None:
            k = self.k
        k = min(k, self.k)
        result: set[GlobalState] = set()
        for level in self.levels[: k + 1]:
            result |= level
        return frozenset(result)

    def states_new_at(self, k: int) -> frozenset[GlobalState]:
        """``Rk \\ Rk−1``."""
        if 0 <= k < len(self._level_ids):
            return self.levels[k]
        return frozenset()

    def plateaued_at(self, k: int) -> bool:
        """True iff ``Rk−1 = Rk``.  By Lemma 7 ``(Rk)`` is stutter-free,
        so a plateau here is already a collapse."""
        return k >= 1 and k <= self.k and not self._level_ids[k]

    @property
    def resolved_backend(self) -> str:
        """The concrete replay backend this engine runs (``"auto"``
        resolved against numpy availability at construction)."""
        return "numpy" if self._use_numpy else "python"

    def stats(self) -> dict:
        """Work summary for verification-result plumbing (all sizes read
        off the int core — no decoding)."""
        cache = self._tree_cache if self.batched else self._context_cache
        return {
            "global_states": len(self._first_seen),
            "levels": self.level_sizes(),
            "batched": self.batched,
            "backend": self.resolved_backend,
            "context_memo": len(cache) if cache is not None else 0,
        }

    # ------------------------------------------------------------------
    # Witnesses
    # ------------------------------------------------------------------
    def trace(self, target: GlobalState) -> Trace:
        """Reconstruct a witness path to a reached state."""
        if self._parents is None:
            raise ValueError("engine was created with track_traces=False")
        if not self.batched:
            return rebuild_trace(self._parents, target)
        sid = self.table.id_of(target)
        if sid is None or sid >= len(self._first_seen):
            raise KeyError(f"state {target} was never discovered")
        state_of = self.table.state
        reversed_steps: list[TraceStep] = []
        current = sid
        while True:
            entry = self._parents[current]
            if entry is None:
                break
            parent_sid, thread, action = entry
            reversed_steps.append(TraceStep(thread, action, state_of(current)))
            current = parent_sid
        return Trace(state_of(current), tuple(reversed(reversed_steps)))

    def find_visible(self, visible) -> GlobalState | None:
        """Some reached global state projecting to ``visible``, if any."""
        table = self.table
        for sid in range(len(self._first_seen)):
            if table.visible(sid) == visible:
                return table.state(sid)
        return None

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Serialize the committed levels, interned core, witness
        parents, and cross-level tree cache into a versioned binary
        blob (:mod:`repro.service.snapshot`).  A restored engine's
        ``ensure_level`` continues level-for-level identically to an
        uninterrupted run, including METER expansion counts."""
        from repro.service.snapshot import snapshot_explicit

        return snapshot_explicit(self)

    @classmethod
    def restore(
        cls,
        cpds: CPDS,
        data: bytes,
        *,
        max_states_per_context: int | None = None,
        config: EngineConfig | None = None,
    ) -> "ExplicitReach":
        """Rebuild a warm engine from a :meth:`snapshot` blob taken on
        the same CPDS.  ``config`` holds pure execution knobs and may
        differ from the snapshotted engine's; raises
        :class:`~repro.errors.SnapshotError` on any undecodable or
        mismatched blob."""
        from repro.service.snapshot import restore_explicit

        return restore_explicit(
            cpds,
            data,
            config=config,
            max_states_per_context=max_states_per_context,
        )

    # ------------------------------------------------------------------
    # Lane contract
    # ------------------------------------------------------------------
    @classmethod
    def applicable(cls, cpds: CPDS, prop=None) -> bool:
        """The explicit lane requires finite context reachability
        (Sec. 5): every per-thread shallow-configuration language must
        be finite or enumeration diverges."""
        from repro.cuba.fcr import check_fcr

        return check_fcr(cpds).holds

    @classmethod
    def create(
        cls,
        cpds: CPDS,
        *,
        max_states_per_context: int | None = None,
        config: EngineConfig | None = None,
    ) -> "ExplicitReach":
        return cls(
            cpds,
            max_states_per_context=(
                DEFAULT_STATE_LIMIT
                if max_states_per_context is None
                else max_states_per_context
            ),
            config=config,
        )

    @classmethod
    def restore_engine(
        cls,
        cpds: CPDS,
        data: bytes,
        *,
        max_states_per_context: int | None = None,
        config: EngineConfig | None = None,
    ) -> "ExplicitReach":
        return cls.restore(
            cpds,
            data,
            max_states_per_context=max_states_per_context,
            config=config,
        )
