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
  and the witness parents and movers are id-indexed int columns.  The
  table doubles as the seen-set: an intern miss *is* the freshness
  test.
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
  materialized anywhere on the path.  The same loop fills the table's
  visible-key column (``vfrozen | vdelta``, see "Visible keys" in
  :mod:`repro.cpds.interning`).  Large levels replay as one numpy
  broadcast (:mod:`repro.reach.vectorized`, ``backend=``); both
  backends assign identical ids, parents, movers, visible keys and
  METER work counts.

``T(Rk)`` as visible keys
-------------------------
Each level records its *new* visible keys — the distinct keys of its
fresh states not seen at an earlier level — as a sorted int tuple, and
``_vlevel`` maps every key to the level that first reached it.  The
algorithms never need ``VisibleState`` objects for the three questions
they ask (see :mod:`repro.reach.base`): :meth:`ExplicitReach.visible_plateaued_at`
compares key counts, :meth:`ExplicitReach.violation_at` tests keys
directly for the property classes it knows (and decodes only the
level's new keys for opaque predicates), and :meth:`ExplicitReach.visible_up_to`
is a :class:`VisibleView` whose ``in`` encodes the query without
interning, which is all Thm. 11's generator search asks of it.
``visible_new_at`` / ``visible_levels`` decode lazily, with
memoization, for the CLI, the service, snapshots and traces.

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
from collections.abc import Iterator, Set
from itertools import repeat

from repro.core.property import (
    AlwaysSafe,
    MutualExclusion,
    Property,
    SharedStateReachability,
)
from repro.cpds.cpds import CPDS
from repro.cpds.interning import StateTable, visible_fields
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


def _key_test(table: StateTable, prop: Property):
    """``prop.violated_by`` as a test on visible keys, or ``None`` when
    no key can violate ``prop``.  The property classes whose semantics
    are known here are tested on the key fields; any other property
    sees the decoded key."""
    kind = type(prop)
    if kind is AlwaysSafe:
        return None
    if kind is SharedStateReachability:
        bad = {table._shared_ids.get(shared) for shared in prop.bad_shared}
        bad.discard(None)
        if not bad:
            return None
        vqshift = table._vqshift
        return lambda key: key >> vqshift in bad
    if kind is MutualExclusion:
        fields = []
        for index, tops in prop.critical.items():
            if index >= table.n_threads:
                continue
            top_ids = table._top_ids[index]
            tids = {top_ids.get(top) for top in tops}
            tids.discard(None)
            if tids:
                fields.append(
                    (table._voffs[index], table._vmasks[index], frozenset(tids))
                )
        if len(fields) < 2:
            return None

        def test(key: int) -> bool:
            inside = 0
            for off, mask, tids in fields:
                if (key >> off) & mask in tids:
                    inside += 1
                    if inside >= 2:
                        return True
            return False

        return test
    decode = table.decode_visible
    violated_by = prop.violated_by
    return lambda key: violated_by(decode(key))


class VisibleView(Set):
    """``T(R≤k)`` of an :class:`ExplicitReach` as a read-only set.

    Membership encodes the queried :class:`VisibleState` into a visible
    key (never interning) and compares the level that first reached it;
    ``len`` reads the cumulative key count.  Iteration decodes lazily
    through the engine's per-level memo.  Set operators return
    frozensets, and the view compares equal to the frozenset of its
    elements.  The view of a computed bound never changes."""

    __slots__ = ("_engine", "_k")

    def __init__(self, engine: "ExplicitReach", k: int) -> None:
        self._engine = engine
        self._k = k

    def __contains__(self, visible) -> bool:
        if not isinstance(visible, VisibleState):
            return False
        key = self._engine.table.encode_visible(visible)
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
        #: builders; dense ids index ``_first_seen`` and the columns.
        self.table = StateTable(cpds.n_threads, visible_fields(cpds))
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
        #: Witness parents in batched mode: id -> parent id (-1 for the
        #: root) and id -> the action taken; the thread is the mover.
        #: ``None`` when traces are off.
        track = track_traces and batched
        self._parent_ids: array | None = array("q") if track else None
        self._parent_actions: list | None = [] if track else None
        #: id -> witness thread, only where it differs from the mover
        #: (states restored from a blob without the mover column).
        self._witness_threads: dict[int, int] = {}
        #: The per-state oracle path's ``GlobalState``-keyed parents
        #: (see :func:`thread_context_post`).
        self._oracle_parents: dict | None = (
            {} if track_traces and not batched else None
        )
        #: ``T(Rk)`` as visible keys (see the module docstring):
        #: key -> first level, the per-level sorted new keys, and the
        #: cumulative counts ``|T(R≤k)|``.
        self._vlevel: dict[int, int] = {}
        self._vnew: list[tuple[int, ...]] = []
        self._vcounts: list[int] = []
        #: Lazily decoded ``visible_new_at`` / ``levels`` (append-only,
        #: so the memos never go stale).
        self._decoded_visible: list[frozenset[VisibleState] | None] = []
        self._decoded_levels: list[frozenset[GlobalState]] = []
        self._first_seen_view: tuple[int, dict] | None = None

        initial = cpds.initial_state()
        sid = self.table.intern(initial)
        self._first_seen.append(0)
        self._movers.append(cpds.n_threads)
        self._level_ids.append((sid,))
        if self._parent_ids is not None:
            self._parent_ids.append(-1)
            self._parent_actions.append(None)
        if self._oracle_parents is not None:
            self._oracle_parents[initial] = None
        self._record_visible_keys(sid, sid + 1)

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
        # A level's fresh ids are exactly ``base..len(table)-1``.
        if not trace.enabled():
            self._record_visible_keys(base, len(self._first_seen))
        else:
            with trace.span("explicit.decode", states=len(fresh)):
                self._record_visible_keys(base, len(self._first_seen))
        return bool(fresh)

    def _record_visible_keys(self, start: int, stop: int) -> None:
        """Record the next level of ``T(Rk)`` from the visible keys of
        state ids ``start..stop-1`` (that level's states)."""
        vlevel = self._vlevel
        level = len(self._vnew)
        new = sorted(set(self.table._vkeys[start:stop]).difference(vlevel))
        vlevel.update(dict.fromkeys(new, level))
        self._vnew.append(tuple(new))
        self._vcounts.append(len(vlevel))
        self._decoded_visible.append(None)

    def _rollback(self, base: int) -> None:
        """Discard every state interned at id ``base`` or later (the
        half-committed partial level).  Ids are dense and append-only,
        and the engine is the only writer of global ids, so truncation
        restores exactly the pre-``advance`` state."""
        table = self.table
        if self._parent_ids is not None:
            del self._parent_ids[base:]
            del self._parent_actions[base:]
        if self._oracle_parents is not None:
            for sid in range(base, len(table)):
                self._oracle_parents.pop(table.state(sid), None)
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
                        table, entries, level, self._first_seen, movers,
                        self._parent_ids, self._parent_actions, fresh.append,
                    )
                    return
            else:
                # Packed keys exceed int64 (high thread counts /
                # adaptive repacks): the whole level routes to the
                # pure-int loop.
                vectorized.bump_fallback()

        first_seen = self._first_seen
        parent_ids = self._parent_ids
        parent_actions = self._parent_actions
        append_fresh = fresh.append
        pairs = 0
        for view, members in groups.items():
            tree = trees[view]
            if not len(tree.qids):
                continue  # the context reaches nothing beyond its root
            index = view & self._view_index_mask
            pairs += len(members) * len(tree.qids)
            # Saturating later views grows the component pools, which
            # can repack the table (or widen its visible-key column) —
            # re-read the geometry per view.  Within one view's replay
            # only global ids grow, and a repack mutates dict/list
            # objects in place, so these references stay valid for the
            # whole view.
            bits = table._bits
            qshift = table._qshift
            packed = table._packed
            ids = table._ids
            states = table._states
            vkeys = table._vkeys
            low_mask = (1 << qshift) - 1
            move_clear = ~(table._mask << (bits * index))
            vclear = table.visible_clear(index)
            deltas = tree.deltas(table)
            if parent_ids is None:
                vdeltas = tree.visible_deltas(table)
                for sid in members:
                    # ``StateTable.intern_key`` inlined on packed keys
                    # (see the coupling note there): this loop runs once
                    # per (member, tree edge) and the call overhead is
                    # the hot-path cost.
                    frozen = packed[sid] & low_mask & move_clear
                    vfrozen = vkeys[sid] & vclear
                    for delta, vdelta in zip(deltas, vdeltas):
                        key = frozen | delta
                        if key not in ids:
                            ids[key] = nsid = len(packed)
                            packed.append(key)
                            states.append(None)
                            vkeys.append(vfrozen | vdelta)
                            first_seen.append(level)
                            append_fresh(nsid)
            else:
                edge_rows = tree.edge_rows(table)
                for sid in members:
                    frozen = packed[sid] & low_mask & move_clear
                    vfrozen = vkeys[sid] & vclear
                    for delta, vdelta, parent_pos, action in edge_rows:
                        key = frozen | delta
                        if key not in ids:
                            ids[key] = nsid = len(packed)
                            packed.append(key)
                            states.append(None)
                            vkeys.append(vfrozen | vdelta)
                            first_seen.append(level)
                            append_fresh(nsid)
                            # BFS order: the parent node's edge came
                            # earlier in this member's row, so its key is
                            # already interned.
                            parent_ids.append(
                                ids[frozen | deltas[parent_pos - 1]]
                                if parent_pos
                                else sid
                            )
                            parent_actions.append(action)
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
                build_rows=self._parent_ids is not None,
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
                    parents=self._oracle_parents,
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

    # -- T(Rk), read off the visible keys (see the module docstring) ----
    @property
    def k(self) -> int:
        """Largest context bound computed so far."""
        return len(self._level_ids) - 1

    @property
    def visible_levels(self) -> list[frozenset[VisibleState]]:
        """``visible_levels[k]`` = visible states first seen at bound k
        (decoded lazily)."""
        return [self.visible_new_at(k) for k in range(len(self._vnew))]

    def visible_new_at(self, k: int) -> frozenset[VisibleState]:
        """``T(Rk) \\ T(Rk−1)``, decoded from the level's new keys on
        first use."""
        if not 0 <= k < len(self._vnew):
            return frozenset()
        decoded = self._decoded_visible[k]
        if decoded is None:
            decoded = frozenset(map(self.table.decode_visible, self._vnew[k]))
            self._decoded_visible[k] = decoded
        return decoded

    def visible_up_to(self, k: int | None = None) -> VisibleView:
        """``T(Rk)`` as a :class:`VisibleView` (default: the latest
        computed bound)."""
        k = self.k if k is None else min(k, self.k)
        return VisibleView(self, max(k, -1))

    def visible_plateaued_at(self, k: int) -> bool:
        """True iff ``T(Rk−1) = T(Rk)``, on key counts."""
        counts = self._vcounts
        return 1 <= k < len(counts) and counts[k] == counts[k - 1]

    def violation_at(self, k: int, prop: Property) -> VisibleState | None:
        """The violating visible state of level ``k``'s new keys with
        the smallest key, or None.  The property classes
        :func:`_key_test` knows are tested on the keys; any other
        property sees the level's keys decoded, smallest first."""
        if not 0 <= k < len(self._vnew):
            return None
        test = _key_test(self.table, prop)
        if test is None:
            return None
        for key in self._vnew[k]:  # ascending
            if test(key):
                return self.table.decode_visible(key)
        return None

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
        if self._oracle_parents is not None:
            return rebuild_trace(self._oracle_parents, target)
        if self._parent_ids is None:
            raise ValueError("engine was created with track_traces=False")
        sid = self.table.id_of(target)
        if sid is None or sid >= len(self._first_seen):
            raise KeyError(f"state {target} was never discovered")
        state_of = self.table.state
        parent_ids = self._parent_ids
        actions = self._parent_actions
        reversed_steps: list[TraceStep] = []
        current = sid
        while (parent := parent_ids[current]) >= 0:
            reversed_steps.append(
                TraceStep(
                    self.witness_thread(current),
                    actions[current],
                    state_of(current),
                )
            )
            current = parent
        return Trace(state_of(current), tuple(reversed(reversed_steps)))

    def witness_thread(self, sid: int) -> int:
        """The thread of the context step that first reached ``sid``
        (its mover, unless a legacy snapshot restored it unknown)."""
        return self._witness_threads.get(sid, self._movers[sid])

    def find_visible(self, visible) -> GlobalState | None:
        """The first reached global state (by id) projecting to
        ``visible``, if any."""
        key = self.table.encode_visible(visible)
        if key is None or key not in self._vlevel:
            return None
        return self.table.state(self.table._vkeys.index(key))

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
