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
  harnesses can assert one saturation per unique view per level: the
  cross-level tree memo makes ``expansions + context_cache_hits ==
  level_unique_views`` an exact per-level identity.
* The tree is **replayed** across all global states sharing the view by
  pure integer arithmetic: mask the moving thread's bit field out of
  the member's packed key and OR in the tree's precomputed per-edge
  delta — no tuple allocation, no nested re-hashing, no ``GlobalState``
  materialized anywhere on the path.  The same loop fills the table's
  visible-key column (``vfrozen | vdelta``, see "Visible keys" in
  :mod:`repro.cpds.interning`) and the witness parents: every batched
  engine records them, so a refutation always comes with its path.
  Keys are Python ints, so the one loop serves every packing geometry,
  however wide adaptive repacks grow it.

``T(Rk)`` as visible keys
-------------------------
The lane keeps ``T(Rk)`` in the base class's ledger (see "T(·) as
visible keys" in :mod:`repro.reach.base`), keyed by the table's packed
visible ints: each level hands it the sorted distinct keys of its
fresh states, and the two hooks encode and decode through the
:class:`~repro.cpds.interning.StateTable`.  The algorithms never need
``VisibleState`` objects for the three questions they ask: the plateau
test compares key counts, :meth:`ExplicitReach.violation_at` tests keys
directly for the property classes it knows (and decodes the level's
new keys only for opaque predicates, else just the violators), and
``visible_up_to``'s :class:`~repro.reach.base.VisibleView` encodes an
``in`` query without interning, which is all Thm. 11's generator
search asks of it.  ``visible_new_at`` / ``visible_levels`` decode
lazily, with memoization, for the CLI, the service and traces.

Same-thread pruning
-------------------
A context is one uninterrupted run of one thread, so two back-to-back
contexts of the same thread are one context.  Let ``m`` be first
reached at level ``k`` by a context of thread ``t`` from a frontier
state ``p``: then ``post_t(m) ⊆ post_t(p) ⊆ Rk``, so expanding ``m`` by
``t`` at level ``k+1`` can only produce states already seen.  The
engine records each state's *mover* — the thread of the view whose
replay first produced it, in the serial view/member/edge scan order; the
root carries the sentinel ``n_threads``
("expand every thread") — in a compact ``array`` column aligned with
the state ids, and grouping skips the ``(state, mover)`` view.
``explicit.replay_pairs`` counts the member x tree-edge pairs actually
replayed.  The skipped view's tree is a subtree of one already
saturated within the divergence guard, so pruning cannot move the
level at which :class:`~repro.errors.ContextExplosionError` fires.

The seed per-state formulation — one
:func:`~repro.cpds.semantics.thread_context_post` call per (state,
thread), *unpruned* and memo-free — is kept behind ``batched=False`` as
the differential oracle;
``tests/reach/test_batched_explicit.py`` proves the modes agree level
for level on every FCR registry row and on randomized CPDSs, and
``tests/reach/test_sharded_replay.py`` that the replay and a
snapshot-restored engine agree level for level, witness parents
included, with equal METER work counts.

Symmetry reduction
------------------
A program that runs one thread template several times is symmetric:
swapping two replicas (and relabelling the shared-state fields that
name a thread) maps every ``k``-context run to a ``k``-context run, so
every ``Rk`` is a union of orbits of the group ``G`` those swaps
generate.  Models declare candidate generators as plain data;
the first batched engine on a CPDS verifies them rule for rule and
memoizes the group on it (:func:`~repro.cpds.symmetry.verified_symmetry`;
any mismatch gives the trivial group, and ``batched=False`` never
reduces).  Under ``|G| > 1`` the engine stores one *representative* per
orbit — the member the serial scan reaches first — and every id-indexed
column (``first_seen``, movers, parents, visible keys) describes
representatives only:

* **Image entries.**  When the replay meets a key not in
  ``table._ids``, that key starts a new orbit: it becomes the
  representative, and every image ``g(key)`` gets the entry
  ``rep * |G| + g`` (see "Symmetry" in :mod:`repro.cpds.interning`).
  An image is one OR, ``π(frozen) | π(delta)``: the member's permuted
  frozen key (computed on its first new orbit) and the tree edge's
  image delta (:meth:`~repro.cpds.semantics.ContextTree.image_deltas`,
  cached beside the deltas).  A hit is therefore a known orbit, the
  freshness test is unchanged, and all extra work falls on new orbits;
  ``explicit.orbit_images`` counts the image entries.  One replay
  serves every group: with ``|G| = 1`` an entry is the plain id and
  each edge's image delta is the empty tuple.
* **Exact observations.**  ``_record_visible_keys`` adds the
  ``G``-closure of each level's new visible keys (``T(g(s)) =
  g(T(s))``), so ``T(Rk)``, its per-level keys and counts,
  :meth:`ExplicitReach.violation_at`, the plateau test and
  ``visible_up_to`` membership see the unreduced sets.
  ``level_sizes``, ``n_states`` and ``stats()["global_states"]`` count
  the distinct keys entered per level; ``levels``, ``first_seen`` and
  ``states_up_to`` decode every orbit.  The component numbering
  follows the reduced scan (a shared state's orbit is interned with
  it), so ``violation_at`` picks its violator by value
  (:func:`~repro.core.property.visible_token`), never by key.
* **Witnesses.**  Every batched engine records witness parents.  A
  parent is recorded as the ``_ids`` entry of the parent key, i.e.
  (representative, element);
  :meth:`ExplicitReach.trace` composes the elements up the chain and
  maps each step through them, so every witness is a real run from the
  initial state.  :meth:`ExplicitReach.find_visible` maps a visible
  state back to the first representative whose orbit projects onto it.
* **Same-thread pruning** keeps its argument: a representative is a key
  the replay actually reached from a frontier member, so its mover is
  the thread of that context.

Snapshots (version 4) carry the group's thread permutations, and a
blob of another group is refused; restore rebuilds the image entries.

Explicit enumeration requires every ``Rk`` to be finite — the finite
context reachability condition (Sec. 5).  Programs violating FCR trip
the per-context divergence guard with
:class:`~repro.errors.ContextExplosionError`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from itertools import repeat

from repro.core.property import (
    AlwaysSafe,
    MutualExclusion,
    Property,
    SharedStateReachability,
    visible_token,
)
from repro.cpds.cpds import CPDS
from repro.cpds.interning import StateTable, visible_fields
from repro.cpds.semantics import ContextTree, thread_context_post, thread_view_post
from repro.cpds.state import GlobalState, VisibleState
from repro.cpds.symmetry import trivial_symmetry, verified_symmetry
from repro.errors import SnapshotError
from repro.obs import trace
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.reach.base import ReachabilityEngine
from repro.reach.registry import register
from repro.reach.snapshot import (
    KIND_EXPLICIT,
    _encode,
    hash_consed,
    reading,
    refuse_oracle,
)
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


def _rule_of(pds, value: tuple):
    """``pds``'s rule equal to ``value`` = ``(from_shared, read,
    to_shared, write)``: a snapshot rule, or a witness step's image
    under a verified symmetry element."""
    from_shared, read, to_shared, write = value
    for rule in pds.actions_for(from_shared, read[0] if read else None):
        if rule.to_shared == to_shared and rule.write == write:
            return rule
    raise SnapshotError(f"rule {value!r} is not a rule of this CPDS")


@register
class ExplicitReach(ReachabilityEngine):
    """View-batched explicit engine for the observation
    sequences ``(Rk)`` and ``(T(Rk))`` (see the module docstring)."""

    lane = "explicit"
    sequence_name = "Rk"
    snapshot_kind = KIND_EXPLICIT
    meter_prefix = "explicit."
    supports_witness = True
    generator_test = True

    def __init__(
        self,
        cpds: CPDS,
        max_states_per_context: int = DEFAULT_STATE_LIMIT,
        *,
        batched: bool = True,
    ) -> None:
        super().__init__()
        self.cpds = cpds
        self.max_states_per_context = max_states_per_context
        self.batched = batched
        #: View-key geometry (see :data:`View`): the thread field is
        #: sized to this CPDS so view keys cannot alias however many
        #: threads the product has.
        self._view_wid_shift = max(4, cpds.n_threads.bit_length())
        self._view_qid_shift = self._view_wid_shift + 32
        self._view_index_mask = (1 << self._view_wid_shift) - 1
        #: The verified thread-symmetry group (see "Symmetry reduction"
        #: in the module docstring); the per-state oracle never reduces.
        self.symmetry = (
            verified_symmetry(cpds) if batched else trivial_symmetry(cpds.n_threads)
        )
        #: Interned global-state core shared with the context-tree
        #: saturations; dense ids index ``_first_seen`` and the columns
        #: (one id per orbit representative).
        self.table = StateTable(cpds.n_threads, visible_fields(cpds), self.symmetry)
        #: Cross-level memo of array-encoded context trees, keyed by
        #: ``(thread, shared_id, stack_id)``: a context depends only on
        #: the moving thread's local view, which recurs under many
        #: global states and levels.
        self._tree_cache: dict[View, ContextTree] = {}
        #: Per-thread successor memos shared by every in-process tree
        #: saturation (see :func:`thread_view_post`).
        self._succ_memos: tuple[dict, ...] = tuple(
            {} for _ in range(cpds.n_threads)
        )
        #: ``_level_ids[k]`` = ids of states first reached at bound k
        #: (representatives), ``_level_sizes[k]`` = the size of their
        #: orbits' union, ``|Rk \ Rk−1|``.
        self._level_ids: list[tuple[int, ...]] = []
        self._level_sizes: list[int] = []
        #: id -> level at which the state was first reached (dense).
        self._first_seen: list[int] = []
        #: id -> the thread whose context first produced the state, or
        #: the sentinel ``n_threads`` (the root): grows and
        #: rolls back in lock-step with ``_first_seen``.
        self._movers = mover_column(cpds.n_threads)
        #: Witness parents in batched mode: id -> parent entry (the
        #: parent's ``_ids`` entry ``rep * |G| + element``; -1 for the
        #: root) and id -> the action taken; the thread is the mover.
        #: ``None`` on the per-state oracle, which keeps
        #: ``GlobalState``-keyed parents instead (see
        #: :func:`thread_context_post`).
        self._parent_ids: array | None = array("q") if batched else None
        self._parent_actions: list | None = [] if batched else None
        self._oracle_parents: dict | None = None if batched else {}
        #: Lazily decoded ``levels`` (append-only, so the memo never
        #: goes stale).
        self._decoded_levels: list[frozenset[GlobalState]] = []
        self._first_seen_view: tuple[int, dict] | None = None

        initial = cpds.initial_state()
        sid = self.table.intern(initial)
        self._first_seen.append(0)
        self._movers.append(cpds.n_threads)
        self._level_ids.append((sid,))
        self._level_sizes.append(1 + self._add_orbit(sid))
        if batched:
            self._parent_ids.append(-1)
            self._parent_actions.append(None)
        else:
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
                images = self._advance_batched(frontier, level, fresh)
            else:
                images = 0
                self._advance_per_state(frontier, level, fresh)
        except BaseException:
            self._rollback(base)
            raise
        self._level_ids.append(tuple(fresh))
        self._level_sizes.append(len(fresh) + images)
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
        new = set(self.table._vkeys[start:stop]).difference(self._vlevel)
        if new and self.table.order > 1:
            # ``T(g(s)) = g(T(s))``: the level's closure projects onto
            # the orbits of its representatives' keys, none of which an
            # earlier level (itself closed) holds.
            new.update(self.table.visible_images(new))
        keys = sorted(new)
        del new  # freed before the ledger builds its level: peak memory
        self._record_visible(keys)

    def _visible_key(self, visible: VisibleState) -> int | None:
        return self.table.encode_visible(visible)

    def _decode_visible(self, key: int) -> VisibleState:
        return self.table.decode_visible(key)

    def _add_orbit(self, sid: int) -> int:
        """Give every orbit image of representative ``sid`` its
        ``_ids`` entry (see "Symmetry reduction" in the module
        docstring); return how many distinct images were new.  The
        replay inlines this for fresh states; the initial state and a
        restored engine's representatives come through here."""
        table = self.table
        ids = table._ids
        entry = sid * table.order
        added = 0
        for element, image in enumerate(table.key_images(table._packed[sid]), 1):
            if image not in ids:
                ids[image] = entry + element
                added += 1
        return added

    def _rollback(self, base: int) -> None:
        """Discard every state interned at id ``base`` or later (the
        half-committed partial level).  Ids are dense and append-only,
        and the engine is the only writer of global ids, so truncation
        restores exactly the pre-``advance`` state."""
        table = self.table
        if self.batched:
            del self._parent_ids[base:]
            del self._parent_actions[base:]
        else:
            for sid in range(base, len(table)):
                self._oracle_parents.pop(table.state(sid), None)
        table.truncate(base)
        del self._first_seen[base:]
        del self._movers[base:]

    def _advance_batched(
        self, frontier: tuple[int, ...], level: int, fresh: list[int]
    ) -> int:
        """Group the frontier by unique thread view (skipping each
        state's mover thread), saturate each view once, then replay the
        array-encoded tree across every member by packed-key
        substitution.  Returns the number of orbit image entries
        added."""
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
            return 0
        trees = self._trees_for(list(groups))

        pairs = 0
        images = 0
        for view, members in groups.items():
            tree = trees[view]
            if not len(tree.qids):
                continue  # the context reaches nothing beyond its root
            index = view & self._view_index_mask
            pairs += len(members) * len(tree.qids)
            images += self._replay(tree, members, level, fresh)
            # Every id this view interned is fresh and moved by
            # ``index``: fill the mover column once per view instead of
            # once per state in the replay loops.
            grown = len(self._first_seen) - len(movers)
            if grown:
                movers.extend(repeat(index, grown))
        METER.bump("explicit.replay_pairs", pairs)
        if images:
            METER.bump("explicit.orbit_images", images)
        return images

    def _replay(
        self, tree: ContextTree, members: list[int], level: int, fresh: list[int]
    ) -> int:
        """Replay ``tree`` across the view's ``members``: each member's
        frozen key ORed with each edge's delta, interning the misses
        with their witness parents.  A miss starts a new orbit, so every
        image also gets its entry (``π(frozen) | π(delta)``, the
        member's permuted frozen key computed on its first new orbit;
        with the trivial group there are none).  Returns the number of
        image entries added.  An intern hit is a known orbit, so the
        freshness test is the plain ``key not in ids``."""
        table = self.table
        order = table.order
        # Saturating later views grows the component pools, which can
        # repack the table (or widen its visible-key column), so the
        # geometry is read per view.  Within one view's replay only
        # global ids grow, and a repack mutates dict/list objects in
        # place, so these references stay valid for the whole view.
        ids = table._ids
        packed = table._packed
        states = table._states
        vkeys = table._vkeys
        low_mask = (1 << table._qshift) - 1
        move_clear = ~(table._mask << (table._bits * tree.thread))
        vclear = table.visible_clear(tree.thread)
        thread_images = table.thread_images
        first_seen = self._first_seen
        parent_ids = self._parent_ids
        parent_actions = self._parent_actions
        append_fresh = fresh.append
        deltas = tree.deltas(table)
        rows = tuple(zip(tree.edge_rows(table), tree.image_deltas(table)))
        added = 0
        # ``StateTable.intern_key`` inlined on packed keys (see the
        # coupling note there): this loop runs once per (member, tree
        # edge) and the call overhead is the hot-path cost.
        for sid in members:
            frozen = packed[sid] & low_mask & move_clear
            vfrozen = vkeys[sid] & vclear
            permuted = None
            for (delta, vdelta, parent_pos, action), image_deltas in rows:
                key = frozen | delta
                if key not in ids:
                    nsid = len(packed)
                    ids[key] = entry = nsid * order
                    packed.append(key)
                    states.append(None)
                    vkeys.append(vfrozen | vdelta)
                    first_seen.append(level)
                    append_fresh(nsid)
                    # BFS order: the parent node's edge came earlier in
                    # this member's row, so its key is already interned.
                    parent_ids.append(
                        ids[frozen | deltas[parent_pos - 1]]
                        if parent_pos
                        else sid * order
                    )
                    parent_actions.append(action)
                    if permuted is None:
                        permuted = thread_images(frozen)
                    for frozen_image, delta_image in zip(permuted, image_deltas):
                        entry += 1
                        image = frozen_image | delta_image
                        if image not in ids:
                            ids[image] = entry
                            added += 1
        return added

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
            tree = cache.get(view)
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
            )
            METER.bump("explicit.context_cache_misses")
            cache[view] = trees[view] = tree
        return trees

    def _advance_per_state(
        self, frontier: tuple[int, ...], level: int, fresh: list[int]
    ) -> None:
        """The seed formulation: one :func:`thread_context_post` call
        per (frontier state, thread) — the differential oracle, never
        pruned and never memoized (it records movers only to keep the
        column aligned)."""
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
        while len(decoded) < len(self._level_ids):
            decoded.append(frozenset(self._orbits(self._level_ids[len(decoded)])))
        return decoded

    def _orbits(self, sids) -> Iterator[GlobalState]:
        """Every orbit member of the representatives ``sids`` (an image
        fixed by a nontrivial element repeats)."""
        state_of = self.table.state
        if self.table.order == 1:
            return map(state_of, sids)
        apply = self.symmetry.apply
        elements = range(self.table.order)
        return (
            apply(element, state_of(sid)) for sid in sids for element in elements
        )

    @property
    def first_seen(self) -> dict[GlobalState, int]:
        """state -> level at which it was first reached (decoded view;
        use :attr:`n_states` when only the count is needed)."""
        view = self._first_seen_view
        count = len(self._first_seen)
        if view is None or view[0] != count:
            view = (
                count,
                {
                    state: level
                    for level, sids in enumerate(self._level_ids)
                    for state in self._orbits(sids)
                },
            )
            self._first_seen_view = view
        return view[1]

    @property
    def n_states(self) -> int:
        """``|Rk|`` at the latest computed bound, without decoding."""
        return sum(self._level_sizes)

    def level_sizes(self) -> list[int]:
        """``|Rk \\ Rk−1|`` per level, without decoding."""
        return list(self._level_sizes)

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

    def violation_at(self, k: int, prop: Property) -> VisibleState | None:
        """The greatest violating visible state of level ``k``'s new
        keys by :func:`~repro.core.property.visible_token`, or None.
        The property classes :func:`_key_test` knows are tested on the
        keys; any other property sees the level's keys decoded.  Only
        the violators are decoded.  The pick depends on values, never
        on the component numbering, so a reduced run, an unreduced run
        and the per-state oracle report the same violator.  The
        greatest, where :meth:`Property.find_violation` takes the least:
        ε sorts first, so this prefers a violator whose threads still
        show a top symbol."""
        if not 0 <= k < len(self._vnew):
            return None
        test = _key_test(self.table, prop)
        if test is None:
            return None
        decode = self.table.decode_visible
        return max(
            (decode(key) for key in self._vnew[k] if test(key)),
            key=visible_token,
            default=None,
        )

    def stats(self) -> dict:
        """Work summary for verification-result plumbing (all sizes read
        off the int core — no decoding)."""
        return {
            "global_states": self.n_states,
            "levels": self.level_sizes(),
            "batched": self.batched,
            "context_memo": len(self._tree_cache),
            "symmetry_order": self.table.order,
        }

    # ------------------------------------------------------------------
    # Witnesses
    # ------------------------------------------------------------------
    def trace(self, target: GlobalState) -> Trace:
        """Reconstruct a witness path to a reached state.

        Under a nontrivial group the parent chain runs through
        representatives: the step into representative ``r`` starts at
        ``h(parent rep)``, and a target ``g(r)`` is reached by the
        ``g``-image of ``r``'s path — thread ``π(mover)`` firing the
        rule ``σ`` maps the mover's rule to.  The elements compose along
        the chain, so every step is a real move from the initial state,
        which every element fixes."""
        if not self.batched:
            return rebuild_trace(self._oracle_parents, target)
        table = self.table
        entry = table.id_of(target)
        order = table.order
        if entry is None or entry // order >= len(self._first_seen):
            raise KeyError(f"state {target} was never discovered")
        current, element = divmod(entry, order)
        state_of = table.state
        apply = self.symmetry.apply
        perms = self.symmetry.perms
        mult = self.symmetry.mult
        parent_ids = self._parent_ids
        actions = self._parent_actions
        movers = self._movers  # the witness thread is the mover
        reversed_steps: list[TraceStep] = []
        while (parent := parent_ids[current]) >= 0:
            mover = movers[current]
            action = actions[current]
            if element:
                action = self._image_rule(element, mover, action)
                mover = perms[element][mover]
            reversed_steps.append(
                TraceStep(mover, action, apply(element, state_of(current)))
            )
            current, step = divmod(parent, order)
            element = mult[element][step]
        return Trace(
            apply(element, state_of(current)), tuple(reversed(reversed_steps))
        )

    def _image_rule(self, element: int, thread: int, action):
        """The rule of thread ``π(thread)`` that group element
        ``element`` maps thread ``thread``'s ``action`` to (it exists:
        the group was verified rule for rule)."""
        relabel = self.symmetry.shared_maps[element]
        return _rule_of(
            self.cpds.thread(self.symmetry.perms[element][thread]),
            (relabel[action.from_shared], action.read,
             relabel[action.to_shared], action.write),
        )

    def find_visible(self, visible) -> GlobalState | None:
        """The first reached global state projecting to ``visible``, if
        any: the first representative (by id) whose orbit projects onto
        it, mapped by the first such element."""
        table = self.table
        key = table.encode_visible(visible)
        if key is None or key not in self._vlevel:
            return None
        vkeys = table._vkeys
        if table.order == 1:
            return table.state(vkeys.index(key))
        found = []
        for member in {key, *table.visible_images((key,))}:
            try:
                found.append(vkeys.index(member))
            except ValueError:  # no representative projects onto it
                pass
        sid = min(found)
        own = vkeys[sid]
        element = 0 if own == key else table.visible_images((own,)).index(key) + 1
        return self.symmetry.apply(element, table.state(sid))

    # ------------------------------------------------------------------
    # Checkpoint / resume (the payload of a ``CUSN`` frame, see
    # :mod:`repro.reach.snapshot`)
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Checkpoint the committed levels as a kind-1 blob: the
        group's thread permutations and shared maps (``qid -> σ(qid)``
        per non-identity element, over the stored shared pool), the
        :class:`~repro.cpds.interning.StateTable` component pools plus
        interleaved ``(qid, wids...)`` rows of the representatives
        (component ids, not packed keys — immune to the adaptive
        bit-field geometry), ``first_seen``, the mover column, the
        per-level ids (lengths + flat ids), the witness parents (child,
        parent-entry and rule columns; the thread is the mover) and the
        cross-level context-tree cache as raw CSR columns.  Rules are
        stored by value, once per thread (the parent and tree columns
        index those tables), and restore maps each back to the
        restoring CPDS's own rule, so a blob resumes on any CPDS of the
        same fingerprint, whatever its rule order.  The values are
        hash-consed, so the bytes depend on the engine's values only,
        never on which equal objects it happened to hold: a restored
        engine advanced to level ``k`` snapshots the same bytes as an
        uninterrupted run.  The per-thread successor memos, the
        visible-key column and the orbit image entries are not
        persisted: the warm engine re-derives them without touching any
        METER counter.  A restored engine's ``ensure_level`` continues
        level-for-level identically to an uninterrupted run."""
        refuse_oracle(self)
        table = self.table
        shareds, stacks = table.component_pools()
        memo: dict = {}
        shareds = hash_consed(shareds, memo)
        stacks = [None if pool is None else hash_consed(pool, memo) for pool in stacks]

        level_ids = array("q")
        for level in self._level_ids:
            level_ids.extend(level)

        # Rules by value, once per thread in first-use order; the parent
        # and tree columns index these tables.
        rule_values: list[list[tuple]] = [[] for _ in range(table.n_threads)]
        rule_ids: list[dict[int, int]] = [{} for _ in range(table.n_threads)]

        def rule_id(thread: int, rule) -> int:
            known = rule_ids[thread]
            found = known.get(id(rule))
            if found is None:
                found = known[id(rule)] = len(rule_values[thread])
                rule_values[thread].append(
                    (rule.from_shared, rule.read, rule.to_shared, rule.write)
                )
            return found

        # Parent rows in id order, root (parent -1) omitted.
        parent_ids = self._parent_ids
        children = array(
            "q", (sid for sid, parent in enumerate(parent_ids) if parent >= 0)
        )
        actions = self._parent_actions
        movers = self._movers
        parent_rows = (
            children,
            array("q", (parent_ids[sid] for sid in children)),
            array("I", (rule_id(movers[sid], actions[sid]) for sid in children)),
        )

        views = array("q")
        trees = []
        for view, tree in self._tree_cache.items():
            views.extend(self._view_parts(view))
            trees.append(
                (tree.thread, tree.root_qid, tree.root_wid,
                 tree.offsets, tree.qids, tree.wids,
                 array("I", [rule_id(tree.thread, rule) for rule in tree.actions]))
            )

        return _encode(
            KIND_EXPLICIT,
            {
                "n_threads": table.n_threads,
                "max_states_per_context": self.max_states_per_context,
                "symmetry": self.symmetry.perms,
                "shared_maps": [array("q", row) for row in table.shared_images()],
                "shareds": shareds,
                "stacks": stacks,
                "rows": table.export_rows(),
                "first_seen": array("q", self._first_seen),
                "movers": self._movers,
                "level_lens": array("q", map(len, self._level_ids)),
                "level_ids": level_ids,
                "parents": parent_rows,
                "trees": (views, trees),
                "rules": [hash_consed(values, memo) for values in rule_values],
            },
        )

    @classmethod
    def restore(
        cls,
        cpds: CPDS,
        blob: bytes,
        *,
        max_states_per_context: int | None = None,
    ) -> "ExplicitReach":
        """Rebuild a warm batched engine from a :meth:`snapshot` blob
        taken on ``cpds`` (the per-state oracle has no snapshot).
        ``max_states_per_context`` defaults to the snapshotted guard.
        Raises :class:`~repro.errors.SnapshotError` on any undecodable
        or mismatched blob — among them a blob taken under another group
        than ``cpds``'s verified one (its ids name other
        representatives)."""
        with reading(cls, cpds, blob) as payload:
            n_threads = cpds.n_threads
            engine = cls(
                cpds,
                max_states_per_context=(
                    payload["max_states_per_context"]
                    if max_states_per_context is None
                    else max_states_per_context
                ),
            )
            symmetry = engine.symmetry
            if tuple(payload["symmetry"]) != symmetry.perms:
                raise SnapshotError(
                    "snapshot was taken under another thread-symmetry group"
                )
            shareds = payload["shareds"]
            table = StateTable.from_snapshot(
                n_threads,
                shareds,
                payload["stacks"],
                payload["rows"],
                visible_fields(cpds),
                symmetry,
            )
            if len(table) == 0 or table.state(0) != cpds.initial_state():
                raise SnapshotError("snapshot does not belong to this CPDS")
            if len(table._shareds) != len(shareds):
                raise SnapshotError("snapshot shared pool is not closed under its group")
            # Equal permutations can come with other shared maps ``σ``
            # (the fingerprint ignores the declared candidates).
            if [array("q", row) for row in table.shared_images()] != payload[
                "shared_maps"
            ]:
                raise SnapshotError(
                    "snapshot was taken under another thread-symmetry group"
                )
            engine.table = table

            levels = []
            cursor = 0
            level_ids = payload["level_ids"]
            for length in payload["level_lens"]:
                levels.append(tuple(level_ids[cursor : cursor + length]))
                cursor += length
            engine._level_ids = levels
            engine._first_seen = list(payload["first_seen"])
            if len(engine._first_seen) != len(table):
                raise SnapshotError("snapshot columns disagree on state count")
            movers = payload["movers"]
            if len(movers) != len(table):
                raise SnapshotError("snapshot mover column disagrees on state count")
            engine._movers = mover_column(n_threads, movers)
            # The orbit image entries, representative by representative
            # in id order: the entries an uninterrupted run assigned.
            engine._level_sizes = [
                sum(1 + engine._add_orbit(sid) for sid in level)
                if table.order > 1
                else len(level)
                for level in levels
            ]

            rules = [
                [_rule_of(cpds.thread(thread), value) for value in values]
                for thread, values in enumerate(payload["rules"])
            ]
            children, parent_entries, positions = payload["parents"]
            parent_ids = array("q", [-1]) * len(table)
            parent_actions = [None] * len(table)
            for child, parent, position in zip(children, parent_entries, positions):
                parent_ids[child] = parent
                parent_actions[child] = rules[engine._movers[child]][position]
            engine._parent_ids = parent_ids
            engine._parent_actions = parent_actions

            views, trees = payload["trees"]
            cache = engine._tree_cache
            qid_shift = engine._view_qid_shift
            wid_shift = engine._view_wid_shift
            for position, (thread, *columns, positions) in enumerate(trees):
                index, qid, wid = views[3 * position : 3 * position + 3]
                thread_rules = rules[thread]
                cache[(qid << qid_shift) | (wid << wid_shift) | index] = ContextTree(
                    thread, *columns, tuple(map(thread_rules.__getitem__, positions))
                )

            # Derive T(Rk)'s per-level visible keys from the restored key
            # column (a level's ids are one contiguous range).
            engine._clear_visible()
            start = 0
            for level in levels:
                engine._record_visible_keys(start, start + len(level))
                start += len(level)
            return engine

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
