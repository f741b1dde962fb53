"""Asynchronous step semantics of CPDS (Sec. 2.2) and context closure.

A CPDS step nondeterministically picks a thread and fires one of its
enabled actions on the shared state and that thread's stack.  A *context*
(Sec. 2.3) is a maximal run of steps by one thread; the context-bounded
sets ``Rk`` are built by closing states under single-thread runs.

A context only reads and writes ``(shared, stack_i)`` — the other
threads' stacks are frozen — so the single-thread BFS tree depends on the
moving thread's local view alone.  This module exposes that closure at
two granularities:

* :func:`thread_context_post` — the *per-global-state* form: run thread
  ``i`` from one concrete :class:`GlobalState` and return the reached
  global states, walking the local BFS tree afresh on every call.  This
  is the seed formulation, kept memo-free as the differential oracle
  behind ``ExplicitReach(batched=False)``.
* :func:`thread_view_post` — the *per-view* form used by the view-batched
  explicit engine: saturate one context from an interned
  ``(thread, shared_id, stack_id)`` local view and return a reusable,
  **flat array-encoded** :class:`ContextTree`: contiguous ``array('q')``
  successor tables (CSR-style per-node edge offsets plus target
  shared/stack id columns) over a
  :class:`~repro.cpds.interning.StateTable`.  The tree is computed once
  per unique view and *replayed* across every global state sharing that
  view by pure integer arithmetic (mask out the moving thread's bit
  field, OR in the entry's packed delta) — no per-state re-walk, no
  tuple allocation, no ``GlobalState`` construction on the replay path.

Both builders terminate exactly when the per-context reachable set is
finite — the FCR situation (Sec. 5) — and otherwise trip the
``max_states`` divergence guard with :class:`ContextExplosionError`.
METER records each actual tree saturation as ``explicit.expansions``;
the reachability engines pair it with ``explicit.level_unique_views`` to
prove one saturation per unique view per level."""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Iterator

from repro.errors import ContextExplosionError
from repro.cpds.cpds import CPDS
from repro.obs import trace
from repro.cpds.interning import StateTable
from repro.cpds.state import GlobalState
from repro.pds.action import Action
from repro.pds.semantics import DEFAULT_STATE_LIMIT, successors as pds_successors
from repro.pds.state import PDSState
from repro.util.meter import METER

#: One node of a memoized local context tree: the reached local state,
#: its BFS predecessor (None for the root), and the action taken.
ContextTreeEntry = tuple[PDSState, PDSState | None, Action | None]


class ContextTree:
    """Flat array-encoded BFS tree of one thread context from one view.

    Nodes are numbered in BFS discovery order; node 0 is the root
    ``(root_qid, root_wid)`` — the view itself.  The tree is stored
    CSR-style in contiguous ``array('q')`` columns:

    * ``offsets`` (length ``n_nodes + 1``): node ``p``'s outgoing edges
      occupy positions ``offsets[p]..offsets[p+1]`` of the edge columns.
    * ``qids`` / ``wids`` (length ``n_edges``): the target node's
      interned shared-state and stack ids.  Edge ``e`` discovers node
      ``e + 1`` (BFS numbering), so the columns double as per-node id
      tables.
    * ``actions`` (length ``n_edges``): the :class:`Action` taken, for
      witness reconstruction.

    All ids refer to the :class:`~repro.cpds.interning.StateTable` the
    tree was built against; a tree is exact for *every* global state
    whose moving thread shows this view, because a context never reads
    the frozen threads' stacks.  :meth:`deltas` derives (and memoizes
    per table era) the per-edge packed-key deltas the replay loop ORs
    into a frozen global-state key; :meth:`edge_rows` bundles them with
    the visible-key deltas, parent positions and actions the loop also
    reads.
    """

    __slots__ = (
        "thread",
        "root_qid",
        "root_wid",
        "offsets",
        "qids",
        "wids",
        "actions",
        "_deltas",
        "_rows",
        "_images",
    )

    def __init__(
        self,
        thread: int,
        root_qid: int,
        root_wid: int,
        offsets: array,
        qids: array,
        wids: array,
        actions: tuple,
    ) -> None:
        self.thread = thread
        self.root_qid = root_qid
        self.root_wid = root_wid
        self.offsets = offsets
        self.qids = qids
        self.wids = wids
        self.actions = actions
        self._deltas: tuple[int, list[int]] | None = None
        self._rows: tuple[int, tuple] | None = None
        self._images: tuple[int, list] | None = None

    def __len__(self) -> int:
        """Node count (root included)."""
        return len(self.qids) + 1

    def deltas(self, table: StateTable) -> list[int]:
        """Per-edge packed-key deltas ``(qid << qshift) | (wid << b*i)``
        under ``table``'s current geometry, memoized per era.  A plain
        list, not an ``array``: the replay loop iterates it once per
        view member and list iteration avoids re-boxing each value."""
        cached = self._deltas
        era = table.era
        if cached is None or cached[0] != era:
            qshift = table._qshift
            shift = table._bits * self.thread
            cached = (
                era,
                [
                    (qid << qshift) | (wid << shift)
                    for qid, wid in zip(self.qids, self.wids)
                ],
            )
            self._deltas = cached
        return cached[1]

    def image_deltas(self, table: StateTable) -> list[tuple[int, ...]]:
        """Per edge, the packed-key delta's image under each
        non-identity element of ``table``'s group: ``σ(qid)`` in the
        shared field and the stack id in thread ``π(thread)``'s field
        (see "Symmetry" in :mod:`repro.cpds.interning`), so an orbit
        image of a replayed key is one OR with the member's permuted
        frozen key; with the trivial group, one empty tuple per edge.
        Memoized per era, like :meth:`deltas`."""
        cached = self._images
        era = table.era
        if cached is None or cached[0] != era:
            qshift = table._qshift
            bits = table._bits
            columns = [
                [
                    (images[qid] << qshift) | (wid << (bits * perm[self.thread]))
                    for qid, wid in zip(self.qids, self.wids)
                ]
                for images, perm in zip(table.shared_images(), table._perms[1:])
            ]
            cached = (era, list(zip(*columns)) if columns else [()] * len(self.qids))
            self._images = cached
        return cached[1]

    def edge_rows(self, table: StateTable) -> tuple:
        """``(packed delta, visible delta, parent position, action)``
        rows, one per edge — the replay loop's iteration unit, memoized
        per table era like the deltas they embed.  The visible delta is
        ``(qid << vqshift) | (tid << off_i)`` (see "Visible keys" in
        :mod:`repro.cpds.interning`); the parent position is the edge's
        source node, flattened from ``offsets``, so the replay runs one
        flat loop over the edges instead of a nested node/edge walk.
        :func:`thread_view_post` seeds the memo as it saturates."""
        cached = self._rows
        era = table.era
        if cached is None or cached[0] != era:
            vqshift = table._vqshift
            off = table._voffs[self.thread]
            wid_tops = table._wid_tops[self.thread]
            offsets = self.offsets
            cached = (
                era,
                tuple(
                    zip(
                        self.deltas(table),
                        [
                            (qid << vqshift) | (wid_tops[wid] << off)
                            for qid, wid in zip(self.qids, self.wids)
                        ],
                        [
                            node
                            for node in range(len(offsets) - 1)
                            for _ in range(offsets[node + 1] - offsets[node])
                        ],
                        self.actions,
                    )
                ),
            )
            self._rows = cached
        return cached[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ContextTree(thread={self.thread}, nodes={len(self)})"


def thread_state(state: GlobalState, index: int) -> PDSState:
    """Thread ``index``'s view ``(q, w_index)`` of a global state."""
    return PDSState(state.shared, state.stacks[index])


def with_thread_state(state: GlobalState, index: int, new: PDSState) -> GlobalState:
    """Rebuild a global state after thread ``index`` moved to ``new``."""
    stacks = list(state.stacks)
    stacks[index] = new.stack
    return GlobalState(new.shared, tuple(stacks))


def global_successors(
    cpds: CPDS, state: GlobalState
) -> Iterator[tuple[int, Action, GlobalState]]:
    """All one-step successors ``(thread, action, state')`` of ``state``."""
    for index, pds in enumerate(cpds.threads):
        local = thread_state(state, index)
        for action, local_next in pds_successors(pds, local):
            yield index, action, with_thread_state(state, index, local_next)


def _local_context_tree(
    pds, start: PDSState, max_states: int, index: int, origin: GlobalState
) -> tuple[ContextTreeEntry, ...]:
    """BFS tree of all local states thread ``index`` reaches in one
    context from local view ``start``, in discovery order."""
    METER.bump("explicit.expansions")
    entries: list[ContextTreeEntry] = [(start, None, None)]
    seen_local: set[PDSState] = {start}
    work: deque[PDSState] = deque([start])
    while work:
        local = work.popleft()
        for action, local_next in pds_successors(pds, local):
            if local_next in seen_local:
                continue
            seen_local.add(local_next)
            if len(seen_local) > max_states:
                raise ContextExplosionError(
                    f"context of thread {index} from {origin} exceeded "
                    f"{max_states} states; the program likely violates FCR",
                    states_seen=len(seen_local),
                )
            entries.append((local_next, local, action))
            work.append(local_next)
    return tuple(entries)


def thread_context_post(
    cpds: CPDS,
    state: GlobalState,
    index: int,
    max_states: int = DEFAULT_STATE_LIMIT,
    parents: dict | None = None,
) -> set[GlobalState]:
    """All global states reachable by letting thread ``index`` run any
    number of steps (≥ 0) from ``state`` — one scheduling context.

    When ``parents`` is given, newly discovered states are recorded there
    as ``state' -> (predecessor, thread index, action)`` for witness
    reconstruction (existing entries are never overwritten, preserving
    shortest-context discovery order across calls).

    Raises :class:`ContextExplosionError` past ``max_states`` distinct
    states — the divergence guard for non-FCR programs.
    """
    start = thread_state(state, index)
    entries = _local_context_tree(cpds.thread(index), start, max_states, index, state)
    result: set[GlobalState] = set()
    for local, parent_local, action in entries:
        global_next = with_thread_state(state, index, local)
        result.add(global_next)
        if (
            parents is not None
            and parent_local is not None
            and global_next not in parents
        ):
            parents[global_next] = (
                with_thread_state(state, index, parent_local),
                index,
                action,
            )
    return result


def thread_view_post(
    cpds: CPDS,
    table: StateTable,
    index: int,
    shared_id: int,
    stack_id: int,
    max_states: int = DEFAULT_STATE_LIMIT,
    succ_memo: dict | None = None,
) -> ContextTree:
    """Saturate one context of thread ``index`` from the interned local
    view ``(shared_id, stack_id)`` and return the flat array-encoded
    tree, its :meth:`ContextTree.edge_rows` memo seeded.

    This is the view-granular counterpart of :func:`thread_context_post`
    used by the view-batched explicit engine: the returned
    :class:`ContextTree` is replayed across all global states sharing
    the view by packed-key substitution (see the module docstring).
    Every reached local state's shared state and stack word are interned
    into ``table`` as a side effect.

    ``succ_memo`` (one dict *per thread*, owned by the caller) memoizes
    ``local state -> ((action, successor, qid, wid), ...)`` across
    trees: the BFS territories of different views overlap heavily, and
    enabledness, the stack rewrite, and the component intern ids are all
    pure functions of the local state *and table*, so each distinct
    local state pays the action dispatch, successor construction, and
    intern lookups once per engine instead of once per tree.  Because
    the values embed intern ids, the memo is scoped to ``table``.
    (Interning at memo-fill time assigns the same ids in the same order
    as interning per first visit: a successor already in this tree's
    ``seen_local`` was interned when it was first reached, so the extra
    calls are id-stable no-ops.)

    Raises :class:`ContextExplosionError` past ``max_states`` distinct
    local states — the divergence guard for non-FCR programs.
    """
    if trace.enabled():
        # The flag is re-checked (not hoisted into a decorator) so the
        # disabled path costs one module-attribute read and no frame.
        with trace.span("explicit.saturation", thread=index) as timing:
            tree = _thread_view_post(
                cpds, table, index, shared_id, stack_id, max_states, succ_memo
            )
            timing.set(states=len(tree.offsets) - 1)
            return tree
    return _thread_view_post(
        cpds, table, index, shared_id, stack_id, max_states, succ_memo
    )


def _thread_view_post(
    cpds: CPDS,
    table: StateTable,
    index: int,
    shared_id: int,
    stack_id: int,
    max_states: int = DEFAULT_STATE_LIMIT,
    succ_memo: dict | None = None,
) -> ContextTree:
    pds = cpds.thread(index)
    start = PDSState(table.shared(shared_id), table.stack(index, stack_id))
    METER.bump("explicit.expansions")
    # Built as plain lists (cheap appends), converted to contiguous
    # ``array('q')`` columns in one shot at the end.  Iterating ``nodes``
    # while appending to it is the BFS-over-a-growing-list idiom: the
    # for loop's internal cursor picks up appended items.
    era = table.era
    qshift = table._qshift
    shift = table._bits * index
    vqshift = table._vqshift
    voff = table._voffs[index]
    wid_tops = table._wid_tops[index]
    offsets: list[int] = [0]
    qids: list[int] = []
    wids: list[int] = []
    actions: list[Action] = []
    rows: list[tuple] = []
    nodes: list[PDSState] = [start]
    seen_local: set[PDSState] = {start}
    seen_add = seen_local.add
    shared_of = table.shared_id
    stack_of = table.stack_id
    qids_append = qids.append
    wids_append = wids.append
    actions_append = actions.append
    rows_append = rows.append
    nodes_append = nodes.append
    offsets_append = offsets.append
    pos = 0
    if succ_memo is None:
        succ_memo = {}
    memo_get = succ_memo.get
    for local in nodes:
        succs = memo_get(local)
        if succs is None:
            succ_memo[local] = succs = tuple(
                (action, nxt, shared_of(nxt.shared), stack_of(index, nxt.stack))
                for action, nxt in pds_successors(pds, local)
            )
        for action, local_next, qid, wid in succs:
            if local_next in seen_local:
                continue
            seen_add(local_next)
            if len(seen_local) > max_states:
                raise ContextExplosionError(
                    f"context of thread {index} from view {start} exceeded "
                    f"{max_states} states; the program likely violates FCR",
                    states_seen=len(seen_local),
                )
            qids_append(qid)
            wids_append(wid)
            actions_append(action)
            rows_append((
                (qid << qshift) | (wid << shift),
                (qid << vqshift) | (wid_tops[wid] << voff),
                pos,
                action,
            ))
            nodes_append(local_next)
        pos += 1
        offsets_append(len(qids))
    tree = ContextTree(
        index,
        shared_id,
        stack_id,
        array("q", offsets),
        array("q", qids),
        array("q", wids),
        tuple(actions),
    )
    # The replay rows fall out of the BFS for free; seed the memo unless
    # interning this very tree's components repacked the table (the
    # geometry captured above went stale — rare; the lazy rebuild in
    # ``edge_rows`` covers it).
    if table.era == era:
        tree._rows = (era, tuple(rows))
    return tree


def context_post(
    cpds: CPDS,
    state: GlobalState,
    max_states: int = DEFAULT_STATE_LIMIT,
    parents: dict | None = None,
) -> set[GlobalState]:
    """Union of :func:`thread_context_post` over all threads."""
    result: set[GlobalState] = set()
    for index in range(cpds.n_threads):
        result |= thread_context_post(cpds, state, index, max_states, parents)
    return result


def thread_write_free_post(
    pds,
    shared,
    stack: tuple,
    max_states: int = DEFAULT_STATE_LIMIT,
    index: int = 0,
) -> tuple[tuple, ...]:
    """All stacks thread ``index`` can reach from ``(shared, stack)`` by
    *shared-preserving* ("write-free") moves alone — the local closure
    of the WUBA lane (:mod:`repro.reach.wuba`) — in BFS discovery order,
    ``stack`` first, so the lane's levels are built in an order that
    does not depend on hashing.

    Shared-preserving moves of different threads commute: the shared
    state is fixed and each thread touches only its own stack.  The
    write-free closure of a global state is therefore exactly the
    per-thread product of these local closures, which is what makes the
    write-bounded sets ``Wk`` computable without interleaving the
    write-free segments.

    Raises :class:`ContextExplosionError` on a program violating WCR
    (finite write-free closures; implied by FCR, since a write-free
    segment is part of some context), as soon as either guard fires:

    * **Height.**  A discovered stack longer than
      ``len(stack) + |Γ| + 1`` (``Γ`` the thread's alphabet) proves the
      closure infinite.  Every move changes the height by at most 1 and
      the shared state is pinned to ``shared``.  Take a path to a stack
      of height ``H`` and, for each height ``h`` in
      ``len(stack)+1 .. H``, the last time ``t_h`` the path is at
      height ``h``; after ``t_h`` it stays above ``h``, so the
      ``h − 1`` symbols below the top are never read again, and the top at
      ``t_h`` was written by a rule, so it is in ``Γ``.  There are more
      such heights than symbols, so by pigeonhole two of them,
      ``h < h'``, share the top ``γ``: the segment from ``t_h`` to
      ``t_h'`` is a run ``⟨shared|γ⟩ →* ⟨shared|γz⟩`` with
      ``|z| = h' − h ≥ 1`` that reads nothing below ``γ``, and it can be
      pumped forever.  The guard matters because a pumping stack costs
      memory quadratic in its height, long before the state count
      below is reached.
    * **Count.**  More than ``max_states`` distinct stacks."""
    METER.bump("wuba.expansions")
    start = PDSState(shared, stack)
    max_height = len(stack) + len(pds.alphabet) + 1
    seen: set[PDSState] = {start}
    order: list[tuple] = [stack]
    work: deque[PDSState] = deque([start])
    while work:
        local = work.popleft()
        for action, local_next in pds_successors(pds, local):
            if action.to_shared != shared or local_next in seen:
                continue
            seen.add(local_next)
            order.append(local_next.stack)
            if len(local_next.stack) > max_height:
                raise ContextExplosionError(
                    f"write-free closure of thread {index} from "
                    f"{start} reached a stack of height "
                    f"{len(local_next.stack)} > {max_height}; it pumps, "
                    "so the program violates WCR",
                    states_seen=len(seen),
                )
            if len(seen) > max_states:
                raise ContextExplosionError(
                    f"write-free closure of thread {index} from "
                    f"{start} exceeded {max_states} states; the program "
                    "likely violates WCR",
                    states_seen=len(seen),
                )
            work.append(local_next)
    return tuple(order)
