"""Interned global-state core: dense integer ids for ``GlobalState``s,
packed into flat single-integer keys.

The explicit engine's product space is dominated by hash-heavy tuple
work: every replayed context step used to construct a fresh
:class:`~repro.cpds.state.GlobalState` (nested ``(shared, stacks)``
tuples) just to test membership in ``first_seen``.  A :class:`StateTable`
interns each *component* once — shared states to ``shared_id``s, each
thread's stack words to per-thread ``stack_id``s — and then interns whole
global states as **packed integers**: the component ids are laid out in
fixed-width bit fields (``wid_0 | wid_1 << b | ... | qid << n*b`` for
field width ``b``), so a global state is one machine-word-sized int and
the seen-set is a plain ``dict[int, int]`` whose key hash is the cheapest
hash Python has.  Downstream structures (``first_seen``, levels, parents,
visible projections) are int-keyed lists and dicts, and the view-batched
frontier expansion of :class:`~repro.reach.explicit.ExplicitReach`
replays one flat array-encoded context tree
(:class:`~repro.cpds.semantics.ContextTree`) across all global states
sharing the moving thread's local view by pure integer arithmetic —
mask out the moving thread's field, OR in the tree's precomputed
per-entry delta — with no tuple allocation and no nested re-hashing on
the hot path.

All three id spaces — shared states, per-thread stacks, global states —
are dense and append-only.  The bit-field width adapts: when any
component pool outgrows the current field (``2**bits`` entries), every
stored packed key is rewritten under a doubled width and the table's
``era`` counter is bumped, which invalidates the per-tree delta caches
derived from the old geometry.  Growth is geometric, so repacking
amortizes to O(1) per interned state.

Ids are assigned densely in first-intern order, so ``state_id ==
len(table) - 1`` exactly when the interned state is new — the table
doubles as the engine's seen-set.  Decoding (``state``, ``visible``) is
lazy and memoized; states interned from an existing ``GlobalState``
object keep that object for free decode.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.cpds.state import GlobalState, VisibleState
from repro.pds.state import EMPTY

Shared = Hashable
Symbol = Hashable

#: Initial bit-field width per component.  16 bits cover 65k shared
#: states / stack words per pool before the first repack, while keeping
#: a 3-thread packed key within 64 bits (fast small-int hashing).
_INITIAL_BITS = 16


class StateTable:
    """Interns the global states of one CPDS run to dense integer ids.

    One table belongs to one engine over one CPDS (thread count and
    alphabets fixed); ids are meaningless across tables.
    """

    __slots__ = (
        "n_threads",
        "_shared_ids",
        "_shareds",
        "_stack_ids",
        "_stacks",
        "_tops",
        "_top_ids",
        "_wid_tops",
        "_visible_pool",
        "_ids",
        "_packed",
        "_states",
        "_visibles",
        "_bits",
        "_mask",
        "_qshift",
        "_limit",
        "_era",
    )

    def __init__(self, n_threads: int) -> None:
        self.n_threads = n_threads
        #: shared -> shared_id and its inverse.
        self._shared_ids: dict[Shared, int] = {}
        self._shareds: list[Shared] = []
        #: per-thread stack word -> stack_id and its inverse.
        self._stack_ids: list[dict[tuple, int]] = [{} for _ in range(n_threads)]
        self._stacks: list[list[tuple]] = [[] for _ in range(n_threads)]
        #: per-thread stack_id -> visible top symbol (:data:`EMPTY` for ε).
        self._tops: list[list[Symbol]] = [[] for _ in range(n_threads)]
        #: per-thread top symbol -> dense top id, and stack_id -> top id:
        #: many stacks share a top, so visible projections collapse onto
        #: few ``(qid, top ids...)`` combinations — pooled below.
        self._top_ids: list[dict[Symbol, int]] = [{} for _ in range(n_threads)]
        self._wid_tops: list[list[int]] = [[] for _ in range(n_threads)]
        #: packed visible key -> the one VisibleState object for it
        #: (fixed 32-bit fields — era-independent, survives repacks).
        self._visible_pool: dict[int, VisibleState] = {}
        #: packed key -> state_id, and the dense inverses.
        self._ids: dict[int, int] = {}
        self._packed: list[int] = []
        self._states: list[GlobalState | None] = []
        self._visibles: list[VisibleState | None] = []
        #: Bit-field geometry (see the module docstring).  ``_era`` is
        #: bumped on every repack so derived caches (per-tree packed
        #: deltas) can validate cheaply.
        self._bits = _INITIAL_BITS
        self._mask = (1 << _INITIAL_BITS) - 1
        self._qshift = _INITIAL_BITS * n_threads
        self._limit = 1 << _INITIAL_BITS
        self._era = 0

    # ------------------------------------------------------------------
    # Packing geometry
    # ------------------------------------------------------------------
    @property
    def era(self) -> int:
        """Repack generation; packed keys and derived delta caches from
        different eras are incomparable."""
        return self._era

    def pack(self, qid: int, wids: tuple[int, ...]) -> int:
        """The packed single-int key of component ids ``(qid, wids)``."""
        bits = self._bits
        key = qid << self._qshift
        for index, wid in enumerate(wids):
            key |= wid << (bits * index)
        return key

    def unpack(self, key: int) -> tuple[int, tuple[int, ...]]:
        """Inverse of :meth:`pack`."""
        bits = self._bits
        mask = self._mask
        return (
            key >> self._qshift,
            tuple((key >> (bits * index)) & mask for index in range(self.n_threads)),
        )

    def _grow(self) -> None:
        """Double the bit-field width until every component pool fits,
        rewriting all stored packed keys in place (dict and list
        identities are preserved — hot loops may hold direct references)."""
        old_bits = self._bits
        old_mask = self._mask
        old_qshift = self._qshift
        n = self.n_threads
        largest = max(len(self._shareds), *(len(pool) for pool in self._stacks))
        bits = old_bits
        while (1 << bits) < largest:
            bits *= 2
        if bits == old_bits:  # pragma: no cover - defensive
            return
        self._bits = bits
        self._mask = (1 << bits) - 1
        self._qshift = bits * n
        self._limit = 1 << bits
        self._era += 1
        packed = self._packed
        ids = self._ids
        ids.clear()
        for sid, key in enumerate(packed):
            new_key = (key >> old_qshift) << self._qshift
            for index in range(n):
                new_key |= ((key >> (old_bits * index)) & old_mask) << (bits * index)
            packed[sid] = new_key
            ids[new_key] = sid

    # ------------------------------------------------------------------
    # Component interning
    # ------------------------------------------------------------------
    def shared_id(self, shared: Shared) -> int:
        qid = self._shared_ids.get(shared)
        if qid is None:
            qid = len(self._shareds)
            self._shared_ids[shared] = qid
            self._shareds.append(shared)
            if qid >= self._limit:
                self._grow()
        return qid

    def shared(self, qid: int) -> Shared:
        return self._shareds[qid]

    def stack_id(self, index: int, stack: tuple) -> int:
        table = self._stack_ids[index]
        wid = table.get(stack)
        if wid is None:
            wid = len(self._stacks[index])
            table[stack] = wid
            self._stacks[index].append(stack)
            top = stack[0] if stack else EMPTY
            self._tops[index].append(top)
            top_ids = self._top_ids[index]
            tid = top_ids.get(top)
            if tid is None:
                top_ids[top] = tid = len(top_ids)
            self._wid_tops[index].append(tid)
            if wid >= self._limit:
                self._grow()
        return wid

    def stack(self, index: int, wid: int) -> tuple:
        return self._stacks[index][wid]

    def top(self, index: int, wid: int) -> Symbol:
        """Visible top symbol of an interned stack (``T(w)``, Eq. 1)."""
        return self._tops[index][wid]

    # ------------------------------------------------------------------
    # Global-state interning
    # ------------------------------------------------------------------
    def intern(self, state: GlobalState) -> int:
        """Dense id of ``state``, assigning one on first sight."""
        qid = self.shared_id(state.shared)
        wids = tuple(
            self.stack_id(index, stack) for index, stack in enumerate(state.stacks)
        )
        sid = self.intern_key(qid, wids)
        if self._states[sid] is None:
            self._states[sid] = state
        return sid

    def intern_key(self, qid: int, wids: tuple[int, ...]) -> int:
        """Dense id for an already-component-interned ``(qid, wids)``.

        NOTE: the view replay loop in
        :meth:`repro.reach.explicit.ExplicitReach._advance_batched`
        inlines this append protocol on packed keys (``_ids``/
        ``_packed``/``_states``/``_visibles`` grow in lock-step, id ==
        old ``len(_packed)``) — keep the two in sync when changing the
        table layout.
        """
        key = self.pack(qid, wids)
        sid = self._ids.get(key)
        if sid is None:
            sid = len(self._packed)
            self._ids[key] = sid
            self._packed.append(key)
            self._states.append(None)
            self._visibles.append(None)
        return sid

    def truncate(self, base: int) -> None:
        """Discard every global-state id at ``base`` or later — the
        inverse of the append protocol, used by the explicit engine to
        roll back a half-committed frontier level after a divergence
        guard trips.  Component ids (shared states, stacks) are kept:
        they stay valid and are referenced by cached context trees.
        """
        packed = self._packed
        ids = self._ids
        for key in packed[base:]:
            del ids[key]
        del packed[base:]
        del self._states[base:]
        del self._visibles[base:]

    def id_of(self, state: GlobalState) -> int | None:
        """The id of ``state`` if it was ever interned, else None."""
        shared_id = self._shared_ids.get(state.shared)
        if shared_id is None:
            return None
        wids = []
        for index, stack in enumerate(state.stacks):
            wid = self._stack_ids[index].get(
                stack if isinstance(stack, tuple) else tuple(stack)
            )
            if wid is None:
                return None
            wids.append(wid)
        return self._ids.get(self.pack(shared_id, tuple(wids)))

    def key(self, sid: int) -> tuple[int, tuple[int, ...]]:
        """The ``(shared_id, stack_ids)`` component key of a state id."""
        return self.unpack(self._packed[sid])

    def packed_key(self, sid: int) -> int:
        """The packed single-int key of a state id (current era)."""
        return self._packed[sid]

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def state(self, sid: int) -> GlobalState:
        """Decode a state id back to its :class:`GlobalState` (memoized)."""
        state = self._states[sid]
        if state is None:
            qid, wids = self.unpack(self._packed[sid])
            stacks = self._stacks
            state = GlobalState(
                self._shareds[qid],
                tuple(stacks[index][wid] for index, wid in enumerate(wids)),
            )
            self._states[sid] = state
        return state

    def visible(self, sid: int) -> VisibleState:
        """The projection ``T(s)`` of a state id (memoized per id, and
        pooled per unique projection: distinct states overwhelmingly
        share their visible state, so the ``VisibleState`` construction
        — symbol tuple plus hash — happens once per *projection*, not
        once per state)."""
        vis = self._visibles[sid]
        if vis is None:
            key = self._packed[sid]
            bits = self._bits
            mask = self._mask
            qid = key >> self._qshift
            vkey = qid
            wid_tops = self._wid_tops
            for index in range(self.n_threads):
                vkey = (vkey << 32) | wid_tops[index][(key >> (bits * index)) & mask]
            vis = self._visible_pool.get(vkey)
            if vis is None:
                tops = self._tops
                vis = VisibleState(
                    self._shareds[qid],
                    tuple(
                        tops[index][(key >> (bits * index)) & mask]
                        for index in range(self.n_threads)
                    ),
                )
                self._visible_pool[vkey] = vis
            self._visibles[sid] = vis
        return vis

    # ------------------------------------------------------------------
    # Snapshot support (see :mod:`repro.service.snapshot`)
    # ------------------------------------------------------------------
    def component_pools(self) -> tuple[list, list[list[tuple]]]:
        """Copies of the component pools in dense-id order: the shared
        pool and the per-thread stack pools.  Pools can hold components
        no live global state references (cached context trees index
        them), so snapshots persist them in full."""
        return list(self._shareds), [list(pool) for pool in self._stacks]

    def export_rows(self):
        """The global states as one interleaved ``array('q')`` of
        ``(qid, wid_0, ..., wid_{n-1})`` rows in dense-id order.

        Component ids are persisted instead of packed keys: packed keys
        depend on the adaptive bit-field geometry (and can exceed 64
        bits at high thread counts), while component ids are small,
        era-independent, and re-pack losslessly on restore."""
        from array import array

        rows = array("q")
        extend = rows.extend
        unpack = self.unpack
        for key in self._packed:
            qid, wids = unpack(key)
            rows.append(qid)
            extend(wids)
        return rows

    @classmethod
    def from_snapshot(
        cls, n_threads: int, shareds: list, stacks: list, rows
    ) -> "StateTable":
        """Rebuild a table from :meth:`component_pools` +
        :meth:`export_rows` output.  Interning replays in pool order,
        so every component id, global-state id, and the adaptive
        geometry come out exactly as the engine that produced the
        snapshot assigned them."""
        table = cls(n_threads)
        for value in shareds:
            table.shared_id(value)
        for index, pool in enumerate(stacks):
            stack_id = table.stack_id
            for word in pool:
                stack_id(index, tuple(word))
        width = n_threads + 1
        intern_key = table.intern_key
        for base in range(0, len(rows), width):
            intern_key(rows[base], tuple(rows[base + 1 : base + width]))
        return table

    def __len__(self) -> int:
        return len(self._packed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StateTable(states={len(self._packed)}, "
            f"shared={len(self._shareds)}, "
            f"stacks={[len(s) for s in self._stacks]}, "
            f"bits={self._bits})"
        )
