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
hash Python has.  Downstream structures (``first_seen``, levels, witness
parents, visible keys) are id-indexed int columns, and the view-batched
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
doubles as the engine's seen-set.  Decoding ``state`` is lazy and
memoized; states interned from an existing ``GlobalState`` object keep
that object for free decode.

Visible keys
------------
Next to the packed key, every state carries a **visible key**: its
projection ``T(s)`` packed into one int, in a layout that never
changes — era-independent, unlike packed keys::

    vkey = qid << vqshift | tid_{n-1} << off_{n-1} | ... | tid_0

where ``tid_i`` is the dense *top id* of thread ``i``'s top symbol
(ε included; many stacks share a top) and thread ``i``'s field is
``top_bits[i]`` wide, starting at ``off_i = top_bits[0] + ... +
top_bits[i-1]``; ``vqshift`` is the sum of all fields.  An engine sizes
the fields from the CPDS alphabets (:func:`visible_fields`), so the
keys stay machine-word-sized; a table built without them uses 32-bit
fields.  The ``_vkeys`` column is an ``array('q')`` while every key
fits a signed int64 and turns into a list the moment a shared id would
overflow it.  A new visible key is ``vfrozen | vdelta``: the member's
key with the shared field and the moving thread's top field cleared
(:meth:`StateTable.visible_clear`), ORed with the context-tree edge's
precomputed visible delta.  ``VisibleState`` objects are built only by
:meth:`StateTable.decode_visible`, pooled per key and counted by the
``explicit.visible_decoded`` METER counter; :meth:`StateTable.encode_visible`
is its inverse and never interns.

Symmetry
--------
A table built with a verified
:class:`~repro.cpds.symmetry.ThreadSymmetry` of order ``|G| > 1`` stores
one *representative* per orbit (see "Symmetry reduction" in
:mod:`repro.reach.explicit`).  Threads of one orbit share their
component numbering — one stack pool, one top-id table — so an element
``g = (π, σ)`` moves bit fields without translating ids: thread ``i``'s
field goes to ``π(i)``'s, and the shared field maps through ``σ``.  A
new shared state is interned together with its whole orbit, so the
images of any interned component already have ids.  ``_ids`` maps the
packed key of every orbit member to the *entry* ``rep * |G| + e``
(``e`` the element mapping the representative onto the member), while
the id-indexed columns hold representatives only; with the trivial
group an entry is the plain id.
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable

from repro.cpds.state import GlobalState, VisibleState
from repro.pds.state import EMPTY
from repro.util.meter import METER

Shared = Hashable
Symbol = Hashable

#: Initial bit-field width per component.  16 bits cover 65k shared
#: states / stack words per pool before the first repack, while keeping
#: a 3-thread packed key within 64 bits (fast small-int hashing).
_INITIAL_BITS = 16

#: Top-id field width of a table built without CPDS alphabets.
_DEFAULT_TOP_BITS = 32


def visible_fields(cpds) -> tuple[int, ...]:
    """Per-thread top-id field widths for ``cpds``: thread ``i``'s tops
    are ε plus its alphabet, so ids ``0..|Σi|`` must fit."""
    return tuple(
        max(1, len(cpds.alphabet(index)).bit_length())
        for index in range(cpds.n_threads)
    )


class StateTable:
    """Interns the global states of one CPDS run to dense integer ids.

    One table belongs to one engine over one CPDS (thread count and
    alphabets fixed); ids are meaningless across tables.

    Besides the packed key, every state id has a visible key in the
    ``_vkeys`` column: ``qid << vqshift`` above one top-id field per
    thread, thread ``i``'s field ``top_bits[i]`` wide (default 32) and
    thread 0's lowest (see "Visible keys" in the module docstring).
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
        "_top_syms",
        "_visible_pool",
        "_ids",
        "_packed",
        "_states",
        "_vkeys",
        "_vq_limit",
        "_top_bits",
        "_voffs",
        "_vmasks",
        "_vqshift",
        "_bits",
        "_mask",
        "_qshift",
        "_limit",
        "_era",
        "_order",
        "_perms",
        "_shared_maps",
        "_qid_images",
        "_plan",
        "_vplan",
    )

    def __init__(
        self,
        n_threads: int,
        top_bits: tuple[int, ...] | None = None,
        symmetry=None,
    ) -> None:
        self.n_threads = n_threads
        #: The group's order, element permutations and non-identity
        #: shared maps (see "Symmetry" in the module docstring).
        pools = tuple(range(n_threads))  # the identity: no sharing
        self._order = 1
        self._perms: tuple = (pools,)
        self._shared_maps: tuple[dict, ...] = ()
        if symmetry is not None and symmetry.order > 1:
            pools = symmetry.pools
            self._order = symmetry.order
            self._perms = symmetry.perms
            self._shared_maps = symmetry.shared_maps[1:]
        #: Per non-identity element, qid -> image qid (grown lazily by
        #: :meth:`shared_images`), and the memoized field-move plans.
        self._qid_images: tuple[list[int], ...] = tuple([] for _ in self._shared_maps)
        self._plan: tuple | None = None
        self._vplan: tuple | None = None
        #: shared -> shared_id and its inverse.
        self._shared_ids: dict[Shared, int] = {}
        self._shareds: list[Shared] = []

        def per_pool(make) -> list:
            # Threads of one orbit alias their pool owner's object.
            owned = [make() if pools[index] == index else None for index in range(n_threads)]
            return [owned[pools[index]] for index in range(n_threads)]

        #: per-thread stack word -> stack_id and its inverse.
        self._stack_ids: list[dict[tuple, int]] = per_pool(dict)
        self._stacks: list[list[tuple]] = per_pool(list)
        #: per-thread stack_id -> visible top symbol (:data:`EMPTY` for ε).
        self._tops: list[list[Symbol]] = per_pool(list)
        #: per-thread top symbol -> dense top id, its inverse, and
        #: stack_id -> top id: many stacks share a top, so visible keys
        #: collapse onto few ``(qid, top ids...)`` combinations.
        self._top_ids: list[dict[Symbol, int]] = per_pool(dict)
        self._top_syms: list[list[Symbol]] = per_pool(list)
        self._wid_tops: list[array] = per_pool(lambda: array("q"))
        #: Visible-key layout (see the module docstring).
        if top_bits is None:
            top_bits = (_DEFAULT_TOP_BITS,) * n_threads
        self._top_bits = tuple(top_bits)
        offsets = [0]
        for width in self._top_bits:
            offsets.append(offsets[-1] + width)
        self._vqshift = offsets.pop()
        self._voffs = tuple(offsets)
        self._vmasks = tuple((1 << width) - 1 for width in self._top_bits)
        #: visible key -> the one decoded VisibleState for it.
        self._visible_pool: dict[int, VisibleState] = {}
        #: packed key -> state_id, and the dense inverses.
        self._ids: dict[int, int] = {}
        self._packed: list[int] = []
        self._states: list[GlobalState | None] = []
        #: id -> visible key: an int64 column while keys fit (shared ids
        #: below ``_vq_limit``), else a list (``_vq_limit`` None).
        if self._vqshift < 63:
            self._vkeys: array | list[int] = array("q")
            self._vq_limit: int | None = 1 << (63 - self._vqshift)
        else:
            self._vkeys = []
            self._vq_limit = None
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
        qshift = self._qshift

        def repack(key: int) -> int:
            new_key = (key >> old_qshift) << qshift
            for index in range(n):
                new_key |= ((key >> (old_bits * index)) & old_mask) << (bits * index)
            return new_key

        # Every entry, orbit images included (they have no column).
        entries = list(ids.items())
        ids.clear()
        for key, entry in entries:
            ids[repack(key)] = entry
        packed[:] = map(repack, packed)

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
            if self._vq_limit is not None and qid >= self._vq_limit:
                # Visible keys outgrow int64: the column becomes a list.
                # Replay loops re-read ``_vkeys`` after every saturation,
                # the only place new shared states are interned.
                self._vkeys = list(self._vkeys)
                self._vq_limit = None
            for shared_map in self._shared_maps:  # intern the whole orbit
                self.shared_id(shared_map[shared])
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
                tid = len(top_ids)
                if tid > self._vmasks[index]:
                    raise ValueError(
                        f"thread {index}: top symbol {top!r} overflows the "
                        f"{self._top_bits[index]}-bit visible-key field "
                        "(a symbol outside the thread's alphabet?)"
                    )
                top_ids[top] = tid
                self._top_syms[index].append(top)
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
        """Dense id of ``state`` (with a group: of its representative),
        assigning one on first sight."""
        qid = self.shared_id(state.shared)
        wids = tuple(
            self.stack_id(index, stack) for index, stack in enumerate(state.stacks)
        )
        sid = self.intern_key(qid, wids)
        if self._states[sid] is None and self._order == 1:
            self._states[sid] = state
        return sid

    def intern_key(self, qid: int, wids: tuple[int, ...]) -> int:
        """Dense id for an already-component-interned ``(qid, wids)``.

        NOTE: the view replay loop in
        :meth:`repro.reach.explicit.ExplicitReach._replay`
        inlines this append protocol on packed keys (``_ids``/``_packed``/
        ``_states``/``_vkeys`` grow in lock-step, id == old
        ``len(_packed)``) — keep it in sync when changing the table
        layout.
        """
        key = self.pack(qid, wids)
        entry = self._ids.get(key)
        if entry is not None:
            return entry // self._order
        sid = len(self._packed)
        self._ids[key] = sid * self._order
        self._packed.append(key)
        self._states.append(None)
        vkey = qid << self._vqshift
        try:
            for index, wid in enumerate(wids):
                vkey |= self._wid_tops[index][wid] << self._voffs[index]
        except IndexError:
            vkey = -1  # a stack id never interned: no projection
        self._vkeys.append(vkey)
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
        # Entries of orbit images too (rare: a guard tripped mid-level).
        floor = base * self._order
        for key in [key for key, entry in ids.items() if entry >= floor]:
            del ids[key]
        del packed[base:]
        del self._states[base:]
        del self._vkeys[base:]

    def id_of(self, state: GlobalState) -> int | None:
        """The id of ``state`` if it was ever interned, else None —
        under a group its ``_ids`` entry ``rep * |G| + element`` (see
        "Symmetry" in the module docstring)."""
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
        """The projection ``T(s)`` of a state id, decoded from its
        visible key (pooled: distinct states overwhelmingly share their
        projection)."""
        return self.decode_visible(self._vkeys[sid])

    def decode_visible(self, vkey: int) -> VisibleState:
        """The :class:`VisibleState` of a visible key, built once per key
        (each construction bumps ``explicit.visible_decoded``)."""
        vis = self._visible_pool.get(vkey)
        if vis is None:
            syms = self._top_syms
            vis = VisibleState(
                self._shareds[vkey >> self._vqshift],
                tuple(
                    syms[index][(vkey >> off) & vmask]
                    for index, (off, vmask) in enumerate(
                        zip(self._voffs, self._vmasks)
                    )
                ),
            )
            self._visible_pool[vkey] = vis
            METER.bump("explicit.visible_decoded")
        return vis

    def encode_visible(self, visible: VisibleState) -> int | None:
        """The visible key of ``visible``, or None when its shared state
        or a top was never interned (then no state projects to it).
        Never interns anything."""
        tops = visible.tops
        if len(tops) != self.n_threads:
            return None
        qid = self._shared_ids.get(visible.shared)
        if qid is None:
            return None
        vkey = qid << self._vqshift
        for top_ids, top, off in zip(self._top_ids, tops, self._voffs):
            tid = top_ids.get(top)
            if tid is None:
                return None
            vkey |= tid << off
        return vkey

    def visible_clear(self, index: int) -> int:
        """Mask keeping the frozen threads' top fields of a visible key
        when thread ``index`` moves (shared field and its own cleared)."""
        return ((1 << self._vqshift) - 1) & ~(
            self._vmasks[index] << self._voffs[index]
        )

    # ------------------------------------------------------------------
    # Symmetry images (see "Symmetry" in the module docstring)
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """The order of the table's group (1: no reduction)."""
        return self._order

    def shared_images(self) -> tuple[list[int], ...]:
        """Per non-identity element, the list ``qid -> σ(qid)`` over
        every interned shared id (interning a shared state interned its
        orbit, so every image has an id)."""
        rows = self._qid_images
        count = len(self._shareds)
        if rows and len(rows[0]) < count:
            shareds = self._shareds
            shared_ids = self._shared_ids
            for row, shared_map in zip(rows, self._shared_maps):
                row.extend(
                    shared_ids[shared_map[shareds[qid]]]
                    for qid in range(len(row), count)
                )
        return rows

    def _move_plan(self, fields) -> tuple:
        """Per non-identity element, ``(keep, moves)`` for a key laid
        out in per-thread ``(offset, mask)`` ``fields``: the mask of the
        fields ``π`` fixes and the ``(source offset, mask, target
        offset)`` of each field it moves."""
        rows = []
        for perm in self._perms[1:]:
            keep = 0
            moves = []
            for index, target in enumerate(perm):
                offset, mask = fields[index]
                if index == target:
                    keep |= mask << offset
                else:
                    moves.append((offset, mask, fields[target][0]))
            rows.append((keep, tuple(moves)))
        return tuple(rows)

    def thread_images(self, key: int) -> list[int]:
        """``π``'s image of ``key``'s thread fields, per non-identity
        element; the shared field is dropped (the replay ORs the shared
        id in from a context tree's image deltas).  The plan follows the
        packing geometry, so it is memoized per era."""
        plan = self._plan
        if plan is None or plan[0] != self._era:
            bits = self._bits
            fields = [(bits * index, self._mask) for index in range(self.n_threads)]
            plan = self._plan = (self._era, self._move_plan(fields))
        images = []
        for keep, moves in plan[1]:
            image = key & keep
            for source, mask, target in moves:
                image |= ((key >> source) & mask) << target
            images.append(image)
        return images

    def key_images(self, key: int) -> list[int]:
        """The packed keys ``g(key)`` per non-identity element."""
        qshift = self._qshift
        qid = key >> qshift
        return [
            image | (qids[qid] << qshift)
            for image, qids in zip(
                self.thread_images(key & ((1 << qshift) - 1)), self.shared_images()
            )
        ]

    def visible_images(self, vkeys) -> list[int]:
        """Every image ``g(v)`` of the visible keys ``vkeys`` under every
        non-identity element, computed column by column (one pass per
        moved field; top ids are shared within an orbit, so fields just
        move)."""
        plan = self._vplan
        if plan is None:
            plan = self._vplan = self._move_plan(list(zip(self._voffs, self._vmasks)))
        vqshift = self._vqshift
        vkeys = list(vkeys)
        images: list[int] = []
        for (keep, moves), qids in zip(plan, self.shared_images()):
            column = [(qids[key >> vqshift] << vqshift) | (key & keep) for key in vkeys]
            for source, mask, target in moves:
                column = [
                    image | (((key >> source) & mask) << target)
                    for image, key in zip(column, vkeys)
                ]
            images.extend(column)
        return images

    # ------------------------------------------------------------------
    # Snapshot support (see :meth:`repro.reach.explicit.ExplicitReach.snapshot`)
    # ------------------------------------------------------------------
    def component_pools(self) -> tuple[list, list[list[tuple] | None]]:
        """Copies of the component pools in dense-id order: the shared
        pool and the per-thread stack pools, ``None`` for a thread that
        shares an earlier thread's pool.  Pools can hold components
        no live global state references (cached context trees index
        them), so snapshots persist them in full."""
        stacks: list[list[tuple] | None] = []
        for index, pool in enumerate(self._stacks):
            owned = all(pool is not self._stacks[other] for other in range(index))
            stacks.append(list(pool) if owned else None)
        return list(self._shareds), stacks

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
        cls,
        n_threads: int,
        shareds: list,
        stacks: list,
        rows,
        top_bits: tuple[int, ...] | None = None,
        symmetry=None,
    ) -> "StateTable":
        """Rebuild a table from :meth:`component_pools` +
        :meth:`export_rows` output.  Interning replays in pool order,
        so every component id, global-state id, and the adaptive
        geometry come out exactly as the engine that produced the
        snapshot assigned them; the visible-key column is derived from
        the rows under ``top_bits``.  Under a ``symmetry`` the rows are
        representatives; the caller adds their orbit images."""
        table = cls(n_threads, top_bits, symmetry)
        for value in shareds:
            table.shared_id(value)
        for index, pool in enumerate(stacks):
            if pool is None:
                continue
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
