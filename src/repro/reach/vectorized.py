"""Optional numpy backend for the CSR context-tree replay (``backend=``).

The batched advance of :class:`repro.reach.explicit.ExplicitReach` spends
its time in one loop: for every (member, tree edge) pair, compute the
candidate packed key ``(packed[sid] & frozen_mask) | delta`` and intern
the fresh ones.  That loop is pure integer arithmetic over two small
vectors — exactly the shape numpy broadcasts in one operation.  This
module replays every view of a level as ``int64`` mask-and-OR
broadcasts, concatenates the candidate matrices, dedupes them with a
*single* sorted-unique pass per level, and interns only the survivors.
Batching at level granularity (rather than per view) is what makes the
backend pay: a typical view is a few hundred candidates, far too small
to amortize per-call array setup, while a level concatenates hundreds
of views into one dedup over 10^5+ candidates.

Correctness contract (the differential tests pin each point):

* **Identical ids.** Fresh candidates are interned in *first-occurrence
  scan order* (``numpy.unique(..., return_index=True)`` + a sort of the
  first-occurrence indices; concatenation preserves the serial
  view-by-view, member-by-member, edge-by-edge order), which is exactly
  the order the serial loop discovers them — a ``backend="numpy"``
  engine assigns the same dense ids, parents and levels as
  ``backend="python"``.
* **Identical visible keys.** Each fresh state's visible key is
  gathered from its packed key (:func:`_visible_keys`), which yields
  the scalar loop's ``vfrozen | vdelta`` value, so ``T(Rk)`` is
  recorded identically.
* **Identical movers.** Each fresh state's mover is the thread of its
  first-occurrence view, as in the serial loop, so same-thread pruning
  masks the same cells in :func:`group_views` and the next level
  groups identically.
* **Identical METER.** The backend only changes *how* a level replays;
  ``explicit.expansions`` / ``level_views`` / ``level_unique_views`` /
  ``context_cache_*`` / ``replay_pairs`` are bumped by the shared
  advance code and stay equal across backends.  The numpy-only counters
  (``explicit.replay_numpy_views`` / ``_fallbacks``) live *outside* the
  differential set.
* **Wide keys fall back.** Packed keys exceed 64 bits at high thread
  counts or after adaptive repacks (the PR 6 wide-key case);
  :func:`table_fits_int64` gates the whole level, so
  arbitrary-precision workloads silently route to the pure-int loop
  with no behavioural difference.

The backend is an execution knob like ``batched``: it is
excluded from service fingerprints and snapshot payloads, and a restored
engine may replay under a different backend than the one that produced
the snapshot.
"""

from __future__ import annotations

from repro.util.meter import METER

#: Recognized values for the ``backend=`` knob.
BACKENDS = ("auto", "python", "numpy")

#: Minimum summed member × edge products in one level batch before the
#: broadcast pays for its array setup;
#: smaller levels run the scalar loop even under ``backend="numpy"``.
#: Measured crossover on the registry rows: a few-hundred-pair level
#: loses ~0.1ms to array setup, a 16k-pair level wins several ms — the
#: floor keeps the small Bluetooth/Dekker levels scalar while the
#: FileCrawler mid levels (10^4–10^5 pairs) take the broadcast.
NUMPY_MIN_WORK = 4096

#: Minimum *average* member × edge product per batch entry.  The batch
#: build pays a fixed per-entry cost (one delta gather + block repeat
#: each), so a level whose total clears ``NUMPY_MIN_WORK`` can still
#: lose when it is shredded into hundreds of tiny views: BST's engaging
#: level (287 entries averaging 54 pairs) ran ~15% slower vectorized,
#: while FileCrawler's winning levels average 136–432 pairs per entry.
NUMPY_MIN_ENTRY_AVG = 96

_numpy = None
_numpy_checked = False


def _import_numpy():
    global _numpy, _numpy_checked
    if not _numpy_checked:
        _numpy_checked = True
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy = numpy
    return _numpy


def numpy_available() -> bool:
    """True iff numpy is importable (memoized)."""
    return _import_numpy() is not None


def validate_backend(backend: str) -> str:
    """Reject unknown backend names; return the requested name."""
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {'/'.join(BACKENDS)}, got {backend!r}"
        )
    return backend


def resolve_backend(backend: str) -> str:
    """Resolve the requested knob to the concrete backend.

    ``"auto"`` selects numpy exactly when it imports; a forced
    ``"numpy"`` without numpy is a configuration error (the caller asked
    for something the environment cannot honor), not a silent fallback.
    """
    validate_backend(backend)
    if backend == "python":
        return "python"
    if numpy_available():
        return "numpy"
    if backend == "numpy":
        raise ValueError(
            "backend='numpy' requested but numpy is not installed "
            "(pip install cuba-repro[fast]); use backend='auto' to fall "
            "back automatically"
        )
    return "python"


def table_fits_int64(table) -> bool:
    """True iff every packed and visible key this table can currently
    produce fits a signed int64.  ``qshift`` bits of stack fields plus
    the shared-id field must stay at or below 63; an OR of two such keys
    cannot carry, so the bound covers every ``frozen | delta`` candidate
    too.  Visible keys fit while the table keeps them in an int64
    column.  Replay runs after all of the level's trees are saturated,
    so the geometry read here is stable for the whole level."""
    return (
        table._qshift + (len(table._shareds) - 1).bit_length() <= 63
        and table.vkeys_fit_int64
    )


def views_fit_int64(table, view_qid_shift: int, view_wid_shift: int) -> bool:
    """True iff every view key the batched advance can build from this
    table fits a signed int64: the stack field shifted into the wid slot
    and the shared-id field shifted to the top must both stay below bit
    63.  Callers check :func:`table_fits_int64` separately for the
    packed keys themselves."""
    max_qid = len(table._shareds) - 1
    return (
        table._bits + view_wid_shift <= 62
        and max_qid.bit_length() + view_qid_shift <= 62
    )


def group_views(
    table,
    frontier,
    movers,
    n: int,
    view_qid_shift: int,
    view_wid_shift: int,
) -> dict:
    """Group a frontier by unique thread view in one vectorized pass.

    Mirrors the scalar grouping loop of
    ``ExplicitReach._advance_batched`` exactly: the ``(sid, mover)``
    cells are masked out (same-thread pruning, ``movers`` is the
    engine's id-indexed mover column), the returned dict lists views in
    first-occurrence order over the remaining ``(sid, thread)`` scan
    (sid-major, thread-minor) and each member list in frontier order —
    the orders the replay paths and the differential id-assignment proof
    depend on.  Caller must have checked :func:`table_fits_int64` and
    :func:`views_fit_int64`.
    """
    np = _numpy
    packed = table._packed
    bits = table._bits
    mask = int(table._mask)
    qshift = table._qshift
    keys = np.fromiter(
        (packed[sid] for sid in frontier), dtype=np.int64, count=len(frontier)
    )
    skip = np.fromiter(
        (movers[sid] for sid in frontier), dtype=np.int64, count=len(frontier)
    )
    qbase = (keys >> qshift) << view_qid_shift
    cols = np.empty((len(frontier), n), dtype=np.int64)
    for index in range(n):
        cols[:, index] = (
            qbase | (((keys >> (bits * index)) & mask) << view_wid_shift) | index
        )
    # Row-major cell positions (the scalar loop's scan order) that
    # survive the mover mask.
    cells = np.flatnonzero(np.arange(n)[None, :] != skip[:, None])
    if not cells.size:
        return {}
    flat = cols.ravel()[cells]
    order = flat.argsort(kind="stable")
    grouped = flat[order]
    runs = np.flatnonzero(grouped[1:] != grouped[:-1])
    bounds = np.empty(runs.size + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1] = runs + 1
    bounds[-1] = flat.size
    # Stable sort keeps positions ascending within each run, so the run
    # head is the view's first occurrence; per-view members then come
    # out already in frontier order.
    heads = order[bounds[:-1]]
    group_order = np.argsort(heads).tolist()
    sid_idx = (cells[order] // n).tolist()
    bl = bounds.tolist()
    view_of = grouped[bounds[:-1]].tolist()
    groups: dict = {}
    for g in group_order:
        groups[view_of[g]] = [
            frontier[i] for i in sid_idx[bl[g] : bl[g + 1]]
        ]
    return groups


def replay_level(
    table,
    entries: list,
    level: int,
    first_seen: list[int],
    movers,
    parent_ids,
    parent_actions: list | None,
    append_fresh,
) -> None:
    """Replay a whole level's views in one numpy pass.

    ``entries`` is ``[(members, tree, thread_index, frozen_mask), ...]``
    in the serial loop's view order.  All broadcasts are concatenated
    and deduped with one sorted-unique pass; concatenation preserves the
    serial scan order, so interning the survivors in global
    first-occurrence order assigns the same dense ids as the scalar
    loop.  The table geometry is read once — every tree saturated before
    replay, so no component interning (and no repack) can happen here.

    Mirrors the inlined ``StateTable.intern_key`` protocol of
    ``ExplicitReach._advance_batched`` (see the coupling note on
    ``intern_key``): fresh keys append a ``None`` placeholder to the
    decoded-state column, their visible key (one vectorized gather of
    the top ids off the packed keys) to ``_vkeys``, their level to
    ``first_seen`` and the thread of their first-occurrence view to
    ``movers``.  Tracked parents (``parent_ids`` / ``parent_actions``
    columns, ``None`` when untracked) resolve by recomputing the
    predecessor's packed key with Python ints — by the BFS edge-order
    property the parent's first occurrence strictly precedes the
    child's in the same member row, hence at a strictly earlier flat
    position, so ``ids`` already holds it.
    """
    np = _numpy
    packed = table._packed
    ids = table._ids
    states = table._states
    vkeys = table._vkeys
    # One numpy call per *level*, not per view: per-view array setup
    # (~30µs each) would swamp the broadcast on typical few-hundred-
    # candidate views.  The ragged (member × its view's edge column)
    # matrix is built with np.repeat over per-member block lengths and
    # a gathered index into the concatenated delta columns.
    delta_cache: dict[int, tuple] = {}  # id(tree) — trees outlive the call
    delta_parts = []
    delta_len = 0
    members_all: list[int] = []  # one sid per (view, member), scan order
    view_masks: list[int] = []  # per view: its frozen mask
    view_rows: list[int] = []  # per view: its member count
    block_lens: list[int] = []  # per member: its view's edge count
    delta_offs: list[int] = []  # per member: view offset into delta concat
    spans = []  # (end_offset, members, frozen_mask, deltas, tree, index)
    offset = 0
    for members, tree, thread_index, frozen_mask in entries:
        cached = delta_cache.get(id(tree))
        if cached is None:
            deltas = tree.deltas(table)
            delta_parts.append(
                np.fromiter(deltas, dtype=np.int64, count=len(deltas))
            )
            cached = (deltas, delta_len)
            delta_len += len(deltas)
            delta_cache[id(tree)] = cached
        deltas, doff = cached
        n_edges = len(deltas)
        n_members = len(members)
        members_all += members
        view_masks.append(frozen_mask)
        view_rows.append(n_members)
        block_lens += [n_edges] * n_members
        delta_offs += [doff] * n_members
        offset += n_members * n_edges
        spans.append((offset, members, frozen_mask, deltas, tree, thread_index))
    n_rows = len(members_all)
    frozen_col = np.fromiter(
        (packed[sid] for sid in members_all), dtype=np.int64, count=n_rows
    ) & np.repeat(
        np.fromiter(view_masks, dtype=np.int64, count=len(view_masks)),
        np.fromiter(view_rows, dtype=np.int64, count=len(view_rows)),
    )
    lens_col = np.fromiter(block_lens, dtype=np.int64, count=n_rows)
    offs_col = np.fromiter(delta_offs, dtype=np.int64, count=n_rows)
    delta_col = (
        np.concatenate(delta_parts) if len(delta_parts) > 1 else delta_parts[0]
    )
    ends = np.cumsum(lens_col)
    # flat position p inside member row r covers edge p - starts[r]; the
    # row's delta column starts at offs_col[r] in the concat.
    shift = np.repeat(offs_col - (ends - lens_col), lens_col)
    shift += np.arange(offset, dtype=np.int64)
    flat = np.repeat(frozen_col, lens_col) | delta_col[shift]
    # First-occurrence dedup without np.unique's stable mergesort: a
    # quicksort argsort groups equal keys, min-reduceat over each run
    # recovers the earliest flat position per distinct key.
    order = flat.argsort()
    grouped = flat[order]
    runs = np.flatnonzero(grouped[1:] != grouped[:-1])
    starts = np.empty(runs.size + 1, dtype=runs.dtype)
    starts[0] = 0
    starts[1:] = runs + 1
    first_idx = np.minimum.reduceat(order, starts)
    first_idx.sort()
    unique = flat[first_idx]
    values = unique.tolist()
    vvalues = _visible_keys(table, unique).tolist()
    if parent_ids is None:
        # The view (hence thread) of each first occurrence: the span
        # whose end offset first exceeds the flat position.
        span_ends = np.fromiter(
            (span[0] for span in spans), dtype=np.int64, count=len(spans)
        )
        span_threads = np.fromiter(
            (span[5] for span in spans), dtype=np.int64, count=len(spans)
        )
        threads = span_threads[
            np.searchsorted(span_ends, first_idx, side="right")
        ].tolist()
        for key, vkey, thread in zip(values, vvalues, threads):
            if key not in ids:
                ids[key] = nsid = len(packed)
                packed.append(key)
                states.append(None)
                vkeys.append(vkey)
                first_seen.append(level)
                movers.append(thread)
                append_fresh(nsid)
        return
    positions = first_idx.tolist()
    span_iter = iter(spans)
    end, members, frozen_mask, deltas, tree, index = next(span_iter)
    start = 0
    actions = tree.actions
    parent_pos = tree.parent_positions()
    n_edges = len(deltas)
    for key, vkey, pos in zip(values, vvalues, positions):
        while pos >= end:  # positions ascend: walk spans forward only
            start = end
            end, members, frozen_mask, deltas, tree, index = next(span_iter)
            actions = tree.actions
            parent_pos = tree.parent_positions()
            n_edges = len(deltas)
        if key not in ids:
            ids[key] = nsid = len(packed)
            packed.append(key)
            states.append(None)
            vkeys.append(vkey)
            first_seen.append(level)
            movers.append(index)
            append_fresh(nsid)
            member_idx, edge_idx = divmod(pos - start, n_edges)
            ppos = parent_pos[edge_idx]
            if ppos == 0:
                psid = members[member_idx]
            else:
                psid = ids[
                    (packed[members[member_idx]] & frozen_mask)
                    | deltas[ppos - 1]
                ]
            parent_ids.append(psid)
            parent_actions.append(actions[edge_idx])


def _visible_keys(table, keys):
    """The visible keys of an int64 column of packed keys: the shared
    field moved above the top-id fields, and each thread's stack field
    gathered through its ``wid → top id`` column (see "Visible keys" in
    :mod:`repro.cpds.interning`).  Caller must have checked
    :func:`table_fits_int64`."""
    np = _numpy
    bits = table._bits
    mask = int(table._mask)
    out = (keys >> table._qshift) << table._vqshift
    for index, off in enumerate(table._voffs):
        tops = np.array(table._wid_tops[index], dtype=np.int64)
        out |= tops[(keys >> (bits * index)) & mask] << off
    return out


def bump_fallback() -> None:
    """METER: a numpy-resolved engine routed a level to the pure-int
    loop (wide keys).  Outside the backend differential set."""
    METER.bump("explicit.replay_numpy_fallbacks")


def bump_view(n: int = 1) -> None:
    """METER: ``n`` views replayed through the broadcast path.  Outside
    the backend differential set."""
    METER.bump("explicit.replay_numpy_views", n)
