"""Binary checkpoint/restore of reachability-engine progress.

The bounded sequences ``(Rk)`` / ``(Sk)`` are monotone by level and the
engines only ever append — exactly the shape that makes checkpointing
sound: persist the committed levels (plus the caches whose contents are
pure functions of them) and a restored engine's ``ensure_level``
continues from the stored bound, level-for-level identical to an
uninterrupted run, including the METER expansion counts
(differentially tested in ``tests/service/test_snapshot.py``).

Format (``SNAPSHOT_VERSION`` 2)
-------------------------------
``MAGIC ║ u16 version ║ u8 kind ║ payload`` — the payload is a pickled
dict whose integer columns are contiguous ``array('q')`` blobs.  The
kind byte is each lane's registered
:attr:`~repro.reach.base.ReachabilityEngine.snapshot_kind`; version 2
added the WUBA lane (kind 3) alongside the lane-token fingerprint
change, so version-1 blobs decode as :class:`SnapshotError` — a store
miss, never a mis-resume:

* **explicit** (kind 1): the :class:`~repro.cpds.interning.StateTable`
  component pools plus interleaved ``(qid, wids...)`` rows (component
  ids, not packed keys — era-independent and immune to the adaptive
  bit-field geometry), ``first_seen``, the per-level id sets
  (lengths + flat ids), the id-encoded witness parents (child,
  parent, thread and action columns), the
  cross-level context-tree cache as raw CSR columns, and the per-state
  mover column of same-thread pruning (key ``movers``, optional: a blob
  without it restores every state with the "expand every thread"
  sentinel, so it stays readable at the same version).  The per-thread
  successor memos are *not* persisted — they are pure semantic facts
  the warm engine re-derives without touching any METER counter, and
  neither is the visible-key column: restore derives it from the rows
  and re-records each level's ``T(Rk)`` keys from it.
* **symbolic** (kind 2): pools of distinct shared states and canonical
  signature keys, the per-level symbolic states as
  ``(shared_idx, sig_idx...)`` rows, and the cross-expansion memo.
  Automata are persisted as signature keys only and rebuilt through
  the hash-cons table
  (:func:`~repro.automata.canonical.intern_canonical_form`), so
  restored automata share identity with everything the process
  canonicalizes afterwards.  Stored canonical forms carry the
  *snapshotting* process's symbol order; restore re-canonicalizes each
  one under the current process's per-thread alphabets, so a restarted
  daemon with different symbol-interning history still resumes instead
  of silently recomputing from scratch.
* **wuba** (kind 3): the committed ``(Wk)`` levels as
  ``(shared, stacks)`` rows against a pool of distinct per-thread
  stacks, plus the engine's guard and memo mode.  The write-free
  closure memo is a pure semantic cache and is rebuilt on demand.

Snapshots are trusted data: they are produced and consumed by the same
store (pickle is not safe against adversarial blobs, same as every
other pickle-based checkpoint format).  A blob that fails *any* decode
step raises :class:`~repro.errors.SnapshotError`, which the store
layer treats as a cache miss.
"""

from __future__ import annotations

import pickle
import struct
import time
from array import array

from repro.automata.canonical import canonical_nfa, intern_canonical_form
from repro.cpds.cpds import CPDS
from repro.cpds.interning import StateTable, visible_fields
from repro.cpds.semantics import ContextTree
from repro.errors import SnapshotError
from repro.obs import trace
from repro.obs.metrics import LATENCY
from repro.util.meter import METER

MAGIC = b"CUSN"
SNAPSHOT_VERSION = 2

KIND_EXPLICIT = 1
KIND_SYMBOLIC = 2
KIND_WUBA = 3

_HEADER = struct.Struct("<4sHB")


def _encode(kind: int, payload: dict) -> bytes:
    start = time.perf_counter()
    with trace.span("snapshot.encode", kind=kind):
        blob = _HEADER.pack(MAGIC, SNAPSHOT_VERSION, kind) + pickle.dumps(
            payload, protocol=pickle.HIGHEST_PROTOCOL
        )
    METER.bump("snapshot.saves")
    METER.bump("snapshot.save_bytes", len(blob))
    LATENCY.observe("snapshot_encode", time.perf_counter() - start)
    return blob


def _parse_header(data: bytes) -> int:
    """Validate the framing header and return the kind byte; raises
    :class:`SnapshotError` on truncation, wrong magic, or a future
    version."""
    try:
        magic, version, kind = _HEADER.unpack_from(data)
    except struct.error as broken:
        raise SnapshotError(f"snapshot header truncated: {broken}") from broken
    if magic != MAGIC:
        raise SnapshotError(f"bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version} != supported {SNAPSHOT_VERSION}"
        )
    return kind


def decode(data: bytes, expected_kind: int | None = None) -> tuple[int, dict]:
    """Validate framing and unpickle the payload; every failure mode —
    truncation, wrong magic, future version, garbage pickle — raises
    :class:`SnapshotError`."""
    start = time.perf_counter()
    kind = _parse_header(data)
    if expected_kind is not None and kind != expected_kind:
        raise SnapshotError(f"snapshot kind {kind} != expected {expected_kind}")
    with trace.span("snapshot.decode", kind=kind, bytes=len(data)):
        try:
            payload = pickle.loads(data[_HEADER.size :])
            if not isinstance(payload, dict):
                raise SnapshotError(
                    f"snapshot payload is {type(payload).__name__}"
                )
        except SnapshotError:
            raise
        except Exception as broken:
            raise SnapshotError(
                f"snapshot payload undecodable: {broken}"
            ) from broken
    METER.bump("snapshot.restores")
    LATENCY.observe("snapshot_decode", time.perf_counter() - start)
    return kind, payload


def snapshot_kind(data: bytes) -> int:
    """The kind byte of a blob — header validation only, so callers
    dispatching on kind before a full restore don't unpickle a large
    payload twice (or double-count ``snapshot.restores``)."""
    return _parse_header(data)


# ----------------------------------------------------------------------
# Explicit engine (Rk)
# ----------------------------------------------------------------------
def snapshot_explicit(engine) -> bytes:
    """Checkpoint an :class:`~repro.reach.explicit.ExplicitReach` built
    on the interned core (``batched=True``; the seed per-state oracle
    keys its bookkeeping by decoded states and is not snapshottable)."""
    if not engine.batched:
        raise SnapshotError(
            "only the batched explicit engine supports snapshots "
            "(the per-state oracle path is a differential test fixture)"
        )
    table = engine.table
    shareds, stacks = table.component_pools()

    level_lens = array("q", (len(level) for level in engine._level_ids))
    level_ids = array("q")
    for level in engine._level_ids:
        level_ids.extend(level)

    parent_ids = engine._parent_ids
    if parent_ids is None:
        parent_rows = None
    else:
        # Rows in id order, root (parent -1) omitted; the thread column
        # is the witness thread (the mover, see ``witness_thread``).
        children = array(
            "q", (sid for sid, parent in enumerate(parent_ids) if parent >= 0)
        )
        parent_rows = (
            children,
            array("q", (parent_ids[sid] for sid in children)),
            array("q", map(engine.witness_thread, children)),
            [engine._parent_actions[sid] for sid in children],
        )

    cache = engine._tree_cache
    if cache is None:
        tree_rows = None
    else:
        views = array("q")
        trees = []
        for view, tree in cache.items():
            index, qid, wid = engine._view_parts(view)
            views.extend((index, qid, wid))
            trees.append(
                (tree.thread, tree.root_qid, tree.root_wid,
                 tree.offsets, tree.qids, tree.wids, tree.actions)
            )
        tree_rows = (views, trees)

    return _encode(
        KIND_EXPLICIT,
        {
            "n_threads": table.n_threads,
            "max_states_per_context": engine.max_states_per_context,
            "track_traces": parent_ids is not None,
            "incremental": cache is not None,
            "shareds": shareds,
            "stacks": stacks,
            "rows": table.export_rows(),
            "first_seen": array("q", engine._first_seen),
            "movers": engine._movers,
            "level_lens": level_lens,
            "level_ids": level_ids,
            "parents": parent_rows,
            "trees": tree_rows,
        },
    )


def restore_explicit(
    cpds: CPDS,
    data: bytes,
    *,
    config=None,
    max_states_per_context: int | None = None,
):
    """Rebuild a warm :class:`~repro.reach.explicit.ExplicitReach` from
    a :func:`snapshot_explicit` blob.  ``config`` carries the execution
    knobs (:class:`~repro.reach.config.EngineConfig` — the replay
    ``backend``; pure execution knobs, never serialized into the blob)
    and may differ from the snapshotted
    engine's; ``max_states_per_context`` defaults to the snapshotted
    guard.  Raises :class:`SnapshotError` when the blob is undecodable
    or does not belong to ``cpds``."""
    from repro.reach.config import EngineConfig
    from repro.reach.explicit import ExplicitReach, mover_column

    if config is None:
        config = EngineConfig()
    _kind, payload = decode(data, expected_kind=KIND_EXPLICIT)
    try:
        n_threads = payload["n_threads"]
        if n_threads != cpds.n_threads:
            raise SnapshotError(
                f"snapshot has {n_threads} threads, CPDS has {cpds.n_threads}"
            )
        table = StateTable.from_snapshot(
            n_threads,
            payload["shareds"],
            payload["stacks"],
            payload["rows"],
            visible_fields(cpds),
        )
        engine = ExplicitReach(
            cpds,
            max_states_per_context=(
                payload["max_states_per_context"]
                if max_states_per_context is None
                else max_states_per_context
            ),
            track_traces=payload["track_traces"],
            incremental=payload["incremental"],
            config=config.replace(batched=True),
        )
        if len(table) == 0 or table.state(0) != cpds.initial_state():
            raise SnapshotError("snapshot does not belong to this CPDS")
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
        movers = payload.get("movers")
        if movers is None:
            # A blob written before the mover column: every state
            # expands every thread, so levels stay exact and only the
            # first resumed level does extra work.
            engine._movers = mover_column(n_threads, [n_threads]) * len(table)
        elif len(movers) != len(table):
            raise SnapshotError("snapshot mover column disagrees on state count")
        else:
            engine._movers = mover_column(n_threads, movers)

        parent_rows = payload["parents"]
        if parent_rows is None:
            engine._parent_ids = engine._parent_actions = None
        else:
            children, parent_sids, threads, actions = parent_rows
            parent_ids = array("q", [-1]) * len(table)
            parent_actions = [None] * len(table)
            movers = engine._movers
            witness_threads = {}
            for child, parent, thread, action in zip(
                children, parent_sids, threads, actions
            ):
                parent_ids[child] = parent
                parent_actions[child] = action
                if thread != movers[child]:
                    witness_threads[child] = thread
            engine._parent_ids = parent_ids
            engine._parent_actions = parent_actions
            engine._witness_threads = witness_threads

        tree_rows = payload["trees"]
        if tree_rows is None:
            engine._tree_cache = None
        else:
            views, trees = tree_rows
            cache: dict = {}
            qid_shift = engine._view_qid_shift
            wid_shift = engine._view_wid_shift
            for position, row in enumerate(trees):
                base = 3 * position
                index, qid, wid = views[base], views[base + 1], views[base + 2]
                cache[(qid << qid_shift) | (wid << wid_shift) | index] = ContextTree(
                    *row
                )
            engine._tree_cache = cache

        # Derive T(Rk)'s per-level visible keys from the restored key
        # column (a level's ids are one contiguous range).
        engine._vlevel.clear()
        engine._vnew.clear()
        engine._vcounts.clear()
        engine._decoded_visible.clear()
        start = 0
        for level in levels:
            engine._record_visible_keys(start, start + len(level))
            start += len(level)
        engine._decoded_levels = []
        engine._first_seen_view = None
        return engine
    except SnapshotError:
        raise
    except Exception as broken:
        raise SnapshotError(f"explicit snapshot malformed: {broken}") from broken


# ----------------------------------------------------------------------
# Symbolic engine (Sk)
# ----------------------------------------------------------------------
def snapshot_symbolic(engine) -> bytes:
    """Checkpoint a :class:`~repro.reach.symbolic.SymbolicReach`: the
    canonical-signature frontier (per-level symbolic states) and the
    cross-expansion memo, both id-encoded against pools of distinct
    shared states and signature keys."""
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

    level_lens = array("q", (len(level) for level in engine.levels))
    state_rows = array("q")
    for level in engine.levels:
        for symbolic in level:
            state_rows.append(shared_idx(symbolic.shared))
            state_rows.extend(sig_idx(s) for s in symbolic.signatures)

    memo = engine._expansions
    if memo is None:
        memo_rows = None
    else:
        keys = array("q")
        part_lens = array("q")
        part_pairs = array("q")
        for (thread, shared, signature), parts in memo.items():
            keys.extend((thread, shared_idx(shared), sig_idx(signature)))
            part_lens.append(len(parts))
            for part_shared, _canonical, part_sig in parts:
                part_pairs.extend((shared_idx(part_shared), sig_idx(part_sig)))
        memo_rows = (keys, part_lens, part_pairs)

    return _encode(
        KIND_SYMBOLIC,
        {
            "n_threads": engine.cpds.n_threads,
            "batched": engine.batched,
            "shared_pool": shared_pool,
            "sig_pool": sig_pool,
            "level_lens": level_lens,
            "state_rows": state_rows,
            "expansions": memo_rows,
        },
    )


def restore_symbolic(cpds: CPDS, data: bytes, *, batched: bool | None = None):
    """Rebuild a warm :class:`~repro.reach.symbolic.SymbolicReach` from
    a :func:`snapshot_symbolic` blob.  ``batched`` defaults to the
    snapshotted engine's mode.  Raises :class:`SnapshotError` when the
    blob is undecodable or does not belong to ``cpds``."""
    from repro.reach.symbolic import SymbolicReach, SymbolicState, nfa_tops

    _kind, payload = decode(data, expected_kind=KIND_SYMBOLIC)
    try:
        n = payload["n_threads"]
        if n != cpds.n_threads:
            raise SnapshotError(
                f"snapshot has {n} threads, CPDS has {cpds.n_threads}"
            )
        from repro.reach.config import EngineConfig

        engine = SymbolicReach(
            cpds,
            incremental=payload["expansions"] is not None,
            config=EngineConfig(
                batched=payload["batched"] if batched is None else batched
            ),
        )
        initial_level = engine.levels[0]

        shared_pool = payload["shared_pool"]
        # Stored canonical forms embed the *snapshotting* process's
        # symbol order (canonical BFS numbering visits symbols in
        # SymbolTable order, which depends on interning history).  A
        # restarted daemon with different history would compute
        # different signatures for the same languages, so every stored
        # form is re-canonicalized under THIS process's per-thread
        # alphabet — a no-op returning the identical interned pair when
        # the orders agree, and an exact translation when they don't.
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
        width = 1 + n
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
                cursor += width
            levels.append(frozenset(bucket))
        if not levels or levels[0] != initial_level:
            raise SnapshotError("snapshot does not belong to this CPDS")

        memo_rows = payload["expansions"]
        if memo_rows is None:
            engine._expansions = None
        else:
            keys, part_lens, part_pairs = memo_rows
            memo: dict = {}
            pair_cursor = 0
            for position, length in enumerate(part_lens):
                base = 3 * position
                thread = keys[base]
                key = (
                    thread,
                    shared_pool[keys[base + 1]],
                    pair_for(keys[base + 2], thread)[1],
                )
                parts = []
                for _ in range(length):
                    part_shared = shared_pool[part_pairs[pair_cursor]]
                    dfa, signature = pair_for(part_pairs[pair_cursor + 1], thread)
                    parts.append((part_shared, dfa, signature))
                    pair_cursor += 2
                memo[key] = tuple(parts)
            engine._expansions = memo

        engine.levels = levels
        seen: set = set()
        for level in levels:
            seen |= level
        engine._seen = seen

        engine.visible_levels.clear()
        engine._visible_cumulative.clear()
        for level in levels:
            visible: set = set()
            for symbolic in level:
                visible |= engine._visible_product(
                    symbolic.shared,
                    tuple(nfa_tops(automaton) for automaton in symbolic.automata),
                )
            engine._record_visible(frozenset(visible))
        return engine
    except SnapshotError:
        raise
    except Exception as broken:
        raise SnapshotError(f"symbolic snapshot malformed: {broken}") from broken


# ----------------------------------------------------------------------
# WUBA engine (Wk)
# ----------------------------------------------------------------------
def snapshot_wuba(engine) -> bytes:
    """Checkpoint a :class:`~repro.reach.wuba.WubaReach`: the committed
    ``(Wk)`` levels as ``(shared, stack-ids...)`` rows against a pool of
    distinct per-thread stacks.  The write-free closure memo is a pure
    semantic cache (rebuilt on demand), so it is not persisted."""
    stack_ids: dict = {}
    stack_pool: list = []

    def stack_idx(stack) -> int:
        idx = stack_ids.get(stack)
        if idx is None:
            idx = stack_ids[stack] = len(stack_pool)
            stack_pool.append(stack)
        return idx

    level_lens = array("q", (len(level) for level in engine.levels))
    shared_rows: list = []
    stack_rows = array("q")
    for level in engine.levels:
        for state in level:
            shared_rows.append(state.shared)
            stack_rows.extend(stack_idx(stack) for stack in state.stacks)

    return _encode(
        KIND_WUBA,
        {
            "n_threads": engine.cpds.n_threads,
            "max_states_per_context": engine.max_states_per_context,
            "incremental": engine._closure_memo is not None,
            "stack_pool": stack_pool,
            "level_lens": level_lens,
            "shared_rows": shared_rows,
            "stack_rows": stack_rows,
        },
    )


def restore_wuba(cpds: CPDS, data: bytes, *, max_states_per_context: int | None = None):
    """Rebuild a warm :class:`~repro.reach.wuba.WubaReach` from a
    :func:`snapshot_wuba` blob.  ``max_states_per_context`` defaults to
    the snapshotted guard.  Raises :class:`SnapshotError` when the blob
    is undecodable or does not belong to ``cpds`` (level 0 must match
    the write-free closure of this CPDS's initial state)."""
    from repro.cpds.state import GlobalState
    from repro.reach.wuba import WubaReach

    _kind, payload = decode(data, expected_kind=KIND_WUBA)
    try:
        n = payload["n_threads"]
        if n != cpds.n_threads:
            raise SnapshotError(
                f"snapshot has {n} threads, CPDS has {cpds.n_threads}"
            )
        engine = WubaReach(
            cpds,
            max_states_per_context=(
                payload["max_states_per_context"]
                if max_states_per_context is None
                else max_states_per_context
            ),
            incremental=payload["incremental"],
        )
        stack_pool = payload["stack_pool"]
        shared_rows = payload["shared_rows"]
        stack_rows = payload["stack_rows"]
        levels: list[frozenset] = []
        state_index = 0
        cursor = 0
        for length in payload["level_lens"]:
            bucket = []
            for _ in range(length):
                stacks = tuple(
                    stack_pool[stack_rows[cursor + offset]] for offset in range(n)
                )
                bucket.append(GlobalState(shared_rows[state_index], stacks))
                state_index += 1
                cursor += n
            levels.append(frozenset(bucket))
        # A fresh engine's level 0 is the write-free closure of the
        # initial state — deterministic, so equality is the belonging
        # check (same shape as the explicit/symbolic restores).
        if not levels or levels[0] != engine.levels[0]:
            raise SnapshotError("snapshot does not belong to this CPDS")
        engine.levels = levels
        seen: set = set()
        for level in levels:
            seen |= level
        engine._seen = seen
        engine.visible_levels.clear()
        engine._visible_cumulative.clear()
        for level in levels:
            engine._record_visible(
                frozenset(state.visible() for state in level)
            )
        return engine
    except SnapshotError:
        raise
    except Exception as broken:
        raise SnapshotError(f"wuba snapshot malformed: {broken}") from broken
