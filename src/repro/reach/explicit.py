"""Explicit-state computation of the sets ``Rk`` (paper Secs. 2.3, 5),
rebuilt on a flat array-encoded interned core.

``R0 = {⟨qI|w1,...,wn⟩}`` and ``Rk`` adds, for every state first reached
at bound ``k−1`` and every thread ``i``, all states thread ``i`` can
reach in one context.  Because a context includes the empty run,
expanding only the frontier is exact: states discovered at earlier
levels were already expanded.

Architecture (PR 3 sharding, PR 4 flat arrays + multiprocess saturation)
------------------------------------------------------------------------
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
* ``advance`` **shards** each frontier level by the moving thread's view
  ``(thread, shared_id, stack_id)`` and saturates each unique view
  exactly once per level via
  :func:`~repro.cpds.semantics.thread_view_post`, which emits a flat
  CSR-encoded :class:`~repro.cpds.semantics.ContextTree`
  (``array('q')`` edge offsets + target id columns).  METER records the
  grouping — ``explicit.level_views`` vs ``explicit.level_unique_views``
  vs ``explicit.expansions`` — so harnesses can assert one saturation
  per unique view per level (with ``incremental=True`` cross-level
  reuse, ``expansions + context_cache_hits`` accounts for every shard).
* The tree is **replayed** across all global states sharing the view by
  pure integer arithmetic: mask the moving thread's bit field out of
  the member's packed key and OR in the tree's precomputed per-edge
  delta — no tuple allocation, no nested re-hashing, no ``GlobalState``
  materialized anywhere on the path.  Decoding happens lazily in the
  observation API.

With ``jobs=N`` (opt-in), the whole advance is parallel
(:mod:`repro.reach.parallel`): each level's *uncached* unique views are
saturated by a pool of worker processes — the per-view explorations are
independent, the same embarrassing parallelism context-bounded analyses
exploit — and, when the level's replay work clears ``shard_min_work``,
the member x edge replay itself is **sharded** across the same pool:
each worker replays its slice of the CSR trees by pure integer
arithmetic against a private seen set and the parent merge pass dedupes
the candidate keys into the canonical table
(:meth:`~repro.cpds.interning.StateTable.intern_packed`), resolving
cross-shard successors in submission order.  The seen-set itself always
stays in the parent.  ``jobs=1`` keeps everything in-process;
``shard_replay=False`` restores the PR 4 saturation-only fan-out and
``parallel_saturation=False`` isolates replay sharding (the benchmark
``shard`` sub-mode).  All paths produce identical levels and identical
METER work counts.

The seed per-state formulation — one
:func:`~repro.cpds.semantics.thread_context_post` call per (state,
thread) — is kept behind ``batched=False`` as the differential oracle;
``tests/reach/test_batched_explicit.py`` and
``tests/reach/test_parallel_explicit.py`` prove the three modes agree
level for level on every FCR registry row and on randomized CPDSs.

Explicit enumeration requires every ``Rk`` to be finite — the finite
context reachability condition (Sec. 5).  Programs violating FCR trip
the per-context divergence guard with
:class:`~repro.errors.ContextExplosionError`.
"""

from __future__ import annotations

from repro.cpds.cpds import CPDS
from repro.cpds.interning import StateTable
from repro.cpds.semantics import ContextTree, thread_context_post, thread_view_post
from repro.cpds.state import GlobalState, VisibleState
from repro.obs import trace
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.reach import vectorized
from repro.reach.base import ReachabilityEngine
from repro.reach.config import EngineConfig, merge_legacy_kwargs
from repro.reach.registry import register
from repro.reach.witness import Trace, TraceStep, rebuild_trace
from repro.util.meter import METER

#: A frontier shard key packs ``(thread, shared_id, stack_id)`` into one
#: int — ``(qid << (t + 32)) | (wid << t) | thread`` for a per-engine
#: thread-field width ``t`` sized to the CPDS at construction —
#: independent of the table's adaptive packing geometry, so the
#: cross-level tree cache keyed by it survives repacks.  Stack pools
#: cannot outgrow 2**32 entries.
View = int

_VIEW_WID_MASK = 0xFFFFFFFF


@register
class ExplicitReach(ReachabilityEngine):
    """Sharded, view-batched explicit engine for the observation
    sequences ``(Rk)`` and ``(T(Rk))`` (see the module docstring)."""

    lane = "explicit"
    sequence_name = "Rk"
    snapshot_kind = 1
    meter_prefix = "explicit."
    supports_witness = True
    preferred_algorithm = "scheme1"

    #: Engine default for ``EngineConfig.shard_min_work=None``.
    DEFAULT_SHARD_MIN_WORK = 4096

    def __init__(
        self,
        cpds: CPDS,
        max_states_per_context: int = DEFAULT_STATE_LIMIT,
        track_traces: bool = True,
        incremental: bool | None = None,
        batched: bool | None = None,
        jobs: int | None = None,
        parallel_saturation: bool = True,
        shard_replay: bool | None = None,
        shard_min_work: int | None = None,
        backend: str | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        super().__init__()
        config = merge_legacy_kwargs(
            config,
            "ExplicitReach",
            jobs=jobs,
            batched=batched,
            backend=backend,
            shard_replay=shard_replay,
            shard_min_work=shard_min_work,
        )
        self.config = config
        # ``incremental`` stays a direct engine parameter (differential
        # harnesses toggle it per instance); None defers to the config.
        incremental = config.incremental if incremental is None else incremental
        jobs = config.jobs
        batched = config.batched
        backend = config.backend
        shard_replay = config.shard_replay
        shard_min_work = (
            self.DEFAULT_SHARD_MIN_WORK
            if config.shard_min_work is None
            else config.shard_min_work
        )
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if jobs > 1 and not batched:
            raise ValueError("jobs > 1 requires the batched engine (batched=True)")
        if shard_min_work < 0:
            raise ValueError(
                f"shard_min_work must be >= 0, got {shard_min_work}"
            )
        self.cpds = cpds
        #: Requested replay backend knob (``auto``/``python``/``numpy``);
        #: a pure execution knob like ``jobs`` — never fingerprinted or
        #: snapshotted.  ``resolved_backend`` is what actually runs.
        self.backend = vectorized.validate_backend(backend)
        self._use_numpy = vectorized.resolve_backend(backend) == "numpy"
        self.max_states_per_context = max_states_per_context
        self.batched = batched
        #: Worker-process count for the parallel advance; 1 = in-process.
        self.jobs = jobs
        #: With ``jobs>1``: fan uncached view saturations out to the
        #: pool (False isolates replay sharding for benchmarking).
        self.parallel_saturation = parallel_saturation
        #: With ``jobs>1``: shard the member x edge tree replay across
        #: the pool too (False restores saturation-only parallelism).
        self.shard_replay = shard_replay
        #: Minimum member x edge products in a level before replay
        #: sharding pays for its IPC; smaller levels replay in-process.
        self.shard_min_work = shard_min_work
        self._pool = None
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
        (:class:`~repro.errors.ContextExplosionError`) mid-level, or a
        saturation worker dies (:class:`~repro.errors.CubaError`), every
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

    def _advance_batched(
        self, frontier: tuple[int, ...], level: int, fresh: list[int]
    ) -> None:
        """Shard the frontier by unique thread view, saturate each view
        once (in-process or across the worker pool), then replay the
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
        shards: dict[View, list[int]] = {}
        if (
            self._use_numpy
            and n * len(frontier) >= vectorized.NUMPY_MIN_WORK
            and vectorized.table_fits_int64(table)
            and vectorized.views_fit_int64(
                table, view_qid_shift, view_wid_shift
            )
        ):
            shards = vectorized.group_views(
                table, frontier, n, view_qid_shift, view_wid_shift
            )
        else:
            for sid in frontier:
                key = packed[sid]
                qbase = (key >> qshift) << view_qid_shift
                for index in threads:
                    shards.setdefault(
                        qbase
                        | (((key >> shifts[index]) & mask) << view_wid_shift)
                        | index,
                        [],
                    ).append(sid)
        METER.bump("explicit.level_views", n * len(frontier))
        METER.bump("explicit.level_unique_views", len(shards))
        if not shards:
            return
        trees = self._trees_for(list(shards))

        if self.jobs > 1 and self.shard_replay:
            work = sum(
                len(members) * len(trees[view].qids)
                for view, members in shards.items()
            )
            if work >= self.shard_min_work:
                self._replay_sharded(shards, trees, level, fresh)
                return

        if self._use_numpy:
            if vectorized.table_fits_int64(table):
                # Geometry is stable from here on: every tree saturated
                # in _trees_for, so replay interns no components and
                # cannot repack (the _replay_sharded invariant).
                bits = table._bits
                qshift = table._qshift
                low_mask = (1 << qshift) - 1
                entries = []
                total = 0
                for view, members in shards.items():
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
                    vectorized.replay_level(
                        table, entries, level, self._first_seen,
                        self._parents, fresh.append,
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
        for view, members in shards.items():
            tree = trees[view]
            if not len(tree.qids):
                continue  # the context reaches nothing beyond its root
            index = view & self._view_index_mask
            # Saturating later views grows the component pools, which
            # can repack the table — re-read the geometry per shard.
            # Within one shard's replay only global ids grow, and the
            # repack mutates dict/list objects in place, so these
            # references stay valid for the whole shard.
            bits = table._bits
            qshift = table._qshift
            packed = table._packed
            ids = table._ids
            states = table._states
            visibles = table._visibles
            low_mask = (1 << qshift) - 1
            move_clear = ~(table._mask << (bits * index))
            if parents is None:
                deltas = tree.deltas(table)
                for sid in members:
                    # ``StateTable.intern_key`` inlined on packed keys
                    # (see the coupling note there): this loop runs once
                    # per (member, tree edge) and the call overhead is
                    # the hot-path cost.
                    frozen = packed[sid] & low_mask & move_clear
                    for delta in deltas:
                        key = frozen | delta
                        nsid = ids.get(key)
                        if nsid is None:
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
                    by_pos = [sid]
                    record = by_pos.append
                    for delta, parent_pos, action in edge_rows:
                        key = frozen | delta
                        nsid = ids.get(key)
                        if nsid is None:
                            ids[key] = nsid = len(packed)
                            packed.append(key)
                            states.append(None)
                            visibles.append(None)
                            first_seen.append(level)
                            append_fresh(nsid)
                            parents[nsid] = (by_pos[parent_pos], index, action)
                        record(nsid)

    def _replay_sharded(
        self,
        shards: dict[View, list[int]],
        trees: dict[View, ContextTree],
        level: int,
        fresh: list[int],
    ) -> None:
        """Shard the member x edge replay across the worker pool.

        Every tree is already saturated (``_trees_for`` ran), so no
        component interning — and therefore no table repack — can happen
        during replay: the packing geometry read here stays valid for
        the whole level, and worker-computed candidate keys
        (``frozen | delta``) are directly internable by the parent.

        The merge pass consumes bucket results in submission order and
        dedupes through :meth:`StateTable.intern_packed`; freshness is
        the lock-step length test, exactly like the serial inlined loop.
        Worker rows are emitted parents-first within a bucket, so a
        tracked candidate's ``parent_key`` always resolves to an id by
        the time it is read (cross-shard successors resolve against the
        canonical table — a key another shard also produced simply stops
        being fresh).  A dead worker raises
        :class:`~repro.errors.CubaError` and ``advance`` rolls the
        partial level back, so the advance is re-runnable.
        """
        with trace.span(
            "explicit.replay_sharded", views=len(shards), jobs=self.jobs
        ):
            self._replay_sharded_impl(shards, trees, level, fresh)

    def _replay_sharded_impl(
        self,
        shards: dict[View, list[int]],
        trees: dict[View, ContextTree],
        level: int,
        fresh: list[int],
    ) -> None:
        table = self.table
        packed = table._packed
        bits = table._bits
        mask = table._mask
        qshift = table._qshift
        low_mask = (1 << qshift) - 1
        index_mask = self._view_index_mask
        track = self._parents is not None

        total = 0
        specs: list[tuple[View, list[int], int]] = []
        for view, members in shards.items():
            n_edges = len(trees[view].qids)
            if not n_edges:
                continue  # the context reaches nothing beyond its root
            total += len(members) * n_edges
            specs.append((view, members, n_edges))
        if not specs:
            return
        # Per-bucket work target; a view whose member range exceeds it
        # is split so one giant view cannot serialize the level.
        target = max(1, -(-total // self.jobs))
        units: list[tuple] = []
        unit_views: list[View] = []
        unit_work: list[int] = []
        for view, members, n_edges in specs:
            tree = trees[view]
            index = view & index_mask
            move_clear = ~(mask << (bits * index))
            deltas = list(tree.deltas(table))
            parent_pos = list(tree.parent_positions()) if track else None
            step = max(1, target // n_edges)
            for start in range(0, len(members), step):
                chunk = members[start:start + step]
                frozen = [packed[sid] & low_mask & move_clear for sid in chunk]
                member_keys = [packed[sid] for sid in chunk] if track else None
                units.append((frozen, member_keys, deltas, parent_pos))
                unit_views.append(view)
                unit_work.append(len(chunk) * n_edges)

        n_buckets = min(self.jobs, len(units))
        buckets: list[list] = [[] for _ in range(n_buckets)]
        bucket_views: list[list[View]] = [[] for _ in range(n_buckets)]
        loads = [0] * n_buckets
        # Deterministic greedy balance, heaviest units first.
        for position in sorted(
            range(len(units)), key=lambda u: (-unit_work[u], u)
        ):
            bucket = loads.index(min(loads))
            loads[bucket] += unit_work[position]
            buckets[bucket].append(units[position])
            bucket_views[bucket].append(unit_views[position])
        METER.bump("explicit.replay_shards", len(units))

        # Workers resolve the backend knob independently (a forked
        # worker sees the parent's numpy; a spawn-started one re-probes)
        # and re-check key widths per unit — mixed-width levels replay
        # each unit on whichever loop fits.
        results = self._lease().replay(buckets, track, backend=self.backend)

        first_seen = self._first_seen
        parents = self._parents
        intern_packed = table.intern_packed
        append_fresh = fresh.append
        if not track:
            for rows in results:
                for key in rows:
                    nsid = intern_packed(key)
                    if nsid == len(first_seen):
                        first_seen.append(level)
                        append_fresh(nsid)
            return
        ids = table._ids
        for views_of, rows in zip(bucket_views, results):
            for key, parent_key, unit_pos, edge_idx in rows:
                nsid = intern_packed(key)
                if nsid == len(first_seen):
                    first_seen.append(level)
                    append_fresh(nsid)
                    view = views_of[unit_pos]
                    parents[nsid] = (
                        ids[parent_key],
                        view & index_mask,
                        trees[view].actions[edge_idx],
                    )

    def _view_parts(self, view: View) -> tuple[int, int, int]:
        """Unpack a view key to ``(thread, shared_id, stack_id)``."""
        return (
            view & self._view_index_mask,
            view >> self._view_qid_shift,
            (view >> self._view_wid_shift) & _VIEW_WID_MASK,
        )

    def _trees_for(self, views: list[View]) -> dict[View, ContextTree]:
        """A context tree per view: cross-level cache hits first, then
        the misses saturated in-process (``jobs=1``) or fanned out to
        the worker pool — METER accounting is identical either way."""
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
        if not missing:
            return trees
        if self.jobs > 1 and self.parallel_saturation and len(missing) > 1:
            saturated = self._saturate_parallel(missing)
            METER.bump("explicit.expansions", len(missing))
            if cache is not None:
                METER.bump("explicit.context_cache_misses", len(missing))
                cache.update(saturated)
            trees.update(saturated)
        else:
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

    def _lease(self):
        """The engine's worker pool, (re-)leased from the shared cache
        when absent or broken (a crashed pool was evicted — the next
        lease spawns a fresh one, making failed advances re-runnable)."""
        from repro.reach.parallel import lease_pool

        if self._pool is None or self._pool.broken:
            self._pool = lease_pool(
                self.cpds, self.max_states_per_context, self.jobs
            )
        return self._pool

    def _saturate_parallel(
        self, missing: list[View]
    ) -> dict[View, ContextTree]:
        """Fan the uncached views out to the leased worker pool and
        remap the returned slice-local trees onto this table's ids (in
        submission order, so pool growth is deterministic)."""
        from repro.reach.parallel import remap_slice

        with trace.span(
            "explicit.saturation_fanout", views=len(missing), jobs=self.jobs
        ):
            return self._saturate_parallel_impl(missing, remap_slice)

    def _saturate_parallel_impl(
        self, missing: list[View], remap_slice
    ) -> dict[View, ContextTree]:
        pool = self._lease()
        table = self.table
        roots = [self._view_parts(view) for view in missing]
        decoded = [
            (index, table.shared(qid), table.stack(index, wid))
            for index, qid, wid in roots
        ]
        trees: dict[View, ContextTree] = {}
        for start, result in pool.saturate(decoded):
            for position, tree in enumerate(remap_slice(table, roots, start, result)):
                trees[missing[start + position]] = tree
        return trees

    def _advance_per_state(
        self, frontier: tuple[int, ...], level: int, fresh: list[int]
    ) -> None:
        """The seed formulation: one :func:`thread_context_post` call
        per (frontier state, thread) — the differential oracle."""
        table = self.table
        intern = table.intern
        state_of = table.state
        first_seen = self._first_seen
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
            "jobs": self.jobs,
            "shard_replay": self.shard_replay,
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
        jobs: int | None = None,
        shard_replay: bool | None = None,
        backend: str | None = None,
        max_states_per_context: int | None = None,
        config: EngineConfig | None = None,
    ) -> "ExplicitReach":
        """Rebuild a warm engine from a :meth:`snapshot` blob taken on
        the same CPDS.  ``jobs``, ``shard_replay`` and ``backend`` are
        pure execution knobs and may differ from the snapshotted
        engine's; raises :class:`~repro.errors.SnapshotError` on any
        undecodable or mismatched blob."""
        from repro.service.snapshot import restore_explicit

        config = merge_legacy_kwargs(
            config,
            "ExplicitReach.restore",
            jobs=jobs,
            shard_replay=shard_replay,
            backend=backend,
        )
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
