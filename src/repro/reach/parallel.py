"""Multiprocess saturation AND replay of unique thread views (``jobs=N``).

The sharded explicit engine saturates every unique
``(thread, shared, local-stack)`` view of a frontier level exactly once
(:func:`~repro.cpds.semantics.thread_view_post`).  Those saturations are
embarrassingly parallel — a context depends only on the moving thread's
local view, never on the rest of the product — so with ``jobs=N`` the
engine fans the level's uncached views out to a pool of worker
processes.  Since PR 6 the *replay* of the saturated trees across the
level's members is sharded across the same pool too
(:meth:`ViewSaturationPool.replay`): each worker replays its slice of
the CSR context trees by pure integer arithmetic against a private seen
set, and the parent merge pass resolves cross-shard successors and
dedupes the candidate keys into the canonical
:class:`~repro.cpds.interning.StateTable`
(:meth:`~repro.cpds.interning.StateTable.intern_packed`) — extending
``jobs=N`` from saturation-only to the whole explicit advance.

Protocol
--------
* A :class:`ViewSaturationPool` owns a ``ProcessPoolExecutor`` whose
  workers are *pre-registered* with the CPDS and the divergence guard at
  initialization (fork start method where available, so registration is
  a cheap address-space copy).  Pools are leased from a small keyed
  cache (:func:`lease_pool`) so repeated runs over the same CPDS reuse
  warm workers; :func:`pool_cache_clear` shuts everything down — the
  benchmark runner calls it between repetitions to preserve the
  cold-run contract.
* The parent decodes each uncached view to plain
  ``(thread, shared, stack)`` values and sends one contiguous slice per
  worker.  Each worker saturates its slice against a private
  :class:`~repro.cpds.interning.StateTable` and returns flat
  array-encoded trees plus the slice-local id pools they index into.
* The parent re-interns the returned pool values into its own table
  (append-only growth — ids stay worker-stable because slices are
  remapped in submission order, independent of scheduling) and rewrites
  the tree columns to parent ids.  From there the trees are
  indistinguishable from locally saturated ones.

Failure modes
-------------
A worker that trips the divergence guard re-raises
:class:`~repro.errors.ContextExplosionError` in the parent, exactly like
the serial path (the engine's level rollback applies).  A worker that
*dies* (OOM-killed, segfault) surfaces as a clean
:class:`~repro.errors.CubaError`; the broken pool is evicted from the
cache so the next run leases a fresh one.
"""

from __future__ import annotations

import multiprocessing
from array import array
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.cpds.cpds import CPDS
from repro.cpds.interning import StateTable
from repro.cpds.semantics import ContextTree, thread_view_post
from repro.errors import CubaError

#: Decoded view sent to a worker: ``(thread, shared, stack word)``.
DecodedView = tuple[int, object, tuple]


@dataclass(slots=True)
class SliceResult:
    """One worker slice's saturated trees, id-encoded against the
    slice-local pools carried alongside."""

    #: Per view, in slice order: ``(thread, offsets, qids, wids, actions)``.
    trees: list[tuple]
    #: Slice-local shared-state pool (local qid -> value).
    shareds: list
    #: Slice-local per-thread stack pools (thread -> local wid -> word).
    stacks: dict[int, list[tuple]]


# Worker-side state, installed once per process by the pool initializer.
_WORKER_CPDS: CPDS | None = None
_WORKER_MAX_STATES: int = 0


def _init_worker(cpds: CPDS, max_states: int) -> None:
    global _WORKER_CPDS, _WORKER_MAX_STATES
    _WORKER_CPDS = cpds
    _WORKER_MAX_STATES = max_states


_WORKER_SUCC_MEMOS: tuple[dict, ...] = ()


def _saturate_slice(views: list[DecodedView]) -> SliceResult:
    """Worker entry point: saturate a slice of views against a private
    table and ship the trees with their slice-local pools.  The
    semantic successor memo persists worker-side across slices and
    levels (pure semantic facts — never stale); the id-bearing memo is
    rebuilt per slice because it embeds intern ids of the slice-private
    table (see ``thread_view_post``)."""
    global _WORKER_SUCC_MEMOS
    cpds = _WORKER_CPDS
    if len(_WORKER_SUCC_MEMOS) != cpds.n_threads:
        _WORKER_SUCC_MEMOS = tuple({} for _ in range(cpds.n_threads))
    table = StateTable(cpds.n_threads)
    slice_memos = tuple({} for _ in range(cpds.n_threads))
    trees: list[tuple] = []
    for index, shared, stack in views:
        qid = table.shared_id(shared)
        wid = table.stack_id(index, stack)
        tree = thread_view_post(
            cpds, table, index, qid, wid, _WORKER_MAX_STATES,
            succ_memo=slice_memos[index],
            sem_memo=_WORKER_SUCC_MEMOS[index],
            # Only the raw columns cross the process boundary; the
            # parent rebuilds replay rows lazily against its own ids.
            build_rows=False,
        )
        trees.append((tree.thread, tree.offsets, tree.qids, tree.wids, tree.actions))
    return SliceResult(
        trees=trees,
        shareds=table._shareds,
        stacks={index: table._stacks[index] for index in range(cpds.n_threads)},
    )


def _mp_context():
    """Fork where the platform offers it (cheap worker start, no
    re-import), the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


#: One replay work unit shipped to a worker: ``(frozen_keys,
#: member_keys_or_None, deltas, parent_positions_or_None)``.  All four
#: are plain Python int lists — packed keys can exceed 64 bits at high
#: thread counts, so no ``array('q')`` on this path.
ReplayUnit = tuple[list, list | None, list, list | None]


def _replay_bucket(payload: tuple[bool, str, list[ReplayUnit]]):
    """Worker entry point: replay a bucket of ``(view, member-slice)``
    units by pure integer arithmetic against a private seen set.

    Each member contributes ``frozen | delta`` candidate keys, one per
    tree edge — exactly the serial inner loop of
    ``ExplicitReach._advance_batched``, minus the canonical table.  The
    bucket-wide seen set pre-dedupes candidates; cross-bucket (and
    cross-level) dedup is the parent merge pass's job.

    ``backend`` is the engine's requested knob; the worker resolves it
    against its *own* numpy availability and re-checks per unit whether
    the keys fit int64 (:func:`repro.reach.vectorized.unit_fits`), so a
    mixed-width level replays each unit on whichever loop applies —
    the vectorized path emits the same row formats, including the
    parents-first tracked ordering.

    Returns one row list per unit, in unit order; each list holds the
    unit's candidates in replay (member, edge) order, minus those an
    earlier unit of the bucket already emitted:

    * untracked: candidate packed keys;
    * tracked: ``(key, parent_key, edge_idx)`` rows, where
      ``parent_key`` is the packed key of the candidate's predecessor in
      the member's replay chain (position 0 = the member itself).  Rows
      are emitted parents-first, so the parent merge can resolve
      ``parent_key`` to an id before any child that references it.
    """
    track, backend, units = payload
    vec = None
    if backend != "python":
        from repro.reach import vectorized

        if vectorized.numpy_available():
            vec = vectorized
    seen: set[int] = set()
    add = seen.add
    out: list = []
    for frozen_keys, member_keys, deltas, parent_pos in units:
        unit_out: list = []
        out.append(unit_out)
        append = unit_out.append
        if not track:
            if vec is not None and vec.unit_fits(frozen_keys, deltas):
                vec.replay_unit_untracked(frozen_keys, deltas, seen, unit_out)
                continue
            for frozen in frozen_keys:
                for delta in deltas:
                    key = frozen | delta
                    if key not in seen:
                        add(key)
                        append(key)
            continue
        if vec is not None and vec.unit_fits(frozen_keys, deltas):
            vec.replay_unit_tracked(
                frozen_keys, member_keys, deltas, parent_pos, seen, unit_out
            )
            continue
        edges = list(zip(deltas, parent_pos))
        for frozen, member_key in zip(frozen_keys, member_keys):
            keys_by_pos = [member_key]
            record = keys_by_pos.append
            for edge_idx, (delta, ppos) in enumerate(edges):
                key = frozen | delta
                if key not in seen:
                    add(key)
                    append((key, keys_by_pos[ppos], edge_idx))
                record(key)
    return out


class ViewSaturationPool:
    """A leased pool of pre-registered saturation workers for one CPDS."""

    def __init__(self, cpds: CPDS, max_states: int, jobs: int) -> None:
        if jobs < 2:
            raise ValueError(f"a saturation pool needs jobs >= 2, got {jobs}")
        #: Strong reference: keeps the cache key's ``id(cpds)`` stable
        #: for as long as this pool is leased.
        self.cpds = cpds
        self.max_states = max_states
        self.jobs = jobs
        self.broken = False
        self._executor = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=_mp_context(),
            initializer=_init_worker,
            initargs=(cpds, max_states),
        )

    def _submit_ordered(self, fn, payloads: list, what: str) -> list:
        """Submit one future per payload and collect results in
        submission order, mapping infrastructure failures to a clean
        :class:`CubaError` (and evicting this pool from the cache)."""
        futures: list = []
        results: list = []
        try:
            for payload in payloads:
                futures.append(self._executor.submit(fn, payload))
            for future in futures:
                results.append(future.result())
        except (BrokenProcessPool, OSError) as crash:
            # BrokenProcessPool can surface at submit time (the executor
            # noticed the dead worker first) or from result().
            self.broken = True
            _evict(self)
            raise CubaError(
                f"parallel {what} failed: a worker process died "
                f"({crash.__class__.__name__}: {crash}); the partial level "
                f"was rolled back — rerun, or fall back to jobs=1"
            ) from crash
        except RuntimeError as crash:
            # A concurrently shut-down executor raises
            # RuntimeError("cannot schedule new futures after ...") at
            # submit time; a RuntimeError raised *inside* a healthy
            # worker re-raises verbatim instead — it is an application
            # bug, not an infrastructure failure.
            if "shutdown" not in str(crash) and "interpreter" not in str(crash):
                raise
            self.broken = True
            _evict(self)
            raise CubaError(
                f"parallel {what} failed: the worker pool was shut "
                f"down mid-level ({crash}); the partial level was rolled "
                f"back — rerun, or fall back to jobs=1"
            ) from crash
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return results

    def saturate(self, views: list[DecodedView]) -> list[tuple[int, SliceResult]]:
        """Saturate ``views`` across the workers; return
        ``(slice start offset, SliceResult)`` pairs in submission order.

        Raises :class:`~repro.errors.ContextExplosionError` when a view
        diverges (same as the serial path) and :class:`CubaError` when a
        worker process dies.
        """
        per_slice = max(1, -(-len(views) // self.jobs))  # ceil division
        starts = list(range(0, len(views), per_slice))
        slices = [views[start:start + per_slice] for start in starts]
        results = self._submit_ordered(_saturate_slice, slices, "view saturation")
        return list(zip(starts, results))

    def replay(
        self,
        buckets: list[list[ReplayUnit]],
        track: bool,
        backend: str = "python",
    ) -> list:
        """Replay the level's sharded work units across the workers;
        return one result list per bucket, in submission order (see
        :func:`_replay_bucket` for the row formats and how each worker
        resolves the ``backend`` knob independently).

        Raises :class:`CubaError` when a worker process dies — the
        engine's level rollback makes the advance re-runnable.
        """
        payloads = [(track, backend, bucket) for bucket in buckets]
        return self._submit_ordered(_replay_bucket, payloads, "sharded replay")

    def close(self) -> None:
        """Shut the executor down.  Marks the pool broken so an engine
        still holding a reference (LRU eviction, ``pool_cache_clear``
        mid-run) re-leases a fresh pool instead of submitting to a
        closed executor."""
        self.broken = True
        self._executor.shutdown(wait=True, cancel_futures=True)


def remap_slice(
    table: StateTable,
    roots: list[tuple[int, int, int]],
    start: int,
    result: SliceResult,
) -> list[ContextTree]:
    """Re-intern one slice's pools into ``table`` and rewrite its trees
    to parent ids.  ``roots`` holds the full fan-out's
    ``(thread, qid, wid)`` view triples (parent ids); the returned trees
    align with ``roots[start:start + len(result.trees)]``."""
    shared_map = [table.shared_id(value) for value in result.shareds]
    stack_maps = {
        index: [table.stack_id(index, word) for word in words]
        for index, words in result.stacks.items()
    }
    remapped: list[ContextTree] = []
    for position, (thread, offsets, qids, wids, actions) in enumerate(result.trees):
        _thread, root_qid, root_wid = roots[start + position]
        stack_map = stack_maps[thread]
        remapped.append(
            ContextTree(
                thread,
                root_qid,
                root_wid,
                offsets,
                array("q", (shared_map[qid] for qid in qids)),
                array("q", (stack_map[wid] for wid in wids)),
                actions,
            )
        )
    return remapped


# ----------------------------------------------------------------------
# Pool cache (the worker pre-registration cache)
# ----------------------------------------------------------------------
#: Leased pools keyed by ``(id(cpds), max_states, jobs)``.  Each entry
#: holds a strong reference to its CPDS, so the id-based key cannot be
#: recycled while the entry lives.  Bounded LRU: evicted pools are shut
#: down, capping the number of resident worker processes.
_POOL_CACHE: OrderedDict[tuple[int, int, int], ViewSaturationPool] = OrderedDict()
_POOL_CACHE_LIMIT = 4


def lease_pool(cpds: CPDS, max_states: int, jobs: int) -> ViewSaturationPool:
    """A warm pool for ``cpds`` (reused across engines and runs), newly
    spawned and pre-registered on first lease."""
    key = (id(cpds), max_states, jobs)
    pool = _POOL_CACHE.get(key)
    if pool is not None:
        if pool.cpds is cpds and not pool.broken:
            _POOL_CACHE.move_to_end(key)
            return pool
        del _POOL_CACHE[key]
        pool.close()
    pool = ViewSaturationPool(cpds, max_states, jobs)
    _POOL_CACHE[key] = pool
    while len(_POOL_CACHE) > _POOL_CACHE_LIMIT:
        _key, evicted = _POOL_CACHE.popitem(last=False)
        evicted.close()
    return pool


def _evict(pool: ViewSaturationPool) -> None:
    for key, cached in list(_POOL_CACHE.items()):
        if cached is pool:
            del _POOL_CACHE[key]
    pool.close()


def pool_cache_clear() -> None:
    """Shut down every leased pool (benchmark cold-run contract; test
    isolation)."""
    while _POOL_CACHE:
        _key, pool = _POOL_CACHE.popitem()
        pool.close()
