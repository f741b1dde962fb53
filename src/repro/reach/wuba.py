"""Write-unbounded analysis (WUBA): the observation sequence ``(Wk)``.

The upstream RUBA tool pairs CUBA's context-unbounded analysis with a
*write*-unbounded one: instead of bounding the number of scheduling
contexts, bound the number of **writes to the shared state** and let
each level close under write-free computation.  ``Wk`` is the set of
global states reachable with at most ``k`` shared-state writes, where a
write is any action with ``to_shared != from_shared``.

``(Wk)`` is an observation sequence in the paper's sense (Def. 1): it
is monotone, each level is effectively computable, and its union is the
full reachable set — every execution decomposes into write-free
segments separated by single writes.  Two facts make levels computable
on the existing PDS substrate:

* **Write-free closure factorizes.**  Between writes the shared state
  is pinned, so each thread's shared-preserving moves touch only its
  own stack and moves of different threads commute.  The write-free
  closure of ``⟨q|w1,...,wn⟩`` is exactly the per-thread product of the
  local closures :func:`~repro.cpds.semantics.thread_write_free_post` —
  no interleaving enumeration.
* **Frontier expansion is exact.**  States are inserted closure-first:
  whenever a state enters the level set, its entire write-free closure
  enters with it (and the closure of a closure member is contained in
  the closure itself, write-free reachability being transitive).  So
  advancing only needs to fire *writing* actions from the newest
  level's states; older states were expanded when they were new.

Each level is kept as a tuple in discovery order: closures come back
in BFS order and the frontier is walked in that order, so which
written states are closed — and hence the ``wuba.expansions`` /
``wuba.closure_cache_hits`` counts — never depends on hash order.

Two cross-level memos keep the per-state work to dict hits, both keyed
by a thread view ``(thread, shared, stack)``: the write-free closure of
the view, and its *writing* moves ``(to_shared, stack)`` in successor
order.  A view recurs in many global states (on FileCrawler [1•+2],
22,797 lookups hit 817 distinct views), so each view's successors are
enumerated once; the scan itself stays state-major, which keeps the
discovery order and every ``wuba.*`` counter of a memo-free scan.
Both memos are caches and are not persisted.

Consequently a plateau of ``(Wk)`` is a genuine fixpoint: an empty
level means no frontier, and the cumulative set is closed under both
write-free moves and writes — it *is* the reachable set, so the plain
Scheme 1 plateau test is sound for this lane.  Its levels count writes,
not contexts, so Thm. 11's generator test does not apply
(``generator_test`` stays False).

Termination of each level requires finite write-free closures (WCR) —
the lane's :meth:`~WubaReach.applicable` precondition, checked like FCR
via per-thread shallow-configuration finiteness on the write-free
sub-PDS, and guarded at runtime by
:class:`~repro.errors.ContextExplosionError`.
"""

from __future__ import annotations

import itertools
from array import array

from repro.cpds.cpds import CPDS
from repro.cpds.semantics import thread_write_free_post
from repro.cpds.state import GlobalState
from repro.errors import ContextExplosionError, SnapshotError
from repro.pds.pds import PDS
from repro.pds.semantics import DEFAULT_STATE_LIMIT, successors as pds_successors
from repro.pds.state import PDSState
from repro.reach.base import ReachabilityEngine
from repro.reach.registry import register
from repro.reach.snapshot import KIND_WUBA, _encode, reading
from repro.util.meter import METER


def write_free_sub_pds(pds: PDS) -> PDS:
    """The thread's dynamics restricted to shared-preserving actions —
    what a thread can do between two writes, under *any* fixed shared
    state the environment leaves it in."""
    return pds.filtered(
        lambda action: action.to_shared == action.from_shared,
        name=f"{pds.name or 'pds'}-write-free",
    )


@register
class WubaReach(ReachabilityEngine):
    """Level-by-level driver for ``(Wk)`` and ``(T(Wk))`` over plain
    :class:`~repro.cpds.state.GlobalState` sets (see module docstring)."""

    lane = "wuba"
    sequence_name = "Wk"
    snapshot_kind = KIND_WUBA
    meter_prefix = "wuba."
    supports_witness = False

    def __init__(
        self,
        cpds: CPDS,
        max_states_per_context: int = DEFAULT_STATE_LIMIT,
    ) -> None:
        super().__init__()
        self.cpds = cpds
        self.max_states_per_context = max_states_per_context
        #: ``levels[k]`` = global states first reached with k writes, in
        #: discovery order.
        self.levels: list[tuple[GlobalState, ...]] = []
        self._seen: set[GlobalState] = set()
        #: Local-closure memo keyed ``(thread, shared, stack)`` — one
        #: closure per unique local view, however many global states
        #: and levels share it.
        self._closure_memo: dict[tuple, tuple] = {}
        #: Write memo keyed the same way: the view's writing moves as
        #: ``(to_shared, stack)`` pairs, in successor order.
        self._write_memo: dict[tuple, tuple] = {}
        self._commit(self._close(cpds.initial_state()))

    # ------------------------------------------------------------------
    # Level mechanics
    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        """Compute ``W(k+1)``; True iff it strictly grows ``Wk``.

        Exception-safe: the level is built aside and committed last, so
        a divergence guard tripping mid-level
        (:class:`~repro.errors.ContextExplosionError`) leaves the
        committed levels consistent."""
        frontier = self.levels[-1]
        seen = self._seen
        fresh: dict[GlobalState, None] = {}
        writes = 0
        writes_of = self._writes
        n = self.cpds.n_threads
        for state in frontier:
            shared = state.shared
            stacks = state.stacks
            for index in range(n):
                moves = writes_of(index, shared, stacks[index])
                writes += len(moves)
                for to_shared, stack in moves:
                    written = GlobalState(
                        to_shared, stacks[:index] + (stack,) + stacks[index + 1 :]
                    )
                    if written in seen or written in fresh:
                        continue
                    for closed in self._close(written):
                        if closed not in seen:
                            fresh[closed] = None
        METER.bump("wuba.level_writes", writes)
        self._commit(tuple(fresh))
        return bool(fresh)

    def _close(self, state: GlobalState) -> tuple[GlobalState, ...]:
        """Write-free closure of ``state`` as the per-thread product of
        local closures (the factorization in the module docstring)."""
        per_thread = [
            self._local_closure(index, state.shared, state.stacks[index])
            for index in range(self.cpds.n_threads)
        ]
        product_size = 1
        for stacks in per_thread:
            product_size *= len(stacks)
        if product_size > self.max_states_per_context:
            raise ContextExplosionError(
                f"write-free closure of {state} has {product_size} states, "
                f"exceeding {self.max_states_per_context}",
                states_seen=product_size,
            )
        return tuple(
            GlobalState(state.shared, stacks)
            for stacks in itertools.product(*per_thread)
        )

    def _writes(self, index: int, shared, stack: tuple) -> tuple:
        """The writing moves of thread ``index`` from ``⟨shared|stack⟩``
        as ``(to_shared, stack)`` pairs, in successor order (memoized;
        write-free moves are in the closure already)."""
        key = (index, shared, stack)
        moves = self._write_memo.get(key)
        if moves is None:
            moves = self._write_memo[key] = tuple(
                (local_next.shared, local_next.stack)
                for action, local_next in pds_successors(
                    self.cpds.thread(index), PDSState(shared, stack)
                )
                if action.to_shared != shared
            )
        return moves

    def _local_closure(self, index: int, shared, stack: tuple) -> tuple:
        key = (index, shared, stack)
        cached = self._closure_memo.get(key)
        if cached is not None:
            METER.bump("wuba.closure_cache_hits")
            return cached
        closure = self._closure_memo[key] = thread_write_free_post(
            self.cpds.thread(index),
            shared,
            stack,
            max_states=self.max_states_per_context,
            index=index,
        )
        return closure

    def _commit(self, level: tuple[GlobalState, ...]) -> None:
        self.levels.append(level)
        self._seen.update(level)
        self._record_visible((state.shared, state.tops()) for state in level)

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def states_up_to(self, k: int | None = None) -> frozenset[GlobalState]:
        """``Wk`` (default: the latest computed bound)."""
        if k is None:
            k = self.k
        k = min(k, self.k)
        result: set[GlobalState] = set()
        for level in self.levels[: k + 1]:
            result.update(level)
        return frozenset(result)

    def states_new_at(self, k: int) -> frozenset[GlobalState]:
        """``Wk \\ Wk−1``."""
        if 0 <= k < len(self.levels):
            return frozenset(self.levels[k])
        return frozenset()

    def plateaued_at(self, k: int) -> bool:
        """True iff ``Wk−1 = Wk`` — a fixpoint, hence a collapse (see
        module docstring), making Scheme 1 sound for this lane."""
        return k >= 1 and k <= self.k and not self.levels[k]

    def stats(self) -> dict:
        return {
            "global_states": len(self._seen),
            "levels": [len(level) for level in self.levels],
            "closure_memo": len(self._closure_memo),
            "write_memo": len(self._write_memo),
        }

    # ------------------------------------------------------------------
    # Checkpoint / resume (the payload of a ``CUSN`` frame, see
    # :mod:`repro.reach.snapshot`)
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Checkpoint the committed ``(Wk)`` levels as a kind-3 blob:
        each level in discovery order as ``(shared, stack-ids...)`` rows
        against a pool of distinct per-thread stacks, plus the guard.
        The closure and write memos are pure semantic caches, rebuilt
        on demand, so they are not persisted."""
        stack_ids: dict = {}
        stack_pool: list = []

        def stack_idx(stack) -> int:
            idx = stack_ids.get(stack)
            if idx is None:
                idx = stack_ids[stack] = len(stack_pool)
                stack_pool.append(stack)
            return idx

        shared_rows: list = []
        stack_rows = array("q")
        for level in self.levels:
            for state in level:
                shared_rows.append(state.shared)
                stack_rows.extend(stack_idx(stack) for stack in state.stacks)

        return _encode(
            KIND_WUBA,
            {
                "n_threads": self.cpds.n_threads,
                "max_states_per_context": self.max_states_per_context,
                "stack_pool": stack_pool,
                "level_lens": array("q", map(len, self.levels)),
                "shared_rows": shared_rows,
                "stack_rows": stack_rows,
            },
        )

    @classmethod
    def restore(
        cls,
        cpds: CPDS,
        blob: bytes,
        *,
        max_states_per_context: int | None = None,
    ) -> "WubaReach":
        """Rebuild a warm engine from a :meth:`snapshot` blob taken on
        ``cpds``; ``max_states_per_context`` defaults to the snapshotted
        guard.  Raises :class:`~repro.errors.SnapshotError` on any
        undecodable or mismatched blob (level 0 must be this CPDS's
        write-free initial closure, in discovery order)."""
        with reading(cls, cpds, blob) as payload:
            n = cpds.n_threads
            engine = cls(
                cpds,
                max_states_per_context=(
                    payload["max_states_per_context"]
                    if max_states_per_context is None
                    else max_states_per_context
                ),
            )
            stack_pool = payload["stack_pool"]
            shared_rows = payload["shared_rows"]
            stack_rows = payload["stack_rows"]
            levels: list[tuple] = []
            state_index = 0
            for length in payload["level_lens"]:
                bucket = []
                for _ in range(length):
                    cursor = n * state_index
                    stacks = tuple(stack_pool[i] for i in stack_rows[cursor : cursor + n])
                    bucket.append(GlobalState(shared_rows[state_index], stacks))
                    state_index += 1
                levels.append(tuple(bucket))
            if not levels or levels[0] != engine.levels[0]:
                raise SnapshotError("snapshot does not belong to this CPDS")
            engine.levels = levels
            engine._seen = set().union(*levels)
            engine._clear_visible()
            for level in levels:
                engine._record_visible(
                    (state.shared, state.tops()) for state in level
                )
            return engine

    # ------------------------------------------------------------------
    # Lane contract
    # ------------------------------------------------------------------
    @classmethod
    def applicable(cls, cpds: CPDS, prop=None) -> bool:
        """WCR — every thread's write-free closures must be finite,
        checked like FCR via shallow-configuration finiteness on the
        write-free sub-PDS (sound for closures from arbitrary stacks by
        the same fresh-top decomposition as Thm. 17)."""
        from repro.pds.saturation import shallow_configs_psa

        return all(
            shallow_configs_psa(write_free_sub_pds(pds)).language_is_finite()
            for pds in cpds.threads
        )
