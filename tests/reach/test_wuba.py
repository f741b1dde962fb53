"""WUBA lane tests: the ``(Wk)`` levels against a naive write-counting
oracle, the WCR precondition, and the fixpoint property.

The oracle is a 0/1-BFS over :func:`repro.cpds.global_successors` with
weight 1 exactly on the *writing* actions (``to_shared != from_shared``)
— a direct transcription of the ``Wk`` definition with none of the
engine's factorized-closure machinery, so agreement proves the
commuting-closure decomposition, not just the code against itself.
"""

import json
import os
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import pytest

from repro.cpds.semantics import global_successors, thread_write_free_post
from repro.cuba.lanes import run_lane
from repro.core.property import AlwaysSafe, SharedStateReachability
from repro.core.result import Verdict
from repro.errors import ContextExplosionError
from repro.models import fig1_cpds, fig2_cpds
from repro.models.random_gen import RandomSpec, random_cpds
from repro.models.registry import smallest_per_row
from repro.pds import PDS
from repro.reach.wuba import WubaReach, write_free_sub_pds


def oracle_levels(cpds, max_writes: int, cap: int = 200_000):
    """``W0..Wk`` by 0/1-BFS: ``dist[state]`` = min #writes to reach it
    (write-free edges cost 0 via appendleft, writes cost 1)."""
    start = cpds.initial_state()
    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        # Re-queued states re-expand with their best-known distance —
        # wasteful but sound, and every improvement re-enqueues.
        d = dist[state]
        for _thread, action, nxt in global_successors(cpds, state):
            weight = 1 if action.to_shared != state.shared else 0
            nd = d + weight
            if nd > max_writes or dist.get(nxt, nd + 1) <= nd:
                continue
            dist[nxt] = nd
            if weight:
                queue.append(nxt)
            else:
                queue.appendleft(nxt)
            assert len(dist) <= cap, "oracle exploded"
    levels = [set() for _ in range(max_writes + 1)]
    for state, d in dist.items():
        levels[d].add(state)
    return [frozenset(level) for level in levels]


def level_sets(engine, depth: int):
    """``W0..Wdepth`` of ``engine`` as sets (the engine keeps each level
    as a tuple in discovery order)."""
    engine.ensure_level(depth)
    return [engine.states_new_at(k) for k in range(depth + 1)]


def wuba_applicable_rows():
    rows = []
    for bench in smallest_per_row():
        cpds, prop = bench.build()
        if WubaReach.applicable(cpds, prop):
            rows.append(pytest.param(cpds, id=bench.name))
    return rows


class TestAgainstOracle:
    def test_fig1_levels_match(self):
        cpds = fig1_cpds()
        assert level_sets(WubaReach(cpds), 6) == oracle_levels(cpds, 6)

    @pytest.mark.parametrize("cpds", wuba_applicable_rows())
    def test_registry_rows_match(self, cpds):
        depth = 5
        assert level_sets(WubaReach(cpds), depth) == oracle_levels(cpds, depth)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_models_match(self, seed):
        cpds = random_cpds(seed, RandomSpec(rules_per_thread=5, push_bias=0.2))
        if not WubaReach.applicable(cpds):
            pytest.skip("random model violates WCR")
        assert level_sets(WubaReach(cpds), 4) == oracle_levels(cpds, 4)

    def test_incremental_memo_is_pure(self):
        """The closure memo only decides whether a closure is recomputed:
        a warm engine equals, in order, one restored from its level-2
        snapshot, whose memo holds only the initial state's closures."""
        cpds = fig1_cpds()
        warm = WubaReach(cpds)
        warm.ensure_level(2)
        cold = WubaReach.restore(cpds, warm.snapshot())
        assert len(cold._closure_memo) == cpds.n_threads
        assert len(warm._closure_memo) > cpds.n_threads
        warm.ensure_level(5)
        cold.ensure_level(5)
        assert warm.levels == cold.levels


class TestFixpoint:
    """A ``(Wk)`` plateau is the full reachable set — cross-validated
    against the explicit engine's independent ``(Rk)`` fixpoint."""

    @pytest.mark.parametrize("cpds", wuba_applicable_rows())
    def test_plateau_equals_explicit_reachable_set(self, cpds):
        from repro.cuba.fcr import check_fcr
        from repro.reach.explicit import ExplicitReach

        if not check_fcr(cpds).holds:
            pytest.skip("explicit engine needs FCR")
        wuba = WubaReach(cpds)
        for _ in range(40):
            if not wuba.advance():
                break
        else:
            pytest.skip("no Wk plateau within 40 writes")
        explicit = ExplicitReach(cpds, track_traces=False)
        for _ in range(60):
            explicit.advance()
            if explicit.plateaued_at(explicit.k):
                break
        else:
            pytest.skip("no Rk plateau within 60 contexts")
        reachable = set()
        for k in range(explicit.k + 1):
            reachable |= explicit.states_new_at(k)
        assert wuba.states_up_to() == frozenset(reachable)

    def test_plateau_is_sticky(self):
        engine = WubaReach(fig1_cpds())
        engine.ensure_level(3)
        # fig1 never plateaus (stacks grow forever) — check the inverse.
        assert not engine.plateaued_at(3)


class TestApplicability:
    def test_fig1_satisfies_wcr(self):
        assert WubaReach.applicable(fig1_cpds())

    def test_fig2_violates_wcr(self):
        # Fig. 2's write-free loop pushes unboundedly: closures are
        # infinite, the lane must refuse up front.
        assert not WubaReach.applicable(fig2_cpds())

    def test_write_free_sub_pds_keeps_only_preserving_actions(self):
        pds = fig1_cpds().thread(0)
        sub = write_free_sub_pds(pds)
        assert all(a.to_shared == a.from_shared for a in sub.actions)
        kept = sum(1 for a in pds.actions if a.to_shared == a.from_shared)
        assert len(tuple(sub.actions)) == kept

    def test_write_free_sub_pds_keeps_sets_and_trigger_order(self):
        """One bulk ``add_actions`` call builds what one ``add_action``
        per kept action did: the same actions, ``Q``, ``Σ`` and
        trigger-index tuples, in the same order."""
        for bench in smallest_per_row():
            cpds, _prop = bench.build()
            for pds in cpds.threads:
                sub = write_free_sub_pds(pds)
                oracle = PDS(
                    pds.initial_shared,
                    shared_states=pds.shared_states,
                    alphabet=pds.alphabet,
                )
                for action in pds.actions:
                    if action.to_shared == action.from_shared:
                        oracle.add_action(action)
                assert sub.actions == oracle.actions
                assert sub.shared_states == oracle.shared_states
                assert sub.alphabet == oracle.alphabet
                assert list(sub.trigger_index().items()) == list(
                    oracle.trigger_index().items()
                )

    def test_thread_write_free_post_pins_shared(self):
        cpds = fig1_cpds()
        state = cpds.initial_state()
        closure = thread_write_free_post(
            cpds.thread(0), state.shared, state.stacks[0]
        )
        assert state.stacks[0] in closure  # reflexive

    def test_direct_construction_on_non_wcr_row_raises_at_once(self):
        # K-Induction pumps its stack write-free.  Built directly (no
        # applicability check), the lane must stop on the height guard
        # within a few stacks, not near the state-count guard after
        # allocating quadratic memory in the pumped height.
        bench = next(b for b in smallest_per_row() if b.row == "6/K-Induction")
        cpds, prop = bench.build()
        assert not WubaReach.applicable(cpds, prop)
        start = time.perf_counter()
        with pytest.raises(ContextExplosionError, match="pumps"):
            WubaReach(cpds).ensure_level(3)
        assert time.perf_counter() - start < 1.0


class TestVerdicts:
    def test_unsafe_shared_state_found_at_minimal_write_bound(self):
        result = run_lane(
            "wuba", fig1_cpds(), SharedStateReachability({3}), max_rounds=10
        )
        assert result.verdict is Verdict.UNSAFE
        assert result.bound == 3
        assert result.method == "scheme1(Wk)"

    def test_unknown_when_no_plateau(self):
        result = run_lane("wuba", fig1_cpds(), AlwaysSafe(), max_rounds=8)
        assert result.verdict is Verdict.UNKNOWN

    def test_safe_on_plateauing_model(self):
        for bench in smallest_per_row():
            cpds, prop = bench.build()
            if bench.row.startswith("9/"):
                result = run_lane("wuba", cpds, prop, max_rounds=30)
                assert result.verdict is Verdict.SAFE
                assert "collapse" in result.message
                return
        pytest.fail("Dekker row missing from registry")


#: Per WCR row of ``smallest_per_row()``: the lane run's closure
#: counters; an engine advanced to k=3, snapshotted (blob written to
#: ``out``) and advanced on to k=6 uninterrupted; and, when ``resume``
#: names a blob directory, that directory's k=3 blob restored and
#: resumed to k=6.  Levels are digested in their stored order.
_SEED_SCRIPT = """
import hashlib, json, sys
from pathlib import Path
from repro.cuba.lanes import run_lane
from repro.models.registry import smallest_per_row
from repro.reach.wuba import WubaReach
from repro.util.meter import scoped

out, resume = Path(sys.argv[1]), sys.argv[2:]

def digest(engine):
    return hashlib.sha256(repr(engine.levels).encode()).hexdigest()

def segment(engine, k):
    with scoped() as work:
        engine.ensure_level(k)
    return [work.get("wuba.expansions", 0), work.get("wuba.closure_cache_hits", 0)]

rows = {}
for index, bench in enumerate(smallest_per_row()):
    cpds, prop = bench.build()
    if not WubaReach.applicable(cpds, prop):
        continue
    row = rows[bench.name] = {}
    with scoped() as work:
        run_lane("wuba", cpds, prop, max_rounds=bench.max_rounds)
    row["lane"] = [work.get("wuba.expansions", 0), work.get("wuba.closure_cache_hits", 0)]
    engine = WubaReach(cpds)
    engine.ensure_level(3)
    (out / f"{index}.blob").write_bytes(engine.snapshot())
    row["uninterrupted"] = segment(engine, 6)
    row["levels"] = digest(engine)
    if resume:
        restored = WubaReach.restore(cpds, (Path(resume[0]) / f"{index}.blob").read_bytes())
        row["resumed"] = segment(restored, 6)
        row["resumed_levels"] = digest(restored)
print(json.dumps(rows))
"""


def _seed_run(hash_seed: str, out: Path, resume: Path | None = None) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    out.mkdir()
    argv = [sys.executable, "-c", _SEED_SCRIPT, str(out)]
    if resume is not None:
        argv.append(str(resume))
    done = subprocess.run(
        argv, env=env, capture_output=True, text=True, check=True, timeout=300
    )
    return json.loads(done.stdout)


class TestHashSeedIndependence:
    """Levels are built in discovery order, so which written states get
    closed — and the closure counters — never depend on ``str`` hash
    salting, before or after a snapshot crosses processes."""

    def test_counts_and_resume_match_across_hash_seeds(self, tmp_path):
        first = _seed_run("0", tmp_path / "seed0")
        second = _seed_run("1", tmp_path / "seed1", resume=tmp_path / "seed0")
        assert first.keys() == second.keys() and len(first) >= 5
        for name, row in first.items():
            other = second[name]
            assert other["lane"] == row["lane"], name
            assert other["uninterrupted"] == row["uninterrupted"], name
            assert other["levels"] == row["levels"], name
            # The seed-0 blob resumed under seed 1 rebuilds the same
            # levels in the same order.  Its memo starts cold, so it
            # saturates at least as often, but it makes exactly the
            # uninterrupted run's closure lookups (saturations + hits).
            assert other["resumed_levels"] == row["levels"], name
            resumed, uninterrupted = other["resumed"], row["uninterrupted"]
            assert sum(resumed) == sum(uninterrupted), name
            assert resumed[0] >= uninterrupted[0], name
