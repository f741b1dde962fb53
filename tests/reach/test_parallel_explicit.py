"""Multiprocess view saturation (``jobs=N``) differential and
resilience suite.

Three-way differential: the seed per-state oracle (``batched=False``),
the serial sharded engine (``batched=True, jobs=1``) and the
multiprocess engine (``jobs=2``) must produce identical global-state
levels, identical ``T(Rk)`` sequences, and — for the two batched modes
— identical METER work counts (a worker saturates exactly the views the
serial path would have, nothing more).  Non-FCR instances must diverge
identically in all three modes.

Resilience: a killed worker surfaces as a clean
:class:`~repro.errors.CubaError` (never a mis-typed divergence), the
half-built level is rolled back by the engine's exception path, and the
broken pool is evicted so later runs lease a fresh one.
"""

import os
import signal

import pytest

from repro.errors import ContextExplosionError, CubaError
from repro.models.random_gen import RandomSpec, random_cpds
from repro.models.registry import smallest_per_row
from repro.reach import parallel
from repro.reach.explicit import ExplicitReach
from repro.reach.witness import validate_trace
from repro.util.meter import METER

K = 2

FCR_BENCHES = smallest_per_row(lambda b: b.fcr)

METER_KEYS = (
    "explicit.expansions",
    "explicit.level_views",
    "explicit.level_unique_views",
    "explicit.context_cache_hits",
    "explicit.context_cache_misses",
    "explicit.replay_pairs",
)


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    parallel.pool_cache_clear()


def _levels(engine, k_max):
    engine.ensure_level(k_max)
    return [engine.states_new_at(k) for k in range(k_max + 1)]


class TestThreeWayDifferential:
    @pytest.mark.parametrize("bench", FCR_BENCHES, ids=lambda b: b.row)
    def test_registry_rows(self, bench):
        cpds, _prop = bench.build()
        per_state = ExplicitReach(cpds, track_traces=False, batched=False)
        serial = ExplicitReach(cpds, track_traces=False, batched=True, jobs=1)
        par = ExplicitReach(cpds, track_traces=False, batched=True, jobs=2)
        assert _levels(per_state, K) == _levels(serial, K) == _levels(par, K)
        for k in range(K + 1):
            assert (
                per_state.visible_new_at(k)
                == serial.visible_new_at(k)
                == par.visible_new_at(k)
            ), f"k={k}"

    @pytest.mark.parametrize("seed", range(40))
    def test_randomized(self, seed):
        """Randomized CPDSs: all three modes agree level for level;
        divergent (non-FCR) instances diverge in every mode."""
        spec = RandomSpec(n_threads=2, n_shared=2, n_symbols=2, rules_per_thread=5)
        cpds = random_cpds(seed, spec)
        engines = [
            ExplicitReach(
                cpds, max_states_per_context=300, track_traces=False, batched=False
            ),
            ExplicitReach(
                cpds, max_states_per_context=300, track_traces=False, jobs=1
            ),
            ExplicitReach(
                cpds, max_states_per_context=300, track_traces=False, jobs=2
            ),
        ]
        exploded = []
        for engine in engines:
            try:
                engine.ensure_level(K)
                exploded.append(False)
            except ContextExplosionError:
                exploded.append(True)
        assert exploded[0] == exploded[1] == exploded[2], (
            f"seed {seed}: divergence disagrees across modes: {exploded}"
        )
        if exploded[0]:
            return
        for k in range(K + 1):
            assert (
                engines[0].states_new_at(k)
                == engines[1].states_new_at(k)
                == engines[2].states_new_at(k)
            ), f"seed {seed}, k={k}"
            assert (
                engines[0].visible_new_at(k)
                == engines[1].visible_new_at(k)
                == engines[2].visible_new_at(k)
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_parallel_traces_are_real_executions(self, seed):
        """Witnesses reconstructed from worker-saturated trees replay
        against the CPDS step semantics."""
        spec = RandomSpec(n_threads=2, n_shared=2, n_symbols=2, rules_per_thread=4)
        cpds = random_cpds(seed, spec)
        engine = ExplicitReach(cpds, max_states_per_context=300, jobs=2)
        try:
            engine.ensure_level(K)
        except ContextExplosionError:
            pytest.skip("non-FCR instance")
        for state in engine.states_up_to(K):
            validate_trace(cpds, engine.trace(state))


class TestMeterParity:
    @pytest.mark.parametrize("bench", FCR_BENCHES[:3], ids=lambda b: b.row)
    def test_jobs_preserve_every_work_counter(self, bench):
        """``jobs=N`` performs exactly the same number of saturations,
        shards and cache transitions as ``jobs=1`` — parallelism moves
        work across processes, it must not create or skip any."""
        cpds, _prop = bench.build()
        deltas = []
        for jobs in (1, 2):
            engine = ExplicitReach(cpds, track_traces=False, jobs=jobs)
            before = METER.snapshot()
            engine.ensure_level(3)
            deltas.append(METER.delta(before))
        for key in METER_KEYS:
            assert deltas[0].get(key, 0) == deltas[1].get(key, 0), key
        # And the batching invariant holds for the parallel mode too.
        assert (
            deltas[1].get("explicit.expansions", 0)
            + deltas[1].get("explicit.context_cache_hits", 0)
            == deltas[1].get("explicit.level_unique_views", 0)
        )


class TestCrashResilience:
    def test_killed_worker_surfaces_cuba_error_and_rolls_back(self):
        bench = next(b for b in FCR_BENCHES if b.row.startswith("1/"))
        cpds, _prop = bench.build()
        engine = ExplicitReach(cpds, track_traces=False, jobs=2)
        engine.advance()  # leases the pool and proves it works
        pool = engine._pool
        assert pool is not None and not pool.broken
        n_states = engine.n_states
        k_before = engine.k
        for process in list(pool._executor._processes.values()):
            os.kill(process.pid, signal.SIGKILL)
        with pytest.raises(CubaError) as err:
            engine.ensure_level(4)
        # A dead worker is an infrastructure failure, not a divergence.
        assert not isinstance(err.value, ContextExplosionError)
        assert "worker" in str(err.value)
        # The partial level was rolled back via _rollback.
        assert engine.n_states == n_states
        assert engine.k == k_before
        assert len(engine.table) == n_states
        assert sum(len(level) for level in engine.levels) == engine.n_states
        assert pool.broken

    def test_fresh_engine_recovers_after_crash(self):
        """The broken pool was evicted from the cache; the same CPDS
        leases a working replacement."""
        bench = next(b for b in FCR_BENCHES if b.row.startswith("1/"))
        cpds, _prop = bench.build()
        engine = ExplicitReach(cpds, track_traces=False, jobs=2)
        engine.advance()
        pool = engine._pool
        for process in list(pool._executor._processes.values()):
            os.kill(process.pid, signal.SIGKILL)
        with pytest.raises(CubaError):
            engine.ensure_level(4)
        retry = ExplicitReach(cpds, track_traces=False, jobs=2)
        retry.ensure_level(2)
        assert retry._pool is not pool
        oracle = ExplicitReach(cpds, track_traces=False, batched=False)
        oracle.ensure_level(2)
        assert retry.states_up_to(2) == oracle.states_up_to(2)


class TestPoolCache:
    def test_lease_reuses_and_clear_shuts_down(self):
        cpds, _prop = FCR_BENCHES[0].build()
        a = parallel.lease_pool(cpds, 100, 2)
        assert parallel.lease_pool(cpds, 100, 2) is a
        assert parallel.lease_pool(cpds, 101, 2) is not a  # distinct key
        parallel.pool_cache_clear()
        assert not parallel._POOL_CACHE
        b = parallel.lease_pool(cpds, 100, 2)
        assert b is not a
        parallel.pool_cache_clear()

    def test_lru_bound_caps_resident_pools(self):
        built = [bench.build()[0] for bench in FCR_BENCHES[:2]]
        pools = []
        for cpds in built:
            for max_states in (50, 60, 70):
                pools.append(parallel.lease_pool(cpds, max_states, 2))
        assert len(parallel._POOL_CACHE) <= parallel._POOL_CACHE_LIMIT
        parallel.pool_cache_clear()

    def test_constructor_validation(self):
        cpds, _prop = FCR_BENCHES[0].build()
        with pytest.raises(ValueError):
            ExplicitReach(cpds, jobs=0)
        with pytest.raises(ValueError):
            ExplicitReach(cpds, jobs=2, batched=False)
        with pytest.raises(ValueError):
            parallel.ViewSaturationPool(cpds, 100, 1)
