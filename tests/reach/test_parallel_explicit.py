"""Explicit-engine differential across the context memo.

Three-way differential: the memo-free seed per-state oracle
(``batched=False``), the batched engine with its cross-level context
memo, and a batched engine restored from its own level-1 snapshot (so
its memo starts from the persisted trees) and then advanced, must
produce identical global-state levels and identical ``T(Rk)``
sequences.  The memo only decides whether a context tree is rebuilt,
never what it contains, and the persisted memo is exact.  Non-FCR
instances must diverge identically in all three modes.
"""

import pytest

from repro.errors import ContextExplosionError
from repro.models.random_gen import RandomSpec, random_cpds
from repro.models.registry import smallest_per_row
from repro.reach.explicit import ExplicitReach

K = 2

FCR_BENCHES = smallest_per_row(lambda b: b.fcr)


def _restored_at_level_1(cpds, **kwargs):
    """A batched engine restored from its own k=1 snapshot."""
    engine = ExplicitReach(cpds, **kwargs)
    engine.ensure_level(1)
    return ExplicitReach.restore(cpds, engine.snapshot())


def _three_engines(cpds, **kwargs):
    """Makers of the per-state oracle / memoized batched / restored
    batched engines (a maker may trip the divergence guard)."""
    return [
        lambda: ExplicitReach(cpds, batched=False, **kwargs),
        lambda: ExplicitReach(cpds, **kwargs),
        lambda: _restored_at_level_1(cpds, **kwargs),
    ]


def _levels(engine, k_max):
    engine.ensure_level(k_max)
    return [engine.states_new_at(k) for k in range(k_max + 1)]


class TestThreeWayDifferential:
    @pytest.mark.parametrize("bench", FCR_BENCHES, ids=lambda b: b.row)
    def test_registry_rows(self, bench):
        cpds, _prop = bench.build()
        per_state, memo, restored = (make() for make in _three_engines(cpds))
        assert _levels(per_state, K) == _levels(memo, K) == _levels(restored, K)
        for k in range(K + 1):
            assert (
                per_state.visible_new_at(k)
                == memo.visible_new_at(k)
                == restored.visible_new_at(k)
            ), f"k={k}"

    @pytest.mark.parametrize("seed", range(40))
    def test_randomized(self, seed):
        """Randomized CPDSs: all three modes agree level for level;
        divergent (non-FCR) instances diverge in every mode."""
        spec = RandomSpec(n_threads=2, n_shared=2, n_symbols=2, rules_per_thread=5)
        cpds = random_cpds(seed, spec)
        engines = []
        exploded = []
        for make in _three_engines(cpds, max_states_per_context=300):
            try:
                engine = make()
                engine.ensure_level(K)
                engines.append(engine)
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
