"""Forced-vectorization replay differential and invariant suite.

Three-way differential: the pure-python engine (``backend="python"``)
and the numpy engine with and without witness parents, all run with the
numpy work floors at 1 so every level of the numpy engines groups and
replays through :mod:`repro.reach.vectorized`, must produce identical
global-state levels, identical ``T(Rk)`` sequences, and *exact* METER
equality — the backend changes how a level replays, never how much work
it does.  On every mode the batching invariant ``expansions +
context_cache_hits == level_unique_views`` must hold.

Run on every FCR registry row and on 40 random CPDS seeds (non-FCR
instances must diverge identically in all three modes), plus a snapshot
resume that switches the execution knobs mid-run.
"""

import pytest

from repro.errors import ContextExplosionError
from repro.models.random_gen import RandomSpec, random_cpds
from repro.models.registry import smallest_per_row
from repro.reach import vectorized
from repro.reach.config import EngineConfig
from repro.reach.explicit import ExplicitReach
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

needs_numpy = pytest.mark.skipif(
    not vectorized.numpy_available(), reason="numpy not installed"
)


@pytest.fixture(autouse=True)
def _floors_at_one(monkeypatch):
    monkeypatch.setattr(vectorized, "NUMPY_MIN_WORK", 1)
    monkeypatch.setattr(vectorized, "NUMPY_MIN_ENTRY_AVG", 1)


def _three_engines(cpds, max_states=None):
    """python / numpy / numpy-tracked, in that order."""
    kwargs = {}
    if max_states is not None:
        kwargs["max_states_per_context"] = max_states
    return [
        ExplicitReach(
            cpds, track_traces=False, config=EngineConfig(backend="python"),
            **kwargs,
        ),
        ExplicitReach(
            cpds, track_traces=False, config=EngineConfig(backend="numpy"),
            **kwargs,
        ),
        ExplicitReach(cpds, config=EngineConfig(backend="numpy"), **kwargs),
    ]


def _run_with_meter(engine, k_max):
    before = METER.snapshot()
    engine.ensure_level(k_max)
    return METER.delta(before)


def _assert_agreement(engines, deltas, k_max, context=""):
    for k in range(k_max + 1):
        assert (
            engines[0].states_new_at(k)
            == engines[1].states_new_at(k)
            == engines[2].states_new_at(k)
        ), f"{context} k={k}: levels disagree"
        assert (
            engines[0].visible_new_at(k)
            == engines[1].visible_new_at(k)
            == engines[2].visible_new_at(k)
        ), f"{context} k={k}: visible projections disagree"
    for key in METER_KEYS:
        assert (
            deltas[0].get(key, 0) == deltas[1].get(key, 0) == deltas[2].get(key, 0)
        ), f"{context} METER {key}: {[d.get(key, 0) for d in deltas]}"
    for mode, delta in zip(("python", "numpy", "numpy-tracked"), deltas):
        assert delta.get("explicit.expansions", 0) + delta.get(
            "explicit.context_cache_hits", 0
        ) == delta.get("explicit.level_unique_views", 0), f"{context} {mode}"
    # With the floors at 1, any replayed pair means the numpy engines
    # took the vectorized path; the python engine never does.
    if deltas[0].get("explicit.replay_pairs", 0):
        assert deltas[1].get("explicit.replay_numpy_views", 0) > 0, context
        assert deltas[2].get("explicit.replay_numpy_views", 0) > 0, context
    assert deltas[0].get("explicit.replay_numpy_views", 0) == 0, context


@needs_numpy
class TestThreeWayDifferential:
    @pytest.mark.parametrize("bench", FCR_BENCHES, ids=lambda b: b.row)
    def test_registry_rows(self, bench):
        cpds, _prop = bench.build()
        engines = _three_engines(cpds)
        deltas = [_run_with_meter(engine, K) for engine in engines]
        _assert_agreement(engines, deltas, K, context=bench.row)

    @pytest.mark.parametrize("seed", range(40))
    def test_randomized(self, seed):
        """Random CPDSs agree level for level with exact METER equality;
        non-FCR instances diverge in every mode."""
        spec = RandomSpec(n_threads=2, n_shared=2, n_symbols=2, rules_per_thread=5)
        cpds = random_cpds(seed, spec)
        engines = _three_engines(cpds, max_states=300)
        deltas = []
        exploded = []
        for engine in engines:
            try:
                deltas.append(_run_with_meter(engine, K))
                exploded.append(False)
            except ContextExplosionError:
                deltas.append(None)
                exploded.append(True)
        assert exploded[0] == exploded[1] == exploded[2], (
            f"seed {seed}: divergence disagrees across modes: {exploded}"
        )
        if exploded[0]:
            return
        _assert_agreement(engines, deltas, K, context=f"seed {seed}")


@needs_numpy
class TestShardedSnapshotResume:
    def test_restore_carries_the_execution_knobs(self):
        """A snapshot taken on a python engine resumes on the numpy
        backend (a pure execution knob) and continues identically."""
        cpds, _prop = FCR_BENCHES[0].build()
        origin = ExplicitReach(
            cpds, track_traces=False, config=EngineConfig(backend="python")
        )
        origin.ensure_level(1)
        blob = origin.snapshot()
        knobs = EngineConfig(backend="numpy")
        resumed = ExplicitReach.restore(cpds, blob, config=knobs)
        assert resumed.config == knobs
        assert resumed.stats()["backend"] == "numpy"
        before = METER.snapshot()
        resumed.ensure_level(K)
        assert METER.delta(before).get("explicit.replay_numpy_views", 0) > 0
        oracle = ExplicitReach(
            cpds, track_traces=False, config=EngineConfig(backend="python")
        )
        oracle.ensure_level(K)
        for k in range(K + 1):
            assert resumed.states_new_at(k) == oracle.states_new_at(k)
            assert resumed.visible_new_at(k) == oracle.visible_new_at(k)
