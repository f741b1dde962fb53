"""Replay-backend differential and fallback suite (PR 8).

Three-way differential: the pure-python engine (``backend="python"``)
and the vectorized engine (``backend="numpy"``) both without witness
parents, plus the vectorized engine recording them (its replay resolves
parents on a separate path), must produce identical global-state levels
and *exact* METER equality on the six-counter differential set — the
backend changes how a level replays, never what it computes.  The
guarantee is stronger still: first-occurrence interning makes the numpy
engine assign the *same dense ids and witness parents* as the serial
loop, asserted directly.

Fallback contract: keys wider than int64 (forced here by widening the
packed-field geometry) must route the level to the pure-int loop
automatically — same results, ``explicit.replay_numpy_fallbacks``
bumped, zero vectorized views.  Without numpy, ``backend="auto"``
resolves to python and ``backend="numpy"`` is a constructor error.
"""

import pytest

from repro.cpds import interning
from repro.errors import ContextExplosionError
from repro.models.random_gen import RandomSpec, random_cpds
from repro.models.registry import smallest_per_row
from repro.reach import vectorized
from repro.reach.config import EngineConfig
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

HAVE_NUMPY = vectorized.numpy_available()
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


@pytest.fixture()
def no_numpy(monkeypatch):
    """Simulate a numpy-less environment for the resolution tests."""
    monkeypatch.setattr(vectorized, "_numpy", None)
    monkeypatch.setattr(vectorized, "_numpy_checked", True)


def _engine(cpds, backend, **kwargs):
    return ExplicitReach(cpds, config=EngineConfig(backend=backend), **kwargs)


def _three_engines(cpds, max_states=None):
    """python / numpy / numpy-tracked, in that order."""
    kwargs = {}
    if max_states is not None:
        kwargs["max_states_per_context"] = max_states
    return [
        _engine(cpds, "python", track_traces=False, **kwargs),
        _engine(cpds, "numpy", track_traces=False, **kwargs),
        _engine(cpds, "numpy", **kwargs),
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
    # The batching invariant holds per backend and mode.
    for mode, delta in zip(("python", "numpy", "numpy-tracked"), deltas):
        assert delta.get("explicit.expansions", 0) + delta.get(
            "explicit.context_cache_hits", 0
        ) == delta.get("explicit.level_unique_views", 0), f"{context} {mode}"
    # The python engine never touches the vectorized path.
    assert deltas[0].get("explicit.replay_numpy_views", 0) == 0, context
    assert deltas[0].get("explicit.replay_numpy_fallbacks", 0) == 0, context


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
        non-FCR instances diverge identically on every backend."""
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
            f"seed {seed}: divergence disagrees across backends: {exploded}"
        )
        if exploded[0]:
            return
        _assert_agreement(engines, deltas, K, context=f"seed {seed}")

    def test_vectorized_path_actually_engages(self):
        """The differential is vacuous if every view stays under the
        work floor: the biggest FCR row must vectorize some views.
        FileCrawler's level 3 replays ~16k member × edge pairs — well
        above NUMPY_MIN_WORK, where the small Bluetooth rows stay
        scalar by design."""
        cpds, _prop = next(
            b for b in FCR_BENCHES if "FileCrawler" in b.name
        ).build()
        engine = _engine(cpds, "numpy", track_traces=False)
        delta = _run_with_meter(engine, 3)
        assert delta.get("explicit.replay_numpy_views", 0) > 0
        assert delta.get("explicit.replay_numpy_fallbacks", 0) == 0

    def test_serial_numpy_assigns_identical_ids_and_parents(self):
        """numpy is bit-for-bit the serial loop: same dense id order,
        same packed column, same witness parents."""
        for bench in FCR_BENCHES[:3]:
            cpds, _prop = bench.build()
            py = _engine(cpds, "python")
            np_ = _engine(cpds, "numpy")
            py.ensure_level(K)
            np_.ensure_level(K)
            assert list(py.table._packed) == list(np_.table._packed), bench.row
            assert py._first_seen == np_._first_seen, bench.row
            assert py._parents == np_._parents, bench.row

    @pytest.mark.parametrize("seed", range(6))
    def test_numpy_traces_are_valid(self, seed):
        """Witness parents recorded by the vectorized replay
        (first-occurrence order preserves parents-first) reconstruct
        traces that replay against the CPDS step semantics."""
        spec = RandomSpec(n_threads=2, n_shared=2, n_symbols=2, rules_per_thread=4)
        cpds = random_cpds(seed, spec)
        engine = _engine(cpds, "numpy", max_states_per_context=300)
        try:
            engine.ensure_level(K)
        except ContextExplosionError:
            pytest.skip("non-FCR instance")
        for state in engine.states_up_to(K):
            validate_trace(cpds, engine.trace(state))


@needs_numpy
class TestWideKeyFallback:
    def test_wide_keys_route_to_the_python_loop(self, monkeypatch):
        """With the packed fields widened past int64 (the PR 6 wide-key
        regime, forced via the initial field width) a numpy engine must
        fall back automatically and still match the python engine."""
        monkeypatch.setattr(interning, "_INITIAL_BITS", 40)
        cpds, _prop = FCR_BENCHES[0].build()
        py = _engine(cpds, "python")
        np_ = _engine(cpds, "numpy")
        assert not vectorized.table_fits_int64(np_.table)
        before = METER.snapshot()
        py.ensure_level(K)
        np_.ensure_level(K)
        delta = METER.delta(before)
        assert np_.resolved_backend == "numpy"  # the knob, not the route
        assert delta.get("explicit.replay_numpy_fallbacks", 0) > 0
        assert delta.get("explicit.replay_numpy_views", 0) == 0
        for k in range(K + 1):
            assert py.states_new_at(k) == np_.states_new_at(k)
        assert py._parents == np_._parents

    def test_width_predicate_matches_the_geometry(self):
        cpds, _prop = FCR_BENCHES[0].build()
        engine = ExplicitReach(cpds, track_traces=False)
        assert vectorized.table_fits_int64(engine.table)


class TestBackendResolution:
    def test_unknown_backend_rejected(self):
        cpds, _prop = FCR_BENCHES[0].build()
        with pytest.raises(ValueError, match="backend"):
            _engine(cpds, "cuda")

    def test_auto_without_numpy_resolves_python(self, no_numpy):
        cpds, _prop = FCR_BENCHES[0].build()
        engine = _engine(cpds, "auto")
        assert engine.resolved_backend == "python"
        engine.ensure_level(1)
        assert engine.stats()["backend"] == "python"

    def test_forced_numpy_without_numpy_is_an_error(self, no_numpy):
        cpds, _prop = FCR_BENCHES[0].build()
        with pytest.raises(ValueError, match="numpy is not installed"):
            _engine(cpds, "numpy")

    @needs_numpy
    def test_auto_with_numpy_resolves_numpy(self):
        cpds, _prop = FCR_BENCHES[0].build()
        engine = _engine(cpds, "auto")
        assert engine.resolved_backend == "numpy"
        assert engine.stats()["backend"] == "numpy"

    def test_stats_report_the_backend(self):
        cpds, _prop = FCR_BENCHES[0].build()
        engine = _engine(cpds, "python")
        assert engine.stats()["backend"] == "python"


@needs_numpy
class TestSnapshotBackendKnob:
    def test_restore_swaps_the_backend(self):
        """The backend is a pure execution knob: a snapshot taken under
        numpy resumes under python (and vice versa) and continues
        identically — nothing backend-specific is serialized."""
        cpds, _prop = FCR_BENCHES[0].build()
        origin = _engine(cpds, "numpy")
        origin.ensure_level(1)
        blob = origin.snapshot()
        resumed = ExplicitReach.restore(
            cpds, blob, config=EngineConfig(backend="python")
        )
        assert resumed.resolved_backend == "python"
        resumed.ensure_level(K)
        oracle = _engine(cpds, "numpy")
        oracle.ensure_level(K)
        for k in range(K + 1):
            assert resumed.states_new_at(k) == oracle.states_new_at(k)
