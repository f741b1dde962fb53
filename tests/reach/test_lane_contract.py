"""Lane-contract conformance: every registered lane, one parametrized
suite.

A lane that registers (:mod:`repro.reach.registry`) promises the full
engine contract of :class:`~repro.reach.base.ReachabilityEngine` — the
class attributes the dispatch surfaces read, ``applicable`` as the
precondition, ``create``/``snapshot``/``restore`` for the service, a
``stats`` schema the bench payloads persist, and ``T(·)`` through the
base class's one ledger.  These
tests are what "adding a lane is one module" rests on: a new
``@register``-decorated class passes or fails this file, not a trail of
per-surface breakage.
"""

import dataclasses
import inspect
import warnings

import pytest

from repro.bench.runner import _METER_PREFIXES
from repro.cpds.state import VisibleState
from repro.models import fig1_cpds
from repro.pds.state import EMPTY
from repro.reach import registry
from repro.reach.base import ReachabilityEngine, VisibleView
from repro.reach.snapshot import snapshot_kind
from repro.service.executor import EngineJob
from repro.service.server import _METER_WINDOW_PREFIXES

LANES = registry.lane_names()


def lane_params():
    return [pytest.param(name, id=name) for name in LANES]


class TestRegistry:
    def test_builtin_lanes_registered(self):
        assert set(LANES) >= {"explicit", "symbolic", "wuba"}

    def test_aliases_resolve(self):
        assert registry.canonical_lane("rk") == "explicit"
        assert registry.canonical_lane("sk") == "symbolic"
        assert registry.canonical_lane("wk") == "wuba"
        assert registry.canonical_lane("Explicit") == "explicit"

    def test_unknown_lane_raises(self):
        from repro.errors import CubaError

        with pytest.raises(CubaError, match="registered lanes"):
            registry.canonical_lane("bdd")

    def test_snapshot_kinds_unique(self):
        kinds = [registry.engine_class(name).snapshot_kind for name in LANES]
        assert len(kinds) == len(set(kinds))

    def test_engine_for_kind_round_trips(self):
        for name in LANES:
            cls = registry.engine_class(name)
            assert registry.engine_for_kind(cls.snapshot_kind) is cls


class TestContract:
    @pytest.mark.parametrize("lane", lane_params())
    def test_attributes_well_formed(self, lane):
        cls = registry.engine_class(lane)
        assert issubclass(cls, ReachabilityEngine)
        assert cls.lane == lane
        assert cls.sequence_name
        assert cls.meter_prefix.endswith(".")
        assert cls.snapshot_kind > 0
        assert isinstance(cls.supports_witness, bool)
        assert isinstance(cls.generator_test, bool)

    def test_generator_test_declared_where_levels_count_contexts(self):
        # Thm. 11 is stated for context bounds: (Rk) and (Sk), not (Wk).
        declared = {
            name: registry.engine_class(name).generator_test
            for name in ("explicit", "symbolic", "wuba")
        }
        assert declared == {"explicit": True, "symbolic": True, "wuba": False}

    @pytest.mark.parametrize("lane", lane_params())
    def test_meter_prefix_reaches_bench_and_service(self, lane):
        # The bench payloads and the service /meter window must both
        # persist a lane's work counters, or a new lane's perf work is
        # invisible to the trajectory gate.
        prefix = registry.engine_class(lane).meter_prefix
        assert prefix in _METER_PREFIXES
        assert prefix in _METER_WINDOW_PREFIXES

    @pytest.mark.parametrize("lane", lane_params())
    def test_applicable_returns_bool(self, lane):
        cls = registry.engine_class(lane)
        assert cls.applicable(fig1_cpds()) in (True, False)

    @pytest.mark.parametrize("lane", lane_params())
    def test_create_and_advance(self, lane):
        cpds = fig1_cpds()
        cls = registry.engine_class(lane)
        if not cls.applicable(cpds):
            pytest.skip(f"lane {lane} not applicable to fig1")
        engine = registry.create(lane, cpds)
        assert engine.k == 0
        engine.advance()
        assert engine.k == 1
        assert engine.visible_up_to(1) >= engine.visible_up_to(0)

    @pytest.mark.parametrize("lane", lane_params())
    def test_snapshot_restore_round_trip(self, lane):
        cpds = fig1_cpds()
        cls = registry.engine_class(lane)
        if not cls.applicable(cpds):
            pytest.skip(f"lane {lane} not applicable to fig1")
        engine = cls.create(cpds)
        engine.advance()
        engine.advance()
        blob = engine.snapshot()
        assert snapshot_kind(blob) == cls.snapshot_kind
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            restored = cls.restore(cpds, blob, max_states_per_context=None)
        assert restored.k == engine.k
        for k in range(engine.k + 1):
            assert restored.visible_new_at(k) == engine.visible_new_at(k)
        # A restored engine must keep advancing identically.
        engine.advance()
        restored.advance()
        assert restored.visible_new_at(restored.k) == engine.visible_new_at(engine.k)

    @pytest.mark.parametrize("lane", lane_params())
    def test_visible_ledger(self, lane):
        # Every lane keeps T(·) in the base class's one ledger and
        # answers visible_up_to with its VisibleView.
        cpds = fig1_cpds()
        cls = registry.engine_class(lane)
        if not cls.applicable(cpds):
            pytest.skip(f"lane {lane} not applicable to fig1")
        engine = cls.create(cpds)
        engine.ensure_level(3)
        everything = set(engine.visible_up_to())
        stranger = VisibleState("never-a-shared-state", (EMPTY,) * cpds.n_threads)
        union: set = set()
        for k in range(engine.k + 1):
            union |= engine.visible_new_at(k)
            view = engine.visible_up_to(k)
            assert isinstance(view, VisibleView)
            assert len(view) == len(list(view)) == len(union)
            assert view == union
            for visible in everything:
                assert (visible in view) == (visible in union)
            assert stranger not in view
        restored = cls.restore(cpds, engine.snapshot())
        assert restored.k == engine.k
        for k in range(engine.k + 1):
            assert restored.visible_new_at(k) == engine.visible_new_at(k)
            assert len(restored.visible_up_to(k)) == len(engine.visible_up_to(k))
            assert restored.visible_plateaued_at(k) == engine.visible_plateaued_at(k)

    @pytest.mark.parametrize("lane", lane_params())
    def test_restore_signature_is_uniform(self, lane):
        # The lane owns its codec: one ``restore`` classmethod, taking
        # exactly the registry's uniform arguments.  Those are the model,
        # the blob and the divergence guard, nothing else: the per-state
        # oracle is a constructor keyword of two engines, not a lane
        # argument, and no service job carries an execution knob.
        cls = registry.engine_class(lane)
        assert "restore" in vars(cls)
        assert isinstance(vars(cls)["restore"], classmethod)

        def shape(method):
            return [
                (param.name, param.kind, param.default)
                for param in inspect.signature(method).parameters.values()
            ]

        assert shape(cls.restore) == shape(ReachabilityEngine.restore)
        assert shape(cls.create) == shape(ReachabilityEngine.create)
        assert [name for name, _, _ in shape(cls.create)] == [
            "cpds", "max_states_per_context"
        ]
        assert [name for name, _, _ in shape(cls.restore)] == [
            "cpds", "blob", "max_states_per_context"
        ]
        assert "config" not in {field.name for field in dataclasses.fields(EngineJob)}

    @pytest.mark.parametrize("lane", lane_params())
    def test_stats_schema(self, lane):
        cpds = fig1_cpds()
        cls = registry.engine_class(lane)
        if not cls.applicable(cpds):
            pytest.skip(f"lane {lane} not applicable to fig1")
        engine = cls.create(cpds)
        engine.advance()
        stats = engine.stats()
        assert isinstance(stats, dict)
        assert "levels" in stats

    @pytest.mark.parametrize("lane", lane_params())
    def test_run_lane_dispatches(self, lane):
        from repro.core.property import AlwaysSafe
        from repro.cuba.lanes import run_lane

        cpds = fig1_cpds()
        cls = registry.engine_class(lane)
        if not cls.applicable(cpds):
            from repro.errors import CubaError

            with pytest.raises(CubaError, match="not applicable"):
                run_lane(lane, cpds, AlwaysSafe(), max_rounds=2)
            return
        result = run_lane(lane, cpds, AlwaysSafe(), max_rounds=2)
        assert cls.sequence_name in result.method
