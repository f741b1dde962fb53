"""EngineConfig: the one carrier of the engines' execution knobs.

Every public entry point takes ``config=EngineConfig(...)``.
"""

import dataclasses
import pickle

import pytest

from repro.core.property import AlwaysSafe
from repro.models import fig1_cpds
from repro.reach.config import EngineConfig
from repro.reach.explicit import ExplicitReach
from repro.reach.symbolic import SymbolicReach


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.batched is True

    def test_exactly_two_knobs(self):
        """Named when the config also carried the explicit replay
        backend; that knob went with the numpy replay, and the
        cross-level memos are exact, so they are not knobs either:
        ``batched`` is the one knob left."""
        names = [field.name for field in dataclasses.fields(EngineConfig)]
        assert names == ["batched"]
        with pytest.raises(TypeError):
            EngineConfig(backend="python")

    def test_replace_returns_new_frozen_instance(self):
        config = EngineConfig()
        changed = config.replace(batched=False)
        assert changed.batched is False
        assert config.batched is True  # original untouched
        with pytest.raises(Exception):
            changed.batched = True  # frozen

    def test_picklable_for_worker_processes(self):
        config = EngineConfig(batched=False)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_config_reaches_the_engine(self):
        from repro.cuba.scheme1 import scheme1_rk
        from repro.cuba.verifier import Cuba

        engine = ExplicitReach(fig1_cpds(), config=EngineConfig(batched=False))
        assert engine.batched is False
        assert SymbolicReach(
            fig1_cpds(), config=EngineConfig(batched=False)
        ).batched is False
        config = EngineConfig(batched=False)
        verifier = Cuba(fig1_cpds(), AlwaysSafe(), config=config)
        assert verifier.config is config
        assert scheme1_rk(
            fig1_cpds(), AlwaysSafe(), max_rounds=2, config=EngineConfig()
        ) is not None
