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
        assert config.backend == "auto"

    def test_exactly_two_knobs(self):
        """The cross-level memos are exact, so they are not knobs."""
        names = [field.name for field in dataclasses.fields(EngineConfig)]
        assert names == ["batched", "backend"]

    def test_replace_returns_new_frozen_instance(self):
        config = EngineConfig()
        changed = config.replace(batched=False, backend="csr")
        assert changed.batched is False and changed.backend == "csr"
        assert config.batched is True  # original untouched
        with pytest.raises(Exception):
            changed.batched = True  # frozen

    def test_picklable_for_worker_processes(self):
        config = EngineConfig(batched=False, backend="python")
        assert pickle.loads(pickle.dumps(config)) == config

    def test_config_reaches_the_engine(self):
        from repro.cuba.scheme1 import scheme1_rk
        from repro.cuba.verifier import Cuba

        engine = ExplicitReach(fig1_cpds(), config=EngineConfig(batched=False))
        assert engine.batched is False
        assert SymbolicReach(
            fig1_cpds(), config=EngineConfig(batched=False)
        ).batched is False
        verifier = Cuba(
            fig1_cpds(), AlwaysSafe(), config=EngineConfig(backend="python")
        )
        assert verifier.config.backend == "python"
        assert scheme1_rk(
            fig1_cpds(), AlwaysSafe(), max_rounds=2, config=EngineConfig()
        ) is not None
