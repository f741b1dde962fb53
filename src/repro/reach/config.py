"""Execution configuration shared by every reachability lane.

:class:`EngineConfig` collects the engines' execution knobs into one
picklable dataclass that travels unchanged from the CLI through the
service to a worker process, so ``scheme1_rk``, ``cba``, ``Cuba`` and
the service ``EngineJob`` take one ``config=`` instead of re-declaring
every knob.  None of these knobs may affect verdicts (that is
differentially tested), which is why the whole object stays out of the
problem fingerprint.
"""

from __future__ import annotations

import dataclasses

__all__ = ["EngineConfig"]


@dataclasses.dataclass(frozen=True, slots=True)
class EngineConfig:
    """Execution knobs for a lane engine.

    ``batched`` selects the view-batched explicit advance (False = the
    per-state differential oracle), ``backend`` its replay backend
    (``auto``/``python``/``numpy``), and ``incremental`` the cross-level
    context memo.  Engines that do not understand a knob simply ignore
    it (a symbolic engine has no replay backend).
    """

    batched: bool = True
    backend: str = "auto"
    incremental: bool = True

    def replace(self, **changes) -> "EngineConfig":
        return dataclasses.replace(self, **changes)
