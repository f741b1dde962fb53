"""Execution configuration shared by every reachability lane.

:class:`EngineConfig` collects the engines' execution knobs into one
picklable dataclass that travels unchanged from the CLI through the
service to a worker process, so ``scheme1_rk``, ``cba``, ``Cuba`` and
the service ``EngineJob`` take one ``config=`` instead of re-declaring
every knob.  None of these knobs may affect verdicts (that is
differentially tested), which is why the whole object stays out of the
problem fingerprint.

The lanes' cross-level memos (context trees, symbolic expansions,
write-free closures) are not knobs: each is exact by construction, so
the production advance always memoizes.
"""

from __future__ import annotations

import dataclasses

__all__ = ["EngineConfig"]


@dataclasses.dataclass(frozen=True, slots=True)
class EngineConfig:
    """Execution knobs for a lane engine.

    ``batched`` selects the view-batched, memoizing advance; False
    selects the memo-free per-state differential oracle (explicit and
    symbolic lanes).  Engines without an oracle (wuba) ignore it.
    """

    batched: bool = True

    def replace(self, **changes) -> "EngineConfig":
        return dataclasses.replace(self, **changes)
