"""Sequential pushdown systems (paper Sec. 2.1).

A PDS is a tuple ``(Q, Σ, Δ, qI)``: shared states, stack alphabet,
pushdown program, initial shared state.  This package provides the data
model, the explicit step semantics, the forward ``post*`` saturation
construction of pushdown store automata (App. C) with its naive
differential oracle, and the top-of-stack projection of a PSA's language
(Alg. 4).  Every automaton the analyses build is one ``post*``: a
:class:`PostStarEngine` drained once and detached.
"""

from repro.pds.action import Action, ActionKind
from repro.pds.state import EMPTY, PDSState, format_stack, format_top
from repro.pds.pds import PDS
from repro.pds.semantics import enabled_actions, post_star_explicit, step, successors
from repro.pds.psa import PSA
from repro.pds.saturation import (
    PostStarEngine,
    format_saturation_stats,
    post_star,
    post_star_naive,
    psa_for_configs,
)

__all__ = [
    "Action",
    "ActionKind",
    "EMPTY",
    "PDS",
    "PDSState",
    "PSA",
    "PostStarEngine",
    "format_saturation_stats",
    "enabled_actions",
    "format_stack",
    "format_top",
    "post_star",
    "post_star_naive",
    "post_star_explicit",
    "psa_for_configs",
    "step",
    "successors",
]
