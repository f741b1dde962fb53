"""Context-bounded reachability engines — the registered *lanes*.

Each analysis family ("lane") is an engine class implementing the lane
contract of :class:`~repro.reach.base.ReachabilityEngine` and
registered in :mod:`repro.reach.registry`; the verifier, CLI, bench
runner, and service all resolve lanes through the registry, so a new
lane is one new module with a ``@register``-decorated class.  In-tree
lanes:

* :class:`~repro.reach.explicit.ExplicitReach` (lane ``explicit``,
  sequence ``Rk``) — enumerates the sets ``Rk`` extensionally
  (requires finite context reachability, Sec. 5) and reconstructs
  witness traces;
* :class:`~repro.reach.symbolic.SymbolicReach` (lane ``symbolic``,
  sequence ``Sk``) — maintains ``Sk`` as sets of symbolic states
  ``⟨q|A1,...,An⟩`` with one pushdown store automaton per thread
  (Sec. 6 approach 3, App. E), the Qadeer/Rehof-style engine that also
  handles non-FCR programs;
* :class:`~repro.reach.wuba.WubaReach` (lane ``wuba``, sequence
  ``Wk``) — the write-unbounded family: levels bound shared-state
  *writes* instead of contexts, closing each level under write-free
  computation (requires finite write-free closures, WCR).

All expose the same frontier/level interface consumed by the CUBA
algorithms in :mod:`repro.cuba`.
"""

from repro.reach import registry
from repro.reach.base import ReachabilityEngine
from repro.reach.explicit import ExplicitReach
from repro.reach.symbolic import SymbolicReach, SymbolicState
from repro.reach.witness import Trace, TraceStep, validate_trace
from repro.reach.wuba import WubaReach

__all__ = [
    "ExplicitReach",
    "ReachabilityEngine",
    "SymbolicReach",
    "SymbolicState",
    "Trace",
    "TraceStep",
    "WubaReach",
    "registry",
    "validate_trace",
]
