"""Finite-automata substrate.

Pushdown store automata (paper App. C), the FCR loop analysis (Sec. 5) and
the symbolic engine's state dedup are all built on top of the plain
nondeterministic finite automata implemented here.

Public surface:

* :class:`~repro.automata.nfa.NFA` — mutable NFA with ε-transitions over
  arbitrary hashable symbols.
* :data:`~repro.automata.nfa.EPSILON` — the ε label.
* :mod:`~repro.automata.ops` — determinize, minimize, product, complement,
  union, emptiness, containment, equivalence.
* :mod:`~repro.automata.finiteness` — language finiteness and graph loops
  via one linear useful-SCC pass (drives the FCR and WCR checks).
* :mod:`~repro.automata.canonical` — canonical minimal-DFA signatures used
  to deduplicate language-equal automata.
"""

from repro.automata.nfa import EPSILON, NFA
from repro.automata.ops import (
    complement,
    determinize,
    intersect,
    is_empty,
    language_contains,
    language_equal,
    minimize,
    union,
)
from repro.automata.finiteness import (
    enumerate_words,
    has_graph_cycle,
    language_is_finite,
    loop_analysis,
)
from repro.automata.canonical import canonical_signature

__all__ = [
    "EPSILON",
    "NFA",
    "canonical_signature",
    "complement",
    "determinize",
    "enumerate_words",
    "has_graph_cycle",
    "intersect",
    "is_empty",
    "language_contains",
    "language_equal",
    "language_is_finite",
    "loop_analysis",
    "minimize",
    "union",
]
