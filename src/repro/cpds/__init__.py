"""Concurrent pushdown systems (paper Sec. 2.2).

A CPDS is a fixed-thread asynchronous combination of sequential PDSs that
share the set ``Q`` of shared states and the initial shared state.  This
package provides the data model, global/visible states and the projection
``T``, the asynchronous step semantics (including the interned,
id-encoded context trees behind the view-batched explicit engine), and a
textual exchange format.
"""

from repro.cpds.state import GlobalState, VisibleState, project
from repro.cpds.cpds import CPDS
from repro.cpds.interning import StateTable
from repro.cpds.semantics import (
    ContextTree,
    context_post,
    global_successors,
    thread_context_post,
    thread_state,
    thread_view_post,
    with_thread_state,
)
from repro.cpds.format import format_cpds, parse_cpds

__all__ = [
    "CPDS",
    "ContextTree",
    "GlobalState",
    "StateTable",
    "VisibleState",
    "context_post",
    "format_cpds",
    "global_successors",
    "parse_cpds",
    "project",
    "thread_context_post",
    "thread_state",
    "thread_view_post",
    "with_thread_state",
]
