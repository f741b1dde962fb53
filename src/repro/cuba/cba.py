"""Plain context-bounded analysis — the Qadeer/Rehof baseline [35].

This is what JMoped implements (BDD-based) and what the paper compares
against in Fig. 5: explore reachability up to a *fixed* context bound
and report any violation found.  It can refute but never prove — a safe
answer only means "no bug within k contexts" (the fundamental CBA
limitation the CUBA algorithms remove).  It is the one convergence
driver (:func:`repro.cuba.lanes.converge`) with both termination tests
off and the context bound as the budget.

Every registered lane is supported; the symbolic one matches JMoped's
pushdown-store-automata representation and is the Fig. 5 baseline.
"""

from __future__ import annotations

from repro.core.property import Property
from repro.core.result import VerificationResult
from repro.cpds.cpds import CPDS
from repro.cuba.lanes import converge, prepare
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.reach.base import ReachabilityEngine


def context_bounded_analysis(
    cpds: CPDS,
    prop: Property,
    bound: int,
    engine: ReachabilityEngine | str = "symbolic",
    max_states_per_context: int = DEFAULT_STATE_LIMIT,
) -> VerificationResult:
    """Check ``prop`` for executions with at most ``bound`` contexts.

    Returns UNSAFE with the minimal revealing bound, or UNKNOWN with
    message "no violation within k contexts" — never SAFE, because CBA
    underapproximates (Sec. 7: "a bug which requires more than that
    bound to manifest will slip through").

    ``engine`` accepts any registered lane name (aliases included, see
    :mod:`repro.reach.registry`) or a prepared engine instance, whose
    existing levels up to ``bound`` are checked before any new one is
    computed.
    The result's ``stats`` carry the engine summary, ``visible_states``
    and ``meter``, the work counters this analysis produced.
    """
    engine = prepare(engine, cpds, max_states_per_context=max_states_per_context)
    return converge(
        engine, prop, max_rounds=bound, fixpoint=False, generators=False
    ).result
