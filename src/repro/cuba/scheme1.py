"""Scheme 1 over ``(Rk)`` (Sec. 4) and over the symbolic ``(Sk)``.

Both are the one convergence driver (:func:`repro.cuba.lanes.converge`)
with only its fixpoint test on.  ``(Rk)`` is stutter-free (Lemma 7), so
a plateau *is* a collapse.  The explicit engine requires finite context
reachability; on non-FCR programs the per-context guard raises and the
run reports UNKNOWN with the explosion diagnosis.
"""

from __future__ import annotations

from repro.core.property import Property
from repro.core.result import VerificationResult
from repro.cpds.cpds import CPDS
from repro.cuba.lanes import converge
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.reach.base import ReachabilityEngine
from repro.reach.explicit import ExplicitReach
from repro.reach.symbolic import SymbolicReach


def _scheme1(
    engine: ReachabilityEngine, prop: Property, max_rounds: int
) -> VerificationResult:
    return converge(
        engine, prop, max_rounds=max_rounds, fixpoint=True, generators=False
    ).result


def scheme1_rk(
    cpds: CPDS,
    prop: Property,
    max_rounds: int = 50,
    max_states_per_context: int = DEFAULT_STATE_LIMIT,
    engine: ExplicitReach | None = None,
) -> VerificationResult:
    """Run Scheme 1(Rk) (paper Sec. 4) to a verdict or round budget.

    Returns UNSAFE with the revealing bound and a witness trace, SAFE
    with the collapse bound ``k0`` (then ``Rk = Rk0`` for all k ≥ k0),
    or UNKNOWN when the budget runs out / FCR is violated.  Every
    result's ``stats["meter"]`` carries the work counters (context-cache
    hits, saturation work) accumulated during this run.

    ``max_rounds`` is the *total* context-bound budget.  A prepared
    engine may arrive with computed history — warm reuse, or a
    checkpoint restore (:meth:`ExplicitReach.restore`): its existing
    levels are replayed through the verdict checks first and count
    toward the budget, so a run resumed from a level-``k`` snapshot
    reports exactly what an uninterrupted ``max_rounds`` run would.
    """
    if engine is None:
        engine = ExplicitReach(cpds, max_states_per_context=max_states_per_context)
    return _scheme1(engine, prop, max_rounds)


def scheme1_sk(
    cpds: CPDS,
    prop: Property,
    max_rounds: int = 50,
) -> VerificationResult:
    """Scheme 1 over the symbolic state sets ``Sk`` — a library
    extension beyond the paper's three approaches.

    A round that produces no language-new symbolic state means the
    frontier is empty, so every later ``Sk`` — and hence every ``Rk`` —
    equals the current one: the plateau test is sound.  Unlike
    ``Scheme 1(Rk)`` this works without FCR; unlike ``Alg. 3`` it needs
    no generator machinery, at the price of comparing whole automata
    languages (it cannot converge when stack languages keep growing,
    e.g. Fig. 1).
    """
    return _scheme1(SymbolicReach(cpds), prop, max_rounds)
