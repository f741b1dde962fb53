"""Alg. 3: CUBA over ``(T(Rk))`` with stuttering detection (Sec. 4.1.4).

The visible-state sequence converges by finiteness of its domain but can
stutter, so the plain plateau test is unsound.  Alg. 3 strengthens it:
on reaching a *new* plateau (``|T(Rk−2)| < |T(Rk−1)| = |T(Rk)|``) it
additionally requires every reachable generator to have been seen,
overapproximated by ``G ∩ Z ⊆ T(Rk)`` (Secs. 4.1.2–4.1.3).  If the test
fails, the algorithm skips forward to the next new plateau; by Def. 10 /
Thm. 11 a passed test certifies collapse at ``k−1``, making the
algorithm tight (it stops at the minimal convergence bound).

This module holds the test itself, :class:`GeneratorTest`, and
:func:`algorithm3`, which runs the one convergence driver
(:func:`repro.cuba.lanes.converge`) with only this test on.  The same
test runs over the explicit engine (``T(Rk)``, requires FCR) or the
symbolic engine (``T(Sk)``, App. E) — they compute the same
projections; every lane that declares ``generator_test`` gets it from
:func:`repro.cuba.lanes.run_lane` too, raced against its fixpoint test.
"""

from __future__ import annotations

from repro.core.property import Property
from repro.core.result import VerificationResult
from repro.cpds.cpds import CPDS
from repro.cpds.state import VisibleState
from repro.cuba.generators import generator_analysis
# compute_z is unused here but stays a module attribute: the benchmark's
# per-layer timers (perfbench/layers.py) rebind it by this name.
from repro.cuba.overapprox import GeneratorSearch, compute_z  # noqa: F401
from repro.obs import trace
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.reach.base import ReachabilityEngine


#: The work one generator test does: its ``cuba.generators`` span starts
#: each count at 0 and :class:`~repro.cuba.overapprox.GeneratorSearch`
#: tallies its own DFS steps and the local states whose Alg. 2 moves it
#: built onto it.
_NO_GENERATOR_WORK = {"overapprox.abstract_steps": 0, "overapprox.local_states": 0}


class GeneratorTest:
    """Thm. 11's test ``G ∩ Z ⊆ T(R≤k)``, asked at each new plateau.

    The :class:`~repro.cuba.overapprox.GeneratorSearch` is built on the
    first call, so a run that never reaches a new plateau never touches
    ``Z``.  Each call runs under a ``cuba.generators`` span when tracing
    is on, whose args carry the call's own abstract steps and the local
    states whose moves it built.  Successive calls must pass growing
    ``seen`` sets.
    """

    __slots__ = ("_cpds", "_lane", "_search")

    def __init__(self, cpds: CPDS, lane: str) -> None:
        self._cpds = cpds
        self._lane = lane
        self._search: GeneratorSearch | None = None

    def __call__(self, seen: frozenset[VisibleState]) -> frozenset[VisibleState]:
        """Unseen generators of ``Z`` found so far; empty iff every
        generator of ``Z`` is in ``seen``."""
        if not trace.enabled():
            return self._unseen(seen)
        with trace.span("cuba.generators", lane=self._lane, **_NO_GENERATOR_WORK):
            return self._unseen(seen)

    def _unseen(self, seen: frozenset[VisibleState]) -> frozenset[VisibleState]:
        if self._search is None:
            self._search = GeneratorSearch(self._cpds, generator_analysis(self._cpds))
        return self._search.unseen(seen)

    def sizes(self) -> dict[str, int]:
        """``{"Z": |Z|, "G∩Z": |G ∩ Z|}`` once the search has exhausted
        ``Z``, else empty."""
        search = self._search
        if search is None or not search.exhausted:
            return {}
        return {"Z": search.z_size, "G∩Z": search.generators}


def algorithm3(
    cpds: CPDS,
    prop: Property,
    engine: ReachabilityEngine | str = "explicit",
    max_rounds: int = 50,
    max_states_per_context: int = DEFAULT_STATE_LIMIT,
) -> VerificationResult:
    """Run Alg. 3 to a verdict or round budget.

    ``engine`` selects the representation: any registered lane name
    (``"explicit"`` — Table 2's ``Alg. 3(T(Rk))``, FCR required;
    ``"symbolic"`` — ``Alg. 3(T(Sk))``; aliases accepted, see
    :mod:`repro.reach.registry`) or a prepared engine instance.
    ``max_rounds`` is the *total* context-bound budget: a prepared
    engine's existing levels — warm reuse, or a checkpoint restore —
    are replayed through the verdict and plateau checks first and count
    toward it, so a resumed run reports exactly what an uninterrupted
    run would.

    SAFE results carry the collapse bound ``kmax`` of ``(T(Rk))``;
    UNSAFE results the context bound revealing the violation.

    The generator test runs lazily (:class:`GeneratorTest`): ``Z`` is
    explored only at a new plateau, and only until a generator missing
    from ``T(Rk)`` turns up.  ``stats["plateaus_rejected"]`` lists each
    rejected plateau with ``"missing"``, the non-empty set of unseen
    generators found so far — the diagnostic of Ex. 14.
    ``stats["Z"]`` and ``stats["G∩Z"]`` are ``|Z|`` and ``|G∩Z|``; they
    are present whenever the search has exhausted ``Z``, which every
    SAFE verdict requires.
    """
    # Imported here: the driver module imports GeneratorTest from this one.
    from repro.cuba.lanes import converge, prepare

    engine = prepare(engine, cpds, max_states_per_context=max_states_per_context)
    return converge(
        engine, prop, max_rounds=max_rounds, fixpoint=False, generators=True
    ).result
