"""Alg. 3: CUBA over ``(T(Rk))`` with stuttering detection (Sec. 4.1.4).

The visible-state sequence converges by finiteness of its domain but can
stutter, so the plain plateau test is unsound.  Alg. 3 strengthens it:
on reaching a *new* plateau (``|T(Rk−2)| < |T(Rk−1)| = |T(Rk)|``) it
additionally requires every reachable generator to have been seen,
overapproximated by ``G ∩ Z ⊆ T(Rk)`` (Secs. 4.1.2–4.1.3).  If the test
fails, the algorithm skips forward to the next new plateau; by Def. 10 /
Thm. 11 a passed test certifies collapse at ``k−1``, making the
algorithm tight (it stops at the minimal convergence bound).

The same algorithm runs over the explicit engine (``T(Rk)``, requires
FCR) or the symbolic engine (``T(Sk)``, App. E) — they compute the same
projections.
"""

from __future__ import annotations

from repro.core.property import Property
from repro.core.result import Verdict, VerificationResult
from repro.cpds.cpds import CPDS
from repro.cpds.state import VisibleState
from repro.cuba.generators import generator_analysis
from repro.cuba.overapprox import compute_z
from repro.errors import ContextExplosionError, CubaError
from repro.obs import trace
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.reach import registry
from repro.reach.base import ReachabilityEngine


def _generator_test_set(cpds: CPDS) -> tuple[int, frozenset[VisibleState]]:
    """``(|Z|, G ∩ Z)``; ``Z`` itself is dropped once intersected."""
    z = compute_z(cpds)
    return len(z), generator_analysis(cpds).intersect(z)


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
    UNSAFE results the context bound revealing the violation.  ``stats``
    records ``|Z|``, ``|G∩Z|`` and each rejected plateau with its
    missing generators — the diagnostic of Ex. 14.
    """
    if isinstance(engine, str):
        try:
            name = registry.canonical_lane(engine)
        except CubaError as error:
            raise ValueError(f"unknown engine {engine!r}") from error
        engine = registry.create(
            name, cpds, max_states_per_context=max_states_per_context
        )
    method = f"alg3(T({engine.sequence_name}))"

    # Eagerly, before the first advance: Z is built while the engine's
    # state is still at its smallest.
    if not trace.enabled():
        z_size, reachable_generators = _generator_test_set(cpds)
    else:
        with trace.span("cuba.generators", lane=engine.lane):
            z_size, reachable_generators = _generator_test_set(cpds)
    stats: dict = {
        "Z": z_size,
        "G∩Z": len(reachable_generators),
        "plateaus_rejected": [],
    }

    def unsafe(bound: int, witness) -> VerificationResult:
        trace = None
        if engine.supports_witness:
            state = engine.find_visible(witness)
            if state is not None:
                trace = engine.trace(state)
        return VerificationResult(
            Verdict.UNSAFE,
            bound=bound,
            method=method,
            message=f"violation of '{prop.describe()}'",
            witness=witness,
            trace=trace,
            stats=dict(stats),
        )

    witness = prop.find_violation(engine.visible_up_to(0))
    if witness is not None:
        return unsafe(0, witness)

    def examine(k: int) -> VerificationResult | None:
        """The per-bound body: violation check, then the strengthened
        new-plateau test of Thm. 11."""
        witness = prop.find_violation(engine.visible_new_at(k))
        if witness is not None:
            return unsafe(k, witness)
        # New plateau: |T(Rk−2)| < |T(Rk−1)| = |T(Rk)|.
        new_plateau = not engine.visible_new_at(k) and engine.visible_new_at(k - 1)
        if not new_plateau:
            return None
        seen = engine.visible_up_to(k)
        missing = reachable_generators - seen
        if missing:
            stats["plateaus_rejected"].append(
                {"k": k - 1, "missing": frozenset(missing)}
            )
            return None  # stuttering cannot be excluded: skip forward
        stats["visible_states"] = len(seen)
        return VerificationResult(
            Verdict.SAFE,
            bound=k - 1,
            method=method,
            message=(
                "visible sequence collapsed: plateau with all reachable "
                "generators seen (Thm. 11)"
            ),
            stats=dict(stats),
        )

    try:
        # Replay bounds the engine already holds (a fresh engine has
        # only level 0), then advance to the budget.  Capped at the
        # budget: a deeper-than-requested restored engine must not leak
        # verdicts from beyond what an uninterrupted run would explore.
        for k in range(1, min(engine.k, max_rounds) + 1):
            result = examine(k)
            if result is not None:
                return result
        while engine.k < max_rounds:
            engine.advance()
            result = examine(engine.k)
            if result is not None:
                return result
    except ContextExplosionError as explosion:
        return VerificationResult(
            Verdict.UNKNOWN,
            bound=engine.k,
            method=method,
            message=f"{engine.lane} engine diverged (use symbolic): {explosion}",
            stats=dict(stats),
        )
    return VerificationResult(
        Verdict.UNKNOWN,
        bound=min(engine.k, max_rounds),
        method=method,
        message=f"no conclusion within {max_rounds} rounds",
        stats=dict(stats),
    )
