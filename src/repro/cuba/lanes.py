"""The one convergence driver, and running any registered lane with it.

Every verdict in :mod:`repro.cuba` comes out of :func:`converge`: it
walks the levels of one engine — first the levels a prepared engine
already holds (warm reuse, or a checkpoint restore), capped at the
budget, then fresh ones from ``engine.advance()`` — and at each level
``k`` asks, in this order:

1. ``violation_at(k, prop)`` — UNSAFE at ``k``, with a witness trace
   when the lane ``supports_witness``;
2. the *fixpoint* test ``plateaued_at(k)``: level ``k`` added nothing
   to the lane's underlying sequence.  On every lane that is an empty
   frontier, hence a true fixpoint (for ``(Rk)`` also Lemma 7's
   plateau-is-a-collapse), so Scheme 1 may answer SAFE at ``k``;
3. the *generator* test of Thm. 11 at a new plateau of ``T(·)``
   (``|T(k−2)| < |T(k−1)| = |T(k)|``): SAFE at ``k−1`` once every
   generator of ``G ∩ Z`` has been seen (Alg. 3), asked lazily through
   :class:`~repro.cuba.algorithm3.GeneratorTest`.

When both tests fire at one level Alg. 3 wins with bound ``k−1``.  A
:class:`~repro.errors.ContextExplosionError` ends the run UNKNOWN.
The entry points differ only in which tests they switch on:

* :func:`run_lane` and :class:`~repro.cuba.verifier.Cuba` — every test
  the lane declares: the fixpoint test always, the generator test when
  the lane's class sets ``generator_test`` (its levels count contexts,
  so Thm. 11 applies to its ``T(·)``).  On the explicit lane that is
  Sec. 6's ``Alg. 3(T(Rk)) ∥ Scheme 1(Rk)``; on the symbolic lane
  ``Alg. 3(T(Sk)) ∥ Scheme 1(Sk)``; on wuba ``Scheme 1(Wk)``;
* :func:`~repro.cuba.algorithm3.algorithm3` — the generator test only;
* :func:`~repro.cuba.scheme1.scheme1_rk` / ``scheme1_sk`` — the
  fixpoint test only;
* :func:`~repro.cuba.cba.context_bounded_analysis` — neither, with the
  context bound as the budget.

Adding a lane never touches this module: the registry supplies the
class, the class supplies its tests and capabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.property import Property
from repro.core.result import Verdict, VerificationResult
from repro.cpds.cpds import CPDS
from repro.cuba.algorithm3 import GeneratorTest
from repro.errors import ContextExplosionError, CubaError
from repro.obs import trace
from repro.reach import registry
from repro.reach.base import ReachabilityEngine
from repro.util.meter import METER

__all__ = [
    "Convergence",
    "applicable_span",
    "converge",
    "drive",
    "ensure_applicable",
    "method_name",
    "not_applicable",
    "precondition_holds",
    "prepare",
    "run_lane",
]


#: The saturation work a precondition check does (FCR and WCR saturate
#: shallow configurations): its ``lane.applicable`` span starts each
#: count at 0 and :func:`~repro.pds.saturation.shallow_finiteness`
#: tallies its own engine's work onto it.
_NO_PRECONDITION_WORK = {"post_star.edges_added": 0, "post_star.rule_applications": 0}


def applicable_span(lane: str):
    """A ``lane.applicable`` span whose args carry the check's own
    ``post_star.*`` work.  The counts come from the check's engines,
    not from METER, so concurrent engines on other threads add nothing
    to them.  Callers enter it only when tracing is on."""
    return trace.span("lane.applicable", lane=lane, **_NO_PRECONDITION_WORK)


def precondition_holds(
    cls: type[ReachabilityEngine], cpds: CPDS, prop: Property | None = None
) -> bool:
    """``cls.applicable(cpds, prop)``, under an :func:`applicable_span`
    when tracing is on."""
    if not trace.enabled():
        return cls.applicable(cpds, prop)
    with applicable_span(cls.lane):
        return cls.applicable(cpds, prop)


def not_applicable(
    cls: type[ReachabilityEngine], cpds: CPDS, prop: Property | None = None
) -> CubaError:
    """The error for lane ``cls`` whose precondition just failed; the
    applicable lanes it lists are checked without re-running ``cls``'s."""
    others = registry.applicable_lanes(cpds, prop, excluding=cls.lane)
    return CubaError(
        f"lane {cls.lane!r} is not applicable to this model "
        "(its precondition failed); applicable lanes: "
        f"{', '.join(others) or 'none'}"
    )


def ensure_applicable(
    cls: type[ReachabilityEngine], cpds: CPDS, prop: Property | None = None
) -> None:
    """Raise :class:`~repro.errors.CubaError` unless lane ``cls`` may run
    on this model.  Callers that construct engines themselves must call
    this *before* construction — building an engine whose precondition
    fails (e.g. a wuba engine on a non-WCR model) can diverge into the
    state-limit guard instead of failing fast."""
    if not precondition_holds(cls, cpds, prop):
        raise not_applicable(cls, cpds, prop)


def prepare(
    engine: ReachabilityEngine | str,
    cpds: CPDS,
    *,
    max_states_per_context: int | None = None,
) -> ReachabilityEngine:
    """A prepared engine as is, or a fresh engine of the named lane
    (aliases accepted); :class:`ValueError` for an unknown name.  No
    precondition check: the library entry points leave that to the
    caller."""
    if not isinstance(engine, str):
        return engine
    try:
        name = registry.canonical_lane(engine)
    except CubaError as error:
        raise ValueError(f"unknown engine {engine!r}") from error
    return registry.create(name, cpds, max_states_per_context=max_states_per_context)


def method_name(sequence: str, *, fixpoint: bool, generators: bool) -> str:
    """The ``method`` of a run with these tests on a lane computing
    ``sequence``, e.g. ``alg3(T(Sk))∥scheme1(Sk)``; empty for none."""
    names = [f"alg3(T({sequence}))"] if generators else []
    if fixpoint:
        names.append(f"scheme1({sequence})")
    return "∥".join(names)


@dataclass(slots=True)
class Convergence:
    """What :func:`converge` found.

    ``fixpoint_bound`` is the level at which the fixpoint test fired and
    ``plateau_bound`` the collapse bound Thm. 11 certified (one below
    the new plateau's level); each is None when its test did not fire.
    ``explored`` is the last level examined.
    """

    result: VerificationResult
    fixpoint_bound: int | None
    plateau_bound: int | None
    explored: int


def converge(
    engine: ReachabilityEngine,
    prop: Property,
    *,
    max_rounds: int,
    fixpoint: bool,
    generators: bool,
) -> Convergence:
    """Drive ``engine`` to a verdict within ``max_rounds`` levels (see
    the module docstring for the per-level tests).

    ``max_rounds`` is the *total* budget: a prepared engine's existing
    levels are examined first and count toward it, so a run resumed
    from a level-``k`` snapshot reports exactly what an uninterrupted
    run would, and a deeper engine leaks no verdict from beyond it.

    Every result's ``stats`` carry ``engine.stats()``,
    ``visible_states`` (``|T(≤explored)|``) and ``meter`` (this run's
    METER delta).  With the generator test on they also carry
    ``plateaus_rejected`` — each rejected plateau's collapse candidate
    ``k`` and ``missing``, the unseen generators found (Ex. 14) — and,
    once ``Z`` has been exhausted (every Alg. 3 SAFE), ``Z`` and
    ``G∩Z``.
    """
    method = method_name(
        engine.sequence_name, fixpoint=fixpoint, generators=generators
    ) or f"cba(k={max_rounds})"
    meter_before = METER.snapshot()
    generator_test = GeneratorTest(engine.cpds, engine.lane) if generators else None
    rejected: list[dict] = []
    fixpoint_bound: int | None = None
    plateau_bound: int | None = None

    def finish(verdict: Verdict, k: int, message: str = "", **found) -> Convergence:
        stats = {
            **engine.stats(),
            "visible_states": len(engine.visible_up_to(k)),
            "meter": METER.delta(meter_before),
        }
        if generator_test is not None:
            stats.update(generator_test.sizes(), plateaus_rejected=rejected)
        bound, found_by = k, method
        if verdict is Verdict.SAFE:
            alg3 = plateau_bound is not None
            bound = plateau_bound if alg3 else fixpoint_bound
            sequence = engine.sequence_name
            found_by = method_name(sequence, fixpoint=not alg3, generators=alg3)
            message = (
                "visible sequence collapsed: plateau with all reachable "
                "generators seen (Thm. 11)"
                if alg3
                else f"({sequence}) collapsed: level {k} added nothing (a fixpoint)"
            )
        result = VerificationResult(
            verdict, bound=bound, method=found_by, message=message, stats=stats,
            **found,
        )
        return Convergence(result, fixpoint_bound, plateau_bound, k)

    with trace.span("lane.run", lane=engine.lane, algorithm=method):
        k = 0
        try:
            for k in range(max_rounds + 1):
                if k > engine.k:
                    engine.advance()
                witness = engine.violation_at(k, prop)
                if witness is not None:
                    path = None
                    if engine.supports_witness:
                        state = engine.find_visible(witness)
                        path = engine.trace(state) if state is not None else None
                    return finish(
                        Verdict.UNSAFE, k, f"violation of '{prop.describe()}'",
                        witness=witness, trace=path,
                    )
                if fixpoint and engine.plateaued_at(k):
                    fixpoint_bound = k
                if (
                    generator_test is not None
                    and engine.visible_plateaued_at(k)
                    and not engine.visible_plateaued_at(k - 1)
                ):
                    missing = generator_test(engine.visible_up_to(k))
                    if missing:  # stuttering cannot be excluded: skip forward
                        rejected.append({"k": k - 1, "missing": missing})
                    else:
                        plateau_bound = k - 1
                if plateau_bound is not None or fixpoint_bound is not None:
                    return finish(Verdict.SAFE, k)
        except ContextExplosionError as explosion:
            return finish(
                Verdict.UNKNOWN, engine.k, f"{engine.lane} engine diverged: {explosion}"
            )
        if fixpoint or generators:
            return finish(Verdict.UNKNOWN, k, f"no conclusion within {max_rounds} rounds")
        return finish(
            Verdict.UNKNOWN, k,
            f"no violation within {max_rounds} contexts (CBA cannot prove safety)",
        )


def drive(
    engine: ReachabilityEngine, prop: Property, *, max_rounds: int
) -> Convergence:
    """:func:`converge` with every test ``engine``'s lane declares."""
    return converge(
        engine,
        prop,
        max_rounds=max_rounds,
        fixpoint=True,
        generators=type(engine).generator_test,
    )


def run_lane(
    lane: str | ReachabilityEngine,
    cpds: CPDS,
    prop: Property,
    *,
    max_rounds: int = 50,
    max_states_per_context: int | None = None,
) -> VerificationResult:
    """Run one named lane (or a prepared engine) to a verdict.

    ``lane`` may be a canonical lane name, an alias
    (:data:`repro.reach.registry.LANE_ALIASES`), or an engine instance.
    Raises :class:`~repro.errors.CubaError` for unknown lanes and for
    lanes whose :meth:`applicable` precondition fails on this model.
    """
    if isinstance(lane, ReachabilityEngine):
        engine = lane
    else:
        cls = registry.engine_class(lane)
        ensure_applicable(cls, cpds, prop)
        engine = cls.create(cpds, max_states_per_context=max_states_per_context)
    return drive(engine, prop, max_rounds=max_rounds).result
