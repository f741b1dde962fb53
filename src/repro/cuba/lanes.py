"""Generic lane driver: run any registered lane to a verdict.

This is the dispatch half of the lane-plugin API
(:mod:`repro.reach.registry`): given a lane name (or a prepared engine
instance), :func:`run_lane` resolves the engine class through the
registry, checks its :meth:`~repro.reach.base.ReachabilityEngine.applicable`
precondition, and drives it with whichever generic algorithm the lane
declared sound for its observation sequence:

* ``preferred_algorithm = "scheme1"`` — the plain plateau test
  (:func:`scheme1_lane` below), sound when a plateau of the lane's
  underlying sequence is a collapse (stutter-freeness for ``(Rk)``,
  Lemma 7; a genuine fixpoint for ``(Wk)``).
* ``preferred_algorithm = "algorithm3"`` — plateau + generator test
  (:func:`repro.cuba.algorithm3.algorithm3`, Thm. 11), required when
  the underlying sequence can stutter (``(Sk)``: stack languages may
  keep growing through a visible plateau).

Adding a lane never touches this module: the registry supplies the
class, the class supplies the driver choice and capabilities
(``supports_witness`` gates trace materialization).
"""

from __future__ import annotations

from repro.core.property import Property
from repro.core.result import Verdict, VerificationResult
from repro.cpds.cpds import CPDS
from repro.errors import ContextExplosionError, CubaError
from repro.obs import trace
from repro.reach import registry
from repro.reach.base import ReachabilityEngine
from repro.reach.config import EngineConfig
from repro.util.meter import METER

__all__ = [
    "ensure_applicable",
    "not_applicable",
    "precondition_holds",
    "run_lane",
    "scheme1_lane",
]


def precondition_holds(
    cls: type[ReachabilityEngine], cpds: CPDS, prop: Property | None = None
) -> bool:
    """``cls.applicable(cpds, prop)``, under a ``lane.applicable`` span
    when tracing is on."""
    if not trace.enabled():
        return cls.applicable(cpds, prop)
    with trace.span("lane.applicable", lane=cls.lane):
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


def _lane_stats(engine: ReachabilityEngine, meter_before: dict) -> dict:
    return {
        **engine.stats(),
        "visible_states": len(engine.visible_up_to()),
        "meter": METER.delta(meter_before),
    }


def scheme1_lane(
    cpds: CPDS,
    prop: Property,
    *,
    engine: ReachabilityEngine,
    max_rounds: int = 50,
) -> VerificationResult:
    """Scheme 1 over any lane whose plateau is a collapse.

    Mirrors the paper's Scheme 1: advance the sequence level by level,
    report UNSAFE on the first violating level (with a witness trace
    when the lane supports one), SAFE on a plateau of the *underlying*
    sequence, UNKNOWN past the budget or on a divergence guard.

    ``max_rounds`` is the total level budget; a prepared engine's
    existing levels are replayed through the checks first and count
    toward it, so a run resumed from a snapshot reports exactly what an
    uninterrupted run would.
    """
    meter_before = METER.snapshot()
    method = f"scheme1({engine.sequence_name})"

    def check(bound: int) -> VerificationResult | None:
        witness = engine.violation_at(bound, prop)
        if witness is None:
            return None
        trace = None
        if engine.supports_witness:
            state = engine.find_visible(witness)
            trace = engine.trace(state) if state is not None else None
        return VerificationResult(
            Verdict.UNSAFE,
            bound=bound,
            method=method,
            message=f"violation of '{prop.describe()}'",
            witness=witness,
            trace=trace,
            stats=_lane_stats(engine, meter_before),
        )

    def safe(bound: int) -> VerificationResult:
        return VerificationResult(
            Verdict.SAFE,
            bound=bound,
            method=method,
            message=f"({engine.sequence_name}) collapsed (plateau is a collapse "
            "for this lane)",
            stats=_lane_stats(engine, meter_before),
        )

    # Replay the checks over any levels the engine already holds (a
    # fresh engine has only level 0), capped at the budget so a
    # deeper-than-requested restore cannot leak verdicts from beyond it.
    for bound in range(min(engine.k, max_rounds) + 1):
        result = check(bound)
        if result is not None:
            return result
        if engine.plateaued_at(bound):
            return safe(bound)
    try:
        while engine.k < max_rounds:
            engine.advance()
            k = engine.k
            result = check(k)
            if result is not None:
                return result
            if engine.plateaued_at(k):
                return safe(k)
    except ContextExplosionError as explosion:
        return VerificationResult(
            Verdict.UNKNOWN,
            bound=engine.k,
            method=method,
            message=f"{engine.lane} engine diverged: {explosion}",
            stats=_lane_stats(engine, meter_before),
        )
    return VerificationResult(
        Verdict.UNKNOWN,
        bound=min(engine.k, max_rounds),
        method=method,
        message=f"no conclusion within {max_rounds} rounds",
        stats=_lane_stats(engine, meter_before),
    )


def run_lane(
    lane: str | ReachabilityEngine,
    cpds: CPDS,
    prop: Property,
    *,
    max_rounds: int = 50,
    max_states_per_context: int | None = None,
    config: EngineConfig | None = None,
    engine: ReachabilityEngine | None = None,
) -> VerificationResult:
    """Run one named lane (or a prepared engine) to a verdict.

    ``lane`` may be a canonical lane name, an alias
    (:data:`repro.reach.registry.LANE_ALIASES`), or an engine instance.
    Raises :class:`~repro.errors.CubaError` for unknown lanes and for
    lanes whose :meth:`applicable` precondition fails on this model.
    """
    if isinstance(lane, ReachabilityEngine):
        engine = lane
    if engine is not None:
        cls = type(engine)
    else:
        cls = registry.engine_class(lane)
        ensure_applicable(cls, cpds, prop)
        engine = cls.create(
            cpds, max_states_per_context=max_states_per_context, config=config
        )
    # One driver-level span over the whole run: the verify/serve trace
    # nests request → lane.run → <lane>.level → saturation/replay/
    # canonicalization (the levels come from the base-class template).
    with trace.span(
        "lane.run", lane=cls.lane, algorithm=cls.preferred_algorithm
    ):
        if cls.preferred_algorithm == "algorithm3":
            from repro.cuba.algorithm3 import algorithm3

            return algorithm3(cpds, prop, engine=engine, max_rounds=max_rounds)
        return scheme1_lane(cpds, prop, engine=engine, max_rounds=max_rounds)
