"""Plain context-bounded analysis — the Qadeer/Rehof baseline [35].

This is what JMoped implements (BDD-based) and what the paper compares
against in Fig. 5: explore reachability up to a *fixed* context bound
and report any violation found.  It can refute but never prove — a safe
answer only means "no bug within k contexts" (the fundamental CBA
limitation the CUBA algorithms remove).

Every registered lane is supported; the symbolic one matches JMoped's
pushdown-store-automata representation and is the Fig. 5 baseline.
"""

from __future__ import annotations

from repro.automata.canonical import canonical_cache_info
from repro.core.property import Property
from repro.core.result import Verdict, VerificationResult
from repro.cpds.cpds import CPDS
from repro.errors import ContextExplosionError, CubaError
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.reach import registry
from repro.reach.base import ReachabilityEngine
from repro.reach.config import EngineConfig
from repro.util.meter import METER


def context_bounded_analysis(
    cpds: CPDS,
    prop: Property,
    bound: int,
    engine: ReachabilityEngine | str = "symbolic",
    max_states_per_context: int = DEFAULT_STATE_LIMIT,
    incremental: bool | None = None,
    config: EngineConfig | None = None,
) -> VerificationResult:
    """Check ``prop`` for executions with at most ``bound`` contexts.

    Returns UNSAFE with the minimal revealing bound, or UNKNOWN with
    message "no violation within k contexts" — never SAFE, because CBA
    underapproximates (Sec. 7: "a bug which requires more than that
    bound to manifest will slip through").

    ``engine`` accepts any registered lane name (aliases included, see
    :mod:`repro.reach.registry`) or a prepared engine instance.
    Execution knobs travel in ``config``
    (:class:`~repro.reach.config.EngineConfig`) — each lane applies the
    knobs it understands; ``incremental`` overrides the config's memo
    knob.  Both are ignored when a prepared engine instance is passed.
    The UNKNOWN result's ``stats["meter"]`` records the saturation/cache/
    frontier-batching work counters this analysis produced, plus the
    canonicalization cache state and the per-engine summary — the
    numbers the BENCH harness (:mod:`repro.bench.runner`) persists.
    """
    meter_before = METER.snapshot()
    config = config if config is not None else EngineConfig()
    if incremental is not None:
        config = config.replace(incremental=incremental)
    if isinstance(engine, str):
        try:
            name = registry.canonical_lane(engine)
        except CubaError as error:
            raise ValueError(f"unknown engine {engine!r}") from error
        engine = registry.create(
            name,
            cpds,
            max_states_per_context=max_states_per_context,
            config=config,
        )
    method = f"cba(k={bound})"

    witness = prop.find_violation(engine.visible_up_to(0))
    if witness is not None:
        return VerificationResult(
            Verdict.UNSAFE, bound=0, method=method, witness=witness,
            message=f"violation of '{prop.describe()}'",
        )
    try:
        while engine.k < bound:
            engine.advance()
            witness = prop.find_violation(engine.visible_new_at(engine.k))
            if witness is not None:
                return VerificationResult(
                    Verdict.UNSAFE, bound=engine.k, method=method, witness=witness,
                    message=f"violation of '{prop.describe()}'",
                )
    except ContextExplosionError as explosion:
        return VerificationResult(
            Verdict.UNKNOWN, bound=engine.k, method=method,
            message=f"{engine.lane} engine diverged: {explosion}",
        )
    stats = {
        "visible_states": len(engine.visible_up_to()),
        "meter": METER.delta(meter_before),
        "canonical_cache": canonical_cache_info(),
    }
    if engine.lane:
        stats[engine.lane] = engine.stats()
    return VerificationResult(
        Verdict.UNKNOWN, bound=bound, method=method,
        message=f"no violation within {bound} contexts (CBA cannot prove safety)",
        stats=stats,
    )
