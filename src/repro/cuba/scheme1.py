"""Scheme 1 instantiated with the global-state sequence ``(Rk)`` (Sec. 4).

``(Rk)`` is stutter-free (Lemma 7), so a plateau *is* a collapse and the
plain Scheme 1 plateau test is sound.  The explicit engine requires
finite context reachability; on non-FCR programs the per-context guard
raises and the run reports UNKNOWN with the explosion diagnosis.
"""

from __future__ import annotations

from repro.core.observation import ObservationSequence
from repro.core.property import Property
from repro.core.result import Verdict, VerificationResult
from repro.cpds.cpds import CPDS
from repro.cpds.state import VisibleState
from repro.cuba.lanes import scheme1_lane
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.reach.config import EngineConfig
from repro.reach.explicit import ExplicitReach
from repro.util.meter import METER


class RkSequence(ObservationSequence):
    """The observation sequence ``k ↦ Rk`` over an explicit engine."""

    def __init__(self, engine: ExplicitReach) -> None:
        self.engine = engine

    @property
    def k(self) -> int:
        return self.engine.k

    def advance(self) -> None:
        self.engine.advance()

    def equals_previous(self) -> bool:
        return self.engine.plateaued_at(self.engine.k)

    def find_violation(self, prop: Property) -> VisibleState | None:
        # Rk refines T(Rk); reachability properties are checked on the
        # projection (they are expressible there, Ex. 2).
        return prop.find_violation(self.engine.visible_up_to())


def scheme1_rk(
    cpds: CPDS,
    prop: Property,
    max_rounds: int = 50,
    max_states_per_context: int = DEFAULT_STATE_LIMIT,
    engine: ExplicitReach | None = None,
    incremental: bool | None = None,
    config: EngineConfig | None = None,
) -> VerificationResult:
    """Run Scheme 1(Rk) (paper Sec. 4) to a verdict or round budget.

    Returns UNSAFE with the revealing bound and a witness trace, SAFE
    with the collapse bound ``k0`` (then ``Rk = Rk0`` for all k ≥ k0),
    or UNKNOWN when the budget runs out / FCR is violated.  Every
    result's ``stats["meter"]`` carries the work counters (context-cache
    hits, saturation work) accumulated during this run.

    Execution knobs travel in ``config``
    (:class:`~repro.reach.config.EngineConfig`; ``batched=False``
    selects the seed per-state oracle path), and ``incremental``
    overrides the config's memo knob for the engine constructed here.
    Both are ignored when a prepared ``engine`` instance is passed
    (configure that engine at construction instead).

    ``max_rounds`` is the *total* context-bound budget.  A prepared
    engine may arrive with computed history — warm reuse, or a
    checkpoint restore (:meth:`ExplicitReach.restore`): its existing
    levels are replayed through the verdict checks first and count
    toward the budget, so a run resumed from a level-``k`` snapshot
    reports exactly what an uninterrupted ``max_rounds`` run would.

    This is the explicit lane's instantiation of the generic driver
    :func:`repro.cuba.lanes.scheme1_lane` (sound here by Lemma 7:
    ``(Rk)`` is stutter-free, so a plateau is a collapse).
    """
    if engine is None:
        engine = ExplicitReach(
            cpds,
            max_states_per_context=max_states_per_context,
            incremental=incremental,
            config=config,
        )
    return scheme1_lane(cpds, prop, engine=engine, max_rounds=max_rounds)


def scheme1_sk(
    cpds: CPDS,
    prop: Property,
    max_rounds: int = 50,
    incremental: bool = True,
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
    from repro.reach.symbolic import SymbolicReach

    meter_before = METER.snapshot()
    engine = SymbolicReach(cpds, incremental=incremental)
    method = "scheme1(Sk)"

    def sk_stats() -> dict:
        return {
            **engine.stats(),
            "meter": METER.delta(meter_before),
        }

    def check(bound: int) -> VerificationResult | None:
        witness = prop.find_violation(engine.visible_new_at(bound))
        if witness is None:
            return None
        return VerificationResult(
            Verdict.UNSAFE,
            bound=bound,
            method=method,
            message=f"violation of '{prop.describe()}'",
            witness=witness,
        )

    result = check(0)
    if result is not None:
        return result
    for _round in range(max_rounds):
        engine.advance()
        k = engine.k
        result = check(k)
        if result is not None:
            return result
        if engine.plateaued_at(k):
            return VerificationResult(
                Verdict.SAFE,
                bound=k,
                method=method,
                message="symbolic state set collapsed (empty frontier)",
                stats=sk_stats(),
            )
    return VerificationResult(
        Verdict.UNKNOWN,
        bound=engine.k,
        method=method,
        message=f"no conclusion within {max_rounds} rounds",
        stats=sk_stats(),
    )
