"""The CUBA front-end (paper Sec. 6).

Given a CPDS and a property, Cuba first decides FCR.  If it holds, both
explicit methods run "in parallel" — here deterministically interleaved
on one shared engine, evaluating both termination tests every round and
reporting whichever concludes first, exactly the observable behavior of
the paper's two computation threads.  Otherwise the symbolic
``Alg. 3(T(Sk))`` runs alone::

    Input: a CPDS Pn and a property C
    1: if Pn satisfies FCR then
    2:     Alg. 3(T(Rk)) ∥ Scheme 1(Rk)
    3: else
    4:     Alg. 3(T(Sk))
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.property import Property
from repro.core.result import Verdict, VerificationResult
from repro.cpds.cpds import CPDS
from repro.cuba.algorithm3 import GeneratorTest, algorithm3
from repro.cuba.fcr import FCRReport, check_fcr

# Unused here but kept as module attributes: the benchmark's per-layer
# timers (perfbench/layers.py) rebind them by these names.
from repro.cuba.generators import generator_analysis  # noqa: F401
from repro.cuba.lanes import not_applicable, precondition_holds, run_lane
from repro.cuba.overapprox import compute_z  # noqa: F401
from repro.errors import ContextExplosionError
from repro.obs import trace
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.reach import registry
from repro.reach.base import ReachabilityEngine
from repro.reach.config import EngineConfig


def _fcr_report(cpds: CPDS) -> FCRReport:
    """:func:`check_fcr` — the explicit lane's precondition — under a
    ``lane.applicable`` span when tracing is on."""
    if not trace.enabled():
        return check_fcr(cpds)
    with trace.span("lane.applicable", lane="explicit"):
        return check_fcr(cpds)


@dataclass(slots=True)
class CubaReport:
    """Full outcome of a Cuba run.

    ``result`` is the winning verdict; ``winner`` names the method that
    produced it.  ``rk_bound`` / ``trk_bound`` are the collapse bounds of
    ``(Rk)`` and ``(T(Rk))`` when determined; a method interrupted by the
    other's success reports only the lower bound ``≥ interrupted_at``
    (Table 2's ``≥`` entries).
    """

    fcr: FCRReport
    result: VerificationResult
    winner: str
    rk_bound: int | None = None
    trk_bound: int | None = None
    interrupted_at: int | None = None

    @property
    def verdict(self) -> Verdict:
        return self.result.verdict

    def bound_text(self, which: str) -> str:
        """Table 2 style rendering of a kmax column (``"rk"``/``"trk"``)."""
        bound = self.rk_bound if which == "rk" else self.trk_bound
        if bound is not None:
            return str(bound)
        if self.interrupted_at is not None:
            return f"≥{self.interrupted_at}"
        return "-"


class Cuba:
    """Verifier implementing the overall procedure of Sec. 6."""

    def __init__(
        self,
        cpds: CPDS,
        prop: Property,
        max_states_per_context: int = DEFAULT_STATE_LIMIT,
        config: EngineConfig | None = None,
    ) -> None:
        self.cpds = cpds
        self.prop = prop
        self.max_states_per_context = max_states_per_context
        #: Execution knobs forwarded to whatever engine :meth:`verify`
        #: constructs (:class:`~repro.reach.config.EngineConfig`) —
        #: each lane applies what it understands.
        self.config = config if config is not None else EngineConfig()
        #: The reachability engine the last :meth:`verify` call ran on
        #: (the lane the registry/FCR dispatch selected) — the handle
        #: the analysis service snapshots for deeper-``k`` resume.
        self.last_engine: ReachabilityEngine | None = None

    # ------------------------------------------------------------------
    def verify(
        self,
        max_rounds: int = 50,
        engine: ReachabilityEngine | str | None = None,
    ) -> CubaReport:
        """Run the front-end procedure and collect the full report.

        ``engine`` selects the lane:

        * ``None`` — the paper's auto procedure: FCR decides between
          the explicit pair race and the symbolic ``Alg. 3(T(Sk))``.
        * a registered lane name (or alias) — run exactly that lane via
          :func:`repro.cuba.lanes.run_lane`, e.g. ``"wuba"``.
        * a prepared engine instance of the lane FCR selects — warm
          reuse, or a checkpoint restore.  Its existing levels are
          replayed through the verdict checks and count toward the
          ``max_rounds`` total-bound budget, so a resumed run reports
          exactly what an uninterrupted run would.
        """
        if isinstance(engine, str):
            return self._verify_lane(engine, max_rounds)
        fcr = _fcr_report(self.cpds)
        if fcr.holds:
            return self._verify_explicit_pair(fcr, max_rounds, engine)
        if engine is None:
            engine = registry.create("symbolic", self.cpds, config=self.config)
        elif engine.lane != "symbolic":
            raise ValueError(
                "FCR fails: the prepared engine must be from the "
                f"'symbolic' lane, got lane {engine.lane!r} "
                f"(registered lanes: {', '.join(registry.lane_names())})"
            )
        self.last_engine = engine
        result = algorithm3(
            self.cpds, self.prop, engine=engine, max_rounds=max_rounds
        )
        trk = result.bound if result.verdict is Verdict.SAFE else None
        return CubaReport(
            fcr=fcr,
            result=result,
            winner=result.method,
            trk_bound=trk,
            # (Rk) is never tracked on the symbolic path; report the
            # Table 2 style lower bound "≥ explored".
            interrupted_at=result.bound,
        )

    # ------------------------------------------------------------------
    def _verify_lane(self, lane: str, max_rounds: int) -> CubaReport:
        """Run one named lane to a verdict and wrap it in a report.

        The lane's own ``applicable`` precondition replaces the FCR
        dispatch; Table 2's ``(Rk)``/``(T(Rk))`` bound columns are
        specific to the auto procedure, so a named-lane report carries
        only the explored bound (``interrupted_at``)."""
        cls = registry.engine_class(lane)
        fcr = _fcr_report(self.cpds)
        # The explicit lane's precondition is FCR itself: reuse the report.
        if cls.lane == "explicit":
            holds = fcr.holds
        else:
            holds = precondition_holds(cls, self.cpds, self.prop)
        if not holds:
            raise not_applicable(cls, self.cpds, self.prop)
        prepared = cls.create(
            self.cpds,
            max_states_per_context=self.max_states_per_context,
            config=self.config,
        )
        self.last_engine = prepared
        result = run_lane(prepared, self.cpds, self.prop, max_rounds=max_rounds)
        return CubaReport(
            fcr=fcr,
            result=result,
            winner=result.method,
            interrupted_at=result.bound,
        )

    # ------------------------------------------------------------------
    def _verify_explicit_pair(
        self,
        fcr: FCRReport,
        max_rounds: int,
        engine: ReachabilityEngine | None = None,
    ) -> CubaReport:
        """Alg. 3(T(Rk)) ∥ Scheme 1(Rk) on one shared explicit engine."""
        if engine is None:
            engine = registry.create(
                "explicit",
                self.cpds,
                max_states_per_context=self.max_states_per_context,
                config=self.config,
            )
        elif engine.lane != "explicit":
            raise ValueError(
                "FCR holds: the prepared engine must be from the "
                f"'explicit' lane, got lane {engine.lane!r} "
                f"(registered lanes: {', '.join(registry.lane_names())})"
            )
        self.last_engine = engine
        generator_test = GeneratorTest(self.cpds, "explicit")

        witness = self.prop.find_violation(engine.visible_up_to(0))
        if witness is not None:
            return self._unsafe_report(fcr, engine, 0, witness)

        rk_bound: int | None = None
        trk_bound: int | None = None

        def examine(k: int) -> CubaReport | None:
            """Both methods' per-bound checks; a report ends the race."""
            nonlocal rk_bound, trk_bound
            witness = self.prop.find_violation(engine.visible_new_at(k))
            if witness is not None:
                return self._unsafe_report(fcr, engine, k, witness)

            if rk_bound is None and engine.plateaued_at(k):
                rk_bound = k  # (Rk) collapsed (Lemma 7)
            if trk_bound is None:
                new_plateau = (
                    not engine.visible_new_at(k) and engine.visible_new_at(k - 1)
                )
                if new_plateau and not generator_test(engine.visible_up_to(k)):
                    trk_bound = k - 1  # (T(Rk)) collapsed (Thm. 11)

            if rk_bound is None and trk_bound is None:
                return None
            winner = "scheme1(Rk)" if trk_bound is None else "alg3(T(Rk))"
            result = VerificationResult(
                Verdict.SAFE,
                bound=trk_bound if trk_bound is not None else rk_bound,
                method=winner,
                message="observation sequence converged",
                stats={
                    "global_states": engine.n_states,
                    "visible_states": len(engine.visible_up_to()),
                },
            )
            return CubaReport(
                fcr=fcr,
                result=result,
                winner=winner,
                rk_bound=rk_bound,
                trk_bound=trk_bound,
                interrupted_at=k,
            )

        try:
            # Replay bounds the engine already holds (a fresh engine has
            # only level 0), then advance to the budget.  Capped at the
            # budget: a deeper-than-requested restored engine must not
            # leak verdicts past what an uninterrupted run explores.
            for k in range(1, min(engine.k, max_rounds) + 1):
                report = examine(k)
                if report is not None:
                    return report
            while engine.k < max_rounds:
                engine.advance()
                report = examine(engine.k)
                if report is not None:
                    return report
        except ContextExplosionError as explosion:
            result = VerificationResult(
                Verdict.UNKNOWN,
                bound=engine.k,
                method="cuba",
                message=f"{engine.lane} engine diverged: {explosion}",
            )
            return CubaReport(
                fcr=fcr, result=result, winner="none", interrupted_at=engine.k
            )

        explored = min(engine.k, max_rounds)
        result = VerificationResult(
            Verdict.UNKNOWN,
            bound=explored,
            method="cuba",
            message=f"no conclusion within {max_rounds} rounds",
        )
        return CubaReport(fcr=fcr, result=result, winner="none", interrupted_at=explored)

    # ------------------------------------------------------------------
    def _unsafe_report(
        self, fcr: FCRReport, engine: ReachabilityEngine, bound: int, witness
    ) -> CubaReport:
        state = engine.find_visible(witness)
        trace = engine.trace(state) if state is not None else None
        result = VerificationResult(
            Verdict.UNSAFE,
            bound=bound,
            method="cuba",
            message=f"violation of '{self.prop.describe()}'",
            witness=witness,
            trace=trace,
        )
        return CubaReport(
            fcr=fcr,
            result=result,
            winner="cuba",
            rk_bound=None,
            trk_bound=None,
            interrupted_at=bound,
        )
