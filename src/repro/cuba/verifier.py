"""The CUBA front-end (paper Sec. 6).

Given a CPDS and a property, Cuba first decides FCR, which picks the
lane: the explicit engine if it holds, else the symbolic one.  Either
lane then runs through the one convergence driver
(:func:`repro.cuba.lanes.converge`) with both termination tests on,
evaluated every round on one shared engine — the observable behavior
of the paper's two computation threads, deterministically interleaved,
reporting whichever concludes first::

    Input: a CPDS Pn and a property C
    1: if Pn satisfies FCR then
    2:     Alg. 3(T(Rk)) ∥ Scheme 1(Rk)
    3: else
    4:     Alg. 3(T(Sk))

Line 4 runs here as ``Alg. 3(T(Sk)) ∥ Scheme 1(Sk)``: an empty ``(Sk)``
frontier is a true fixpoint.  On every non-FCR Table 2 row Alg. 3
concludes first, so the reported verdicts and bounds are the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.property import Property
from repro.core.result import Verdict, VerificationResult
from repro.cpds.cpds import CPDS
from repro.cuba.fcr import FCRReport, check_fcr

# Unused here but kept as module attributes: the benchmark's per-layer
# timers (perfbench/layers.py) rebind them by these names.
from repro.cuba.generators import generator_analysis  # noqa: F401
from repro.cuba.lanes import (
    applicable_span,
    drive,
    not_applicable,
    precondition_holds,
    run_lane,
)
from repro.cuba.overapprox import compute_z  # noqa: F401
from repro.obs import trace
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.reach import registry
from repro.reach.base import ReachabilityEngine


def _fcr_report(cpds: CPDS) -> FCRReport:
    """:func:`check_fcr` — the explicit lane's precondition — under an
    :func:`~repro.cuba.lanes.applicable_span` when tracing is on."""
    if not trace.enabled():
        return check_fcr(cpds)
    with applicable_span("explicit"):
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
    ) -> None:
        self.cpds = cpds
        self.prop = prop
        self.max_states_per_context = max_states_per_context
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
          the explicit and the symbolic lane, each racing Alg. 3
          against its fixpoint test.
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
        lane = "explicit" if fcr.holds else "symbolic"
        if engine is None:
            engine = registry.create(
                lane, self.cpds, max_states_per_context=self.max_states_per_context
            )
        elif engine.lane != lane:
            raise ValueError(
                f"FCR {'holds' if fcr.holds else 'fails'}: the prepared engine "
                f"must be from the {lane!r} lane, got lane {engine.lane!r} "
                f"(registered lanes: {', '.join(registry.lane_names())})"
            )
        self.last_engine = engine
        outcome = drive(engine, self.prop, max_rounds=max_rounds)
        result = outcome.result
        winner = {
            Verdict.SAFE: result.method, Verdict.UNSAFE: "cuba", Verdict.UNKNOWN: "none"
        }[result.verdict]
        # (Rk) is tracked only on the explicit lane; on the symbolic one
        # the Table 2 style lower bound "≥" is the result's own bound.
        return CubaReport(
            fcr=fcr,
            result=result,
            winner=winner,
            rk_bound=outcome.fixpoint_bound if fcr.holds else None,
            trk_bound=outcome.plateau_bound,
            interrupted_at=outcome.explored if fcr.holds else result.bound,
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
            self.cpds, max_states_per_context=self.max_states_per_context
        )
        self.last_engine = prepared
        result = run_lane(prepared, self.cpds, self.prop, max_rounds=max_rounds)
        return CubaReport(
            fcr=fcr,
            result=result,
            winner=result.method,
            interrupted_at=result.bound,
        )
