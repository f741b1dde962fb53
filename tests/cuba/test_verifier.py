"""Tests for the Cuba front-end (Sec. 6 procedure)."""

import pytest

from repro.core import AlwaysSafe, SharedStateReachability, Verdict
from repro.cpds import CPDS
from repro.cuba import Cuba, fcr, verifier
from repro.cuba.lanes import ensure_applicable
from repro.errors import CubaError
from repro.models import fig1_cpds, fig2_cpds
from repro.pds import PDS
from repro.reach import registry
from repro.reach.explicit import ExplicitReach
from repro.reach.wuba import WubaReach


class TestFig1:
    def test_fcr_route_taken(self):
        report = Cuba(fig1_cpds(), AlwaysSafe()).verify(max_rounds=20)
        assert report.fcr.holds
        assert report.verdict is Verdict.SAFE

    def test_alg3_wins_since_rk_diverges(self):
        report = Cuba(fig1_cpds(), AlwaysSafe()).verify(max_rounds=20)
        assert report.winner == "alg3(T(Rk))"
        assert report.trk_bound == 5
        assert report.rk_bound is None  # interrupted, Table 2 style "≥"
        assert report.bound_text("trk") == "5"
        assert report.bound_text("rk").startswith("≥")

    def test_unsafe_with_trace(self):
        report = Cuba(fig1_cpds(), SharedStateReachability({3})).verify()
        assert report.verdict is Verdict.UNSAFE
        assert report.result.bound == 2
        assert report.result.trace is not None


class TestFig2:
    def test_symbolic_route_taken(self):
        report = Cuba(fig2_cpds(), AlwaysSafe()).verify(max_rounds=12)
        assert not report.fcr.holds
        assert report.winner == "alg3(T(Sk))"
        assert report.verdict is Verdict.SAFE
        assert report.trk_bound == 2


class TestScheme1Winner:
    def test_terminating_program_won_by_scheme1(self):
        # Both threads stop after one context each; Rk collapses quickly
        # and (Rk) plateau fires — possibly alongside Alg. 3.
        one = PDS(initial_shared=0, shared_states={0, 1, 2})
        one.rule(0, "a", 1, ("b",))
        two = PDS(initial_shared=0, shared_states={0, 1, 2})
        two.rule(1, "x", 2, ())
        cpds = CPDS([one, two], initial_stacks=[("a",), ("x",)])
        report = Cuba(cpds, AlwaysSafe()).verify()
        assert report.verdict is Verdict.SAFE
        assert report.rk_bound is not None or report.trk_bound is not None

    def test_initial_violation_short_circuits(self):
        report = Cuba(fig1_cpds(), SharedStateReachability({0})).verify()
        assert report.verdict is Verdict.UNSAFE
        assert report.result.bound == 0

    def test_budget_exhaustion(self):
        # Strip the generator machinery's chance: property safe but
        # sequence diverging and budget tiny.
        report = Cuba(fig1_cpds(), AlwaysSafe()).verify(max_rounds=2)
        assert report.verdict is Verdict.UNKNOWN
        assert report.bound_text("rk") == "≥2"


@pytest.fixture
def precondition_calls(monkeypatch):
    """Count FCR checks (both bindings callers use) and WCR checks."""
    calls = {"fcr": 0, "wcr": 0}
    check_fcr = fcr.check_fcr
    wcr = WubaReach.applicable.__func__

    def counted_fcr(cpds):
        calls["fcr"] += 1
        return check_fcr(cpds)

    def counted_wcr(cls, cpds, prop=None):
        calls["wcr"] += 1
        return wcr(cls, cpds, prop)

    monkeypatch.setattr(fcr, "check_fcr", counted_fcr)
    monkeypatch.setattr(verifier, "check_fcr", counted_fcr)
    monkeypatch.setattr(WubaReach, "applicable", classmethod(counted_wcr))
    return calls


def old_rejection(lane, cpds, prop):
    """The reject message as built before (every lane's check re-run)."""
    return (
        f"lane {lane!r} is not applicable to this model "
        "(its precondition failed); applicable lanes: "
        f"{', '.join(registry.applicable_lanes(cpds, prop)) or 'none'}"
    )


class TestPreconditionCalls:
    @pytest.mark.parametrize("build", [fig1_cpds, fig2_cpds])
    def test_auto_verify_checks_fcr_once(self, build, precondition_calls):
        Cuba(build(), AlwaysSafe()).verify(max_rounds=12)
        assert precondition_calls == {"fcr": 1, "wcr": 0}

    def test_named_explicit_lane_checks_fcr_once(self, precondition_calls):
        report = Cuba(fig1_cpds(), AlwaysSafe()).verify(max_rounds=4, engine="rk")
        assert report.fcr.holds
        assert precondition_calls == {"fcr": 1, "wcr": 0}

    def test_named_wuba_lane_checks_each_precondition_once(self, precondition_calls):
        report = Cuba(fig1_cpds(), AlwaysSafe()).verify(max_rounds=20, engine="wuba")
        assert report.fcr.holds
        assert precondition_calls == {"fcr": 1, "wcr": 1}

    @pytest.mark.parametrize(("lane", "counter"), [("explicit", "fcr"), ("wuba", "wcr")])
    def test_named_lane_reject_skips_the_failed_check(
        self, lane, counter, precondition_calls
    ):
        cpds, prop = fig2_cpds(), AlwaysSafe()
        expected = old_rejection(lane, cpds, prop)
        precondition_calls.update(fcr=0, wcr=0)
        with pytest.raises(CubaError) as raised:
            Cuba(cpds, prop).verify(engine=lane)
        assert str(raised.value) == expected
        assert precondition_calls[counter] == 1

    @pytest.mark.parametrize(
        ("cls", "counter"), [(ExplicitReach, "fcr"), (WubaReach, "wcr")]
    )
    def test_ensure_applicable_reject_skips_the_failed_check(
        self, cls, counter, precondition_calls
    ):
        cpds, prop = fig2_cpds(), AlwaysSafe()
        expected = old_rejection(cls.lane, cpds, prop)
        precondition_calls.update(fcr=0, wcr=0)
        with pytest.raises(CubaError) as raised:
            ensure_applicable(cls, cpds, prop)
        assert str(raised.value) == expected
        assert precondition_calls[counter] == 1
