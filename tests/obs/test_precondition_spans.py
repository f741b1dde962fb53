"""Spans around the layers outside the engines' levels: the lane
preconditions (``lane.applicable``, before the first level, carrying
the check's post* work) and Alg. 3's generator test
(``cuba.generators``, at each new plateau), plus the explicit lane's
visible decode and the symbolic lane's saturation."""

import threading

import pytest

from repro.core.property import AlwaysSafe, SharedStateReachability
from repro.cuba import Cuba
from repro.cuba.fcr import check_fcr
from repro.cuba.lanes import run_lane
from repro.models import fig1_cpds, fig2_cpds
from repro.models.registry import TABLE2
from repro.obs import trace
from repro.pds.saturation import post_star
from repro.reach import wuba
from repro.reach.wuba import WubaReach
from repro.util.meter import scoped


def _spans(run) -> list[dict]:
    trace.enable()
    try:
        run()
    finally:
        trace.disable()
    return trace.take()


def _named(spans, name):
    return [span for span in spans if span["name"] == name]


def _work(lane: str, edges: int, rules: int) -> dict:
    return {
        "lane": lane,
        "post_star.edges_added": edges,
        "post_star.rule_applications": rules,
    }


def test_auto_verify_explicit_pair():
    spans = _spans(lambda: Cuba(fig1_cpds(), AlwaysSafe()).verify(max_rounds=20))
    (applicable,) = _named(spans, "lane.applicable")
    assert applicable["args"] == _work("explicit", 2, 0)
    # One generator test per new plateau of T(Rk) on Fig. 1: after level
    # 3 (rejected, Ex. 14) and after level 6 (collapse at 5).
    levels = {span["args"]["level"]: span for span in _named(spans, "explicit.level")}
    first, second = _named(spans, "cuba.generators")
    assert first["args"] == second["args"] == {"lane": "explicit"}
    assert levels[3]["ts"] + levels[3]["dur"] <= first["ts"]
    assert first["ts"] + first["dur"] <= levels[4]["ts"]
    assert levels[6]["ts"] + levels[6]["dur"] <= second["ts"]


def test_unsafe_run_never_tests_generators():
    spans = _spans(
        lambda: Cuba(fig1_cpds(), SharedStateReachability({3})).verify(max_rounds=20)
    )
    assert _named(spans, "explicit.level")
    assert not _named(spans, "cuba.generators")


def test_auto_verify_symbolic_route():
    spans = _spans(lambda: Cuba(fig2_cpds(), AlwaysSafe()).verify(max_rounds=12))
    assert [span["args"] for span in _named(spans, "lane.applicable")] == [
        _work("explicit", 28, 22)
    ]
    assert [span["args"] for span in _named(spans, "cuba.generators")] == [
        {"lane": "symbolic"}
    ]


def test_run_lane_precondition_span():
    spans = _spans(lambda: run_lane("wuba", fig1_cpds(), AlwaysSafe(), max_rounds=20))
    # Fig. 1's write-free sub-PDSs have no push rule: nothing to saturate.
    assert [span["args"] for span in _named(spans, "lane.applicable")] == [
        _work("wuba", 0, 0)
    ]
    assert not _named(spans, "cuba.generators")  # scheme1 lane: no G ∩ Z


def test_symbolic_precondition_does_no_saturation():
    spans = _spans(lambda: run_lane("symbolic", fig2_cpds(), AlwaysSafe(), max_rounds=2))
    assert [span["args"] for span in _named(spans, "lane.applicable")] == [
        _work("symbolic", 0, 0)
    ]


def _bluetooth_1():
    return next(b for b in TABLE2 if b.name == "1/Bluetooth-1 [1+1]").build()


def _fcr(cpds, prop):
    return check_fcr(cpds)


def _verify(cpds, prop):
    return Cuba(cpds, prop).verify(max_rounds=1)


def _wuba(cpds, prop):
    return run_lane("wuba", cpds, prop, max_rounds=1)


@pytest.mark.parametrize("lane, check, run", [
    ("explicit", _fcr, _verify),
    ("wuba", WubaReach.applicable, _wuba),
])
def test_precondition_span_work_is_the_checks_meter_delta(lane, check, run):
    """In one thread, the span's args are exactly what METER counts for
    the same check run untraced."""
    cpds, prop = _bluetooth_1()
    with scoped() as work:
        check(cpds, prop)
    assert work.get("post_star.edges_added", 0) > 0
    (applicable,) = _named(_spans(lambda: run(cpds, prop)), "lane.applicable")
    assert applicable["args"] == _work(
        lane,
        work.get("post_star.edges_added", 0),
        work.get("post_star.rule_applications", 0),
    )


def test_precondition_span_ignores_other_threads_work(monkeypatch):
    """A saturation another thread runs while the check is open adds
    nothing to the check's span (the service runs engines on a thread
    pool, all bumping one METER)."""
    cpds, prop = _bluetooth_1()
    with scoped() as work:
        WubaReach.applicable(cpds, prop)
    sub_pds = wuba.write_free_sub_pds

    def with_concurrent_saturation(pds):
        other = threading.Thread(target=post_star, args=(pds,))
        other.start()
        other.join()
        return sub_pds(pds)

    monkeypatch.setattr(wuba, "write_free_sub_pds", with_concurrent_saturation)
    with scoped() as traced:
        (applicable,) = _named(_spans(lambda: _wuba(cpds, prop)), "lane.applicable")
    assert traced["post_star.edges_added"] > work["post_star.edges_added"]
    assert applicable["args"] == _work(
        "wuba", work["post_star.edges_added"], work["post_star.rule_applications"]
    )


def test_explicit_decode_span_per_level():
    spans = _spans(lambda: run_lane("explicit", fig1_cpds(), AlwaysSafe(), max_rounds=6))
    levels = _named(spans, "explicit.level")
    decodes = _named(spans, "explicit.decode")
    assert len(decodes) == len(levels)
    by_id = {span["id"]: span for span in levels}
    assert all(span["parent"] in by_id for span in decodes)


def test_symbolic_saturate_span_per_expansion():
    from repro.util.meter import METER

    before = METER.snapshot()
    spans = _spans(lambda: run_lane("symbolic", fig2_cpds(), AlwaysSafe(), max_rounds=4))
    expansions = METER.delta(before).get("symbolic.expansions", 0)
    saturations = _named(spans, "symbolic.saturate")
    assert expansions > 0
    assert len(saturations) == expansions
