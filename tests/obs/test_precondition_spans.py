"""Spans around the layers outside the engines' levels: the lane
preconditions (``lane.applicable``, before the first level) and Alg. 3's
generator test (``cuba.generators``, at each new plateau), plus the
explicit lane's visible decode and the symbolic lane's saturation."""

from repro.core.property import AlwaysSafe, SharedStateReachability
from repro.cuba import Cuba
from repro.cuba.lanes import run_lane
from repro.models import fig1_cpds, fig2_cpds
from repro.obs import trace


def _spans(run) -> list[dict]:
    trace.enable()
    try:
        run()
    finally:
        trace.disable()
    return trace.take()


def _named(spans, name):
    return [span for span in spans if span["name"] == name]


def test_auto_verify_explicit_pair():
    spans = _spans(lambda: Cuba(fig1_cpds(), AlwaysSafe()).verify(max_rounds=20))
    (applicable,) = _named(spans, "lane.applicable")
    assert applicable["args"] == {"lane": "explicit"}
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
        {"lane": "explicit"}
    ]
    assert [span["args"] for span in _named(spans, "cuba.generators")] == [
        {"lane": "symbolic"}
    ]


def test_run_lane_precondition_span():
    spans = _spans(lambda: run_lane("wuba", fig1_cpds(), AlwaysSafe(), max_rounds=20))
    assert [span["args"] for span in _named(spans, "lane.applicable")] == [
        {"lane": "wuba"}
    ]
    assert not _named(spans, "cuba.generators")  # scheme1 lane: no G ∩ Z


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
