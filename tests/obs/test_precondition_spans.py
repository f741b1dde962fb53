"""Spans around the layers that run before the first level: the lane
preconditions (``lane.applicable``) and Alg. 3's ``G ∩ Z``
(``cuba.generators``)."""

from repro.core.property import AlwaysSafe
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
    (generators,) = _named(spans, "cuba.generators")
    assert applicable["args"] == {"lane": "explicit"}
    assert generators["args"] == {"lane": "explicit"}
    # G ∩ Z is computed before the first level.
    first_level = min(span["ts"] for span in _named(spans, "explicit.level"))
    assert generators["ts"] + generators["dur"] <= first_level


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
