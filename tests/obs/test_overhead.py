"""The disabled-tracing overhead gate (CI ``obs-smoke`` lane).

Tracing must be free when off.  A direct traced-vs-untraced A/B wall
comparison of a quick engine run is too noisy to gate at the 2% level
on shared CI runners, so the gate is computed from its two stable
factors instead:

* the per-call cost of a *disabled* ``trace.span(...)`` (one module
  flag read, the shared ``_NULL`` object — microbenchmarked over many
  iterations, so the estimate is tight), and
* the number of span call sites an actual run passes through (counted
  by running the same workload once with tracing enabled).

Their product is the total disabled-mode cost the instrumentation adds
to that run, and it must stay under 2% of the run's untraced wall time.
The workload is one fixed Table 2 row, Bluetooth-3 [1+1] on the explicit
lane (~40 ms on a 2-core container, ~150 spans): a sub-millisecond run
would make the denominator as noisy as the A/B comparison this gate
avoids, and would tighten the gate with every speedup of the lane.
"""

import time

import pytest

from repro.cuba.lanes import run_lane
from repro.models.registry import smallest_per_row
from repro.obs import trace

pytestmark = pytest.mark.quick


def _workload():
    (bench,) = smallest_per_row(lambda bench: bench.row == "3/Bluetooth-3")
    cpds, prop = bench.build()
    return lambda: run_lane("explicit", cpds, prop, max_rounds=bench.max_rounds)


def _untraced_wall(run) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _span_count(run) -> int:
    trace.clear()
    trace.enable()
    try:
        run()
    finally:
        trace.disable()
    return len(trace.take())


def _disabled_span_cost() -> float:
    iterations = 200_000
    span = trace.span  # the call sites' own access pattern
    start = time.perf_counter()
    for _ in range(iterations):
        with span("overhead.probe", level=1):
            pass
    return (time.perf_counter() - start) / iterations


def test_disabled_tracing_costs_under_two_percent():
    run = _workload()
    wall = _untraced_wall(run)
    spans = _span_count(run)
    assert spans > 0, "the run must actually pass span call sites"
    per_call = _disabled_span_cost()
    total_disabled_cost = per_call * spans
    budget = 0.02 * wall
    assert total_disabled_cost < budget, (
        f"{spans} disabled span call sites × {per_call * 1e9:.0f}ns "
        f"= {total_disabled_cost * 1e6:.1f}µs exceeds 2% of the "
        f"{wall * 1e3:.1f}ms untraced run ({budget * 1e6:.1f}µs)"
    )


def test_disabled_span_is_allocation_free():
    # The disabled path hands every caller the same shared object — the
    # structural guarantee behind the microbenchmark above.
    assert trace.span("a", x=1) is trace.span("b")
