#!/usr/bin/env python3
"""Quickstart: the paper's running example (Fig. 1) end to end.

Builds the two-thread CPDS of Fig. 1, prints its context-bounded
reachability table (the right half of Fig. 1), shows the generator
machinery of Ex. 13/14, and runs the full CUBA verifier.

Run:  python examples/quickstart.py
"""

from repro import AlwaysSafe, Cuba, SharedStateReachability
from repro.cuba import algorithm3, check_fcr, compute_z, generator_analysis
from repro.models import fig1_cpds
from repro.reach import ExplicitReach
from repro.util import render_table


def print_reachability_table(levels: int = 6) -> None:
    """Regenerate the table of Fig. 1 (right)."""
    engine = ExplicitReach(fig1_cpds())
    engine.ensure_level(levels)
    rows = []
    for k in range(levels + 1):
        new_states = " ".join(sorted(str(s) for s in engine.states_new_at(k)))
        new_visible = " ".join(sorted(str(v) for v in engine.visible_new_at(k)))
        rows.append([k, new_states or "—", new_visible or "— (plateau)"])
    print(render_table(["k", "Rk \\ Rk-1", "T(Rk) \\ T(Rk-1)"], rows))


def main() -> None:
    cpds = fig1_cpds()
    print("== Fig. 1 CPDS ==")
    print(f"initial state: {cpds.initial_state()}")
    print()

    print("== Context-bounded reachability (Fig. 1, right) ==")
    print_reachability_table()
    print()

    print("== FCR check (Sec. 5 / Fig. 4) ==")
    print(check_fcr(cpds))
    print()

    print("== Generators (Ex. 13 / Ex. 14) ==")
    analysis = generator_analysis(cpds)
    z = compute_z(cpds)
    print(f"Z  (context-insensitive overapproximation): {len(z)} visible states")
    reachable_generators = analysis.intersect(z)
    print("G∩Z =", ", ".join(sorted(str(v) for v in reachable_generators)))
    print()

    print("== Alg. 3 over T(Rk) ==")
    result = algorithm3(cpds, AlwaysSafe(), engine="explicit")
    print(result)
    for rejected in result.stats["plateaus_rejected"]:
        missing = ", ".join(sorted(str(v) for v in rejected["missing"]))
        print(
            f"  plateau at k={rejected['k']} rejected: "
            f"generator(s) {missing} still unseen"
        )
    print()

    print("== Full Cuba front-end ==")
    report = Cuba(cpds, AlwaysSafe()).verify()
    print(f"verdict: {report.verdict.value} (winner: {report.winner})")
    print(f"kmax(Rk) = {report.bound_text('rk')}, kmax(T(Rk)) = {report.bound_text('trk')}")
    print()

    print("== Refutation with a witness trace ==")
    report = Cuba(cpds, SharedStateReachability({3})).verify()
    print(f"verdict: {report.verdict.value} at context bound {report.result.bound}")
    print(f"trace: {report.result.trace}")
    print()

    print("== Persistent analysis service: submit twice, hit the store ==")
    # The service layer (PR 5) content-addresses each problem
    # (CPDS + property + engine config), stores verdicts and engine
    # snapshots in sqlite, and deduplicates identical work: the first
    # submission runs an engine, the second is answered from the store
    # without touching one — METER proves it.  `cuba serve` wraps this
    # same core in a JSON-over-HTTP server; `cuba submit` is its client.
    import tempfile
    from pathlib import Path

    from repro import format_cpds
    from repro.service import AnalysisRequest, AnalysisService, AnalysisStore
    from repro.util.meter import scoped

    with tempfile.TemporaryDirectory() as workdir:
        service = AnalysisService(AnalysisStore(Path(workdir) / "store.sqlite"))
        request = AnalysisRequest(
            cpds_text=format_cpds(cpds), property_spec="shared:3", max_rounds=10
        )
        with scoped() as first_work:
            first = service.run(request)
        with scoped() as second_work:
            second = service.run(request)
        service.close()
    print(
        f"first submit:  {first['verdict']} at k={first['bound']} "
        f"(engine runs: {first_work.get('service.engine_runs', 0)})"
    )
    print(
        f"second submit: {second['verdict']} at k={second['bound']} "
        f"(engine runs: {second_work.get('service.engine_runs', 0)}, "
        f"store hit: {second['cached']})"
    )
    assert second["cached"] and second_work.get("service.engine_runs", 0) == 0
    print()

    print("== A second lane: WUBA, write-bounded instead of context-bounded ==")
    # Engines are *lanes* registered in repro.reach.registry; run_lane
    # drives any of them generically.  The wuba lane's level k holds the
    # states reachable with at most k shared-state WRITES (each level
    # closed under write-free computation), so the same Fig. 1 bug
    # surfaces at write bound 3 — and a (Wk) plateau, unlike (Rk), is a
    # full fixpoint.  On the CLI: `cuba verify file.cpds --lane wuba`
    # (aliases: rk/sk/wk).
    from repro.cuba.lanes import run_lane
    from repro.reach import registry

    print(f"registered lanes: {', '.join(registry.lane_names())}")
    applicable = registry.applicable_lanes(cpds, SharedStateReachability({3}))
    print(f"applicable to Fig. 1: {', '.join(applicable)}")
    result = run_lane("wuba", cpds, SharedStateReachability({3}), max_rounds=6)
    print(result)
    print()

    print("== Observability: spans, latency histograms, /metrics ==")
    # Tracing is off by default and free while off; flip it on and any
    # run records nested spans (request -> lane.run -> <lane>.level ->
    # saturation/replay), exportable as Chrome trace-event JSON for
    # chrome://tracing / Perfetto.  On the CLI:
    # `cuba verify file.cpds --trace out.json`.  Against a live
    # `cuba serve`: `POST /trace {"enabled": true}` toggles capture,
    # `GET /trace` exports, `GET /metrics` serves Prometheus text
    # (counters + per-lane request latency histograms), and every
    # submit emits one structured audit line
    # (`--log-format json` for machine-shippable logs).
    from repro.obs import trace
    from repro.obs.metrics import LATENCY
    from repro.obs.prometheus import render

    trace.clear()
    trace.enable()
    run_lane("explicit", cpds, SharedStateReachability({3}), max_rounds=6)
    trace.disable()
    spans = trace.take()
    names = sorted({span["name"] for span in spans})
    print(f"recorded {len(spans)} spans: {', '.join(names)}")
    p99 = LATENCY.percentile("store_transaction", 0.99, op="get")
    if p99 is not None:
        print(f"store get p99: {p99 * 1000:.2f}ms")
    scrape = render()  # the exact /metrics body
    print(f"/metrics exposition: {len(scrape.splitlines())} sample lines")


if __name__ == "__main__":
    main()
