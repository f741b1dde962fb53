"""Command-line interface: the ``cuba`` verifier.

Subcommands::

    cuba verify file.cpds [--property shared:ERR] [--lane auto|explicit|symbolic|wuba]
    cuba verify prog.bp --boolean [--init x=*,y=1] [--witness]
    cuba fcr file.cpds
    cuba table file.cpds [--levels 6]      # Fig. 1 style reachability table
    cuba bench [--rows 1,2,9]              # Table 2 reproduction
    cuba bench --json [--quick] [--compare BENCH_x.json]  # perf trajectory
    cuba serve [--port 8765] [--store cuba-store.sqlite]  # analysis service
    cuba submit file.cpds [--lane ...] [--port 8765]      # query the service
    cuba loadtest [--spawn 2] [--duration 10]  # replica throughput harness

``verify`` and ``submit`` exit 0 when the property is proved, 1 when
refuted, and 2 when no conclusion was reached within the round budget.
Every command exits 3 on a usage or I/O error it detects itself (a bad
``--init`` or ``--property`` value, an unreadable file, an unreachable
service), after printing ``error: ...`` to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bp.translate import compile_source
from repro.core.property import Property, property_from_spec
from repro.core.result import Verdict
from repro.cpds.format import parse_cpds
from repro.cuba.fcr import check_fcr
from repro.cuba.lanes import ensure_applicable, run_lane
from repro.cuba.verifier import Cuba
from repro.errors import CubaError
from repro.reach import registry
from repro.reach.explicit import ExplicitReach
from repro.util.table import render_table


def _parse_property(spec: str | None) -> Property:
    try:
        return property_from_spec(spec)
    except ValueError as bad:
        raise CubaError(str(bad)) from bad


def _parse_init(spec: str | None) -> dict:
    if not spec:
        return {}
    init: dict = {}
    for pair in spec.split(","):
        name, _sep, value = pair.partition("=")
        if not name or value not in ("0", "1", "*"):
            raise CubaError(f"cannot parse init {pair!r}; use var=0|1|*")
        init[name] = value if value == "*" else int(value)
    return init


def _load(args) -> tuple:
    text = Path(args.file).read_text()
    if args.boolean or args.file.endswith(".bp"):
        compiled = compile_source(text, init=_parse_init(getattr(args, "init", None)))
        prop = compiled.prop
        if getattr(args, "prop", None) is not None:
            prop = _parse_property(args.prop)
        return compiled.cpds, prop
    cpds = parse_cpds(text)
    return cpds, _parse_property(getattr(args, "prop", None))


def cmd_verify(args) -> int:
    if not getattr(args, "trace", None):
        return _run_verify(args)
    # --trace: record spans for the whole run and write the Chrome
    # trace-event JSON (open in chrome://tracing or Perfetto).  The
    # request span roots the flame chart: request → lane.run →
    # <lane>.level → saturation/replay/canonicalization.
    from repro.obs import trace
    from repro.obs.trace import write_chrome_trace

    trace.clear()
    trace.enable()
    try:
        with trace.span("verify.request", lane=args.lane):
            status = _run_verify(args)
    finally:
        trace.disable()
    recorded = trace.events()
    path = write_chrome_trace(args.trace, recorded)
    print(f"wrote trace: {path} ({len(recorded)} span(s))")
    return status


def _run_verify(args) -> int:
    cpds, prop = _load(args)
    if args.lane == "auto":
        report = Cuba(cpds, prop).verify(max_rounds=args.max_rounds)
        if args.report:
            from repro.report import render_report

            print(render_report(report, cpds, prop))
            if args.witness:
                _print_witness(cpds, report.result)
            return {
                Verdict.SAFE: 0, Verdict.UNSAFE: 1, Verdict.UNKNOWN: 2
            }[report.verdict]
        print(f"FCR: {'holds' if report.fcr.holds else 'fails'}")
        print(f"winner: {report.winner}")
        print(f"kmax(Rk) = {report.bound_text('rk')}, "
              f"kmax(T(Rk)) = {report.bound_text('trk')}")
        result = report.result
    else:
        # Any registered lane (aliases included) runs through the one
        # generic driver — no per-lane branches here.
        lane = registry.canonical_lane(args.lane)
        result = run_lane(lane, cpds, prop, max_rounds=args.max_rounds)
    print(result)
    if result.trace is not None:
        print(f"witness trace ({result.trace.n_contexts} contexts):")
        print(f"  {result.trace}")
    if args.witness:
        _print_witness(cpds, result)
    return {Verdict.SAFE: 0, Verdict.UNSAFE: 1, Verdict.UNKNOWN: 2}[result.verdict]


def _print_witness(cpds, result) -> None:
    """The ``--witness`` rendering: replay the counterexample through
    :func:`repro.reach.witness.validate_trace` and print it step by
    step — the guarantee that the reported path is a real execution."""
    from repro.reach.witness import validate_trace

    if result.verdict is not Verdict.UNSAFE:
        print("no witness: the property was not refuted")
        return
    if result.trace is None:
        print(
            "no witness trace recorded (this lane proves reachability "
            "without paths; rerun with --lane auto or --lane explicit)"
        )
        return
    trace = result.trace
    validate_trace(cpds, trace)  # raises on any illegal step
    print(
        f"witness: {len(trace)} step(s) across {trace.n_contexts} "
        "context(s), validated against the CPDS step semantics"
    )
    print(f"  start  {trace.initial}")
    for step in trace.steps:
        label = step.action.label or step.action.kind.value
        print(f"  T{step.thread + 1} {label:<12} → {step.state}")


def cmd_fcr(args) -> int:
    cpds, _prop = _load(args)
    report = check_fcr(cpds)
    print(report)
    for index, (finite, loop) in enumerate(
        zip(report.thread_finite, report.thread_has_loop)
    ):
        print(
            f"  thread {index + 1}: shallow reach "
            f"{'finite' if finite else 'infinite'}"
            f" (PSA {'has loops' if loop else 'loop-free'})"
        )
    return 0 if report.holds else 1


def cmd_table(args) -> int:
    cpds, _prop = _load(args)
    # The table enumerates (Rk) explicitly, which diverges without FCR:
    # check the lane's precondition before building the engine.
    ensure_applicable(ExplicitReach, cpds)
    engine = ExplicitReach(cpds)
    engine.ensure_level(args.levels)
    rows = []
    for k in range(args.levels + 1):
        rows.append(
            [
                k,
                " ".join(sorted(str(s) for s in engine.states_new_at(k))) or "·",
                " ".join(sorted(str(v) for v in engine.visible_new_at(k))) or "·",
            ]
        )
    print(render_table(["k", "Rk \\ Rk-1", "T(Rk) \\ T(Rk-1)"], rows))
    return 0


def cmd_bench(args) -> int:
    if args.json:
        from repro.bench.runner import main as bench_main

        forward = []
        if args.quick:
            forward.append("--quick")
        if args.rows:
            forward.extend(["--rows", args.rows])
        if args.out:
            forward.extend(["--out", args.out])
        if args.compare:
            forward.extend(["--compare", args.compare])
            forward.extend(["--tolerance", str(args.tolerance)])
        if args.merge_before:
            forward.extend(["--merge-before", args.merge_before])
        if args.phases:
            forward.append("--phases")
        return bench_main(forward)

    from repro.models.registry import runnable_benchmarks
    from repro.util.meter import measure

    wanted = set(args.rows.split(",")) if args.rows else None
    rows = []
    for benchmark in runnable_benchmarks():
        if wanted and benchmark.row.split("/")[0] not in wanted:
            continue
        cpds, prop = benchmark.build()
        verifier = Cuba(cpds, prop)
        outcome = measure(lambda: verifier.verify(max_rounds=benchmark.max_rounds))
        report = outcome.value
        rows.append(
            [
                benchmark.name,
                "yes" if report.fcr.holds else "no",
                report.verdict.value,
                report.bound_text("rk"),
                report.bound_text("trk"),
                f"{outcome.seconds:.2f}",
                f"{outcome.peak_mb:.1f}",
            ]
        )
    print(
        render_table(
            ["benchmark", "FCR", "verdict", "k(Rk)", "k(T(Rk))", "time(s)", "mem(MB)"],
            rows,
        )
    )
    return 0


def cmd_serve(args) -> int:
    from repro.obs.logs import get_logger, setup_logging
    from repro.service import AnalysisService, ServiceServer
    from repro.service.store import open_store

    setup_logging(args.log_format)
    log = get_logger("serve")
    store = open_store(
        args.store,
        max_snapshot_bytes=int(args.store_mb * 1024 * 1024),
        lease_ttl=args.lease_ttl,
    )
    if store.degraded:
        # Log-and-continue: a read-only store directory must not stop
        # the service from serving (uncached) verdicts.  /health
        # reports store_degraded=true while this mode is active.
        log.warning(
            "store unusable; serving in degraded store-less mode",
            extra={
                "fields": {"store": str(args.store), "reason": store.reason}
            },
        )
    service = AnalysisService(
        store, workers=args.workers, executor=args.executor
    )
    server = ServiceServer(service, host=args.host, port=args.port)
    server.run()
    return 0


def cmd_submit(args) -> int:
    from repro.service import ServiceClient

    text = Path(args.file).read_text()
    client = ServiceClient(host=args.host, port=args.port)
    kwargs = dict(
        property_spec=args.prop,
        engine=args.lane,
        max_rounds=args.max_rounds,
        wait=not args.no_wait,
    )
    if args.boolean or args.file.endswith(".bp"):
        response = client.submit(
            bp_text=text, bp_init=_parse_init(args.init) or None, **kwargs
        )
    else:
        response = client.submit(cpds_text=text, **kwargs)
    if args.no_wait:
        print(f"submitted: id={response['id']} status={response['status']}")
        base = f"http://{args.host}:{args.port}"
        print(f"status: GET {base}/status?id={response['id']}")
        print(f"result: GET {base}/result?id={response['id']}")
        return 0
    source = (
        "store hit"
        if response.get("cached")
        else "joined running analysis"
        if response.get("deduplicated")
        else "resumed from snapshot"
        if response.get("resumed")
        else "fresh run"
    )
    print(
        f"[{response['method']}] {response['verdict']} at k={response['bound']} "
        f"({source}): {response['message']}"
    )
    if response.get("witness"):
        print(f"witness: {response['witness']}")
    if response.get("trace"):
        print(f"trace: {response['trace']}")
    print(f"fingerprint: {response['fingerprint']}")
    return {"safe": 0, "unsafe": 1, "unknown": 2}[response["verdict"]]


def cmd_loadtest(args) -> int:
    import json

    from repro.service.loadtest import (
        compare_loadtest,
        latest_comparable_loadtest,
        run_loadtest,
        write_loadtest_json,
    )

    # Made before the run, so a bad --out fails at once, not after it.
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = run_loadtest(
        replicas=args.replicas.split(",") if args.replicas else None,
        spawn=args.spawn,
        store=args.store,
        duration=args.duration,
        concurrency=args.concurrency,
        quick=args.quick,
        max_rounds=args.max_rounds,
        label=args.label or "",
        seed=args.seed,
        executor=args.executor,
    )
    path = write_loadtest_json(payload, out_dir)
    totals = payload["totals"]
    print(f"wrote {path}")
    print(
        f"{totals['requests']} requests in {payload['elapsed']}s over "
        f"{payload['replicas']} replica(s): {totals['throughput_rps']} rps, "
        f"p50 {totals['p50_ms']}ms, p99 {totals['p99_ms']}ms, "
        f"{totals['failures']} failure(s)"
    )
    print(
        f"dedup-hit-rate {totals['dedup_hit_rate']}, store-hit-rate "
        f"{totals['store_hit_rate']}, resumes {totals['resumes']}, "
        f"client retries {totals['client_retries']} "
        f"(failovers {totals['client_failovers']}), "
        f"busy retries {totals['busy_retries']}, "
        f"leases {totals['lease']}"
    )
    print(
        f"cross-replica probes {totals['cross_replica_probes']}, "
        f"store hits {totals['cross_replica_store_hits']}"
    )
    status = 0
    if args.require_zero_failures and totals["failures"]:
        print(f"FAIL: {totals['failures']} request(s) failed", file=sys.stderr)
        status = 1
    if args.require_cross_replica_hit and not totals["cross_replica_store_hits"]:
        print(
            "FAIL: no cross-replica store hit observed (replicas are not "
            "sharing the store)",
            file=sys.stderr,
        )
        status = 1
    baseline_path = args.compare
    if baseline_path is None and args.compare_latest:
        # Committed baselines live at the repo root (like BENCH files),
        # independent of where this run's JSON was just written.
        found = latest_comparable_loadtest(payload, ".")
        if found is None:
            print("no comparable committed LOADTEST baseline; gate skipped")
        elif found == path:  # pragma: no cover - same-second stamp
            print("baseline is the run just written; gate skipped")
        else:
            baseline_path = str(found)
    if baseline_path:
        baseline = json.loads(Path(baseline_path).read_text())
        ok, messages = compare_loadtest(
            payload, baseline, tolerance=args.tolerance
        )
        print(f"compare against {baseline_path}:")
        for message in messages:
            print(f"  {message}")
        if not ok:
            status = 1
    return status


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, like every other
    usage error of the CLI: argparse's own status 2 would read as
    "inconclusive".  Subcommand parsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cuba",
        description="Context-unbounded analysis of concurrent pushdown systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help=".cpds description or .bp Boolean program")
        p.add_argument("--boolean", action="store_true", help="treat input as a Boolean program")
        p.add_argument("--init", help="Boolean program initial values, e.g. x=*,y=1")
        p.add_argument("--property", dest="prop", help="safety property, e.g. shared:ERR")

    verify = sub.add_parser("verify", help="run the CUBA verifier")
    add_common(verify)
    verify.add_argument(
        "--lane",
        "--engine",
        dest="lane",
        default="auto",
        help="analysis lane: 'auto' (the Sec. 6 front-end) or any "
        f"registered lane name {registry.lane_names()} (aliases like "
        "'wk' accepted; --engine is the pre-lane spelling)",
    )
    verify.add_argument("--max-rounds", type=int, default=30)
    verify.add_argument(
        "--report", action="store_true", help="print the full multi-section report"
    )
    verify.add_argument(
        "--witness",
        action="store_true",
        help="on a refuted property, validate the counterexample against "
        "the CPDS step semantics and print it step by step",
    )
    verify.add_argument(
        "--trace",
        metavar="FILE",
        help="record spans for the whole run and write Chrome trace-event "
        "JSON to FILE (open in chrome://tracing or Perfetto)",
    )
    verify.set_defaults(handler=cmd_verify)

    fcr = sub.add_parser("fcr", help="check finite context reachability")
    add_common(fcr)
    fcr.set_defaults(handler=cmd_fcr)

    table = sub.add_parser("table", help="print the Fig. 1 style reachability table")
    add_common(table)
    table.add_argument("--levels", type=int, default=6)
    table.set_defaults(handler=cmd_table)

    bench = sub.add_parser("bench", help="run the Table 2 benchmark suite")
    bench.add_argument("--rows", help="comma-separated row numbers, e.g. 1,5,9")
    bench.add_argument(
        "--json",
        action="store_true",
        help="run the BENCH perf-trajectory runner and write BENCH_<stamp>.json",
    )
    bench.add_argument(
        "--quick", action="store_true", help="with --json: smallest config per row"
    )
    bench.add_argument(
        "--out", help="with --json: output directory, created if missing (default: cwd)"
    )
    bench.add_argument(
        "--compare",
        metavar="FILE",
        help="with --json: baseline BENCH file; exit 1 on perf regression",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="with --compare: allowed wall-time regression fraction (default 0.25)",
    )
    bench.add_argument(
        "--merge-before",
        metavar="FILE",
        help="with --json: graft a pre-PR BENCH file in as the 'before' mode",
    )
    bench.add_argument(
        "--phases",
        action="store_true",
        help="with --json: run one extra traced repetition per workload "
        "and record per-phase span timings in the entry's 'phases' field "
        "(compare ignores it)",
    )
    bench.set_defaults(handler=cmd_bench)

    serve = sub.add_parser(
        "serve", help="run the persistent analysis service (JSON over HTTP)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--store",
        default="cuba-store.sqlite",
        help="path of the persistent verdict/snapshot store (sqlite)",
    )
    serve.add_argument(
        "--store-mb",
        type=float,
        default=64.0,
        help="snapshot size budget in MB; least-recently-used snapshots "
        "are evicted beyond it (verdicts are kept; blobs a replica is "
        "resuming from are lease-pinned and skipped)",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=300.0,
        help="seconds a resume lease pins a snapshot blob against "
        "eviction; a crashed replica's lease expires after this and is "
        "reaped instead of wedging eviction forever",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="bounded analysis executor threads (concurrent engine runs)",
    )
    serve.add_argument(
        "--executor",
        choices=["thread", "process"],
        default="process",
        help="engine-run execution: 'process' dispatches each run to a "
        "pool of worker processes over the snapshot codec (default); "
        "'thread' runs engines inline on the service threads",
    )
    serve.add_argument(
        "--log-format",
        choices=["text", "json"],
        default="text",
        help="structured log rendering: human 'text' (default) or one "
        "JSON object per line; the per-request audit line is valid JSON "
        "in both",
    )
    serve.set_defaults(handler=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a verification request to a running service"
    )
    add_common(submit)
    submit.add_argument(
        "--lane",
        "--engine",
        dest="lane",
        default="auto",
        help="analysis lane (see `cuba verify --lane`); the service "
        "canonicalizes aliases before fingerprinting",
    )
    submit.add_argument("--max-rounds", type=int, default=30)
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8765)
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="return the request id immediately instead of blocking for "
        "the verdict",
    )
    submit.set_defaults(handler=cmd_submit)

    loadtest = sub.add_parser(
        "loadtest",
        help="drive mixed traffic at 1..N service replicas and write a "
        "cuba-loadtest/1 JSON (p50/p99, dedup/store hit rates, retry and "
        "lease counters)",
    )
    loadtest.add_argument(
        "--replicas",
        help="comma-separated host:port list of already-running replicas "
        "(default: spawn fresh ones — see --spawn)",
    )
    loadtest.add_argument(
        "--spawn",
        type=int,
        default=2,
        help="without --replicas: launch N `cuba serve` subprocesses on "
        "ephemeral ports sharing ONE store file (default 2)",
    )
    loadtest.add_argument(
        "--store",
        help="with --spawn: shared store path (default: a temp file "
        "removed after the run)",
    )
    loadtest.add_argument(
        "--duration", type=float, default=10.0, help="traffic seconds (default 10)"
    )
    loadtest.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="client worker threads driving traffic (default 8)",
    )
    loadtest.add_argument(
        "--quick",
        action="store_true",
        help="registry-derived fast mix only (the CI smoke profile)",
    )
    loadtest.add_argument("--max-rounds", type=int, default=6)
    loadtest.add_argument("--label", help="free-form label stored in the payload")
    loadtest.add_argument("--seed", type=int, default=7)
    loadtest.add_argument(
        "--executor",
        choices=["thread", "process"],
        default="thread",
        help="with --spawn: replica engine-run execution mode "
        "(default thread — cheap spawn for short runs)",
    )
    loadtest.add_argument(
        "--out", help="output directory, created if missing (default: cwd)"
    )
    loadtest.add_argument(
        "--compare",
        metavar="FILE",
        help="baseline LOADTEST file; exit 1 on a calibrated throughput "
        "regression or any failed request",
    )
    loadtest.add_argument(
        "--compare-latest",
        action="store_true",
        help="pick the newest committed LOADTEST_*.json with a matching "
        "configuration as the baseline (skips the gate when none exists)",
    )
    loadtest.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="with --compare: allowed normalized-throughput drop (default 0.25)",
    )
    loadtest.add_argument(
        "--require-zero-failures",
        action="store_true",
        help="exit 1 if any request failed after client retries",
    )
    loadtest.add_argument(
        "--require-cross-replica-hit",
        action="store_true",
        help="exit 1 unless at least one cross-replica probe was answered "
        "from the shared store (proves the replicas share it)",
    )
    loadtest.set_defaults(handler=cmd_loadtest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CubaError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
