"""The ``service-mix`` workload: a real ``cuba serve`` driven over HTTP.

Each repetition spawns one daemon with the serve defaults (process
executor, ``--workers 2``) on a fresh store inside the checkout
(``setup_s`` is spawn until ``/health`` answers and both engine
workers have run a warm-up job outside the mix), sends the seeded
request sequence of :func:`perfbench.problems.service_sequence` from 2
closed-loop client threads, and shuts the daemon down.  A thread takes
the first request whose problem has nothing in flight, so every run
makes the same fresh/resume/hit requests whatever the interleaving.
``--seconds`` fixes the number of repetitions (one per
:data:`REPETITION_SECONDS`); latencies pool across repetitions.

The traced run makes two repetitions: one untraced, scraping
``/metrics`` and ``/meter`` before and after and reading the daemon's
per-request audit lines; one with the daemon's span capture on
(``POST /trace``), whose worker spans give the snapshot and lane-level
times.  Compile and fingerprint costs are timed in this process on the
same programs, once per request the daemon prepared.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path

from perfbench import layers, problems

CLIENT_THREADS = 2
DAEMON_WORKERS = 2
STARTUP_TIMEOUT = 60.0

#: Approximate length of one daemon lifetime; ``--seconds`` fixes the
#: number of lifetimes, so a run's work does not depend on host speed.
REPETITION_SECONDS = 10.0


def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Daemon:
    """One ``cuba serve`` process on a fresh store under ``workdir``."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.port = _free_port()
        self.proc: subprocess.Popen | None = None
        self.log_path = workdir / "daemon.log"

    def start(self) -> float:
        """Spawn the daemon; return seconds until ``/health`` answers and
        every engine worker has run one job."""
        from repro.errors import ServiceError

        self.workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--host", "127.0.0.1", "--port", str(self.port),
                 "--store", str(self.workdir / "store.sqlite"),
                 "--workers", str(DAEMON_WORKERS), "--log-format", "json"],
                env=env, cwd=self.workdir, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
        probe = self.client(connect_timeout=1.0, read_timeout=10.0)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited during startup: {self.log_tail()}")
            try:
                probe.health()
                break
            except ServiceError:
                if time.perf_counter() - start > STARTUP_TIMEOUT:
                    raise RuntimeError("daemon never became healthy") from None
                time.sleep(0.01)
        self._warm()
        return time.perf_counter() - start

    def _warm(self) -> None:
        """Start every engine worker: one small request per worker, sent
        together (the pool spawns a worker per concurrent job).  The
        problems are outside the measured mix, so its store stays cold."""
        from repro.cpds import format_cpds
        from repro.models import fig1_cpds

        text = format_cpds(fig1_cpds())
        errors: list[Exception] = []

        def submit(engine: str) -> None:
            try:
                self.client().submit(cpds_text=text, property_spec="shared:3",
                                     engine=engine, max_rounds=1)
            except Exception as failure:  # re-raised below, on this thread
                errors.append(failure)

        lanes = ("explicit", "symbolic", "wuba")[:DAEMON_WORKERS]
        threads = [threading.Thread(target=submit, args=(lane,)) for lane in lanes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def client(self, connect_timeout: float = 5.0, read_timeout: float = 120.0):
        from repro.service.client import RetryPolicy, ServiceClient

        return ServiceClient(
            "127.0.0.1", self.port,
            retry=RetryPolicy(connect_timeout=connect_timeout,
                              read_timeout=read_timeout, retries=0),
        )

    def http(self, method: str, path: str, payload: dict | None = None) -> dict:
        """A JSON call to a route the client has no method for."""
        connection = HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return json.loads(response.read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the daemon and its descendants."""
        parents: dict[int, int] = {}
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit():
                try:
                    stat = (entry / "stat").read_text()
                except OSError:
                    continue
                parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
        tree, frontier = {self.proc.pid}, [self.proc.pid]
        while frontier:
            parent = frontier.pop()
            for pid, ppid in parents.items():
                if ppid == parent and pid not in tree:
                    tree.add(pid)
                    frontier.append(pid)
        total_kb = 0
        for pid in tree:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024

    def audit_lines(self) -> list[dict]:
        records = []
        for line in self.log_path.read_text(errors="replace").splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("logger") == "cuba.audit":
                records.append(record)
        return records

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def stop(self) -> None:
        """Graceful shutdown, then signals; waits for the daemon and
        kills whatever is left of its process group."""
        from repro.errors import ServiceError

        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                self.client(connect_timeout=2.0, read_timeout=10.0).shutdown()
            except ServiceError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGTERM)
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                    self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


@dataclass
class Request:
    problem: int
    step: int
    kind: str = ""
    seconds: float = 0.0
    verdict: str | None = None
    error: str | None = None


def _classify(response: dict) -> str:
    if response.get("cached"):
        return "hit"
    if response.get("resumed"):
        return "resume"
    if response.get("deduplicated"):
        return "dedup"
    return "fresh"


def drive(daemon: Daemon, chosen, sequence) -> tuple[list[Request], float]:
    """Send ``sequence`` from :data:`CLIENT_THREADS` closed-loop
    threads; return the requests (in completion order) and the
    makespan."""
    pending = [Request(index, step) for index, step in sequence]
    busy: set[int] = set()
    done: list[Request] = []
    condition = threading.Condition()

    def take() -> Request | None:
        with condition:
            while pending:
                for position, request in enumerate(pending):
                    if request.problem not in busy:
                        busy.add(request.problem)
                        return pending.pop(position)
                condition.wait()
            return None

    def worker() -> None:
        client = daemon.client()
        while (request := take()) is not None:
            kwargs = chosen[request.problem].request(request.step)
            start = time.perf_counter()
            try:
                response = client.submit(**kwargs)
                request.kind = _classify(response)
                request.verdict = response.get("verdict")
            except Exception as failure:  # counted as failed; the loop must go on
                request.error = f"{type(failure).__name__}: {failure}"
            request.seconds = time.perf_counter() - start
            with condition:
                busy.discard(request.problem)
                done.append(request)
                condition.notify_all()

    threads = [threading.Thread(target=worker) for _ in range(CLIENT_THREADS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return done, time.perf_counter() - start


class Oracle:
    """Counts failed requests: HTTP errors and conclusive verdicts that
    contradict the registry's ``safe`` column."""

    def __init__(self, chosen) -> None:
        self.chosen = chosen
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, requests: list[Request]) -> None:
        for request in requests:
            self.attempted += 1
            problem = self.chosen[request.problem]
            wrong = (request.verdict in ("safe", "unsafe")
                     and (request.verdict == "safe") != problem.bench.safe)
            if request.error is not None or wrong:
                self.failed += 1
                self.errors.append(
                    f"{problem.key} step {request.step}: "
                    f"{request.error or f'verdict {request.verdict}'}")


def _decided_share(chosen, requests: list[Request]) -> float:
    """Conclusive final answers (each problem's last request) over problems."""
    last: dict[int, Request] = {}
    for request in requests:
        if request.step > last.get(request.problem, Request(-1, -1)).step:
            last[request.problem] = request
    return sum(r.verdict in ("safe", "unsafe") for r in last.values()) / len(chosen)


def _p(values: list[float], q: int) -> float:
    """The ``q``-th percentile (interpolated) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _class_p50s(requests: list[Request]) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for request in requests:
        if request.error is None:
            by_kind.setdefault(request.kind, []).append(request.seconds)
    return {kind: 1000 * statistics.median(values) for kind, values in by_kind.items()}


def _class_counts(requests: list[Request]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for request in requests:
        key = request.kind or "error"
        counts[key] = counts.get(key, 0) + 1
    return counts


def repetition(root: Path, chosen, rng: random.Random, index: int, traced: bool = False):
    """One daemon lifetime; returns a dict of raw observations."""
    sequence = problems.service_sequence(len(chosen), rng)
    daemon = Daemon(root, root / "perfbench-out" / f"service-{os.getpid()}-{index}")
    try:
        setup = daemon.start()
        observed: dict = {"setup": setup}
        if traced:
            daemon.http("POST", "/trace", {"enabled": True})
        else:
            client = daemon.client()
            observed["metrics_before"] = client.metrics()
            observed["meter_before"] = client.meter()
        requests, makespan = drive(daemon, chosen, sequence)
        observed.update(requests=requests, makespan=makespan, rss=daemon.peak_rss_mb())
        if traced:
            observed["trace"] = daemon.http("GET", "/trace")
        else:
            client = daemon.client()
            observed["metrics_after"] = client.metrics()
            observed["meter_after"] = client.meter()
    finally:
        daemon.stop()
    if not traced:
        observed["audit"] = daemon.audit_lines()
    shutil.rmtree(daemon.workdir, ignore_errors=True)
    return observed


def untraced(root: Path, seed: int, seconds: float) -> dict:
    chosen = problems.service_problems()
    rng = random.Random(seed)
    oracle = Oracle(chosen)
    reps = []
    for index in range(max(1, round(seconds / REPETITION_SECONDS))):
        observed = repetition(root, chosen, rng, index)
        oracle.check(observed["requests"])
        reps.append(observed)
    pooled = [r for rep in reps for r in rep["requests"] if r.error is None]
    latencies = [r.seconds for r in pooled]
    metrics = {
        "setup_s": statistics.median(rep["setup"] for rep in reps),
        "wall_s": statistics.median(rep["makespan"] for rep in reps),
        "p50_ms": 1000 * statistics.median(latencies),
        "p95_ms": 1000 * _p(latencies, 95),
        "decided_share": statistics.mean(_decided_share(chosen, rep["requests"])
                                         for rep in reps),
        "peak_rss_mb": statistics.median(rep["rss"] for rep in reps),
    }
    report = {
        "repetitions": len(reps),
        "requests": len(pooled),
        "beyond_p95": sum(s * 1000 > metrics["p95_ms"] for s in latencies),
        "classes_per_repetition": [_class_counts(rep["requests"]) for rep in reps],
        "class_p50_ms": _class_p50s(pooled),
        "throughput_rps": len(pooled) / sum(rep["makespan"] for rep in reps),
        "by_repetition": [
            {"makespan_s": rep["makespan"],
             "p50_ms": 1000 * statistics.median(r.seconds for r in rep["requests"]),
             "class_p50_ms": _class_p50s(rep["requests"])}
            for rep in reps
        ],
        "setup_samples": [rep["setup"] for rep in reps],
        "errors": oracle.errors,
    }
    return {"metrics": metrics, "attempted": oracle.attempted, "failed": oracle.failed,
            "report": report}


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _histogram_sum(parsed: dict, name: str, **labels) -> float:
    total = 0.0
    for label_set, value in parsed.get(f"cuba_{name}_seconds_sum", {}).items():
        present = dict(label_set)
        if all(present.get(k) == v for k, v in labels.items()):
            total += value
    return total


def _scrape_delta(before: str, after: str) -> dict[str, float]:
    from repro.obs.prometheus import parse_text

    old, new = parse_text(before), parse_text(after)

    def delta(name: str, **labels) -> float:
        return _histogram_sum(new, name, **labels) - _histogram_sum(old, name, **labels)

    return {
        "http_submit": delta("http_request", route="/submit"),
        "service_request": delta("service_request"),
        "service_queue": delta("service_queue"),
        "store_get": delta("store_transaction", op="read") + delta("store_transaction", op="touch"),
        "store_put": delta("store_transaction", op="txn") + delta("store_transaction", op="sweep"),
        "store_all": delta("store_transaction"),
    }


def _prepare_costs(chosen) -> tuple[list[float], list[float]]:
    """Per problem: seconds to compile its program and to fingerprint
    it, timed in this process (median of 3) the way the daemon's
    ``prepare`` does it."""
    from repro.bp.translate import compile_source
    from repro.cpds.format import parse_cpds
    from repro.pds.semantics import DEFAULT_STATE_LIMIT
    from repro.service.fingerprint import cpds_digest, fingerprint
    from repro.service.server import parse_property_spec

    compile_costs, fingerprint_costs = [], []
    for problem in chosen:
        compile_samples, fingerprint_samples = [], []
        for _ in range(3):
            start = time.perf_counter()
            if "bp_text" in problem.program:
                compiled = compile_source(problem.program["bp_text"],
                                          init=problem.program.get("bp_init") or {})
                cpds, prop = compiled.cpds, compiled.prop
            else:
                cpds = parse_cpds(problem.program["cpds_text"])
                prop = parse_property_spec(None)
            middle = time.perf_counter()
            cpds_digest(cpds)
            fingerprint(cpds, prop, {"engine": problem.engine,
                                     "max_states_per_context": DEFAULT_STATE_LIMIT})
            compile_samples.append(middle - start)
            fingerprint_samples.append(time.perf_counter() - middle)
        compile_costs.append(statistics.median(compile_samples))
        fingerprint_costs.append(statistics.median(fingerprint_samples))
    return compile_costs, fingerprint_costs


def traced(root: Path, seed: int, seconds: float, trace_path) -> dict:
    chosen = problems.service_problems()
    rng = random.Random(seed)
    oracle = Oracle(chosen)
    plain = repetition(root, chosen, rng, 0)
    oracle.check(plain["requests"])
    captured = repetition(root, chosen, rng, 1, traced=True)
    oracle.check(captured["requests"])

    scraped = _scrape_delta(plain["metrics_before"], plain["metrics_after"])
    meter = {name: value - plain["meter_before"].get(name, 0)
             for name, value in plain["meter_after"].items()}
    audit = plain["audit"]
    engine_runs = [a for a in audit if a.get("store") in ("miss", "resume")]
    engine_s = sum(a.get("engine_seconds") or 0.0 for a in engine_runs)
    overhead_s = sum((a.get("total_seconds") or 0.0) - (a.get("engine_seconds") or 0.0)
                     for a in audit if a.get("store") == "miss")
    requests = [r for r in plain["requests"] if r.error is None]
    client_s = sum(r.seconds for r in requests)
    prepare_s = scraped["http_submit"] - scraped["service_request"]

    spans: dict[str, list] = {}
    for event in captured["trace"].get("traceEvents", []):
        slot = spans.setdefault(event["name"], [0, 0.0])
        slot[0] += 1
        slot[1] += event["dur"] / 1e6

    def span_seconds(name: str) -> float:
        return spans.get(name, [0, 0.0])[1]

    def span_count(name: str) -> int:
        return spans.get(name, [0, 0.0])[0]

    compile_costs, fingerprint_costs = _prepare_costs(chosen)
    per_problem = [0] * len(chosen)
    for request in requests:
        per_problem[request.problem] += 1
    class_p50 = _class_p50s(requests)
    counts = _class_counts(plain["requests"])
    metrics = layers.zero_layers()
    metrics.update({
        "explicit.advance_s": span_seconds("explicit.level"),
        "explicit.levels": span_count("explicit.level"),
        "symbolic.advance_s": span_seconds("symbolic.level"),
        "symbolic.levels": span_count("symbolic.level"),
        "wuba.advance_s": span_seconds("wuba.level"),
        "bp.compile_s": sum(n * c for n, c in zip(per_problem, compile_costs)),
        "fingerprint.seconds": sum(n * c for n, c in zip(per_problem, fingerprint_costs)),
        "service.prepare_s": prepare_s,
        "service.queue_s": scraped["service_queue"],
        "service.engine_s": engine_s,
        "executor.overhead_s": overhead_s,
        "store.get_s": scraped["store_get"],
        "store.put_s": scraped["store_put"],
        "store.busy_retries": meter.get("store.busy_retries", 0),
        "service.store_hit_ratio": layers.ratio(meter.get("service.store_hits", 0),
                                                len(requests)),
        "snapshot.encode_s": span_seconds("snapshot.encode"),
        "snapshot.decode_s": span_seconds("snapshot.decode"),
        "service.fresh_p50_ms": class_p50.get("fresh", 0.0),
        "service.resume_p50_ms": class_p50.get("resume", 0.0),
        "service.hit_p50_ms": class_p50.get("hit", 0.0),
        "service.throughput_rps": layers.ratio(len(requests), plain["makespan"]),
        "service.fresh_requests": counts.get("fresh", 0),
        "service.resume_requests": counts.get("resume", 0),
        "service.hit_requests": counts.get("hit", 0),
        "unattributed_share": 1 - layers.ratio(
            prepare_s + scraped["store_all"] + engine_s, client_s),
        "trace_overhead_share": layers.ratio(captured["makespan"], plain["makespan"]) - 1,
    })
    for key in ("explicit.expansions", "explicit.level_unique_views",
                "explicit.context_cache_hits", "symbolic.expansions",
                "symbolic.level_unique_views", "wuba.expansions", "wuba.closure_cache_hits"):
        metrics[key] = meter.get(key, 0)

    must_fire = ("service.prepare_s", "service.engine_s", "executor.overhead_s",
                 "store.get_s", "store.put_s", "snapshot.encode_s", "snapshot.decode_s",
                 "explicit.advance_s", "symbolic.advance_s", "wuba.advance_s",
                 "bp.compile_s", "fingerprint.seconds", "service.fresh_requests",
                 "service.resume_requests", "service.hit_requests")
    missing = [name for name in must_fire if not metrics[name]]
    if len(audit) != len(plain["requests"]) + DAEMON_WORKERS:
        missing.append(f"audit lines {len(audit)} != requests {len(plain['requests'])}"
                       f" + {DAEMON_WORKERS} warm-up")
    if trace_path is not None:
        Path(trace_path).write_text(json.dumps(captured["trace"]) + "\n")
    report = {
        "classes": counts,
        "wrappers_missing": missing,
        "program_spans": {name: {"count": c, "seconds": round(s, 5)}
                          for name, (c, s) in sorted(spans.items())},
        "errors": oracle.errors,
    }
    return {"metrics": metrics, "attempted": oracle.attempted, "failed": oracle.failed,
            "report": report, "ok": not missing}
