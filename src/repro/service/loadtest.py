"""``cuba loadtest``: a service throughput harness for 1..N replicas.

Drives mixed **submit/status/result** traffic from a pool of client
threads against a replica set (either daemons the caller already runs,
or — spawn mode — N ``cuba serve`` subprocesses launched on ephemeral
ports *sharing one store file*, the multi-replica deployment shape),
then writes a ``cuba-loadtest/1`` JSON payload in the spirit of the
``cuba-bench/1`` perf trajectory:

* per-op and overall **p50/p99 latency** plus throughput (requests/s),
* **dedup-hit-rate** (client-observed ``cached``/``deduplicated``
  responses per submit) and **store-hit-rate** (METER
  ``service.store_hits`` per submit, summed over replicas),
* **retry counts** (client retries/failovers) and **lease contention**
  (``store.leases_*``, ``store.eviction_lease_skips``,
  ``store.busy_retries`` — the PR 7 multi-replica safety counters),
* a **cross-replica probe**: a fingerprint computed on its
  affinity-home replica is re-submitted to a *different* replica, which
  must answer from the shared store (``cached`` + a ``store_hits``
  bump, zero extra engine runs) — the committed-baseline smoke's proof
  that N daemons really share one store.

Like BENCH files, LOADTEST files carry a ``calibration_seconds`` spin
so throughput can be compared across machines, and
:func:`compare_loadtest` gates a current run against a committed
baseline with a matching configuration (``LOADTEST_*.json`` at the
repo root is the service-throughput trajectory).

The traffic mix deliberately includes a *shallow/deeper* pair on one
fingerprint (``max_rounds=1`` then ``max_rounds=4``): the shallow run
parks an inconclusive snapshot in the store, the deeper run resumes it
— which exercises the lease-guarded eviction path under load, not just
in unit tests.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ServiceError
from repro.service.client import RetryPolicy, ServiceClient

LOADTEST_SCHEMA = "cuba-loadtest/1"

#: METER keys (per replica, summed) persisted into the payload.
_METER_KEYS = (
    "service.engine_runs",
    "service.store_hits",
    "service.dedup_joins",
    "service.resumes",
    "service.store_evictions",
    "service.snapshot_rejects",
    "service.store_read_errors",
    "store.busy_retries",
    "store.leases_acquired",
    "store.leases_released",
    "store.leases_reaped",
    "store.eviction_lease_skips",
)


@dataclass(frozen=True)
class WorkloadItem:
    """One submittable problem with its traffic weight."""

    name: str
    weight: int
    kwargs: dict


def build_workloads(quick: bool = True, max_rounds: int = 6) -> list[WorkloadItem]:
    """The traffic mix.  Everything is registry-derived and fast; the
    ``resume-*`` pair shares one fingerprint (``max_rounds`` is outside
    the fingerprint) so the deeper submission resumes the shallow run's
    snapshot — the lease-guarded path."""
    from repro.cpds import format_cpds
    from repro.models import fig1_cpds

    fig1 = format_cpds(fig1_cpds())
    items = [
        WorkloadItem(
            "fig1-explicit", 5,
            dict(cpds_text=fig1, property_spec="shared:3",
                 engine="explicit", max_rounds=max_rounds),
        ),
        WorkloadItem(
            "fig1-symbolic", 3,
            dict(cpds_text=fig1, property_spec="shared:3",
                 engine="symbolic", max_rounds=max_rounds),
        ),
        WorkloadItem(
            "fig1-auto", 3,
            dict(cpds_text=fig1, property_spec="shared:3",
                 engine="auto", max_rounds=max_rounds),
        ),
        # Distinct fingerprint (different property set) so the pair is
        # not short-circuited by the conclusive fig1-explicit entry.
        WorkloadItem(
            "resume-shallow", 2,
            dict(cpds_text=fig1, property_spec="shared:3,4",
                 engine="explicit", max_rounds=1),
        ),
        WorkloadItem(
            "resume-deeper", 2,
            dict(cpds_text=fig1, property_spec="shared:3,4",
                 engine="explicit", max_rounds=4),
        ),
    ]
    if not quick:
        from repro.models.dekker import dekker_source

        items.append(
            WorkloadItem(
                "dekker-auto", 2,
                dict(bp_text=dekker_source(), engine="auto",
                     max_rounds=max(8, max_rounds)),
            )
        )
    return items


# ----------------------------------------------------------------------
# Replica spawning (self-contained multi-replica runs)
# ----------------------------------------------------------------------
@dataclass
class Replica:
    """One spawned ``cuba serve`` subprocess.  Its stdout and stderr
    go to ``log_path``: a pipe nobody drains would fill with audit
    lines and block the daemon mid-request."""

    proc: subprocess.Popen
    host: str
    port: int
    log_path: Path

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def stop(self, timeout: float = 10.0) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()
                self.proc.wait()


def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _repro_env() -> dict:
    import os

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def spawn_replicas(
    count: int,
    store_path: str | Path,
    *,
    executor: str = "thread",
    workers: int = 2,
    store_mb: float = 64.0,
    lease_ttl: float = 300.0,
    startup_timeout: float = 60.0,
) -> list[Replica]:
    """Launch ``count`` ``cuba serve`` daemons on ephemeral ports, all
    sharing ``store_path`` (the contention shape under test), and wait
    until every ``/health`` answers.  The default ``thread`` executor
    keeps spawn cost negligible for short smoke profiles; pass
    ``process`` for the daemon-default execution mode.  Each replica
    logs to ``replica-<port>.log`` next to the store."""
    env = _repro_env()
    log_dir = Path(store_path).parent
    replicas: list[Replica] = []
    try:
        for _ in range(count):
            port = _free_port()
            log_path = log_dir / f"replica-{port}.log"
            with open(log_path, "wb") as log:
                proc = subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.cli", "serve",
                        "--host", "127.0.0.1", "--port", str(port),
                        "--store", str(store_path),
                        "--store-mb", str(store_mb),
                        "--lease-ttl", str(lease_ttl),
                        "--workers", str(workers),
                        "--executor", executor,
                    ],
                    env=env,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                )
            replicas.append(Replica(proc, "127.0.0.1", port, log_path))
        deadline = time.monotonic() + startup_timeout
        for index, replica in enumerate(replicas):
            probe = ServiceClient(
                replica.host, replica.port,
                retry=RetryPolicy(connect_timeout=2.0, read_timeout=10.0,
                                  retries=0),
            )
            while True:
                if replica.proc.poll() is not None:
                    raise ServiceError(
                        f"replica {index} exited during startup: "
                        f"{replica.log_tail()}"
                    )
                try:
                    probe.health()
                    break
                except ServiceError:
                    if time.monotonic() > deadline:
                        raise ServiceError(
                            f"replica {index} never became healthy"
                        ) from None
                    time.sleep(0.05)
        return replicas
    except BaseException:
        for replica in replicas:
            replica.stop()
        raise


def stop_replicas(replicas: list[Replica], client: ServiceClient | None) -> None:
    """Graceful shutdown via the API, then terminate stragglers."""
    if client is not None:
        try:
            client.shutdown()
        except ServiceError:  # already down — terminate below
            pass
    for replica in replicas:
        try:
            replica.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        replica.stop()


# ----------------------------------------------------------------------
# Traffic driver
# ----------------------------------------------------------------------
@dataclass
class _Shared:
    """Cross-worker traffic state."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    known_ids: list[str] = field(default_factory=list)
    #: fingerprint -> (submit kwargs, response final?) for the
    #: cross-replica probe phase.
    problems: dict[str, tuple[dict, bool]] = field(default_factory=dict)


def _drive(
    client: ServiceClient,
    workloads: list[WorkloadItem],
    shared: _Shared,
    deadline: float,
    seed: int,
) -> list[tuple[str, float, bool, dict]]:
    """One worker thread's loop: weighted submit/status/result mix
    until the deadline; returns (op, seconds, ok, flags) records."""
    rng = random.Random(seed)
    weights = [item.weight for item in workloads]
    records: list[tuple[str, float, bool, dict]] = []
    while time.monotonic() < deadline:
        with shared.lock:
            ids = list(shared.known_ids)
        roll = rng.random()
        if roll < 0.5 or not ids:
            op = "submit"
        elif roll < 0.75:
            op = "status"
        else:
            op = "result"
        started = time.perf_counter()
        ok = True
        flags: dict = {}
        try:
            if op == "submit":
                item = rng.choices(workloads, weights=weights)[0]
                response = client.submit(**item.kwargs)
                problem = response.get("fingerprint")
                flags = {
                    "cached": bool(response.get("cached")),
                    "deduplicated": bool(response.get("deduplicated")),
                    "resumed": bool(response.get("resumed")),
                }
                if problem:
                    with shared.lock:
                        if problem not in shared.problems:
                            shared.known_ids.append(problem)
                        previous = shared.problems.get(problem, (None, False))
                        shared.problems[problem] = (
                            item.kwargs,
                            previous[1] or bool(response.get("final")),
                        )
            elif op == "status":
                client.status(rng.choice(ids))
            else:
                client.result(rng.choice(ids))
        except ServiceError:
            ok = False
        records.append((op, time.perf_counter() - started, ok, flags))
    return records


def _percentile(sorted_seconds: list[float], q: float) -> float | None:
    if not sorted_seconds:
        return None
    index = min(
        len(sorted_seconds) - 1, round(q * (len(sorted_seconds) - 1))
    )
    return sorted_seconds[index]


def _meter_sum(client: ServiceClient, replicas: int) -> dict[str, int]:
    totals: dict[str, int] = {}
    for index in range(replicas):
        for name, value in client.meter(replica=index).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _server_latency(client: ServiceClient, replicas: int) -> dict:
    """Server-truth request latency: scrape every replica's ``/metrics``
    exposition, sum the ``cuba_service_request_seconds`` buckets across
    replicas and label sets, and interpolate p50/p99 out of the merged
    histogram — latency as the *servers* measured it, with client
    transport and retry time excluded.  Best-effort: an unreachable
    replica is skipped, no samples means ``{}``."""
    from repro.obs.metrics import quantile_from_buckets
    from repro.obs.prometheus import parse_text

    cumulative: dict[float, float] = {}
    total = 0.0
    for index in range(replicas):
        try:
            parsed = parse_text(client.metrics(replica=index))
        except (ServiceError, ValueError):
            continue
        buckets = parsed.get("cuba_service_request_seconds_bucket", {})
        for labels, value in buckets.items():
            le = dict(labels).get("le")
            if le is None:
                continue
            bound = float("inf") if le == "+Inf" else float(le)
            cumulative[bound] = cumulative.get(bound, 0.0) + value
        for value in parsed.get(
            "cuba_service_request_seconds_count", {}
        ).values():
            total += value
    if not total or not cumulative:
        return {}
    bounds = sorted(bound for bound in cumulative if bound != float("inf"))
    counts: list[float] = []
    previous = 0.0
    for bound in bounds + [float("inf")]:
        counts.append(cumulative.get(bound, previous) - previous)
        previous = cumulative.get(bound, previous)
    return {
        "server_requests": int(total),
        "server_p50_ms": round(
            quantile_from_buckets(tuple(bounds), counts, total, 0.50) * 1000, 3
        ),
        "server_p99_ms": round(
            quantile_from_buckets(tuple(bounds), counts, total, 0.99) * 1000, 3
        ),
    }


def _cross_replica_probe(
    client: ServiceClient, shared: _Shared, limit: int = 3
) -> dict:
    """Re-submit settled problems to a replica *other than* their
    affinity home; a healthy shared store answers ``cached`` with a
    ``service.store_hits`` bump and zero new engine runs on that
    replica.  Returns ``{"attempted": n, "hits": n}``."""
    n_replicas = len(client.replicas)
    attempted = hits = 0
    if n_replicas < 2:
        return {"attempted": 0, "hits": 0}
    with shared.lock:
        settled = [
            (problem, kwargs)
            for problem, (kwargs, final) in shared.problems.items()
            if final
        ]
    for _problem, kwargs in settled[:limit]:
        key = ServiceClient._routing_key(
            {
                "cpds": kwargs.get("cpds_text"),
                "bp": kwargs.get("bp_text"),
                "init": kwargs.get("bp_init"),
                "property": kwargs.get("property_spec"),
                "engine": kwargs.get("engine", "auto"),
            }
        )
        home = client._ring.ordered(key)[0]
        probe = (home + 1) % n_replicas
        attempted += 1
        try:
            before = client.meter(replica=probe)
            response = client.submit(**kwargs, replica=probe)
            after = client.meter(replica=probe)
        except ServiceError:
            continue
        if (
            response.get("cached")
            and after.get("service.store_hits", 0)
            > before.get("service.store_hits", 0)
            and after.get("service.engine_runs", 0)
            == before.get("service.engine_runs", 0)
        ):
            hits += 1
    return {"attempted": attempted, "hits": hits}


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
def run_loadtest(
    *,
    replicas: list[str] | None = None,
    spawn: int = 2,
    store: str | Path | None = None,
    duration: float = 10.0,
    concurrency: int = 8,
    quick: bool = True,
    max_rounds: int = 6,
    label: str = "",
    seed: int = 7,
    executor: str = "thread",
    store_mb: float = 64.0,
    lease_ttl: float = 300.0,
    retry: RetryPolicy | None = None,
    cross_check: bool = True,
) -> dict:
    """Run the loadtest and return the ``cuba-loadtest/1`` payload.

    ``replicas`` targets daemons the caller already runs; otherwise
    ``spawn`` fresh ``cuba serve`` subprocesses share one store file
    (``store``, default: a sibling of the JSON output in a temp dir)."""
    from repro.bench.runner import calibrate, git_rev, source_sha256

    spawned: list[Replica] = []
    tempdir = None
    if replicas is None:
        if store is None:
            import tempfile

            tempdir = tempfile.TemporaryDirectory(prefix="cuba-loadtest-")
            store = Path(tempdir.name) / "store.sqlite"
        spawned = spawn_replicas(
            spawn, store, executor=executor,
            store_mb=store_mb, lease_ttl=lease_ttl,
        )
        replica_specs = [replica.address for replica in spawned]
    else:
        replica_specs = list(replicas)
    client = ServiceClient(
        replicas=replica_specs,
        retry=retry or RetryPolicy(connect_timeout=5.0, read_timeout=120.0),
    )
    try:
        n_replicas = len(replica_specs)
        workloads = build_workloads(quick=quick, max_rounds=max_rounds)
        shared = _Shared()
        meter_before = _meter_sum(client, n_replicas)
        started = time.monotonic()
        deadline = started + duration
        threads: list[threading.Thread] = []
        results: list[list] = [[] for _ in range(concurrency)]

        def worker(index: int) -> None:
            results[index] = _drive(
                client, workloads, shared, deadline, seed * 1000 + index
            )

        for index in range(concurrency):
            thread = threading.Thread(target=worker, args=(index,), daemon=True)
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - started
        meter_after = _meter_sum(client, n_replicas)
        server_truth = _server_latency(client, n_replicas)
        cross = (
            _cross_replica_probe(client, shared)
            if cross_check
            else {"attempted": 0, "hits": 0}
        )
        meter_delta = {
            name: meter_after.get(name, 0) - meter_before.get(name, 0)
            for name in _METER_KEYS
        }

        records = [record for worker_records in results for record in worker_records]
        ops: dict[str, dict] = {}
        for op in ("submit", "status", "result"):
            seconds = sorted(r[1] for r in records if r[0] == op)
            failures = sum(1 for r in records if r[0] == op and not r[2])
            ops[op] = {
                "count": len(seconds),
                "failures": failures,
                "p50_ms": round((_percentile(seconds, 0.50) or 0) * 1000, 3),
                "p99_ms": round((_percentile(seconds, 0.99) or 0) * 1000, 3),
                "mean_ms": round(
                    (sum(seconds) / len(seconds) * 1000) if seconds else 0, 3
                ),
            }
        all_seconds = sorted(r[1] for r in records)
        submits = [r for r in records if r[0] == "submit"]
        dedup_hits = sum(
            1
            for r in submits
            if r[3].get("cached") or r[3].get("deduplicated")
        )
        failures = sum(1 for r in records if not r[2])
        client_stats = client.stats_snapshot()
        payload = {
            "schema": LOADTEST_SCHEMA,
            "stamp": time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
            "git": git_rev(),
            "source_sha256": source_sha256(),
            "label": label,
            "quick": quick,
            "duration": duration,
            "elapsed": round(elapsed, 3),
            "concurrency": concurrency,
            "replicas": n_replicas,
            "executor": executor,
            "max_rounds": max_rounds,
            "calibration_seconds": calibrate(),
            "ops": ops,
            "totals": {
                "requests": len(records),
                "failures": failures,
                "throughput_rps": round(len(records) / elapsed, 2)
                if elapsed
                else 0.0,
                "p50_ms": round((_percentile(all_seconds, 0.50) or 0) * 1000, 3),
                "p99_ms": round((_percentile(all_seconds, 0.99) or 0) * 1000, 3),
                "submits": len(submits),
                "dedup_hit_rate": round(dedup_hits / len(submits), 4)
                if submits
                else 0.0,
                "store_hit_rate": round(
                    meter_delta.get("service.store_hits", 0) / len(submits), 4
                )
                if submits
                else 0.0,
                "resumes": meter_delta.get("service.resumes", 0),
                "client_retries": client_stats["retries"],
                "client_failovers": client_stats["failovers"],
                "cross_replica_probes": cross["attempted"],
                "cross_replica_store_hits": cross["hits"],
                "lease": {
                    "acquired": meter_delta.get("store.leases_acquired", 0),
                    "released": meter_delta.get("store.leases_released", 0),
                    "reaped": meter_delta.get("store.leases_reaped", 0),
                    "eviction_skips": meter_delta.get(
                        "store.eviction_lease_skips", 0
                    ),
                },
                "busy_retries": meter_delta.get("store.busy_retries", 0),
                # Server-truth latency (scraped /metrics histograms);
                # compare_loadtest gates only the named fields above, so
                # these extras never break baseline comparability.
                **server_truth,
            },
            "meter": meter_delta,
        }
        return payload
    finally:
        if spawned:
            stop_replicas(spawned, client)
        if tempdir is not None:
            tempdir.cleanup()


def write_loadtest_json(payload: dict, out_dir: str | Path = ".") -> Path:
    """Write ``LOADTEST_<stamp>.json`` into ``out_dir``."""
    path = Path(out_dir) / f"LOADTEST_{payload['stamp']}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


# ----------------------------------------------------------------------
# Committed-baseline gating (the cuba-bench/1 discipline for service
# throughput)
# ----------------------------------------------------------------------
def comparable_loadtest_configs(current: dict, baseline: dict) -> bool:
    """Two LOADTEST payloads are only comparable when the traffic shape
    matches: profile, duration, concurrency, replica count, and the
    engine execution mode all change what a request costs."""
    return all(
        current.get(name) == baseline.get(name)
        for name in ("quick", "duration", "concurrency", "replicas", "executor")
    )


def latest_comparable_loadtest(current: dict, root: str | Path = ".") -> Path | None:
    """The newest committed ``LOADTEST_*.json`` whose configuration
    matches ``current`` (the CI smoke's baseline selector)."""
    for path in sorted(Path(root).glob("LOADTEST_*.json"), reverse=True):
        try:
            candidate = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):  # pragma: no cover
            continue
        if comparable_loadtest_configs(current, candidate):
            return path
    return None


def compare_loadtest(
    current: dict, baseline: dict, tolerance: float = 0.25
) -> tuple[bool, list[str]]:
    """Regression gate on service throughput.

    Throughput is normalized by each payload's ``calibration_seconds``
    (requests per calibrated CPU unit) so a slower machine is not read
    as a regression; the gate fails when normalized throughput dropped
    more than ``tolerance`` against the baseline, or when the current
    run has failed requests (a loadtest with failures measures error
    handling, not throughput)."""
    messages: list[str] = []
    if not comparable_loadtest_configs(current, baseline):
        messages.append(
            "BASELINE NOT COMPARABLE: configuration mismatch "
            f"(current quick={current.get('quick')} "
            f"duration={current.get('duration')} "
            f"concurrency={current.get('concurrency')} "
            f"replicas={current.get('replicas')} "
            f"executor={current.get('executor')}); pick a baseline with "
            "the same traffic shape"
        )
        return False, messages
    ok = True
    failures = current.get("totals", {}).get("failures", 0)
    if failures:
        ok = False
        messages.append(f"FAILED REQUESTS: {failures} request(s) failed")
    cur_rps = current.get("totals", {}).get("throughput_rps", 0.0)
    base_rps = baseline.get("totals", {}).get("throughput_rps", 0.0)
    cur_cal = current.get("calibration_seconds")
    base_cal = baseline.get("calibration_seconds")
    if cur_cal and base_cal:
        cur_norm = cur_rps * cur_cal
        base_norm = base_rps * base_cal
        messages.append(
            f"normalized throughput: current {cur_norm:.2f} vs baseline "
            f"{base_norm:.2f} (calibration {cur_cal:.4f}s / {base_cal:.4f}s)"
        )
    else:  # pragma: no cover - legacy baseline without calibration
        cur_norm, base_norm = cur_rps, base_rps
        messages.append(
            f"raw throughput: current {cur_rps:.1f} rps vs baseline "
            f"{base_rps:.1f} rps"
        )
    if not base_norm:
        return ok, messages + ["baseline has no throughput; nothing to gate"]
    ratio = cur_norm / base_norm
    messages.append(f"ratio {ratio:.2f} (tolerance {1 - tolerance:.2f})")
    if ratio < 1 - tolerance:
        ok = False
        messages.append(
            "THROUGHPUT REGRESSION: normalized requests/s dropped "
            f"{(1 - ratio) * 100:.0f}% against {baseline.get('stamp')}"
        )
    return ok, messages
