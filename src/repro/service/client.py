"""Stdlib HTTP client for the analysis service (``cuba submit``).

Synchronous and dependency-free: each call opens one
:class:`http.client.HTTPConnection` (the server answers
connection-per-request), sends JSON, and returns the decoded response
dict.  Non-2xx responses raise :class:`~repro.errors.ServiceError`
carrying the server's error message.

Multi-replica operation (PR 7):

* **Fingerprint-affinity routing** — the client takes a *list* of
  replicas and routes every request over a consistent-hash ring
  (:class:`_HashRing`).  Submits hash a canonical form of the problem
  payload (program text + property + engine — the same ingredients as
  the server-side fingerprint, minus the anytime ``max_rounds`` knob),
  so identical submissions always land on the same replica and its
  in-flight dedup, warm CPDS intern cache, and snapshot store stay
  hot.  Status/result polls prefer the replica that accepted the
  submit (tracked per returned fingerprint) and fall back to ring
  order — any replica can answer a settled job from the shared store.
* **Retry/backoff** — :class:`RetryPolicy` gives every call separate
  connect/read timeouts and bounded retries with exponential backoff +
  jitter.  Only *idempotent* calls retry: all GETs, and ``/submit`` —
  resubmitting an identical problem is safe by the service's dedup
  design (same fingerprint ⇒ joined run or store hit, never a second
  engine run).  ``/shutdown`` never retries.
* **Failover** — a connect/timeout error moves to the next replica on
  the ring immediately; backoff sleeps only once the whole ring has
  been tried.  ``client.stats`` (and METER ``client.*``) count
  requests, retries, failovers, and exhausted failures for the
  loadtest harness.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.client import HTTPConnection

from repro.errors import ServiceError
from repro.util.meter import METER

#: Remembered submit→replica affinities (poll routing); bounded so a
#: long-lived client cannot grow one entry per problem ever submitted.
_AFFINITY_LIMIT = 1024


@dataclass(frozen=True)
class RetryPolicy:
    """Per-call network discipline.

    ``retries`` counts *additional* attempts after the first;
    ``backoff`` doubles per ring wrap up to ``backoff_cap`` and is
    jittered ±50% so N clients retrying a blip don't stampede in
    lockstep."""

    connect_timeout: float = 5.0
    read_timeout: float = 600.0
    retries: int = 2
    backoff: float = 0.05
    backoff_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.connect_timeout <= 0 or self.read_timeout <= 0:
            raise ValueError("timeouts must be positive")


def _hash(value: str) -> int:
    return int.from_bytes(hashlib.sha256(value.encode()).digest()[:8], "big")


class _HashRing:
    """Consistent-hash ring over replica indices.

    Each replica owns ``points`` pseudo-random ring positions; a key is
    served by the first point clockwise from its hash.  Adding or
    removing one replica only remaps the keys that replica owned —
    which is exactly what keeps dedup and snapshot reuse hot across
    deployment resizes."""

    def __init__(self, replicas, points: int = 64) -> None:
        self._count = len(replicas)
        self._points = sorted(
            (_hash(f"{host}:{port}#{index}#{point}"), index)
            for index, (host, port) in enumerate(replicas)
            for point in range(points)
        )

    def ordered(self, key: str) -> list[int]:
        """Every replica index, affinity-first: the key's home replica,
        then the failover successors in ring order."""
        if self._count <= 1:
            return list(range(self._count))
        start = bisect.bisect_left(self._points, (_hash(key), -1))
        order: list[int] = []
        seen: set[int] = set()
        for offset in range(len(self._points)):
            _, index = self._points[(start + offset) % len(self._points)]
            if index not in seen:
                seen.add(index)
                order.append(index)
                if len(order) == self._count:
                    break
        return order


def _parse_replica(spec) -> tuple[str, int]:
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return str(spec[0]), int(spec[1])
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host:
        raise ServiceError(f"cannot parse replica {spec!r}; use host:port")
    try:
        return host, int(port)
    except ValueError as bad:
        raise ServiceError(f"cannot parse replica port in {spec!r}") from bad


class ServiceClient:
    """Talk to one — or a consistent-hash ring of — ``cuba serve``
    replicas (see the module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float | None = None,
        *,
        replicas=None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if replicas:
            self.replicas = [_parse_replica(spec) for spec in replicas]
        else:
            self.replicas = [(host, port)]
        # Back-compat single-replica attributes.
        self.host, self.port = self.replicas[0]
        if retry is None:
            retry = (
                RetryPolicy()
                if timeout is None
                else RetryPolicy(read_timeout=timeout)
            )
        self.retry = retry
        self._ring = _HashRing(self.replicas)
        self._stats_lock = threading.Lock()
        self.stats = {
            "requests": 0, "retries": 0, "failovers": 0, "failures": 0,
        }
        #: fingerprint -> replica index that accepted its submit.
        self._affinity: OrderedDict[str, int] = OrderedDict()

    # ------------------------------------------------------------------
    def _bump(self, name: str, amount: int = 1) -> None:
        with self._stats_lock:
            self.stats[name] += amount
        METER.bump(f"client.{name}", amount)

    def stats_snapshot(self) -> dict:
        with self._stats_lock:
            return dict(self.stats)

    def _remember_affinity(self, problem: str, replica: int) -> None:
        with self._stats_lock:
            self._affinity[problem] = replica
            self._affinity.move_to_end(problem)
            while len(self._affinity) > _AFFINITY_LIMIT:
                self._affinity.popitem(last=False)

    def _candidates(self, key: str | None, prefer: int | None) -> list[int]:
        order = self._ring.ordered(key) if key is not None else list(
            range(len(self.replicas))
        )
        if prefer is not None and prefer in order:
            order.remove(prefer)
            order.insert(0, prefer)
        return order

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        **route,
    ) -> tuple[int, dict]:
        """Back-compat 2-tuple surface over :meth:`_dispatch`."""
        status, decoded, _target = self._dispatch(method, path, payload, **route)
        return status, decoded

    def _dispatch(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        key: str | None = None,
        replica: int | None = None,
        idempotent: bool = True,
    ) -> tuple[int, dict, int]:
        """One logical request: route by ``key`` (consistent hash, or
        an explicit ``replica`` index), fail over across the ring on
        connect/timeout errors, and — for idempotent calls — retry with
        exponential backoff + jitter until the policy is exhausted."""
        self._bump("requests")
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        if replica is not None:
            candidates = [replica]
        else:
            prefer = None
            if key is not None:
                with self._stats_lock:
                    prefer = self._affinity.get(key)
            candidates = self._candidates(key, prefer)
        attempts = (self.retry.retries + 1) if idempotent else 1
        delay = self.retry.backoff
        errors: list[str] = []
        previous_target: int | None = None
        for attempt in range(attempts):
            target = candidates[attempt % len(candidates)]
            if attempt:
                self._bump("retries")
                if target != previous_target:
                    self._bump("failovers")
                if attempt % len(candidates) == 0:
                    # The whole ring failed once: back off before the
                    # next lap instead of hammering dead replicas.
                    time.sleep(
                        min(delay, self.retry.backoff_cap)
                        * (0.5 + random.random())
                    )
                    delay = min(delay * 2, self.retry.backoff_cap)
            previous_target = target
            host, port = self.replicas[target]
            connection = HTTPConnection(
                host, port, timeout=self.retry.connect_timeout
            )
            try:
                # Explicit connect so the connect budget and the read
                # budget are separate knobs: a refused replica fails in
                # connect_timeout, a slow analysis may stream for
                # read_timeout.
                connection.connect()
                if connection.sock is not None:
                    connection.sock.settimeout(self.retry.read_timeout)
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                try:
                    decoded = json.loads(raw) if raw else {}
                except ValueError as bad:
                    raise ServiceError(
                        f"service answered non-JSON ({response.status}): "
                        f"{raw[:200]!r}"
                    ) from bad
                return response.status, decoded, target
            except OSError as unreachable:
                errors.append(f"{host}:{port}: {unreachable}")
                continue
            finally:
                # Close on EVERY path — success, refusal, timeout — so
                # no error path leaks the connection's socket.
                connection.close()
        self._bump("failures")
        raise ServiceError(
            f"cannot reach any cuba service replica after {attempts} "
            f"attempt(s): " + "; ".join(errors[-len(self.replicas):])
        )

    def _checked(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        **route,
    ) -> dict:
        status, decoded, _target = self._dispatch(method, path, payload, **route)
        if status >= 400:
            raise ServiceError(
                decoded.get("error", f"service error (HTTP {status})")
            )
        return decoded

    # ------------------------------------------------------------------
    @staticmethod
    def _routing_key(payload: dict) -> str:
        """The affinity key of a submit: canonical JSON over the
        problem-identity fields only.  ``max_rounds`` (the anytime
        budget) and ``wait`` are deliberately excluded — a deeper
        resubmission must land on the replica holding the snapshot."""
        identity = {
            name: payload.get(name)
            for name in ("cpds", "bp", "init", "property", "engine")
        }
        return json.dumps(identity, sort_keys=True)

    def submit(
        self,
        cpds_text: str | None = None,
        *,
        bp_text: str | None = None,
        bp_init: dict | None = None,
        property_spec: str | None = None,
        engine: str = "auto",
        max_rounds: int = 30,
        wait: bool = True,
        replica: int | None = None,
    ) -> dict:
        """Submit one analysis — a textual CPDS (``cpds_text``) or a
        concurrent Boolean program (``bp_text``, compiled server-side).
        With ``wait=True`` (default) blocks for the final response;
        otherwise returns ``{"id", "status"}`` immediately — poll
        :meth:`status`/:meth:`result`.  Safe to retry: identical
        submissions dedup onto one engine run server-side."""
        payload: dict = {
            "property": property_spec,
            "engine": engine,
            "max_rounds": max_rounds,
            "wait": wait,
        }
        if cpds_text is not None:
            payload["cpds"] = cpds_text
        if bp_text is not None:
            payload["bp"] = bp_text
        if bp_init is not None:
            payload["init"] = bp_init
        status, decoded, target = self._dispatch(
            "POST",
            "/submit",
            payload,
            key=self._routing_key(payload),
            replica=replica,
        )
        if status >= 400:
            raise ServiceError(
                decoded.get("error", f"service error (HTTP {status})")
            )
        problem = decoded.get("fingerprint") or decoded.get("id")
        if problem:
            self._remember_affinity(problem, target)
        return decoded

    def status(self, problem_id: str) -> dict:
        return self._checked("GET", f"/status?id={problem_id}", key=problem_id)

    def result(self, problem_id: str) -> dict | None:
        """The finished response, or ``None`` while still running."""
        status, decoded, _target = self._dispatch(
            "GET", f"/result?id={problem_id}", key=problem_id
        )
        if status == 202:
            return None
        if status >= 400:
            raise ServiceError(
                decoded.get("error", f"service error (HTTP {status})")
            )
        return decoded

    def health(self, replica: int | None = None) -> dict:
        return self._checked("GET", "/health", replica=replica)

    def meter(self, replica: int | None = None) -> dict:
        """The server's service/snapshot/engine METER window — how the
        smoke harness proves claims like "two concurrent identical
        submissions ran one engine"."""
        return self._checked("GET", "/meter", replica=replica)

    def metrics(self, replica: int | None = None) -> str:
        """The raw ``/metrics`` Prometheus text exposition of one
        replica.  The only non-JSON endpoint, so it bypasses
        :meth:`_dispatch`'s JSON decode: one plain GET against the
        chosen replica (default: the first), no retry/failover — a
        scrape is best-effort by nature."""
        host, port = self.replicas[replica if replica is not None else 0]
        connection = HTTPConnection(
            host, port, timeout=self.retry.connect_timeout
        )
        try:
            connection.connect()
            if connection.sock is not None:
                connection.sock.settimeout(self.retry.read_timeout)
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            raw = response.read()
            if response.status >= 400:
                raise ServiceError(
                    f"metrics scrape failed (HTTP {response.status}): "
                    f"{raw[:200]!r}"
                )
            return raw.decode("utf-8", errors="replace")
        except OSError as unreachable:
            raise ServiceError(
                f"cannot scrape metrics from {host}:{port}: {unreachable}"
            ) from unreachable
        finally:
            connection.close()

    def shutdown(self, replica: int | None = None) -> dict:
        """Ask replica(s) to shut down gracefully (flush store, drain
        executor, clear runtime caches).  With ``replica=None``
        every replica is asked; the first response is returned.  Never
        retried — shutdown is the one non-idempotent call."""
        if replica is not None:
            return self._checked(
                "POST", "/shutdown", replica=replica, idempotent=False
            )
        first: dict | None = None
        errors: list[ServiceError] = []
        for index in range(len(self.replicas)):
            try:
                response = self._checked(
                    "POST", "/shutdown", replica=index, idempotent=False
                )
            except ServiceError as down:
                errors.append(down)
                continue
            if first is None:
                first = response
        if first is None:
            raise errors[0] if errors else ServiceError("no replicas configured")
        return first
