"""The analysis service: sync core + stdlib asyncio JSON-over-HTTP server.

:class:`AnalysisService` is the transport-independent core every entry
point shares (the HTTP server below, ``cuba submit`` via the client,
tests, and the quickstart demo).  A request is first named by its
problem fingerprint — the store key — which the daemon-lifetime
*prepare memo* answers from a digest of the request for any identity it
has compiled before, so the service compiles a program only to name it
the first time it sees it; an engine run compiles its own copy from the
job it is handed.  One ``run()`` call then resolves the request through
four layers, cheapest first:

1. **In-flight dedup** — concurrent identical fingerprints join the one
   running analysis (``service.dedup_joins``); METER proves exactly one
   engine run (``service.engine_runs``).
2. **Store hit** — a stored verdict that satisfies the request's budget
   returns without touching an engine (``service.store_hits``).
3. **Snapshot resume** — a stored inconclusive run at level ``k`` with
   a snapshot resumes warm and continues to the requested budget
   (``service.resumes``) instead of starting over; sound because the
   bounded sequences are monotone by level and the resumed engines are
   differentially proven level-for-level identical to uninterrupted
   runs.
4. **Fresh run** — the requested lane executes; inconclusive-but-
   resumable outcomes persist their snapshot for the next caller.

The HTTP layer (:class:`ServiceServer`) is a minimal HTTP/1.1 loop on
``asyncio.start_server`` — no frameworks, connection-per-request —
with endpoints ``POST /submit``, ``GET /status``, ``GET /result``,
``GET /health``, ``GET /meter`` (the smoke test's work-counter
window), and ``POST /shutdown``.  Analyses run on the service's
bounded thread executor; graceful shutdown drains it, flushes the
store, and routes through the shared
:func:`~repro.util.caches.clear_runtime_caches` cleanup.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from urllib.parse import parse_qs, urlsplit

from repro.errors import CubaError, ServiceError
from repro.obs import trace
from repro.obs.logs import audit, get_logger
from repro.obs.metrics import LATENCY
from repro.obs.prometheus import render
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.reach import registry
from repro.service.executor import (
    EngineJob,
    ProcessAnalysisExecutor,
    compile_program,
    execute_job,
)
# Callers that speak the wire format import the property parser from here.
from repro.service.executor import parse_property_spec  # noqa: F401
from repro.service.fingerprint import fingerprint
from repro.service.store import AnalysisStore
from repro.util.caches import clear_runtime_caches
from repro.util.meter import METER

_log = get_logger("service.server")

#: "auto" (the Sec. 6 front-end) plus every registered lane — a new
#: lane module is service-submittable with no change here.
ENGINE_LANES = ("auto", *registry.lane_names())

#: Engine-run execution modes: "thread" runs engines inline on the
#: service's thread executor (library/test default); "process" ships
#: each run to a pool of worker processes over the snapshot codec
#: (:mod:`repro.service.executor` — the ``cuba serve`` default).
EXECUTOR_MODES = ("thread", "process")

#: Bound of the daemon-lifetime prepare memo (request identity →
#: problem fingerprint, LRU).  An entry is a 32-byte key and a 64-char
#: fingerprint, ~200 B with its dict node, so a full memo is under 1 MB.
#: It holds fingerprints only, never the compiled CPDS: keeping programs
#: alive for a whole daemon lifetime would cost far more memory than
#: the compile it saves.
_PREPARE_MEMO_LIMIT = 4096


@dataclass(slots=True)
class AnalysisRequest:
    """One validated verification request.

    The program arrives as exactly one of ``cpds_text`` (the textual
    CPDS exchange format) or ``bp_text`` (a concurrent Boolean program,
    compiled server-side; ``bp_init`` seeds its variables).  Either way
    the fingerprint is computed over the *compiled* CPDS, so the same
    program submitted in either form lands on the same store entry.
    """

    cpds_text: str | None = None
    bp_text: str | None = None
    bp_init: dict | None = None
    property_spec: str | None = None
    engine: str = "auto"
    max_rounds: int = 30
    max_states_per_context: int = DEFAULT_STATE_LIMIT

    def __post_init__(self) -> None:
        if (self.cpds_text is None) == (self.bp_text is None):
            raise ServiceError(
                "a request carries exactly one of 'cpds' or 'bp' program text"
            )
        if not isinstance(self.engine, str):
            raise ServiceError(
                f"'engine' must be a lane name; pick one of {ENGINE_LANES}"
            )
        if self.engine != "auto":
            # Canonicalize aliases ("wk" → "wuba", ...) up front so the
            # fingerprint's engine token — and therefore the store key —
            # is spelling-invariant.
            try:
                self.engine = registry.canonical_lane(self.engine)
            except CubaError as bad:
                raise ServiceError(
                    f"unknown engine lane {self.engine!r}; pick one of "
                    f"{ENGINE_LANES}"
                ) from bad
        if self.max_rounds < 0:
            raise ServiceError(f"max_rounds must be >= 0, got {self.max_rounds}")
        if self.max_states_per_context <= 0:
            # A guard of 0 trips before the first state: the run's
            # "unknown" would be stored under a fingerprint of its own.
            raise ServiceError(
                "max_states_per_context must be >= 1, got "
                f"{self.max_states_per_context}"
            )

    def prepare_key(self) -> bytes:
        """The sha256 digest of every field the problem fingerprint
        depends on: the program text and its form, the Boolean
        program's ``init``, the property spec, the canonical engine and
        the divergence guard.  ``max_rounds`` is left out, as the
        fingerprint leaves it out, so a deeper resubmit shares its
        shallow submit's key.  Equal keys mean equal fingerprints;
        different keys may still share one (an ``init`` of ``true`` and
        of ``1``)."""
        head = repr(
            (
                self.cpds_text is None,
                sorted(
                    (repr(name), repr(value))
                    for name, value in (self.bp_init or {}).items()
                ),
                self.property_spec,
                self.engine,
                self.max_states_per_context,
            )
        )
        text = self.cpds_text if self.cpds_text is not None else self.bp_text
        # repr never emits a raw NUL, so the separator keeps fields apart.
        digest = hashlib.sha256(head.encode("utf-8", "surrogatepass"))
        digest.update(b"\0")
        digest.update(text.encode("utf-8", "surrogatepass"))
        return digest.digest()

    @classmethod
    def from_payload(cls, payload: dict) -> "AnalysisRequest":
        if not isinstance(payload, dict):
            raise ServiceError("request payload must be a JSON object")
        cpds_text = payload.get("cpds")
        bp_text = payload.get("bp")
        for name, text in (("cpds", cpds_text), ("bp", bp_text)):
            if text is not None and (not isinstance(text, str) or not text.strip()):
                raise ServiceError(f"'{name}' must be a non-empty text field")
        bp_init = payload.get("init")
        if bp_init is not None and not isinstance(bp_init, dict):
            raise ServiceError("'init' must be a JSON object of variable values")
        try:
            return cls(
                cpds_text=cpds_text,
                bp_text=bp_text,
                bp_init=bp_init,
                property_spec=payload.get("property"),
                engine=payload.get("engine", "auto"),
                max_rounds=int(payload.get("max_rounds", 30)),
                max_states_per_context=int(
                    payload.get("max_states_per_context", DEFAULT_STATE_LIMIT)
                ),
            )
        except (TypeError, ValueError) as bad:
            raise ServiceError(f"malformed request field: {bad}") from bad


class AnalysisService:
    """Transport-independent service core (see the module docstring)."""

    def __init__(
        self,
        store: AnalysisStore,
        *,
        workers: int = 2,
        executor: str = "thread",
    ) -> None:
        if executor not in EXECUTOR_MODES:
            raise ServiceError(
                f"unknown executor mode {executor!r}; pick one of "
                f"{EXECUTOR_MODES}"
            )
        self.store = store
        if store.on_evict is None:
            # Size pressure sheds the in-process caches through the same
            # path bench's cold-run contract and server shutdown use.
            store.on_evict = clear_runtime_caches
        #: Engine-run execution mode (see :data:`EXECUTOR_MODES`).
        self.executor_mode = executor
        self._engine_executor = (
            ProcessAnalysisExecutor(workers=workers)
            if executor == "process"
            else None
        )
        #: Bounded analysis executor — the HTTP layer schedules every
        #: ``run()`` through it, capping concurrent engine work.
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="cuba-analysis"
        )
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        #: The prepare memo: :meth:`AnalysisRequest.prepare_key` →
        #: problem fingerprint, LRU-bounded by
        #: :data:`_PREPARE_MEMO_LIMIT`, guarded by ``_lock``.  Only
        #: successful prepares enter it.
        self._prepare_memo: OrderedDict[bytes, str] = OrderedDict()
        self._closed = False

    # ------------------------------------------------------------------
    # Request resolution
    # ------------------------------------------------------------------
    def memoized(self, request: AnalysisRequest) -> str | None:
        """The fingerprint an earlier :meth:`prepare` of the same
        request identity computed, or ``None`` (then only
        :meth:`prepare` can tell).  A hit costs one sha256 over the
        request, not a compile: it bumps ``service.prepare_memo_hits``
        and is marked by a ``service.prepare`` span with ``memo=True``
        and no ``bp.compile`` inside, so every request's trace still
        shows one prepare phase."""
        problem = self._memo_get(request.prepare_key())
        if problem is not None:
            with trace.span("service.prepare", memo=True):
                METER.bump("service.prepare_memo_hits")
        return problem

    def prepare(self, request: AnalysisRequest) -> str:
        """The problem fingerprint of ``request``: from the prepare memo
        when an earlier request with the same identity computed it,
        else by compiling the program (:func:`compile_program`) and
        hashing the CPDS, then memoized.  The compiled program is
        dropped: an engine run compiles its own from the job.  Raises
        :class:`~repro.errors.CubaError` subclasses on malformed input;
        a failed prepare is never memoized.  Timed as one
        ``service.prepare`` span (``memo``: the fingerprint came from
        the memo); a Boolean program's ``bp.compile`` span nests inside
        it."""
        with trace.span("service.prepare") as timing:
            key = request.prepare_key()
            problem = self._memo_get(key)
            timing.set(memo=problem is not None)
            if problem is None:
                cpds, prop = compile_program(request)
                problem = fingerprint(
                    cpds,
                    prop,
                    {
                        "engine": request.engine,
                        "max_states_per_context": request.max_states_per_context,
                    },
                )
                self._memo_put(key, problem)
            return problem

    def _memo_get(self, key: bytes) -> str | None:
        with self._lock:
            problem = self._prepare_memo.get(key)
            if problem is not None:
                self._prepare_memo.move_to_end(key)
        return problem

    def _memo_put(self, key: bytes, problem: str) -> None:
        with self._lock:
            memo = self._prepare_memo
            # Evict before inserting, so that not even a reader outside
            # the lock sees the memo above its bound.
            if key not in memo and len(memo) >= _PREPARE_MEMO_LIMIT:
                memo.popitem(last=False)
            memo[key] = problem
            memo.move_to_end(key)

    def run(
        self,
        request: AnalysisRequest,
        prepared: tuple[str, str] | None = None,
        enqueued_at: float | None = None,
    ) -> dict:
        """Resolve one request to a response dict (blocking).

        ``prepared`` optionally carries the fingerprint a caller that
        needed it up front already found (the HTTP submit path hands it
        out as the job id), so the request is not named twice:
        ``(problem, "memo")`` after a :meth:`memoized` hit,
        ``(problem, "compiled")`` after a :meth:`prepare` that compiled
        — the audit line's ``prepare`` field.  Without it the prepare
        memo is asked first.  Here the parent compiles only to
        fingerprint a request the memo has not seen; a store hit or a
        dedup join on a memoized fingerprint compiles nothing, and an
        engine run compiles its program from the job.  ``enqueued_at``
        is the submit-time ``perf_counter`` reading (the HTTP layer
        passes it), so the response's ``queue_seconds`` separates
        executor queueing from engine time.

        This wrapper is the service's observability choke point — it
        runs on the executor thread (not the event loop), so the span
        stack nests per-request even under concurrent submits.  Every
        call (owner, dedup joiner, store hit alike) observes the
        ``service.request`` latency histogram, emits one structured
        audit line, and — when tracing is live — wraps resolution in a
        ``service.request`` span.  Per-request fields (queue_seconds)
        go on a *copy*: the shared future/store response stays
        request-independent."""
        started = time.perf_counter()
        queue_seconds = (
            max(0.0, started - enqueued_at) if enqueued_at is not None else 0.0
        )
        audit_fields: dict = {"lease": None, "prepare": None}
        with trace.span("service.request", lane=request.engine) as timing:
            try:
                response = self._resolve(request, prepared, audit_fields)
            except BaseException as failure:
                seconds = time.perf_counter() - started
                LATENCY.observe(
                    "service_request", seconds, lane=request.engine
                )
                audit(
                    lane=request.engine,
                    verdict="error",
                    error=f"{type(failure).__name__}: {failure}",
                    lease=audit_fields["lease"],
                    prepare=audit_fields["prepare"],
                    engine_seconds=None,
                    queue_seconds=round(queue_seconds, 4),
                    total_seconds=round(seconds, 4),
                )
                raise
            seconds = time.perf_counter() - started
            # The resolved lane ("explicit"/"symbolic"/"wuba") — not the
            # request's possibly-"auto" engine spec — labels the span,
            # the per-lane histogram cell, and the audit line.
            lane = response.get("engine") or request.engine
            timing.set(verdict=response.get("verdict"), lane=lane)
        LATENCY.observe("service_request", seconds, lane=lane)
        LATENCY.observe("service_queue", queue_seconds)
        response = dict(response)
        response["queue_seconds"] = round(queue_seconds, 4)
        if response.get("cached"):
            store_outcome = "hit"
        elif response.get("resumed"):
            store_outcome = "resume"
        elif response.get("deduplicated"):
            store_outcome = "dedup"
        else:
            store_outcome = "miss"
        audit(
            fingerprint=response.get("fingerprint"),
            lane=lane,
            requested=request.engine,
            store=store_outcome,
            resumed=bool(response.get("resumed")),
            cached=bool(response.get("cached")),
            deduplicated=bool(response.get("deduplicated")),
            lease=audit_fields["lease"],
            prepare=audit_fields["prepare"],
            verdict=response.get("verdict"),
            bound=response.get("bound"),
            engine_seconds=response.get("engine_seconds"),
            queue_seconds=response["queue_seconds"],
            total_seconds=round(seconds, 4),
        )
        return response

    def _resolve(
        self,
        request: AnalysisRequest,
        prepared: tuple[str, str] | None,
        audit_fields: dict,
    ) -> dict:
        if prepared is None:
            problem = self.memoized(request)
            prepared = (
                (self.prepare(request), "compiled")
                if problem is None
                else (problem, "memo")
            )
        # How this request found its fingerprint: from the prepare memo,
        # or by compiling and hashing the program.
        problem, audit_fields["prepare"] = prepared
        while True:
            own_future: Future | None = None
            with self._lock:
                if self._closed:
                    raise ServiceError("service is shut down")
                existing = self._inflight.get(problem)
                if existing is None:
                    own_future = Future()
                    self._inflight[problem] = own_future
            if own_future is None:
                METER.bump("service.dedup_joins")
                response = existing.result()
                if self._satisfies(response, request):
                    return response | {"deduplicated": True}
                continue  # joined run was shallower; resume from its snapshot
            # Owner path.  The store probe runs OUTSIDE the service lock
            # (sqlite I/O must not serialize unrelated submits behind
            # this problem); registering first keeps the one-run
            # invariant — concurrent identical submits join the future
            # and are answered below whether it resolves to a store hit
            # or a fresh run.  One verdict-columns read serves both the
            # hit check and (via has_snapshot) the resume decision —
            # the blob itself is only fetched when resuming.
            try:
                entry = self.store.get(problem, include_snapshot=False)
                if (
                    entry is not None
                    and entry.result is not None
                    and self._satisfies(entry.result, request)
                ):
                    METER.bump("service.store_hits")
                    response = entry.result | {"cached": True}
                else:
                    response = self._analyze(problem, request, entry, audit_fields)
            except BaseException as failure:
                with self._lock:
                    self._inflight.pop(problem, None)
                own_future.set_exception(failure)
                # The future may never be awaited by a joiner; don't let
                # its destructor warn about the unconsumed exception.
                own_future.exception()
                raise
            with self._lock:
                self._inflight.pop(problem, None)
            own_future.set_result(response)
            return response

    def _satisfies(self, response: dict, request: AnalysisRequest) -> bool:
        """Does an existing outcome answer this request?  Conclusive and
        non-resumable (diverged) outcomes always do; an inconclusive one
        only when it explored at least the requested budget."""
        if response.get("final"):
            return True
        return response.get("bound", -1) >= request.max_rounds

    # ------------------------------------------------------------------
    # The engine run
    # ------------------------------------------------------------------
    def _stored_snapshot(self, problem: str, entry) -> bytes | None:
        """The stored snapshot blob for ``problem``, or ``None`` when
        there is nothing to resume from.  ``entry`` is the
        verdict-columns row ``run()`` already fetched; the blob is read
        only when it signals a snapshot exists."""
        if entry is None or not entry.has_snapshot:
            return None
        entry = self.store.get(problem)
        if entry is None:
            return None
        return entry.snapshot

    def _analyze(
        self,
        problem: str,
        request: AnalysisRequest,
        entry=None,
        audit_fields: dict | None = None,
    ) -> dict:
        """One engine run through the configured executor.  This is
        the one place an :class:`EngineJob` is built, so the job keeps
        one format in both execution modes: the request's program
        source and property spec (the run compiles them), its budgets,
        its fingerprint, and the stored snapshot as the resume message.
        Dedup accounting, the store write, and snapshot-reply
        validation stay parent-side (:mod:`repro.service.executor`).
        So in thread mode a fresh run compiles twice: once in
        :meth:`prepare` to fingerprint, once in the job.

        When the run resumes from a stored blob, a lease row pins that
        blob for the duration (acquired *before* the blob is fetched,
        released after the result is recorded): with N replicas sharing
        one store, a peer's LRU eviction must never free a snapshot
        this replica is mid-resume on — and if this replica crashes,
        the lease simply expires (``lease_ttl``) instead of wedging
        eviction forever."""
        METER.bump("service.engine_runs")
        lease = None
        if entry is not None and entry.has_snapshot:
            lease = self.store.acquire_lease(problem)
            if audit_fields is not None:
                audit_fields["lease"] = (
                    "acquired" if lease is not None else "unavailable"
                )
        try:
            job = EngineJob(
                problem=problem,
                cpds_text=request.cpds_text,
                bp_text=request.bp_text,
                bp_init=request.bp_init,
                property_spec=request.property_spec,
                engine=request.engine,
                max_rounds=request.max_rounds,
                max_states_per_context=request.max_states_per_context,
                snapshot=self._stored_snapshot(problem, entry),
            )
            if self._engine_executor is None:
                outcome = execute_job(job)
            else:
                outcome = self._engine_executor.run(job)
            response = outcome.response
            self.store.record(
                problem,
                {key: value for key, value in response.items() if key != "resumed"},
                bound=outcome.bound,
                engine=outcome.kind,
                snapshot=outcome.snapshot,
            )
        finally:
            self.store.release_lease(problem, lease)
        return response

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain the executor, flush and close the store, and clear the
        process-global runtime caches (canonical memo, Hopcroft
        pre-cache) — the same cleanup the bench runner's cold-run
        contract performs."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.executor.shutdown(wait=True, cancel_futures=False)
        if self._engine_executor is not None:
            self._engine_executor.close()
        self.store.close()
        clear_runtime_caches()


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
_METER_WINDOW_PREFIXES = (
    "service.", "snapshot.", "store.",
    # Every registered lane's work counters (explicit./symbolic./wuba.).
    *(registry.engine_class(name).meter_prefix for name in registry.lane_names()),
)

#: Settled /status history kept per server (running jobs never count
#: against it).
_JOB_HISTORY_LIMIT = 256

#: Hard caps on an HTTP request.  Every other resource the server
#: holds is bounded (executor, job history, store size); neither the
#: client's Content-Length nor an endless header stream may be the one
#: untrusted input that can exhaust memory.  64 MB dwarfs any real
#: program text; 16 KB dwarfs any real header section.
MAX_REQUEST_BYTES = 64 * 1024 * 1024
MAX_HEADER_BYTES = 16 * 1024

#: The fixed route table, used to bound the ``http.request`` histogram's
#: route label (unknown paths all collapse into ``other``).
_ROUTES = frozenset(
    {"/submit", "/status", "/result", "/health", "/meter", "/metrics",
     "/trace", "/shutdown"}
)


class ServiceServer:
    """Minimal asyncio HTTP/1.1 front for an :class:`AnalysisService`."""

    def __init__(
        self, service: AnalysisService, host: str = "127.0.0.1", port: int = 8765
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._closing: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: fingerprint -> job record for async submits and /status —
        #: bounded LRU: finished verdicts live in the store, so settled
        #: records are only kept as a recent-history convenience and a
        #: long-lived daemon must not accumulate one per fingerprint
        #: ever submitted.
        self._jobs: OrderedDict[str, dict] = OrderedDict()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._closing = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown request, then tear down gracefully:
        stop accepting, drain in-flight analyses, flush the store, clear
        the runtime caches."""
        assert self._closing is not None
        await self._closing.wait()
        self._server.close()
        await self._server.wait_closed()
        await asyncio.get_running_loop().run_in_executor(None, self.service.close)

    def run(self) -> None:
        """Synchronous convenience used by ``cuba serve``."""

        async def main() -> None:
            await self.start()
            _log.info(
                "cuba service listening",
                extra={
                    "fields": {"url": f"http://{self.host}:{self.port}"}
                },
            )
            await self.serve_until_shutdown()

        try:
            asyncio.run(main())
        except KeyboardInterrupt:  # graceful Ctrl-C
            self.service.close()

    def request_shutdown(self) -> None:
        """Trigger graceful shutdown; safe to call from any thread (the
        asyncio event is set on the server's own loop)."""
        if self._closing is None or self._loop is None:
            return
        if self._loop.is_closed():  # already torn down
            return
        self._loop.call_soon_threadsafe(self._closing.set)

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        started = time.perf_counter()
        method = path = None
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            status, payload = await self._route(method, path, query, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        except CubaError as refused:
            status, payload = 400, {"error": str(refused)}
        except Exception as crashed:  # noqa: BLE001 - server must answer
            status, payload = 500, {"error": f"{type(crashed).__name__}: {crashed}"}
            _log.error(
                "request handler crashed",
                extra={
                    "fields": {
                        "method": method,
                        "path": path,
                        "error": payload["error"],
                    }
                },
            )
        if path is not None:
            # Route label from the fixed route table only — an arbitrary
            # 404 path must not mint unbounded histogram label values.
            route = path if path in _ROUTES else "other"
            LATENCY.observe(
                "http_request",
                time.perf_counter() - started,
                route=route,
                status=status,
            )
        try:
            await self._respond(writer, status, payload)
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            writer.close()

    @staticmethod
    async def _read_request(reader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError as bad:
            raise ServiceError(f"malformed request line {line!r}") from bad
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(header)
            if header_bytes > MAX_HEADER_BYTES:
                raise ServiceError(
                    f"request header section exceeds the "
                    f"{MAX_HEADER_BYTES}-byte limit"
                )
            name, _sep, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError as bad:
            raise ServiceError("malformed Content-Length header") from bad
        if length < 0 or length > MAX_REQUEST_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_REQUEST_BYTES}-byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        parts = urlsplit(target)
        query = {
            name: values[-1] for name, values in parse_qs(parts.query).items()
        }
        return method.upper(), parts.path, query, body

    @staticmethod
    async def _respond(writer, status: int, payload) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   404: "Not Found", 500: "Internal Server Error"}
        if isinstance(payload, str):  # /metrics Prometheus exposition
            body = payload.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        writer.write(
            (
                f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()

    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str, query: dict, body: bytes):
        if method == "POST" and path == "/submit":
            return await self._submit(body)
        if method == "GET" and path == "/status":
            return await self._off_loop(self._status, query.get("id"))
        if method == "GET" and path == "/result":
            return await self._off_loop(self._result, query.get("id"))
        if method == "GET" and path == "/health":
            by_status: dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job["status"]] = by_status.get(job["status"], 0) + 1
            stats = await self._off_loop(self.service.store.stats)
            return 200, {
                "status": "ok",
                "jobs": by_status,
                "store": stats,
                # Degraded = serving store-less (read-only store dir at
                # startup): verdicts are correct but nothing is cached.
                "store_degraded": bool(
                    getattr(self.service.store, "degraded", False)
                ),
            }
        if method == "GET" and path == "/meter":
            return 200, {
                name: value
                for name, value in METER.snapshot().items()
                if name.startswith(_METER_WINDOW_PREFIXES)
            }
        if method == "GET" and path == "/metrics":
            # Prometheus text exposition: every METER counter plus the
            # latency histograms (str payload ⇒ text/plain content type).
            return 200, render()
        if method == "GET" and path == "/trace":
            return 200, trace.chrome_trace()
        if method == "POST" and path == "/trace":
            try:
                payload = json.loads(body or b"{}")
            except ValueError as bad:
                raise ServiceError(f"trace body is not JSON: {bad}") from bad
            if not isinstance(payload, dict):
                raise ServiceError("trace body must be a JSON object")
            if "enabled" in payload:
                if payload["enabled"]:
                    trace.clear()
                    trace.enable()
                else:
                    trace.disable()
            return 200, {
                "tracing": trace.enabled(),
                "events": len(trace.events()),
            }
        if method == "POST" and path == "/shutdown":
            self.request_shutdown()
            return 200, {"status": "shutting down"}
        return 404, {"error": f"no route {method} {path}"}

    @staticmethod
    async def _off_loop(fn, *args):
        """Run a store-touching handler on the loop's default executor:
        sqlite reads contend the store lock, and a worker thread inside
        a large snapshot-blob transaction must not stall the event loop
        (which would stop the server answering *every* connection,
        /shutdown included).  The default executor — not the bounded
        analysis executor — so polls cannot be starved by long runs."""
        return await asyncio.get_running_loop().run_in_executor(
            None, lambda: fn(*args)
        )

    async def _submit(self, body: bytes):
        try:
            payload = json.loads(body or b"{}")
        except ValueError as bad:
            raise ServiceError(f"submit body is not JSON: {bad}") from bad
        request = AnalysisRequest.from_payload(payload)
        wait = bool(payload.get("wait", True))
        loop = asyncio.get_running_loop()
        # A memo hit (a digest of the request, on the loop) names the
        # job without compiling; only a miss schedules a prepare.
        problem = self.service.memoized(request)
        if problem is None:
            problem = await loop.run_in_executor(
                self.service.executor, self.service.prepare, request
            )
            prepared = (problem, "compiled")
        else:
            prepared = (problem, "memo")
        job = self._record_job(problem)
        task = loop.run_in_executor(
            self.service.executor,
            self.service.run,
            request,
            prepared,
            time.perf_counter(),  # enqueued_at: queue wait starts here
        )
        job["status"] = "running"

        async def finish() -> dict:
            try:
                response = await task
            except BaseException as failure:
                # Record EVERY failure mode on the job — a polling
                # client must see "failed", never a forever-"running".
                job["status"] = "failed"
                job["error"] = f"{type(failure).__name__}: {failure}"
                raise
            job["status"] = "done"
            job["response"] = response
            return response

        if wait:
            return 200, await finish()
        asyncio.ensure_future(self._swallow(finish(), problem))
        return 202, {"id": problem, "status": job["status"]}

    def _record_job(self, problem: str) -> dict:
        job = self._jobs.get(problem)
        if job is None:
            job = {"status": "queued", "response": None, "error": None}
            self._jobs[problem] = job
        else:
            # Clear the previous run's outcome: a poller must never be
            # handed the stale shallower response while a deeper
            # re-submission is in flight.
            job.update(status="queued", error=None, response=None)
            self._jobs.move_to_end(problem)
        # Evict the oldest *settled* records past the bound; running
        # jobs are never dropped (their status must stay pollable).
        settled = [
            key
            for key, record in self._jobs.items()
            if record["status"] in ("done", "failed")
        ]
        for key in settled[: max(0, len(self._jobs) - _JOB_HISTORY_LIMIT)]:
            del self._jobs[key]
        return job

    @staticmethod
    async def _swallow(awaitable, problem: str) -> None:
        try:
            await awaitable
        except Exception as failure:
            # Recorded on the job and surfaced via /status and /result —
            # but never silently: a swallowed async failure still logs
            # its fingerprint so operators can find it.
            _log.warning(
                "async submit failed",
                extra={
                    "fields": {
                        "fingerprint": problem,
                        "error": f"{type(failure).__name__}: {failure}",
                    }
                },
            )

    def _status(self, problem: str | None):
        if problem is None:
            return 400, {"error": "missing ?id=<fingerprint>"}
        job = self._jobs.get(problem)
        if job is None:
            entry = self.service.store.get(problem, include_snapshot=False)
            if entry is not None and entry.result is not None:
                return 200, {"id": problem, "status": "done"}
            return 404, {"id": problem, "status": "unknown"}
        payload = {
            "id": problem, "status": job["status"], "error": job["error"]
        }
        if job["response"] is not None:
            # Server-truth timing split for finished jobs: engine
            # compute vs executor queue wait (both also in the audit
            # line and the /result response).
            payload["engine_seconds"] = job["response"].get("engine_seconds")
            payload["queue_seconds"] = job["response"].get("queue_seconds")
        return 200, payload

    def _result(self, problem: str | None):
        if problem is None:
            return 400, {"error": "missing ?id=<fingerprint>"}
        job = self._jobs.get(problem)
        if job is not None and job["response"] is not None:
            return 200, job["response"]
        if job is not None and job["status"] in ("queued", "running"):
            return 202, {"id": problem, "status": job["status"]}
        if job is not None and job["status"] == "failed":
            return 500, {
                "id": problem,
                "status": "failed",
                "error": job["error"],
            }
        # Poll handlers run on the event loop thread: read the verdict
        # columns only, never the snapshot blob.
        entry = self.service.store.get(problem, include_snapshot=False)
        if entry is not None and entry.result is not None:
            return 200, entry.result | {"cached": True}
        return 404, {"id": problem, "status": "unknown"}
