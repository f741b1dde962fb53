"""End-to-end observability: audit lines, /metrics, /trace, timings.

The server fixture mirrors ``test_server.py``; the process-executor
test drives :class:`ProcessAnalysisExecutor` directly so the span
shipping + adoption protocol is asserted at the layer that implements
it (worker ``JobOutcome.spans`` → parent :func:`trace.adopt`).
"""

import asyncio
import http.client
import json
import logging
import os
import threading

import pytest

from repro.cpds import format_cpds
from repro.models import fig1_cpds
from repro.models.dekker import dekker_source
from repro.obs import trace
from repro.obs.logs import AUDIT_LOGGER
from repro.obs.prometheus import parse_text
from repro.service import (
    AnalysisService,
    AnalysisStore,
    ServiceClient,
    ServiceServer,
)
from repro.service.executor import EngineJob, ProcessAnalysisExecutor

FIG1 = format_cpds(fig1_cpds())


@pytest.fixture
def server(tmp_path):
    service = AnalysisService(AnalysisStore(tmp_path / "store.sqlite"), workers=2)
    server = ServiceServer(service, port=0)
    ready = threading.Event()

    def run() -> None:
        async def main() -> None:
            await server.start()
            ready.set()
            await server.serve_until_shutdown()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server failed to start"
    yield server
    server.request_shutdown()
    thread.join(20)
    assert not thread.is_alive(), "server failed to shut down"


@pytest.fixture
def client(server):
    return ServiceClient(port=server.port)


@pytest.fixture
def audit_records():
    """Capture parsed audit records straight off the ``cuba.audit``
    logger (no reliance on propagation or handler setup)."""
    records: list[dict] = []

    class Capture(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            records.append(json.loads(record.getMessage()))

    handler = Capture(level=logging.INFO)
    logger = logging.getLogger(AUDIT_LOGGER)
    logger.addHandler(handler)
    previous = logger.level
    logger.setLevel(logging.INFO)
    yield records
    logger.removeHandler(handler)
    logger.setLevel(previous)


def _raw(server, method: str, path: str, payload: dict | None = None):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.headers, response.read()
    finally:
        connection.close()


class TestAudit:
    def test_every_submit_emits_one_audit_line(self, client, audit_records):
        response = client.submit(FIG1, property_spec="shared:3", max_rounds=10)
        assert response["verdict"] == "unsafe"
        assert len(audit_records) == 1
        record = audit_records[0]
        assert record["fingerprint"] == response["fingerprint"]
        assert record["verdict"] == "unsafe"
        assert record["lane"] in ("explicit", "symbolic", "wuba")
        assert record["store"] == "miss"
        assert record["lease"] is None  # fresh run: nothing to pin
        assert record["engine_seconds"] >= 0.0
        assert record["queue_seconds"] >= 0.0
        assert record["total_seconds"] >= record["engine_seconds"]
        for field in ("requested", "resumed", "cached", "bound"):
            assert field in record
        assert "backend" not in record  # one replay loop: nothing to name

    def test_store_hit_audits_as_hit(self, client, audit_records):
        client.submit(FIG1, property_spec="shared:3", max_rounds=10)
        client.submit(FIG1, property_spec="shared:3", max_rounds=10)
        assert [record["store"] for record in audit_records] == ["miss", "hit"]
        assert audit_records[1]["cached"] is True

    def test_resume_audits_lease_and_store_resume(self, client, audit_records):
        """A deeper resubmission resumes from the stored snapshot under
        a lease — both must show in the audit trail."""
        shallow = client.submit(FIG1, engine="explicit", max_rounds=4)
        assert shallow["verdict"] == "unknown"
        deeper = client.submit(FIG1, engine="explicit", max_rounds=8)
        assert deeper["resumed"] is True
        assert [record["store"] for record in audit_records] == ["miss", "resume"]
        assert audit_records[1]["lease"] == "acquired"

    def test_audit_names_how_the_fingerprint_was_found(
        self, client, audit_records
    ):
        """``prepare`` is "compiled" when the submit compiled and hashed
        the program to name it, "memo" when the prepare memo named it;
        ``/meter`` counts the memo hits."""
        before = client.meter().get("service.prepare_memo_hits", 0)
        for _ in range(3):
            client.submit(FIG1, property_spec="shared:3", max_rounds=10)
        assert [record["prepare"] for record in audit_records] == [
            "compiled", "memo", "memo"
        ]
        assert [record["store"] for record in audit_records] == [
            "miss", "hit", "hit"
        ]
        assert client.meter()["service.prepare_memo_hits"] - before == 2

    def test_rejected_submit_emits_no_audit_line(self, client, audit_records):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            client.submit("not a cpds {{{")
        assert audit_records == []


class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_with_request_histogram(self, client):
        client.submit(FIG1, property_spec="shared:3", max_rounds=10)
        body = client.metrics()
        samples = parse_text(body)  # raises on any malformed line
        request_counts = samples["cuba_service_request_seconds_count"]
        by_lane = {dict(labels).get("lane"): value
                   for labels, value in request_counts.items()}
        assert sum(by_lane.values()) >= 1
        assert all(lane for lane in by_lane), "per-lane labels required"
        # Cumulative le buckets end at the count.
        buckets = samples["cuba_service_request_seconds_bucket"]
        for labels, value in request_counts.items():
            inf_key = tuple(sorted(labels + (("le", "+Inf"),)))
            assert buckets[inf_key] == value
        # METER counters ride along in the same scrape.
        assert any(name.endswith("_total") for name in samples)

    def test_content_type_is_prometheus_text(self, server, client):
        client.submit(FIG1, max_rounds=5)
        status, headers, _body = _raw(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")

    def test_http_route_label_is_bounded(self, server, client):
        _raw(server, "GET", "/definitely-not-a-route")
        client.submit(FIG1, max_rounds=5)
        samples = parse_text(client.metrics())
        routes = {
            dict(labels).get("route")
            for labels in samples.get("cuba_http_request_seconds_count", {})
        }
        assert "other" in routes  # unknown paths collapse, no cardinality leak
        assert "/submit" in routes


class TestTraceEndpoint:
    @pytest.fixture(autouse=True)
    def _isolation(self):
        trace.disable()
        trace.clear()
        yield
        trace.disable()
        trace.clear()

    def test_toggle_capture_export(self, server, client):
        status, _headers, body = _raw(server, "POST", "/trace", {"enabled": True})
        assert status == 200
        assert json.loads(body)["tracing"] is True

        client.submit(
            FIG1, property_spec="shared:3", engine="explicit", max_rounds=10
        )

        status, _headers, body = _raw(server, "GET", "/trace")
        assert status == 200
        doc = json.loads(body)
        names = [event["name"] for event in doc["traceEvents"]]
        assert "service.request" in names
        assert "service.engine_run" in names
        assert "lane.run" in names
        assert any(name.endswith(".level") for name in names)
        # The request span must be an ancestor of the engine run.
        by_id = {event["args"]["span_id"]: event for event in doc["traceEvents"]}
        engine = next(e for e in doc["traceEvents"]
                      if e["name"] == "service.engine_run")
        seen = set()
        cursor = engine["args"]["parent_id"]
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            cursor = by_id[cursor]["args"]["parent_id"]
        assert any(by_id[span]["name"] == "service.request" for span in seen)

        status, _headers, body = _raw(server, "POST", "/trace", {"enabled": False})
        assert json.loads(body)["tracing"] is False


    def test_bp_submit_traces_prepare_around_compile(self, server, client):
        """A fresh submit compiles to fingerprint, inside
        ``service.prepare``, and again in its engine run, inside
        ``service.compile`` (the thread executor runs the job inline)."""
        _raw(server, "POST", "/trace", {"enabled": True})
        client.submit(bp_text=dekker_source(), engine="explicit", max_rounds=2)
        _status, _headers, body = _raw(server, "GET", "/trace")
        events = json.loads(body)["traceEvents"]
        by_id = {event["args"]["span_id"]: event for event in events}
        (prepare,) = [e for e in events if e["name"] == "service.prepare"]
        compiles = [e for e in events if e["name"] == "bp.compile"]
        assert sorted(by_id[e["args"]["parent_id"]]["name"] for e in compiles) == [
            "service.compile", "service.prepare"
        ]
        (compile_,) = [
            e for e in compiles
            if e["args"]["parent_id"] == prepare["args"]["span_id"]
        ]
        assert compile_["args"]["threads"] == 2
        assert compile_["args"]["rules"] > 0
        _raw(server, "POST", "/trace", {"enabled": False})

    def test_memo_hit_traces_prepare_without_compile(self, server, client):
        """A repeat the prepare memo names keeps its one
        ``service.prepare`` span, marked ``memo``, and compiles
        nothing."""
        _raw(server, "POST", "/trace", {"enabled": True})
        client.submit(bp_text=dekker_source(), engine="explicit", max_rounds=2)
        _status, _headers, body = _raw(server, "GET", "/trace")
        (first,) = [
            e for e in json.loads(body)["traceEvents"]
            if e["name"] == "service.prepare"
        ]
        assert first["args"]["memo"] is False
        _raw(server, "POST", "/trace", {"enabled": True})  # clears the buffer
        response = client.submit(
            bp_text=dekker_source(), engine="explicit", max_rounds=2
        )
        assert response["cached"]
        _status, _headers, body = _raw(server, "GET", "/trace")
        events = json.loads(body)["traceEvents"]
        (prepare,) = [e for e in events if e["name"] == "service.prepare"]
        assert prepare["args"]["memo"] is True
        assert [e for e in events if e["name"] == "bp.compile"] == []
        assert [e["name"] for e in events if e["name"] == "service.request"] == [
            "service.request"
        ]
        _raw(server, "POST", "/trace", {"enabled": False})

    def test_resume_after_memo_hit_compiles_inside_the_request(
        self, server, client
    ):
        """A deeper resubmit is named from the memo, then compiles once,
        in its engine run: that ``bp.compile`` nests in the
        ``service.compile`` span of the ``service.engine_run`` under the
        ``service.request`` span."""
        client.submit(bp_text=dekker_source(), engine="explicit", max_rounds=2)
        _raw(server, "POST", "/trace", {"enabled": True})
        response = client.submit(
            bp_text=dekker_source(), engine="explicit", max_rounds=25
        )
        assert response["resumed"]
        _status, _headers, body = _raw(server, "GET", "/trace")
        events = json.loads(body)["traceEvents"]
        by_id = {event["args"]["span_id"]: event for event in events}
        (compile_,) = [e for e in events if e["name"] == "bp.compile"]
        chain = []
        cursor = compile_["args"]["parent_id"]
        while cursor is not None:
            chain.append(by_id[cursor]["name"])
            cursor = by_id[cursor]["args"]["parent_id"]
        assert chain == ["service.compile", "service.engine_run", "service.request"]
        (prepare,) = [e for e in events if e["name"] == "service.prepare"]
        assert prepare["args"]["memo"] is True
        _raw(server, "POST", "/trace", {"enabled": False})


class TestTimingFields:
    def test_submit_response_separates_engine_and_queue(self, client):
        response = client.submit(FIG1, property_spec="shared:3", max_rounds=10)
        assert response["engine_seconds"] >= 0.0
        assert response["queue_seconds"] >= 0.0
        assert "backend" not in response

    def test_status_surfaces_timings_when_done(self, client):
        import time

        ticket = client.submit(
            FIG1, property_spec="shared:3", max_rounds=10, wait=False
        )
        problem = ticket["id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = client.status(problem)
            if status["status"] == "done":
                break
            time.sleep(0.05)
        assert status["status"] == "done"
        assert status["engine_seconds"] >= 0.0
        assert status["queue_seconds"] >= 0.0

    def test_cached_hit_is_request_scoped(self, client):
        """queue_seconds rides the per-request copy: two hits on the
        same stored entry must each get their own value, not share one
        mutated dict."""
        first = client.submit(FIG1, property_spec="shared:3", max_rounds=10)
        second = client.submit(FIG1, property_spec="shared:3", max_rounds=10)
        assert second["cached"] is True
        assert "queue_seconds" in first and "queue_seconds" in second


class TestProcessExecutorSpans:
    def test_worker_spans_reparent_under_dispatch(self):
        executor = ProcessAnalysisExecutor(workers=1)
        trace.clear()
        trace.enable()
        try:
            outcome = executor.run(
                EngineJob(
                    problem="span-ship", cpds_text=FIG1, property_spec="shared:3",
                    engine="explicit", max_rounds=10,
                )
            )
        finally:
            trace.disable()
            executor.close()
        assert outcome.response["verdict"] == "unsafe"
        assert outcome.spans == [], "adopted spans must not ship twice"

        events = trace.take()
        by_id = {event["id"]: event for event in events}
        dispatch = [e for e in events if e["name"] == "executor.dispatch"]
        assert len(dispatch) == 1
        worker_events = [e for e in events if e["pid"] != os.getpid()]
        assert worker_events, "worker spans must come home"
        worker_names = {event["name"] for event in worker_events}
        assert "service.engine_run" in worker_names
        assert any(name.endswith(".level") for name in worker_names)
        # The worker compiles the job's program inside its engine run.
        (compile_,) = [e for e in worker_events if e["name"] == "service.compile"]
        assert by_id[compile_["parent"]]["name"] == "service.engine_run"
        # Zero orphans: every worker span resolves to a local parent
        # chain ending at the dispatch span.
        for event in worker_events:
            cursor = event
            while cursor["parent"] is not None:
                cursor = by_id[cursor["parent"]]
            assert cursor["id"] == dispatch[0]["id"]
        # The transport legs are named: the pickup leg ends where the
        # worker's spans begin, and both legs and the engine run fit
        # inside the dispatch span.
        (pickup,) = [e for e in events if e["name"] == "executor.pickup"]
        (reply,) = [e for e in events if e["name"] == "executor.reply"]
        (engine_run,) = [e for e in worker_events if e["name"] == "service.engine_run"]
        for leg in (pickup, reply):
            assert leg["pid"] == os.getpid()
            assert leg["parent"] == dispatch[0]["id"]
            assert leg["dur"] >= 0.0
        assert pickup["ts"] >= dispatch[0]["ts"]
        assert abs(pickup["ts"] + pickup["dur"] - engine_run["ts"]) < 1e-9
        assert pickup["dur"] + engine_run["dur"] + reply["dur"] <= dispatch[0]["dur"] + 1e-3
        assert reply["ts"] + reply["dur"] <= dispatch[0]["ts"] + dispatch[0]["dur"]
