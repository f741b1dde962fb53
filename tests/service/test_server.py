"""HTTP layer + end-to-end service smoke.

The in-process tests start the asyncio server on an ephemeral port and
drive it through :class:`ServiceClient`; the subprocess test launches
``cuba serve`` for the full process-boundary story (cross-process
fingerprint stability included).  The concurrent-submission test is the
CI ``service-smoke`` acceptance check: a quick registry row submitted
twice concurrently yields ONE METER engine run and identical verdicts.
"""

import asyncio
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.cpds import format_cpds
from repro.errors import ServiceError
from repro.models import fig1_cpds
from repro.models.dekker import dekker_source
from repro.service import (
    AnalysisService,
    AnalysisStore,
    ServiceClient,
    ServiceServer,
)

FIG1 = format_cpds(fig1_cpds())
#: A quick Table 2 registry row (9/Dekker) in submittable source form.
DEKKER = dekker_source()


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


class TestEndpoints:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["store"]["open"]

    def test_submit_wait_roundtrip(self, client):
        response = client.submit(FIG1, property_spec="shared:3", max_rounds=10)
        assert response["verdict"] == "unsafe"
        assert response["bound"] == 2
        assert response["witness"]
        assert response["trace"]

    def test_submit_nowait_then_poll(self, client):
        ticket = client.submit(
            bp_text=DEKKER, engine="symbolic", max_rounds=8, wait=False
        )
        assert ticket["status"] in ("queued", "running")
        problem = ticket["id"]
        deadline = time.monotonic() + 60
        result = None
        while result is None and time.monotonic() < deadline:
            result = client.result(problem)
            if result is None:
                time.sleep(0.05)
        assert result is not None, "analysis never finished"
        assert result["verdict"] == "safe"
        assert client.status(problem)["status"] == "done"

    def test_failed_async_job_is_pollable(self, server, client, monkeypatch):
        """A crash inside an async analysis must surface as a 'failed'
        status and a non-2xx /result — never a forever-'running' job or
        a 404."""
        from repro.errors import CubaError

        def boom(request, prepared=None, enqueued_at=None):
            raise CubaError("engine exploded mid-run")

        monkeypatch.setattr(server.service, "run", boom)
        ticket = client.submit(FIG1, wait=False)
        problem = ticket["id"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.status(problem)["status"] == "failed":
                break
            time.sleep(0.05)
        status = client.status(problem)
        assert status["status"] == "failed"
        assert "engine exploded" in status["error"]
        with pytest.raises(ServiceError, match="engine exploded"):
            client.result(problem)

    def test_unknown_id_is_404(self, client):
        with pytest.raises(ServiceError):
            client.status("feedbeef")
        with pytest.raises(ServiceError):
            client.result("feedbeef")

    def test_bad_requests_are_400_not_crashes(self, client):
        with pytest.raises(ServiceError):
            client.submit("not a cpds at all {{{")
        with pytest.raises(ServiceError):
            client.submit(FIG1, engine="quantum")
        with pytest.raises(ServiceError):
            client.submit(FIG1, property_spec="gibberish")
        # Fields that used to crash the handler (500) or slip through.
        for payload in (
            {"bp": DEKKER, "init": {"flag0": [1]}},
            {"bp": DEKKER, "init": {"flag0": "x"}},
            {"bp": DEKKER, "init": {"flag0": 2}},
            {"cpds": FIG1, "engine": 5},
            {"cpds": FIG1, "engine": None},
            {"cpds": FIG1, "max_states_per_context": 0},
            {"cpds": FIG1, "max_states_per_context": -3},
        ):
            status, body = client._request("POST", "/submit", payload)
            assert status == 400, (payload, body)
        # The server survives all of the above.
        assert client.health()["status"] == "ok"

    def test_unroutable_path_is_404(self, client):
        status, _payload = client._request("GET", "/nope")
        assert status == 404

    def test_oversized_request_body_is_refused(self, server):
        """A hostile Content-Length must be refused up front, not
        buffered into memory."""
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as raw:
            raw.sendall(
                b"POST /submit HTTP/1.1\r\n"
                b"Content-Length: 99999999999\r\n\r\n"
            )
            reply = raw.recv(4096)
        assert reply.split(b"\r\n", 1)[0].endswith(b"400 Bad Request")
        assert b"exceeds" in reply

    def test_endless_header_stream_is_refused(self, server):
        """The header section is bounded too — an attacker streaming
        header lines forever must be cut off, not buffered."""
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as raw:
            raw.sendall(b"POST /submit HTTP/1.1\r\n")
            try:
                for index in range(4096):
                    raw.sendall(b"X-flood-%d: padding\r\n" % index)
            except OSError:
                pass  # server already refused and closed — that's the point
            reply = b""
            try:
                raw.sendall(b"\r\n")
                reply = raw.recv(4096)
            except OSError:
                pass
        assert not reply or b"400" in reply.split(b"\r\n", 1)[0]


def _meter_delta(client, before):
    after = client.meter()
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


class TestSmoke:
    def test_concurrent_identical_submissions_one_engine_run(self, client):
        """The service-smoke lane's core assertion (see module doc).
        The METER window is read as a delta: the counters are process
        totals and other tests share the process."""
        before = client.meter()
        with ThreadPoolExecutor(2) as pool:
            futures = [
                pool.submit(
                    client.submit, bp_text=DEKKER, engine="auto", max_rounds=25
                )
                for _ in range(2)
            ]
            responses = [future.result() for future in futures]
        assert responses[0]["verdict"] == responses[1]["verdict"] == "safe"
        assert responses[0]["bound"] == responses[1]["bound"]
        delta = _meter_delta(client, before)
        assert delta.get("service.engine_runs") == 1
        # Exactly one of the two joined the other's in-flight run (or,
        # on an extreme scheduling edge, hit the store the run filled).
        assert (
            delta.get("service.dedup_joins", 0)
            + delta.get("service.store_hits", 0)
            == 1
        )

    def test_resubmission_clears_stale_job_response(self, server, client):
        """Re-registering a fingerprint for a deeper run must drop the
        previous run's response — a poller must never be handed the
        stale shallower verdict while the new run is in flight."""
        finished = client.submit(FIG1, engine="explicit", max_rounds=2)
        problem = finished["fingerprint"]
        job = server._jobs[problem]
        assert job["status"] == "done" and job["response"] is not None
        refreshed = server._record_job(problem)
        assert refreshed["status"] == "queued"
        assert refreshed["response"] is None and refreshed["error"] is None

    def test_resubmission_after_completion_hits_the_store(self, client):
        before = client.meter()
        first = client.submit(bp_text=DEKKER, engine="auto", max_rounds=25)
        second = client.submit(bp_text=DEKKER, engine="auto", max_rounds=25)
        assert not first["cached"] and second["cached"]
        assert _meter_delta(client, before).get("service.engine_runs") == 1


@pytest.mark.skipif(os.name != "posix", reason="subprocess smoke is posix-only")
def test_cuba_serve_subprocess_end_to_end(tmp_path):
    """`cuba serve` + `cuba submit` across real process boundaries:
    the restarted-client fingerprint must land on the server's store
    entry, and shutdown must be graceful."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", str(port), "--store", str(tmp_path / "store.sqlite"),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        client = ServiceClient(port=port, timeout=60)
        for _ in range(200):
            try:
                client.health()
                break
            except ServiceError:
                time.sleep(0.05)
        else:
            raise AssertionError("cuba serve never became healthy")

        cpds_file = tmp_path / "fig1.cpds"
        cpds_file.write_text(FIG1)

        def submit() -> subprocess.CompletedProcess:
            return subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "submit",
                    str(cpds_file), "--property", "shared:3",
                    "--port", str(port),
                ],
                env=env, capture_output=True, text=True, timeout=120,
            )

        first = submit()
        second = submit()
        assert first.returncode == second.returncode == 1, first.stdout
        assert "fresh run" in first.stdout
        assert "store hit" in second.stdout
        assert client.meter().get("service.engine_runs") == 1
        client.shutdown()
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
