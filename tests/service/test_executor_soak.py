"""Concurrent soak of the process-pool executor through ``cuba serve``
(PR 6).

The quick registry rows are pushed through a live HTTP server whose
service dispatches engine runs to worker processes, every row submitted
twice concurrently.  Two properties must hold:

* in-flight dedup stays parent-side: exactly one
  ``service.engine_runs`` per unique fingerprint, regardless of how the
  duplicate submissions interleave;
* ``/meter`` is executor-invariant: the worker METER deltas merged back
  by the executor make the server's engine-counter totals equal a
  serial, in-thread oracle run of the same requests.
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cpds import format_cpds
from repro.models import fig1_cpds
from repro.models.bluetooth import bluetooth_source
from repro.models.bst import bst_source
from repro.models.dekker import dekker_source
from repro.models.filecrawler import filecrawler_source
from repro.service import (
    AnalysisRequest,
    AnalysisService,
    AnalysisStore,
    ServiceClient,
    ServiceServer,
)
from repro.util.meter import scoped

MAX_ROUNDS = 3

#: The quick registry slice in *submittable* source form — the soak
#: drives the wire formats (cpds text and boolean programs), not built
#: objects, mirroring what real clients send.
ROWS = [
    ("fig1", {"cpds_text": format_cpds(fig1_cpds()), "property_spec": "shared:3"}),
    ("9/Dekker", {"bp_text": dekker_source()}),
    ("1/Bluetooth-1", {"bp_text": bluetooth_source(1, 1, 1)}),
    ("5/BST", {"bp_text": bst_source(1, 1)}),
    ("7/File-crawler", {"bp_text": filecrawler_source(1)}),
]


@pytest.fixture
def process_server(tmp_path):
    service = AnalysisService(
        AnalysisStore(tmp_path / "soak.sqlite"),
        workers=2,
        executor="process",
    )
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


def test_registry_rows_survive_the_wire_format():
    assert len(ROWS) >= 3, "soak needs a non-trivial registry slice"


def test_soak_dedup_and_meter_against_serial_oracle(process_server, tmp_path):
    client = ServiceClient(port=process_server.port, timeout=120)
    before = client.meter()
    with ThreadPoolExecutor(max_workers=4) as submitters:
        futures = [
            submitters.submit(
                client.submit,
                engine="explicit",
                max_rounds=MAX_ROUNDS,
                **kwargs,
            )
            for _row, kwargs in ROWS
            for _ in range(2)
        ]
        responses = [future.result() for future in futures]
    after = client.meter()
    delta = {
        name: value - before.get(name, 0) for name, value in after.items()
    }

    # One engine run per unique fingerprint; the duplicate either joined
    # the in-flight run or hit the store entry the run had just filled.
    assert delta.get("service.engine_runs") == len(ROWS)
    assert (
        delta.get("service.dedup_joins", 0) + delta.get("service.store_hits", 0)
        == len(ROWS)
    )
    # Both submissions of a row agree on the verdict.
    for index in range(0, len(responses), 2):
        first, second = responses[index], responses[index + 1]
        assert first["fingerprint"] == second["fingerprint"]
        assert (first["verdict"], first["bound"]) == (
            second["verdict"],
            second["bound"],
        )

    # Serial oracle: the same requests, once each, on an in-thread
    # service.  Engine counters must match exactly — the process
    # executor merged every worker's METER delta home.
    oracle = AnalysisService(AnalysisStore(tmp_path / "oracle.sqlite"))
    try:
        with scoped() as oracle_work:
            oracle_responses = {
                row: oracle.run(
                    AnalysisRequest(
                        engine="explicit",
                        max_rounds=MAX_ROUNDS,
                        **kwargs,
                    )
                )
                for row, kwargs in ROWS
            }
    finally:
        oracle.close()
    for (row, _kwargs), response in zip(ROWS, responses[::2]):
        assert response["verdict"] == oracle_responses[row]["verdict"], row
        assert response["bound"] == oracle_responses[row]["bound"], row
    engine_keys = {
        name
        for source in (delta, oracle_work)
        for name in source
        if name.startswith("explicit.")
    }
    # The work counters are invariant under the executor.
    for name in sorted(engine_keys):
        assert delta.get(name, 0) == oracle_work.get(name, 0), (
            name,
            delta.get(name, 0),
            oracle_work.get(name, 0),
        )
