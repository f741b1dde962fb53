"""The prepare memo: request identity → problem fingerprint.

A store hit or a dedup join on a request the daemon has prepared before
must not compile or hash the program again.  The service compiles a
program only to fingerprint a request the memo has not seen; every
engine run compiles its own from the job, exactly once.  The memoized fingerprint must always be the one a cold
:func:`~repro.service.fingerprint.fingerprint` computes, so the memo can
change no store key.
"""

import asyncio
import threading
import time

import pytest

import repro.service.executor as executor_mod
import repro.service.server as server_mod
from repro.bp.translate import compile_source
from repro.cpds import format_cpds, parse_cpds
from repro.errors import CubaError, FingerprintError
from repro.models import fig1_cpds
from repro.models.bluetooth import bluetooth_source
from repro.models.bst import bst_source
from repro.models.dekker import dekker_source
from repro.models.filecrawler import filecrawler_source
from repro.models.kinduction import kinduction_source
from repro.models.proc2 import proc2_source
from repro.models.stefan import stefan
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.service import (
    AnalysisRequest,
    AnalysisService,
    AnalysisStore,
    ServiceClient,
    ServiceServer,
)
from repro.service.fingerprint import fingerprint
from repro.service.server import parse_property_spec
from repro.util.meter import METER, scoped

FIG1 = format_cpds(fig1_cpds())
DEKKER = dekker_source()

#: The service-mix submit fields of each row's smallest configuration
#: (as ``perfbench/problems.py::_program`` builds them) and its lanes.
SERVICE_PROGRAMS = {
    "1/Bluetooth-1": {"bp_text": bluetooth_source(1, 1, 1), "bp_init": {"p0": 1}},
    "2/Bluetooth-2": {"bp_text": bluetooth_source(2, 1, 1), "bp_init": {"p0": 1}},
    "3/Bluetooth-3": {"bp_text": bluetooth_source(3, 1, 1), "bp_init": {"p0": 1}},
    "4/BST-Insert": {"bp_text": bst_source(1, 1), "bp_init": {"inv": 1}},
    "5/FileCrawler": {"bp_text": filecrawler_source(2)},
    "6/K-Induction": {"bp_text": kinduction_source()},
    "7/Proc-2": {"bp_text": proc2_source(2, 2)},
    "8/Stefan-1": {"cpds_text": format_cpds(stefan(2)[0])},
    "9/Dekker": {"bp_text": DEKKER},
}
SERVICE_LANES = ("auto", "symbolic", "wuba")


@pytest.fixture
def service(tmp_path):
    service = AnalysisService(AnalysisStore(tmp_path / "store.sqlite"), workers=2)
    yield service
    service.close()


class Calls:
    """Counts the program compiles and fingerprint hashes the service
    makes (the names it looks up at call time): ``compiles`` in the
    service to fingerprint, ``job_compiles`` at the start of engine
    runs."""

    def __init__(self, monkeypatch) -> None:
        self.compiles = 0
        self.job_compiles = 0
        self.fingerprints = 0

        def counted(function, counter):
            def wrapper(*args, **kwargs):
                setattr(self, counter, getattr(self, counter) + 1)
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            server_mod, "compile_program", counted(server_mod.compile_program, "compiles")
        )
        monkeypatch.setattr(
            executor_mod,
            "compile_program",
            counted(executor_mod.compile_program, "job_compiles"),
        )
        monkeypatch.setattr(
            server_mod, "fingerprint", counted(server_mod.fingerprint, "fingerprints")
        )


@pytest.fixture
def calls(monkeypatch):
    return Calls(monkeypatch)


def _cold_fingerprint(program: dict, engine: str) -> str:
    """The fingerprint computed from scratch, without the service."""
    if "bp_text" in program:
        compiled = compile_source(program["bp_text"], init=program.get("bp_init") or {})
        cpds, prop = compiled.cpds, compiled.prop
    else:
        cpds, prop = parse_cpds(program["cpds_text"]), parse_property_spec(None)
    return fingerprint(
        cpds, prop, {"engine": engine, "max_states_per_context": DEFAULT_STATE_LIMIT}
    )


class TestCompileCounts:
    @pytest.mark.parametrize(
        "program",
        [
            {"cpds_text": FIG1, "property_spec": "shared:3", "max_rounds": 10},
            {"bp_text": DEKKER, "engine": "explicit", "max_rounds": 25},
        ],
        ids=["cpds", "bp"],
    )
    def test_repeat_of_a_stored_verdict_compiles_nothing(
        self, service, calls, program
    ):
        request = AnalysisRequest(**program)
        first = service.run(request)
        assert (calls.compiles, calls.fingerprints) == (1, 1)
        with scoped() as work:
            second = service.run(request)
        assert second["cached"] and not first["cached"]
        assert second["fingerprint"] == first["fingerprint"]
        assert (calls.compiles, calls.fingerprints) == (1, 1)
        assert calls.job_compiles == 1
        assert work.get("service.prepare_memo_hits") == 1

    def test_resume_after_a_memo_hit_compiles_once(self, service, calls):
        """The resume is named from the memo and compiles once, in its
        job; the thread-mode fresh run before it compiled twice, once
        to fingerprint and once in its job."""
        service.run(AnalysisRequest(bp_text=DEKKER, engine="explicit", max_rounds=2))
        assert (calls.compiles, calls.job_compiles, calls.fingerprints) == (1, 1, 1)
        with scoped() as work:
            deep = service.run(
                AnalysisRequest(bp_text=DEKKER, engine="explicit", max_rounds=25)
            )
        assert deep["resumed"] and deep["verdict"] == "safe"
        assert (calls.compiles, calls.job_compiles, calls.fingerprints) == (1, 2, 1)
        assert work.get("service.prepare_memo_hits") == 1
        assert work.get("service.resumes") == 1

    def test_dedup_join_on_a_memo_hit_compiles_nothing(self, service, calls, monkeypatch):
        """The second of two concurrent identical requests joins the
        first's run; when it finds its fingerprint in the memo it
        compiles nothing."""
        request = AnalysisRequest(bp_text=DEKKER, engine="explicit", max_rounds=25)
        problem = service.prepare(request)
        joined = threading.Event()
        analyze = service._analyze

        def held_analyze(*args, **kwargs):
            assert joined.wait(30), "second caller never joined"
            return analyze(*args, **kwargs)

        monkeypatch.setattr(service, "_analyze", held_analyze)
        results = []
        owner = threading.Thread(target=lambda: results.append(service.run(request)))
        owner.start()
        deadline = time.monotonic() + 30
        while problem not in service._inflight:
            assert time.monotonic() < deadline, "owner never registered its run"
            time.sleep(0.001)
        joins_before = METER.get("service.dedup_joins")
        joiner = threading.Thread(target=lambda: results.append(service.run(request)))
        joiner.start()
        deadline = time.monotonic() + 30
        while METER.get("service.dedup_joins") == joins_before:
            assert time.monotonic() < deadline, "second caller never joined"
            time.sleep(0.001)
        joined.set()
        joiner.join(60)
        owner.join(60)
        assert len(results) == 2
        assert sorted(bool(r.get("deduplicated")) for r in results) == [False, True]
        # prepare + the owner's engine compile; the joiner compiled nothing.
        assert (calls.compiles, calls.job_compiles, calls.fingerprints) == (1, 1, 1)


class TestExactness:
    @pytest.mark.parametrize("row", sorted(SERVICE_PROGRAMS))
    def test_memoized_fingerprint_is_the_cold_one(self, service, row):
        program = SERVICE_PROGRAMS[row]
        for engine in SERVICE_LANES:
            request = AnalysisRequest(**program, engine=engine)
            assert service.memoized(request) is None
            problem = service.prepare(request)
            cold = _cold_fingerprint(program, engine)
            assert problem == cold
            assert service.memoized(request) == cold
            # A prepare that finds the fingerprint in the memo agrees too.
            assert service.prepare(request) == cold

    def test_each_identity_field_makes_its_own_entry(self, service):
        base = {"bp_text": DEKKER, "bp_init": {"turn": 1}}
        variants = [
            base,
            base | {"bp_text": DEKKER + "\n"},
            base | {"bp_init": {"turn": "*"}},
            base | {"bp_init": {"turn": 1, "flag0": 0}},
            base | {"bp_init": None},
            base | {"property_spec": "shared:3"},
            base | {"engine": "symbolic"},
            base | {"max_states_per_context": 1000},
            {"cpds_text": FIG1},
            {"cpds_text": FIG1, "property_spec": "shared:3"},
        ]
        requests = [AnalysisRequest(**variant) for variant in variants]
        keys = {request.prepare_key() for request in requests}
        assert len(keys) == len(variants)
        for request in requests:
            service.prepare(request)
        assert len(service._prepare_memo) == len(variants)

    def test_alias_and_budget_share_one_entry(self, service, calls):
        first = AnalysisRequest(bp_text=DEKKER, engine="wuba", max_rounds=1)
        alias = AnalysisRequest(bp_text=DEKKER, engine="wk", max_rounds=1)
        deeper = AnalysisRequest(bp_text=DEKKER, engine="wuba", max_rounds=30)
        assert first.prepare_key() == alias.prepare_key() == deeper.prepare_key()
        problem = service.prepare(first)
        assert service.memoized(alias) == service.memoized(deeper) == problem
        assert len(service._prepare_memo) == 1
        assert calls.fingerprints == 1

    def test_equal_programs_in_other_spellings_share_the_fingerprint(self, service):
        """``init`` of ``true`` and of ``1`` are two memo entries for
        one problem."""
        as_bit = service.prepare(AnalysisRequest(bp_text=DEKKER, bp_init={"turn": 1}))
        as_bool = service.prepare(
            AnalysisRequest(bp_text=DEKKER, bp_init={"turn": True})
        )
        assert as_bit == as_bool
        assert len(service._prepare_memo) == 2


class TestFailuresAreNotMemoized:
    @pytest.mark.parametrize(
        "program",
        [
            {"bp_text": DEKKER, "bp_init": {"flag0": 2}},
            {"bp_text": DEKKER, "bp_init": {"ghost": 1}},
            {"bp_text": "void main() { thread_create(&nope); }"},
            {"cpds_text": "not a cpds at all {{{"},
            {"cpds_text": FIG1, "property_spec": "gibberish"},
        ],
    )
    def test_failed_prepare_raises_every_time(self, service, calls, program):
        request = AnalysisRequest(**program)
        for attempt in (1, 2):
            with pytest.raises(CubaError):
                service.run(request)
            assert service.memoized(request) is None
        assert service._prepare_memo == {}
        assert calls.fingerprints == 0
        assert service.store.stats()["entries"] == 0

    def test_fingerprint_error_is_not_memoized(self, service, monkeypatch):
        def refuse(*args, **kwargs):
            raise FingerprintError("cannot content-address this")

        monkeypatch.setattr(server_mod, "fingerprint", refuse)
        request = AnalysisRequest(cpds_text=FIG1)
        with pytest.raises(FingerprintError):
            service.prepare(request)
        assert service.memoized(request) is None
        monkeypatch.undo()
        problem = service.prepare(request)
        assert problem == _cold_fingerprint({"cpds_text": FIG1}, "auto")


class TestBound:
    def test_lru_eviction_at_the_bound(self, service, monkeypatch, calls):
        monkeypatch.setattr(server_mod, "_PREPARE_MEMO_LIMIT", 2)
        a, b, c = (
            AnalysisRequest(cpds_text=FIG1, property_spec=f"shared:{state}")
            for state in (1, 2, 3)
        )
        fingerprints = {}
        for request in (a, b):
            fingerprints[request.property_spec] = service.prepare(request)
        assert service.memoized(a) is not None  # a is now the most recent
        service.prepare(c)
        assert len(service._prepare_memo) == 2
        assert service.memoized(b) is None  # the least recently used went
        assert service.memoized(a) == fingerprints["shared:1"]
        assert calls.fingerprints == 3
        # The evicted identity comes back with the same fingerprint.
        assert service.prepare(b) == fingerprints["shared:2"]
        assert calls.fingerprints == 4
        assert len(service._prepare_memo) == 2


def test_concurrent_prepares_keep_the_bound_and_the_fingerprints(
    service, monkeypatch
):
    """More threads than cores prepare and look up overlapping requests
    through a memo smaller than their set, with a short switch interval:
    the memo never exceeds its bound and never hands out a fingerprint
    that is not the request's own."""
    import sys

    monkeypatch.setattr(server_mod, "_PREPARE_MEMO_LIMIT", 3)
    requests = [
        AnalysisRequest(cpds_text=FIG1, property_spec=f"shared:{state}")
        for state in range(6)
    ]
    cold = {
        request.property_spec: fingerprint(
            parse_cpds(FIG1),
            parse_property_spec(request.property_spec),
            {"engine": "auto", "max_states_per_context": DEFAULT_STATE_LIMIT},
        )
        for request in requests
    }
    wrong, sizes = [], []

    def worker(offset: int) -> None:
        for step in range(40):
            request = requests[(offset + step) % len(requests)]
            problem = service.memoized(request)
            if problem is None:
                problem = service.prepare(request)
            if problem != cold[request.property_spec]:
                wrong.append((request.property_spec, problem))
            sizes.append(len(service._prepare_memo))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(sizes) == 8 * 40
    assert max(sizes) <= 3


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


class TestHttpSubmit:
    def test_repeat_submit_is_named_without_compiling(self, server, calls):
        client = ServiceClient(port=server.port)
        first = client.submit(bp_text=DEKKER, engine="explicit", max_rounds=25)
        assert (calls.compiles, calls.fingerprints) == (1, 1)
        with scoped() as work:
            ticket = client.submit(
                bp_text=DEKKER, engine="explicit", max_rounds=25, wait=False
            )
            second = client.submit(bp_text=DEKKER, engine="explicit", max_rounds=25)
        assert ticket["id"] == first["fingerprint"] == second["fingerprint"]
        assert second["cached"]
        assert (calls.compiles, calls.job_compiles, calls.fingerprints) == (1, 1, 1)
        assert work.get("service.prepare_memo_hits") == 2

    def test_malformed_submit_is_400_twice_and_never_stored(self, server):
        client = ServiceClient(port=server.port)
        payload = {"bp": DEKKER, "init": {"flag0": 2}, "engine": "explicit"}
        for attempt in (1, 2):
            status, body = client._request("POST", "/submit", payload)
            assert status == 400, body
            assert "must be 0, 1" in body["error"]
        assert server.service._prepare_memo == {}
        assert server.service.store.stats()["entries"] == 0
