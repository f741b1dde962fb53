"""AnalysisService core: store hits, in-flight dedup, deeper-k resume.

These run the sync core without HTTP — the transport-independent
behavior the server, the CLI, and the quickstart demo all share.
"""

import threading
import time

import pytest

from repro.cpds import format_cpds
from repro.errors import ServiceError
from repro.models import fig1_cpds
from repro.models.dekker import dekker_source
from repro.service import AnalysisRequest, AnalysisService, AnalysisStore
from repro.service.server import parse_property_spec
from repro.util.meter import METER, scoped

#: Seconds the held engine run waits for the second caller to join.
JOIN_TIMEOUT = 30.0

FIG1 = format_cpds(fig1_cpds())
DEKKER = dekker_source()


@pytest.fixture
def service(tmp_path):
    service = AnalysisService(
        AnalysisStore(tmp_path / "cuba-store.sqlite"), workers=2
    )
    yield service
    service.close()


class TestStoreHits:
    def test_second_identical_submission_is_a_store_hit(self, service):
        request = AnalysisRequest(
            cpds_text=FIG1, property_spec="shared:3", max_rounds=10
        )
        with scoped() as first_work:
            first = service.run(request)
        with scoped() as second_work:
            second = service.run(request)
        assert first_work.get("service.engine_runs") == 1
        assert second_work.get("service.engine_runs", 0) == 0
        assert second["cached"] and not first["cached"]
        assert (first["verdict"], first["bound"]) == (
            second["verdict"],
            second["bound"],
        ) == ("unsafe", 2)

    def test_bp_and_equivalent_budget_share_one_entry(self, service):
        """max_rounds is the anytime knob, not part of the identity: a
        shallower request is answered by a deeper stored verdict."""
        deep = AnalysisRequest(bp_text=DEKKER, engine="auto", max_rounds=25)
        with scoped() as first_work:
            first = service.run(deep)
        shallow = AnalysisRequest(bp_text=DEKKER, engine="auto", max_rounds=10)
        with scoped() as second_work:
            second = service.run(shallow)
        assert first["verdict"] == "safe"
        assert second["cached"]
        assert first_work.get("service.engine_runs") == 1
        assert second_work.get("service.engine_runs", 0) == 0

    def test_different_property_is_a_different_problem(self, service):
        with scoped() as work:
            service.run(AnalysisRequest(cpds_text=FIG1, property_spec="shared:3"))
            service.run(AnalysisRequest(cpds_text=FIG1, property_spec="shared:2"))
        assert work.get("service.engine_runs") == 2


class TestDedup:
    def test_concurrent_identical_submissions_run_one_engine(
        self, service, monkeypatch
    ):
        """The acceptance criterion: two concurrent identical
        fingerprints join one running analysis — METER proves a single
        engine run — and both callers get the verdict.

        The owner's engine run is held until the other caller has
        joined the in-flight future; otherwise a fast solve could finish
        first and turn the second call into a store hit."""
        request = AnalysisRequest(bp_text=DEKKER, engine="auto", max_rounds=25)
        analyze = service._analyze
        joins_before = METER.get("service.dedup_joins")

        def held_analyze(*args, **kwargs):
            deadline = time.monotonic() + JOIN_TIMEOUT
            while METER.get("service.dedup_joins") == joins_before:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"second caller did not join within {JOIN_TIMEOUT}s"
                    )
                time.sleep(0.001)
            return analyze(*args, **kwargs)

        monkeypatch.setattr(service, "_analyze", held_analyze)
        results = []
        failures = []

        def submit():
            try:
                results.append(service.run(request))
            except Exception as failure:
                failures.append(failure)

        with scoped() as work:
            threads = [threading.Thread(target=submit) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=2 * JOIN_TIMEOUT)
        if any(thread.is_alive() for thread in threads):
            raise TimeoutError("a submitting thread did not finish")
        if failures:
            raise failures[0]
        assert work.get("service.engine_runs") == 1
        assert work.get("service.dedup_joins") == 1
        assert len(results) == 2
        assert results[0]["verdict"] == results[1]["verdict"] == "safe"
        assert results[0]["bound"] == results[1]["bound"]


class TestResume:
    def test_deeper_budget_resumes_the_stored_snapshot(self, service):
        shallow = AnalysisRequest(bp_text=DEKKER, engine="explicit", max_rounds=2)
        with scoped() as shallow_work:
            first = service.run(shallow)
        assert first["verdict"] == "unknown" and not first["final"]

        deep = AnalysisRequest(bp_text=DEKKER, engine="explicit", max_rounds=25)
        with scoped() as deep_work:
            second = service.run(deep)
        assert second["verdict"] == "safe" and second["resumed"]
        assert deep_work.get("service.resumes") == 1

        # Resume soundness at the service level: summed engine work over
        # (shallow run + resumed run) equals one fresh deep run.
        fresh_service = AnalysisService(
            AnalysisStore(service.store.path.with_name("fresh.sqlite"))
        )
        try:
            with scoped() as fresh_work:
                fresh = fresh_service.run(deep)
        finally:
            fresh_service.close()
        assert (fresh["verdict"], fresh["bound"]) == (
            second["verdict"],
            second["bound"],
        )
        resumed_total = shallow_work.get("explicit.expansions", 0) + deep_work.get(
            "explicit.expansions", 0
        )
        assert resumed_total == fresh_work.get("explicit.expansions", 0)

    def test_symbolic_lane_resumes_too(self, service):
        shallow = AnalysisRequest(bp_text=DEKKER, engine="symbolic", max_rounds=2)
        first = service.run(shallow)
        assert first["verdict"] == "unknown" and not first["final"]
        deep = AnalysisRequest(bp_text=DEKKER, engine="symbolic", max_rounds=25)
        with scoped() as work:
            second = service.run(deep)
        assert second["resumed"] and work.get("service.resumes") == 1
        assert second["verdict"] == "safe"

    def test_diverged_run_is_final_and_never_resumed(self, service):
        """An explicit-engine divergence (non-FCR program) is UNKNOWN
        for a reason deeper k cannot fix: the outcome is final, cached,
        and a bigger budget must not trigger an engine run."""
        pump = "init: 0\nthread T\n  stack: a\n  rule (0, a) -> (0, a a)\n"
        first = service.run(
            AnalysisRequest(
                cpds_text=pump, engine="explicit", max_rounds=5,
                max_states_per_context=200,
            )
        )
        assert first["verdict"] == "unknown" and first["final"]
        with scoped() as work:
            second = service.run(
                AnalysisRequest(
                    cpds_text=pump, engine="explicit", max_rounds=50,
                    max_states_per_context=200,
                )
            )
        assert second["cached"]
        assert work.get("service.engine_runs", 0) == 0

    def test_corrupt_stored_snapshot_degrades_to_fresh_run(self, service):
        shallow = AnalysisRequest(bp_text=DEKKER, engine="explicit", max_rounds=2)
        first = service.run(shallow)
        problem = first["fingerprint"]
        entry = service.store.get(problem)
        service.store.record(
            problem,
            entry.result,
            bound=entry.bound,
            engine=entry.engine,
            snapshot=b"garbage, not a snapshot",
        )
        deep = AnalysisRequest(bp_text=DEKKER, engine="explicit", max_rounds=25)
        with scoped() as work:
            second = service.run(deep)
        assert second["verdict"] == "safe"
        assert not second["resumed"]
        assert work.get("service.snapshot_rejects") == 1
        assert work.get("service.engine_runs") == 1


class TestValidation:
    def test_request_needs_exactly_one_program_form(self):
        with pytest.raises(ServiceError):
            AnalysisRequest()
        with pytest.raises(ServiceError):
            AnalysisRequest(cpds_text=FIG1, bp_text=DEKKER)

    def test_unknown_engine_lane_is_rejected(self):
        with pytest.raises(ServiceError):
            AnalysisRequest(cpds_text=FIG1, engine="quantum")

    def test_property_spec_parsing(self):
        from repro.core.property import AlwaysSafe, SharedStateReachability

        assert isinstance(parse_property_spec(None), AlwaysSafe)
        prop = parse_property_spec("shared:ERR,3")
        assert isinstance(prop, SharedStateReachability)
        assert prop.bad_shared == frozenset({"ERR", 3})
        with pytest.raises(ServiceError):
            parse_property_spec("nonsense")

    def test_payload_validation(self):
        with pytest.raises(ServiceError):
            AnalysisRequest.from_payload({"cpds": "   "})
        with pytest.raises(ServiceError):
            AnalysisRequest.from_payload({"cpds": FIG1, "max_rounds": "many"})
        with pytest.raises(ServiceError):
            AnalysisRequest.from_payload([])

    def test_closed_service_refuses(self, tmp_path):
        service = AnalysisService(AnalysisStore(tmp_path / "s.sqlite"))
        service.close()
        with pytest.raises(ServiceError):
            service.run(AnalysisRequest(cpds_text=FIG1))


def test_repeated_prepares_agree_on_problem_and_program(service):
    """Repeated submissions of one program parse to equal CPDSs and one
    problem fingerprint, so they share the stored verdict."""
    from repro.service.executor import compile_program
    from repro.service.fingerprint import cpds_digest

    request = AnalysisRequest(cpds_text=FIG1, property_spec="shared:3")
    assert service.prepare(request) == service.prepare(request)
    first_cpds, _prop = compile_program(request)
    second_cpds, _prop = compile_program(request)
    assert cpds_digest(first_cpds) == cpds_digest(second_cpds)
