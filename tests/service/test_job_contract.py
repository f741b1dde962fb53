"""The engine-job contract: a job carries the request's program source,
never its compiled CPDS.

The worker compiles what it runs, so the job that crosses the process
boundary is under a KB of pickled text where the compiled CPDS of the
same Boolean program pickles to up to 260 KB, and both executor modes
answer a request the same way.
"""

import dataclasses
import pickle

import repro.service.server as server_mod
from repro.models.bluetooth import bluetooth_source
from repro.models.dekker import dekker_source
from repro.service import AnalysisRequest, AnalysisService, AnalysisStore
from repro.service.executor import EngineJob

#: Response fields that time the run rather than describe its answer.
TIMING_FIELDS = ("engine_seconds", "queue_seconds")


def test_job_has_no_compiled_program_field():
    names = {field.name for field in dataclasses.fields(EngineJob)}
    assert not names & {"cpds", "prop", "config"}
    assert {"cpds_text", "bp_text", "bp_init", "property_spec"} <= names


def test_pickled_bluetooth_job_is_small(tmp_path, monkeypatch):
    """The job the service builds for the Bluetooth-1 service-mix
    program pickles to under 8 KB (its compiled CPDS pickled to about
    228 KB)."""
    sizes = []
    execute_job = server_mod.execute_job

    def measured(job):
        sizes.append(len(pickle.dumps(job)))
        return execute_job(job)

    monkeypatch.setattr(server_mod, "execute_job", measured)
    service = AnalysisService(AnalysisStore(tmp_path / "store.sqlite"), workers=1)
    try:
        service.run(
            AnalysisRequest(
                bp_text=bluetooth_source(1, 1, 1), bp_init={"p0": 1}, max_rounds=1
            )
        )
    finally:
        service.close()
    (size,) = sizes
    assert size < 8 * 1024


def _resume(service: AnalysisService) -> dict:
    """A shallow run, then a deeper resubmit the prepare memo names and
    the stored snapshot resumes."""
    program = {"bp_text": dekker_source(), "engine": "explicit"}
    shallow = service.run(AnalysisRequest(**program, max_rounds=2))
    assert shallow["verdict"] == "unknown" and not shallow["final"]
    deeper = service.run(AnalysisRequest(**program, max_rounds=25))
    assert deeper["resumed"]
    return {key: value for key, value in deeper.items() if key not in TIMING_FIELDS}


def test_executor_modes_agree_on_a_memo_hit_resume(tmp_path):
    services = {
        mode: AnalysisService(
            AnalysisStore(tmp_path / f"{mode}.sqlite"), workers=1, executor=mode
        )
        for mode in ("thread", "process")
    }
    try:
        responses = {mode: _resume(service) for mode, service in services.items()}
    finally:
        for service in services.values():
            service.close()
    assert responses["thread"]["verdict"] == "safe"
    assert responses["process"] == responses["thread"]
