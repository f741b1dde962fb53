"""Fault injection for the process-pool engine executor (PR 6).

The worker-side entry point is swapped for a dispatcher defined in this
module: the pool is spawned lazily (fork) at the first submission, so
the child inherits the monkeypatched module state, and pickling the
dispatcher by reference resolves in the child because the test module
is already imported there.  Faulty behavior is keyed on sentinel
``max_rounds`` budgets so recovery submissions in the same test (with
ordinary budgets) reach the real worker entry point.

Scenarios, each of which must resolve cleanly — never a hung run or a
poisoned parent cache:

* a worker SIGKILLed mid-run → :class:`~repro.errors.CubaError`, broken
  pool retired, nothing stored, the job re-runnable on a fresh pool;
* a corrupt snapshot blob in the worker's reply → the verdict is kept,
  the blob is dropped (``service.ipc_snapshot_rejects``), the store
  entry has no snapshot, and a deeper resubmission simply runs fresh;
* a worker raising :class:`~repro.errors.ContextExplosionError` → the
  exception crosses the process boundary with its type intact, in-flight
  dedup is cleared, and the pool keeps serving.
"""

import os
import signal
import threading
import time

import pytest

from repro.errors import ContextExplosionError, CubaError
from repro.models.dekker import dekker_source
from repro.service import AnalysisRequest, AnalysisService, AnalysisStore
from repro.service import executor as executor_mod
from repro.service.executor import _execute_in_worker as _real_worker
from repro.util.meter import scoped

DEKKER = dekker_source()

# Sentinel budgets routing a job to an injected fault (any real analysis
# in these tests uses budgets outside this range).
HANG_ROUNDS = 97
EXPLODE_ROUNDS = 96
CORRUPT_ROUNDS = 2  # must be genuinely shallow: the job needs a snapshot

_HANG_SENTINEL = ""


def _dispatch_worker(job):
    if job.max_rounds == HANG_ROUNDS:
        with open(_HANG_SENTINEL, "w") as sentinel:
            sentinel.write("started")
        time.sleep(600)  # parked until the test SIGKILLs this process
    if job.max_rounds == EXPLODE_ROUNDS:
        raise ContextExplosionError("injected worker divergence")
    outcome = _real_worker(job)
    if job.max_rounds == CORRUPT_ROUNDS:
        outcome.snapshot = b"CUSN then garbage that must never be stored"
    return outcome


@pytest.fixture
def service(tmp_path, monkeypatch):
    monkeypatch.setattr(executor_mod, "_execute_in_worker", _dispatch_worker)
    service = AnalysisService(
        AnalysisStore(tmp_path / "faults.sqlite"), workers=2, executor="process"
    )
    yield service
    service.close()


class TestKilledWorker:
    def test_sigkill_mid_run_is_a_clean_retriable_error(
        self, service, tmp_path
    ):
        global _HANG_SENTINEL
        sentinel = tmp_path / "worker-started"
        _HANG_SENTINEL = str(sentinel)
        request = AnalysisRequest(
            bp_text=DEKKER, engine="explicit", max_rounds=HANG_ROUNDS
        )
        failures = []
        runner = threading.Thread(
            target=lambda: failures.append(_capture(service, request))
        )
        runner.start()
        deadline = time.monotonic() + 30
        while not sentinel.exists():
            assert time.monotonic() < deadline, "worker never started"
            time.sleep(0.02)
        pool = service._engine_executor._pool
        for process in list(pool._processes.values()):
            os.kill(process.pid, signal.SIGKILL)
        runner.join(timeout=30)
        assert not runner.is_alive(), "run() hung after the worker died"

        (failure,) = failures
        assert isinstance(failure, CubaError)
        assert "worker" in str(failure) and "resubmit" in str(failure)
        # Nothing recorded: the parent cache is not poisoned.
        problem = service.prepare(request)
        assert service.store.get(problem) is None
        # The broken pool was retired (PR 4 eviction semantics) ...
        assert service._engine_executor._pool is None
        # ... in-flight was cleared, and the job is re-runnable: the
        # next submission spawns a fresh pool and completes.
        with scoped() as work:
            response = service.run(
                AnalysisRequest(bp_text=DEKKER, engine="explicit", max_rounds=25)
            )
        assert response["verdict"] == "safe"
        assert work.get("service.engine_runs") == 1
        assert service._engine_executor._pool is not None
        assert service.store.get(problem) is not None


class TestCorruptReplyBlob:
    def test_bad_snapshot_loses_the_blob_never_the_verdict(self, service):
        shallow = AnalysisRequest(
            bp_text=DEKKER, engine="explicit", max_rounds=CORRUPT_ROUNDS
        )
        with scoped() as work:
            first = service.run(shallow)
        assert first["verdict"] == "unknown" and not first["final"]
        assert work.get("service.ipc_snapshot_rejects") == 1
        # The store kept the verdict but never saw the corrupt blob.
        entry = service.store.get(first["fingerprint"])
        assert entry is not None and not entry.has_snapshot
        # A deeper resubmission has nothing to resume from: it runs
        # fresh, cleanly, with no stored-snapshot rejects.
        with scoped() as deep_work:
            second = service.run(
                AnalysisRequest(bp_text=DEKKER, engine="explicit", max_rounds=25)
            )
        assert second["verdict"] == "safe" and not second["resumed"]
        assert deep_work.get("service.snapshot_rejects", 0) == 0
        assert deep_work.get("service.ipc_snapshot_rejects", 0) == 0


class TestWorkerRaisedExplosion:
    def test_explosion_crosses_the_process_boundary_typed(self, service):
        request = AnalysisRequest(
            bp_text=DEKKER, engine="explicit", max_rounds=EXPLODE_ROUNDS
        )
        with pytest.raises(ContextExplosionError, match="injected"):
            service.run(request)
        # The pool survived (an exception is not a crash) and in-flight
        # was cleared: the same fingerprint resolves on resubmission.
        pool = service._engine_executor._pool
        assert pool is not None
        with scoped() as work:
            response = service.run(
                AnalysisRequest(bp_text=DEKKER, engine="explicit", max_rounds=25)
            )
        assert response["verdict"] == "safe"
        assert work.get("service.engine_runs") == 1
        assert service._engine_executor._pool is pool

    def test_concurrent_joiner_sees_the_failure_not_a_hang(self, service):
        """A dedup joiner on a failing run gets the failure propagated
        (the in-flight future carries it) instead of waiting forever."""
        request = AnalysisRequest(
            bp_text=DEKKER, engine="explicit", max_rounds=EXPLODE_ROUNDS
        )
        outcomes = []
        threads = [
            threading.Thread(
                target=lambda: outcomes.append(_capture(service, request))
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(outcomes) == 2
        assert all(
            isinstance(outcome, ContextExplosionError) for outcome in outcomes
        )


class TestExecutorLifecycle:
    def test_closed_executor_refuses_cleanly(self, tmp_path):
        from repro.service.executor import EngineJob, ProcessAnalysisExecutor

        executor = ProcessAnalysisExecutor(workers=1)
        executor.close()
        with pytest.raises(CubaError, match="shut down"):
            executor.run(EngineJob(problem="x", cpds_text="unused"))

    def test_worker_count_is_validated(self):
        from repro.service.executor import ProcessAnalysisExecutor

        with pytest.raises(ValueError):
            ProcessAnalysisExecutor(workers=0)

    def test_executor_mode_is_validated(self, tmp_path):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            AnalysisService(
                AnalysisStore(tmp_path / "bad.sqlite"), executor="carrier-pigeon"
            )


def _capture(service, request):
    try:
        return service.run(request)
    except BaseException as failure:
        return failure
