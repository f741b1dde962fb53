"""Engine-run execution for the analysis service: in-thread or on a
process pool.

The service's four resolution layers (in-flight dedup, store hit,
snapshot resume, fresh run) all stay parent-side in
:class:`~repro.service.server.AnalysisService` — this module owns only
the *engine run* itself, factored into one function so both execution
modes share it verbatim:

* :func:`compile_program` — the one way the service turns request text
  (``.cpds`` text, or a Boolean program and its ``init``) plus a
  property spec into a ``(CPDS, Property)`` pair.  The parent calls it
  to fingerprint a request the prepare memo has not seen; every engine
  run calls it again at its start.
* :func:`execute_job` — compile the job's program, restore-or-build an
  engine, run the requested lane to the budget, and package the
  response plus (when the outcome is resumable) a fresh snapshot blob.
  The thread executor calls it inline; METER bumps land directly on
  the process counters.
* :class:`ProcessAnalysisExecutor` — ships the same
  :class:`EngineJob` to a pool of worker processes.  The job is the
  request's *program source*, its property spec, the budgets and the
  stored snapshot blob: under 1 KB of program where the compiled
  Boolean-program CPDSs pickle to up to 260 KB, and compiling the
  source costs less than unpickling its CPDS.  The *stored snapshot
  blob is the resume message* (the worker restores it against the CPDS
  it compiled and runs ``ensure_level`` via the engines' resume path)
  and the *result snapshot blob is the reply message* — both in the
  versioned ``CUSN`` framing of :mod:`repro.reach.snapshot`, so the
  codec's version/kind validation doubles as IPC hygiene: a worker on
  a mismatched codec surfaces as a
  :class:`~repro.errors.SnapshotError` miss, never a poisoned cache.

IPC protocol invariants (see ROADMAP Reference):

* The parent never trusts a worker-returned blob: the ``CUSN`` header
  is re-validated before the store sees it, and an undecodable blob is
  dropped (``service.ipc_snapshot_rejects``) while the verdict itself
  is kept — degradation, not poisoning.
* Worker METER deltas travel back alongside the outcome and are merged
  into the parent's counters, so ``/meter`` totals are
  executor-invariant (the soak test's oracle check).
* ``service.engine_runs``, in-flight dedup, and store writes stay
  parent-side; a killed worker surfaces as a clean
  :class:`~repro.errors.CubaError`, the broken pool is retired, and the
  job is re-runnable (the next ``run`` spawns a fresh pool).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.core.property import Property, property_from_spec
from repro.core.result import Verdict, VerificationResult
from repro.cpds.cpds import CPDS
from repro.cpds.format import parse_cpds
from repro.errors import CubaError, ServiceError, SnapshotError
from repro.obs import trace
from repro.obs.logs import get_logger
from repro.pds.semantics import DEFAULT_STATE_LIMIT
from repro.reach.snapshot import snapshot_kind
from repro.util.meter import METER

_log = get_logger("service.executor")


def parse_property_spec(spec: str | None) -> Property:
    """The wire form of a property — the grammar shared with the CLI
    (:func:`repro.core.property.property_from_spec`), re-raised as
    :class:`ServiceError`: the service only accepts properties it can
    content-address."""
    try:
        return property_from_spec(spec)
    except ValueError as bad:
        raise ServiceError(str(bad)) from bad


def compile_program(program) -> tuple[CPDS, Property]:
    """The CPDS and property a request names.  ``program`` is an
    :class:`~repro.service.server.AnalysisRequest` or an
    :class:`EngineJob`: anything with the ``cpds_text``, ``bp_text``,
    ``bp_init`` and ``property_spec`` fields.  A Boolean program's own
    property applies unless a spec overrides it; ``.cpds`` text without
    a spec is trivially safe.  Raises :class:`~repro.errors.CubaError`
    subclasses on malformed input; a Boolean program's compile is timed
    by its ``bp.compile`` span."""
    compiled_prop: Property | None = None
    if program.cpds_text is not None:
        cpds = parse_cpds(program.cpds_text)
    else:
        from repro.bp.translate import compile_source

        compiled = compile_source(program.bp_text, init=program.bp_init or {})
        cpds = compiled.cpds
        compiled_prop = compiled.prop
    if program.property_spec is not None or compiled_prop is None:
        prop = parse_property_spec(program.property_spec)
    else:
        prop = compiled_prop
    return cpds, prop


@dataclass(slots=True)
class EngineJob:
    """One engine run, fully described by small picklable values: the
    request's program text (exactly one of ``cpds_text`` or ``bp_text``
    with its ``bp_init``) and property spec, which the run compiles
    with :func:`compile_program`, the budgets, and the stored snapshot.

    ``problem`` is the request's fingerprint, computed by the parent.
    ``engine`` is ``"auto"`` or any registered lane name
    (:mod:`repro.reach.registry`; aliases accepted).  ``snapshot`` is
    the parent's checkpoint of the stored engine (or ``None`` on a
    fingerprint miss / snapshot-less entry): the snapshot-as-message
    half of the IPC protocol.
    """

    problem: str
    cpds_text: str | None = None
    bp_text: str | None = None
    bp_init: dict | None = None
    property_spec: str | None = None
    engine: str = "auto"
    max_rounds: int = 30
    max_states_per_context: int = DEFAULT_STATE_LIMIT
    snapshot: bytes | None = None
    #: When True the worker records spans for this job and ships them
    #: home in :attr:`JobOutcome.spans` (set by the process executor
    #: from the parent's live tracing state).
    trace: bool = False
    #: Wall-clock time the parent handed a traced job to the pool (the
    #: start of the ``executor.pickup`` span).
    sent_at: float = 0.0


@dataclass
class JobOutcome:
    """What an engine run produced: the wire-ready response dict, the
    store-record columns, the result snapshot blob (when resumable),
    and — on the process path — the worker's METER delta."""

    response: dict
    bound: int
    kind: str
    snapshot: bytes | None = None
    meter: dict = field(default_factory=dict)
    #: Engine wall time (the loadtest harness separates queueing and
    #: transport latency from compute using this).
    seconds: float = 0.0
    #: Worker-side span records (only when :attr:`EngineJob.trace` was
    #: set); the parent re-parents them under its dispatch span via
    #: :func:`repro.obs.trace.adopt`, mirroring the METER-delta merge.
    spans: list = field(default_factory=list)
    #: Wall-clock times a traced job reached the worker and its outcome
    #: left it: the end of ``executor.pickup`` and the start of
    #: ``executor.reply``.
    picked_up_at: float = 0.0
    replied_at: float = 0.0


def describe_result(
    result: VerificationResult,
    problem: str,
    kind: str,
    explored: int,
    resumable: bool,
) -> dict:
    """The service wire form of a verification result."""
    return {
        "fingerprint": problem,
        "verdict": result.verdict.value,
        "bound": result.bound,
        "k": explored,
        "method": result.method,
        "message": result.message,
        "witness": str(result.witness) if result.witness is not None else None,
        "trace": str(result.trace) if result.trace is not None else None,
        "engine": kind,
        "final": result.verdict is not Verdict.UNKNOWN or not resumable,
        "cached": False,
        "deduplicated": False,
    }


def _restore(job: EngineJob, cpds: CPDS):
    """A warm engine over ``cpds`` (the job's compiled program) from
    the job's snapshot message, or ``None`` when there is nothing (or
    nothing decodable) to resume from.  The kind byte resolves the lane
    through the registry, so a new lane's snapshots resume with no
    changes here."""
    from repro.reach import registry

    if job.snapshot is None:
        return None
    try:
        cls = registry.engine_for_kind(snapshot_kind(job.snapshot))
        engine = cls.restore(
            cpds, job.snapshot, max_states_per_context=job.max_states_per_context
        )
    except (SnapshotError, CubaError) as broken:
        # Bad blob, or a kind byte no registered lane owns (a snapshot
        # from a lane this build doesn't ship) ⇒ miss, never a crash.
        METER.bump("service.snapshot_rejects")
        _log.warning(
            "snapshot rejected, running fresh",
            extra={
                "fields": {
                    "fingerprint": job.problem,
                    "lane": job.engine,
                    "error": str(broken),
                }
            },
        )
        return None
    METER.bump("service.resumes")
    return engine


def execute_job(job: EngineJob) -> JobOutcome:
    """Compile the job's program and run it to a verdict or budget (the
    shared core of both execution modes; ``service.engine_runs`` is the
    *caller's* bump — dedup accounting stays parent-side).

    The compile is timed by a ``service.compile`` span but is not
    engine time: ``engine_seconds`` and :attr:`JobOutcome.seconds`
    cover the lane run alone."""
    if not trace.enabled():
        return _execute_job(job)
    with trace.span(
        "service.engine_run", problem=job.problem, engine=job.engine
    ) as timing:
        outcome = _execute_job(job)
        timing.set(
            lane=outcome.kind,
            verdict=outcome.response["verdict"],
            resumed=outcome.response["resumed"],
        )
        return outcome


def _execute_job(job: EngineJob) -> JobOutcome:
    import time

    from repro.cuba.lanes import ensure_applicable, method_name, run_lane
    from repro.cuba.verifier import Cuba
    from repro.reach import registry

    with trace.span("service.compile"):
        cpds, prop = compile_program(job)
    started = time.perf_counter()
    engine = _restore(job, cpds)
    resumed = engine is not None
    if job.engine == "auto":  # the Sec. 6 front-end
        verifier = Cuba(
            cpds, prop, max_states_per_context=job.max_states_per_context
        )
        result = verifier.verify(max_rounds=job.max_rounds, engine=engine).result
        engine = verifier.last_engine
        kind = engine.lane if engine is not None else "auto"
    else:
        kind = registry.canonical_lane(job.engine)
        if engine is not None and engine.lane != kind:
            # Fingerprints key snapshots by lane, so this is defensive:
            # a cross-lane blob is a miss, not a mis-resume.
            METER.bump("service.snapshot_rejects")
            engine = None
            resumed = False
        if engine is None:
            cls = registry.engine_class(kind)
            try:
                # Applicability must be checked *before* construction:
                # building e.g. a wuba engine on a non-WCR model
                # diverges into the state-limit guard instead of
                # failing fast.
                ensure_applicable(cls, cpds, prop)
            except CubaError as precondition:
                # A failed lane precondition is UNKNOWN for a reason
                # deeper k cannot fix: the outcome is *final* (bound 0,
                # not resumable), so the store caches it and repeated
                # requests never rerun the check — the same contract
                # such runs had when they diverged into the state-limit
                # guard instead.
                METER.bump("service.lane_rejects")
                result = VerificationResult(
                    Verdict.UNKNOWN,
                    bound=0,
                    method=method_name(
                        cls.sequence_name,
                        fixpoint=True,
                        generators=cls.generator_test,
                    ),
                    message=str(precondition),
                )
            else:
                engine = cls.create(
                    cpds, max_states_per_context=job.max_states_per_context
                )
        if engine is not None:
            result = run_lane(engine, cpds, prop, max_rounds=job.max_rounds)

    explored = engine.k if engine is not None else result.bound
    # UNKNOWN below the budget means the run stopped for a reason
    # deeper k cannot fix (explicit-engine divergence): final.
    resumable = result.verdict is Verdict.UNKNOWN and explored >= job.max_rounds
    seconds = time.perf_counter() - started
    response = describe_result(result, job.problem, kind, explored, resumable)
    response["resumed"] = resumed
    response["engine_seconds"] = round(seconds, 4)
    snapshot = None
    if resumable and engine is not None:
        try:
            snapshot = engine.snapshot()
        except SnapshotError as broken:  # pragma: no cover - defensive
            snapshot = None
            _log.warning(
                "snapshot encode failed, result kept without resume blob",
                extra={
                    "fields": {
                        "fingerprint": job.problem,
                        "lane": kind,
                        "error": str(broken),
                    }
                },
            )
    return JobOutcome(
        response=response, bound=explored, kind=kind, snapshot=snapshot,
        seconds=seconds,
    )


def _execute_in_worker(job: EngineJob) -> JobOutcome:
    """Worker entry point: run the job and ship the METER delta home so
    the parent's counters stay executor-invariant."""
    import time

    from repro.util.caches import clear_runtime_caches

    picked_up = time.time()
    before = METER.snapshot()
    spans: list = []
    if job.trace:
        trace.clear()
        trace.enable()
    try:
        return_value = execute_job(job)
    finally:
        if job.trace:
            spans = trace.take()
            trace.disable()
        # A worker's process-global caches must not grow across jobs:
        # the parent cannot reach into a worker to clear them.
        clear_runtime_caches()
    return_value.spans = spans
    return_value.meter = dict(METER.delta(before))
    if job.trace:
        return_value.picked_up_at = picked_up
        return_value.replied_at = time.time()
    return return_value


def _mp_context():
    """Fork where the platform offers it (cheap worker start, no
    re-import), the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class ProcessAnalysisExecutor:
    """A lazily spawned pool of engine-run worker processes.

    A broken pool is retired on failure and the next :meth:`run` call
    spawns a fresh one, so every failed job is re-runnable without
    restarting the service.
    """

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"executor needs workers >= 1, got {workers}")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise CubaError("process executor is shut down")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_mp_context()
            )
        return self._pool

    def _retire(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def run(self, job: EngineJob) -> JobOutcome:
        """Execute ``job`` on a worker; merge its METER delta and
        validate its snapshot reply before the caller can store it.

        When the parent is tracing, the job is flagged so the worker
        records spans too; the reply's span records are re-based onto
        this process's clock and re-parented under the dispatch span
        (span-shipping mirrors the METER-delta merge).  Wall-clock
        stamps on the job and its outcome time the two transport legs
        around them: ``executor.pickup`` (submit until the worker starts
        the job: pickling, queueing, pool pickup) and ``executor.reply``
        (the worker's return until the outcome is merged here)."""
        if not trace.enabled():
            return self._run(job)
        import time

        job.trace = True
        with trace.span("executor.dispatch", problem=job.problem):
            parent_id = trace.current_id()
            dispatched = time.perf_counter()
            job.sent_at = time.time()
            outcome = self._run(job)
            received, returned = time.perf_counter(), time.time()
            pickup = max(0.0, outcome.picked_up_at - job.sent_at)
            reply = max(0.0, returned - outcome.replied_at)
            trace.record("executor.pickup", dispatched, pickup)
            trace.record("executor.reply", received - reply, reply)
            if outcome.spans:
                trace.adopt(outcome.spans, parent=parent_id, at=dispatched + pickup)
                outcome.spans = []
        return outcome

    def _run(self, job: EngineJob) -> JobOutcome:
        pool = self._ensure_pool()
        try:
            outcome = pool.submit(_execute_in_worker, job).result()
        except (BrokenProcessPool, OSError) as crash:
            self._retire()
            raise CubaError(
                f"process-pool engine run failed: a worker process died "
                f"({crash.__class__.__name__}: {crash}); nothing was "
                f"recorded — the job is safe to resubmit"
            ) from crash
        except RuntimeError as crash:
            if "shutdown" not in str(crash) and "interpreter" not in str(crash):
                raise
            self._retire()
            raise CubaError(
                f"process-pool engine run failed: the executor was shut "
                f"down mid-job ({crash}); nothing was recorded — the job "
                f"is safe to resubmit"
            ) from crash
        for name, value in outcome.meter.items():
            METER.bump(name, value)
        if outcome.snapshot is not None:
            try:
                # Header/version validation only — the full decode runs
                # on the resume path.  An undecodable reply loses its
                # blob, never its verdict, and never reaches the store.
                snapshot_kind(outcome.snapshot)
            except SnapshotError as broken:
                METER.bump("service.ipc_snapshot_rejects")
                _log.warning(
                    "worker snapshot reply rejected, verdict kept",
                    extra={
                        "fields": {
                            "fingerprint": job.problem,
                            "lane": outcome.kind,
                            "error": str(broken),
                        }
                    },
                )
                outcome.snapshot = None
        return outcome

    def close(self) -> None:
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
