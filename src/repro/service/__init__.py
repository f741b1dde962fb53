"""Persistent analysis service (PR 5).

The paper's Cuba tool answers one query per invocation and forgets
everything it computed.  This package turns the library into a
persistent, resumable service:

* :mod:`repro.service.fingerprint` — stable content-addressed identity
  of an analysis problem ``(CPDS, property, engine config)``;
* :mod:`repro.service.store` — crash-safe sqlite store of verdicts and
  engine checkpoints keyed by fingerprint, with LRU size bounding.  The
  checkpoints are the lanes' own ``snapshot()`` blobs in the ``CUSN``
  frame of :mod:`repro.reach.snapshot`, so a bounded run at level ``k``
  resumes warm instead of starting over;
* :mod:`repro.service.server` — the sync :class:`AnalysisService` core
  (in-flight dedup, store-hit short-circuit, deeper-``k`` resume) and
  the stdlib-asyncio JSON-over-HTTP server around it (``cuba serve``);
* :mod:`repro.service.executor` — the engine-run execution layer
  (PR 6): inline on the thread executor, or dispatched to a pool of
  worker processes (``cuba serve --executor process``, the daemon
  default).  A job carries the request's program source, which the run
  compiles, and the snapshot blob it resumes from;
* :mod:`repro.service.client` — the matching stdlib HTTP client
  (``cuba submit``), now multi-replica (PR 7): consistent-hash
  fingerprint-affinity routing, per-call connect/read timeouts, bounded
  retry with backoff + jitter (idempotent calls only), and failover;
* :mod:`repro.service.loadtest` — the ``cuba loadtest`` harness (PR 7):
  mixed submit/status/result traffic against 1..N replicas sharing one
  store, ``cuba-loadtest/1`` JSON payloads (p50/p99, dedup/store hit
  rates, lease and busy-retry counters) with committed-baseline gating.

Soundness hinges on the monotone-by-level shape of the bounded
sequences ``(Rk)``/``(T(Sk))``: a checkpoint at level ``k`` plus
continued ``ensure_level`` is provably identical to an uninterrupted
run (differentially tested level-for-level in
``tests/service/test_snapshot.py``).
"""

from repro.service.client import RetryPolicy, ServiceClient
from repro.service.executor import (
    EngineJob,
    JobOutcome,
    ProcessAnalysisExecutor,
    execute_job,
)
from repro.service.fingerprint import cpds_digest, fingerprint
from repro.service.loadtest import compare_loadtest, run_loadtest
from repro.service.server import AnalysisRequest, AnalysisService, ServiceServer
from repro.service.store import (
    AnalysisStore,
    DegradedAnalysisStore,
    StoreEntry,
    open_store,
)

__all__ = [
    "AnalysisRequest",
    "AnalysisService",
    "AnalysisStore",
    "DegradedAnalysisStore",
    "EngineJob",
    "JobOutcome",
    "ProcessAnalysisExecutor",
    "RetryPolicy",
    "ServiceClient",
    "ServiceServer",
    "StoreEntry",
    "compare_loadtest",
    "cpds_digest",
    "execute_job",
    "fingerprint",
    "open_store",
    "run_loadtest",
]
