"""Metric definitions and the traced run's per-layer timers.

The end-to-end metrics (:data:`END_TO_END`) and per-layer metrics
(:data:`PER_LAYER`) are what ``BENCHMARK.json`` lists; ``selftest.py``
checks the two agree.  Every per-layer entry names the module it
measures and the end-to-end metric and workload it should move.

The traced run times layers from outside the program: :func:`instrument`
rebinds each layer's public function *under the name its caller looks
up* (``canonical_nfa`` in ``repro.reach.symbolic``, ``check_fcr`` in
``repro.cuba.verifier``, ...) to a timing wrapper, and restores the
originals on exit.  The :class:`Recorder` keeps the resulting spans in
memory; the traced run checks that every wrapper it expects fired, so a
missed rebinding cannot report a layer as 0 s.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end metrics: the share of the parent's median by which a
    #: change may worsen the metric before it counts as a regression.
    bound: float | None = None
    #: Per-layer metrics: the module measured, and the end-to-end
    #: metric/workload the layer should move.
    layer: str = ""
    moves: str = ""


#: Emitted by every workload with ``--trace 0`` (untraced).
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("p50_ms", "ms", "lower", 0.25),
    Metric("p95_ms", "ms", "lower", 0.25),
    Metric("decided_share", "ratio", "higher", 0.01),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

_T2 = "wall_s on table2-auto"
_LS = "wall_s on lane-sweep"


def _layer(name, unit, better, layer, moves) -> Metric:
    return Metric(name, unit, better, None, layer, moves)


#: Emitted by every workload with ``--trace 1``; a layer the workload
#: does not load reads 0.
PER_LAYER: tuple[Metric, ...] = (
    _layer("fcr.seconds", "s", "lower", "repro.cuba.fcr.check_fcr",
           f"{_T2}; p50_ms/fresh on service-mix"),
    _layer("fcr.calls", "count", "lower", "repro.cuba.fcr.check_fcr", _T2),
    _layer("wcr.seconds", "s", "lower", "repro.reach.wuba.WubaReach.applicable", _LS),
    _layer("wcr.calls", "count", "lower", "repro.reach.wuba.WubaReach.applicable", _LS),
    _layer("explicit.advance_s", "s", "lower", "repro.reach.explicit advance", _T2),
    _layer("explicit.visible_s", "s", "lower",
           "repro.reach.explicit visible_new_at/visible_up_to", _T2),
    _layer("explicit.levels", "count", "lower", "repro.reach.explicit advance", _T2),
    _layer("explicit.expansions", "count", "lower", "METER explicit.expansions", _T2),
    _layer("explicit.level_unique_views", "count", "lower",
           "METER explicit.level_unique_views", _T2),
    _layer("explicit.context_cache_hits", "count", "higher",
           "METER explicit.context_cache_hits", _T2),
    _layer("generators.seconds", "s", "lower",
           "repro.cuba.overapprox.compute_z + repro.cuba.generators", _T2),
    _layer("symbolic.advance_s", "s", "lower", "repro.reach.symbolic advance", _LS),
    _layer("symbolic.levels", "count", "lower", "repro.reach.symbolic advance", _LS),
    _layer("symbolic.expansions", "count", "lower", "METER symbolic.expansions", _LS),
    _layer("symbolic.level_unique_views", "count", "lower",
           "METER symbolic.level_unique_views", _LS),
    _layer("post_star.seconds", "s", "lower",
           "repro.pds.saturation.PostStarEngine.drain", _LS),
    _layer("post_star.rule_applications", "count", "lower",
           "METER post_star.rule_applications", _LS),
    _layer("post_star.edges_added", "count", "lower", "METER post_star.edges_added", _LS),
    _layer("canonical.seconds", "s", "lower", "repro.automata.canonical.canonical_nfa", _LS),
    _layer("canonical.calls", "count", "lower", "repro.automata.canonical.canonical_nfa", _LS),
    _layer("canonical.memo_hit_ratio", "ratio", "higher",
           "METER canonical.cache_hits/misses", _LS),
    _layer("wuba.advance_s", "s", "lower", "repro.reach.wuba advance", _LS),
    _layer("wuba.expansions", "count", "lower", "METER wuba.expansions", _LS),
    _layer("wuba.closure_cache_hits", "count", "higher", "METER wuba.closure_cache_hits", _LS),
    _layer("bp.compile_s", "s", "lower", "repro.bp.translate.compile_source",
           "setup_s on table2-auto/lane-sweep; p50_ms (hits) on service-mix"),
    _layer("fingerprint.seconds", "s", "lower",
           "repro.service.fingerprint cpds_digest+fingerprint",
           "p50_ms (hits) on service-mix"),
    _layer("service.prepare_s", "s", "lower",
           "repro.service.server http_request{submit} - service_request",
           "p95_ms and p50_ms on service-mix"),
    _layer("service.queue_s", "s", "lower", "repro.service.server service_queue",
           "p95_ms on service-mix"),
    _layer("service.engine_s", "s", "lower", "repro.service.server engine_seconds",
           "p95_ms on service-mix"),
    _layer("executor.overhead_s", "s", "lower",
           "repro.service.executor service_request - engine_seconds (fresh)",
           "fresh p50 on service-mix"),
    _layer("store.get_s", "s", "lower", "repro.service.store store_transaction{read,touch}",
           "p50_ms (hits) on service-mix"),
    _layer("store.put_s", "s", "lower", "repro.service.store store_transaction{txn,sweep}",
           "resume/fresh p50 on service-mix"),
    _layer("store.busy_retries", "count", "lower", "METER store.busy_retries",
           "p95_ms on service-mix"),
    _layer("service.store_hit_ratio", "ratio", "higher", "METER service.store_hits",
           "p50_ms on service-mix"),
    _layer("snapshot.encode_s", "s", "lower", "repro.service.snapshot encode span",
           "fresh p50 on service-mix"),
    _layer("snapshot.decode_s", "s", "lower", "repro.service.snapshot decode span",
           "resume p50 on service-mix"),
    _layer("service.fresh_p50_ms", "ms", "lower", "client: fresh-run requests",
           "wall_s and p95_ms on service-mix"),
    _layer("service.resume_p50_ms", "ms", "lower", "client: resumed requests",
           "wall_s on service-mix"),
    _layer("service.hit_p50_ms", "ms", "lower", "client: store-hit requests",
           "p50_ms on service-mix"),
    _layer("service.throughput_rps", "1/s", "higher", "client: completed requests",
           "wall_s on service-mix"),
    _layer("service.fresh_requests", "count", "higher", "client: request classes",
           "records the class mix"),
    _layer("service.resume_requests", "count", "higher", "client: request classes",
           "records the class mix"),
    _layer("service.hit_requests", "count", "higher", "client: request classes",
           "records the class mix"),
    _layer("unattributed_share", "ratio", "lower", "whole traced run",
           "ROADMAP item 1: at most 0.10"),
    _layer("trace_overhead_share", "ratio", "lower", "whole traced run",
           "traced over untraced wall, minus 1"),
)


# ----------------------------------------------------------------------
# Span recording
# ----------------------------------------------------------------------
#: Spans kept for the Chrome trace; a longer run keeps its totals exact
#: and counts the spans it did not keep.
MAX_SPANS = 200_000


class Recorder:
    """In-memory spans from the benchmark's own wrappers.

    A ``root`` span brackets one problem; layer spans nest under it.
    ``seconds``/``calls`` total each layer (inclusive time);
    ``top_seconds`` totals the layer spans whose parent is a root — the
    part of ``root_seconds`` the layers account for, from which the
    unattributed share follows.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.root_seconds = 0.0
        self.top_seconds = 0.0
        self.spans: list[dict] = []
        self.dropped = 0
        # Clear of the program's own span ids, which share the trace file.
        self._ids = itertools.count(1 << 40)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self, name: str, **args):
        with self._span(name, args, root=True):
            yield

    def call(self, layer: str, fn, *args, **kwargs):
        with self._span(layer, None, root=False):
            return fn(*args, **kwargs)

    @contextmanager
    def _span(self, name: str, args: dict | None, root: bool):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append((span_id, root))
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if root:
                self.root_seconds += duration
            else:
                self.seconds[name] += duration
                self.calls[name] += 1
                if parent is not None and parent[1]:
                    self.top_seconds += duration
            if len(self.spans) < MAX_SPANS:
                self.spans.append({
                    "name": name, "ts": start, "dur": duration,
                    "pid": os.getpid(), "tid": threading.get_ident(),
                    "id": span_id, "parent": parent[0] if parent else None,
                    "args": args or {},
                })
            else:
                self.dropped += 1


def _wrap(recorder: Recorder, layer: str, fn):
    def timed(*args, **kwargs):
        return recorder.call(layer, fn, *args, **kwargs)

    timed.__wrapped__ = fn
    timed.__name__ = getattr(fn, "__name__", layer)
    return timed


_MISSING = object()


def _targets():
    """``(owner, attribute, layer)`` for every rebinding: each owner is
    the module or class whose attribute the calling code looks up."""
    from importlib import import_module

    # import_module, not ``import a.b as c``: a package attribute can
    # shadow its submodule (``repro.cuba.algorithm3`` is also a function).
    algorithm3, fcr, verifier, symbolic = (
        import_module(f"repro.{name}")
        for name in ("cuba.algorithm3", "cuba.fcr", "cuba.verifier", "reach.symbolic")
    )
    from repro.cuba.generators import GeneratorAnalysis
    from repro.pds.saturation import PostStarEngine
    from repro.reach.explicit import ExplicitReach
    from repro.reach.symbolic import SymbolicReach
    from repro.reach.wuba import WubaReach

    targets = [
        (verifier, "check_fcr", "fcr"),
        # ExplicitReach.applicable imports it from the module at call time.
        (fcr, "check_fcr", "fcr"),
        (WubaReach, "applicable", "wcr"),
        (ExplicitReach, "advance", "explicit.advance"),
        (ExplicitReach, "visible_new_at", "explicit.visible"),
        (ExplicitReach, "visible_up_to", "explicit.visible"),
        (verifier, "compute_z", "generators"),
        (verifier, "generator_analysis", "generators"),
        (algorithm3, "compute_z", "generators"),
        (algorithm3, "generator_analysis", "generators"),
        (GeneratorAnalysis, "intersect", "generators"),
        (SymbolicReach, "advance", "symbolic.advance"),
        (PostStarEngine, "drain", "post_star"),
        (symbolic, "canonical_nfa", "canonical"),
        (WubaReach, "advance", "wuba.advance"),
    ]
    for model in ("bluetooth", "bst", "dekker", "filecrawler", "proc2"):
        targets.append((import_module(f"repro.models.{model}"), "compile_source", "bp.compile"))
    return targets


@contextmanager
def instrument(recorder: Recorder):
    """Rebind every layer function to a timing wrapper feeding
    ``recorder``; restore the original bindings on exit."""
    saved = []
    try:
        for owner, attribute, layer in _targets():
            own = vars(owner).get(attribute, _MISSING)
            if own is _MISSING and not isinstance(owner, type):
                raise AttributeError(f"{owner.__name__} has no {attribute!r} to rebind")
            saved.append((owner, attribute, own))
            if isinstance(owner, type):
                static = own if own is not _MISSING else _inherited(owner, attribute)
                if isinstance(static, classmethod):
                    setattr(owner, attribute,
                            classmethod(_wrap(recorder, layer, static.__func__)))
                else:
                    setattr(owner, attribute, _wrap(recorder, layer, static))
            else:
                setattr(owner, attribute, _wrap(recorder, layer, own))
        yield recorder
    finally:
        for owner, attribute, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)


def _inherited(cls: type, attribute: str):
    for base in cls.__mro__[1:]:
        if attribute in vars(base):
            return vars(base)[attribute]
    raise AttributeError(f"{cls.__name__} has no attribute {attribute!r}")


def zero_layers() -> dict[str, float]:
    return {metric.name: 0.0 for metric in PER_LAYER}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
