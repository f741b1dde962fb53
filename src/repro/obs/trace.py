"""Spans: in-band timing of the analysis pipeline's phases.

METER (:mod:`repro.util.meter`) counts *work*; spans time *phases*.  A
span is one timed region — ``with span("explicit.level", level=3):`` —
recorded with monotonic start/duration, process and thread ids, and a
parent link to the span that was open on the same thread when it
started, so a whole run renders as a flame chart
(:func:`chrome_trace` emits the ``chrome://tracing`` /
Perfetto trace-event JSON form).

Tracing is **off by default** and costs near nothing while off: the
module-level :data:`_enabled` flag is checked before any allocation, and
a disabled :func:`span` call returns one shared no-op context manager.
The quick-bench overhead gate (``tests/obs/test_overhead.py``, run in
the CI ``obs-smoke`` lane) asserts the disabled-mode cost stays under
2% of end-to-end wall time.

Span records are plain picklable dicts::

    {"name": str, "ts": float, "dur": float, "pid": int, "tid": int,
     "id": int, "parent": int | None, "args": dict}

``ts`` is ``time.perf_counter()`` — meaningful only relative to other
events from the same process.  Worker processes therefore ship their
drained events home (:func:`take`, riding ``JobOutcome.spans`` exactly
like the PR 6 METER-delta merge) and the parent re-bases them onto its
own clock at the dispatch timestamp and links their roots under the
dispatching span (:func:`adopt`) — the flame chart shows worker phases
nested under the parent request even though they ran in another
process.

Naming convention (see ROADMAP Reference): dotted lowercase,
``<layer>.<phase>`` — ``service.request``, ``service.engine_run``,
``executor.dispatch``, ``lane.run``, ``lane.applicable``,
``cuba.generators``, ``<lane>.level`` (emitted by the
:class:`~repro.reach.base.ReachabilityEngine` template method, so every
lane — including future ones — inherits per-level spans for free),
``explicit.saturation``, ``explicit.decode``, ``symbolic.saturate``,
``canonical.form`` (one per dense canonicalization, form-memo hits
included), ``snapshot.encode``/``decode``, ``store.transaction``,
``verify.request``, ``service.prepare`` (compile + fingerprint of one
submit) and ``bp.compile`` (one Boolean-program compile; ``threads``,
``rules``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path

__all__ = [
    "MAX_EVENTS",
    "adopt",
    "chrome_trace",
    "clear",
    "current_id",
    "disable",
    "enable",
    "enabled",
    "events",
    "span",
    "take",
    "write_chrome_trace",
]

#: Hard cap on buffered events: a traced soak must degrade to a
#: truncated trace, never to unbounded memory.  Drops are counted in
#: :data:`dropped`.
MAX_EVENTS = 65536

_enabled = False
_lock = threading.Lock()
_events: list[dict] = []
_ids = itertools.count(1)
_local = threading.local()

#: Events discarded because the buffer was full (monotone; reset by
#: :func:`clear`).
dropped = 0


def enable() -> None:
    """Turn tracing on (process-wide)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn tracing off; buffered events are kept until :func:`clear`."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """True iff spans are currently being recorded."""
    return _enabled


def clear() -> None:
    """Drop all buffered events (capture-mode reset; tests)."""
    global dropped
    with _lock:
        _events.clear()
        dropped = 0


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def current_id() -> int | None:
    """The id of the innermost open span on this thread, or ``None``."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


class _NullSpan:
    """The shared disabled-mode context manager: no allocation, no
    record.  ``set`` exists so call sites can unconditionally annotate
    the object :func:`span` handed them."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    # Named parameters, not ``*exc``: no tuple is packed per call.
    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        return False

    def set(self, **args) -> None:
        pass


_NULL = _NullSpan()


class _Span:
    __slots__ = ("name", "args", "_id", "_start")

    def __init__(self, name: str, args: dict) -> None:
        self.name = name
        self.args = args

    def set(self, **args) -> None:
        """Attach/overwrite args after entry (e.g. a hit/miss path only
        known once the body ran)."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        self._id = next(_ids)
        _stack().append(self._id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        stack = _local.stack
        stack.pop()
        record = {
            "name": self.name,
            "ts": self._start,
            "dur": end - self._start,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "id": self._id,
            "parent": stack[-1] if stack else None,
            "args": self.args,
        }
        global dropped
        with _lock:
            if len(_events) < MAX_EVENTS:
                _events.append(record)
            else:
                dropped += 1
        return False


def span(name: str, **args):
    """A context manager timing one region.  When tracing is disabled
    this returns a shared no-op object before allocating anything."""
    if not _enabled:
        return _NULL
    return _Span(name, args)


def events() -> list[dict]:
    """A snapshot copy of the buffered events."""
    with _lock:
        return list(_events)


def take() -> list[dict]:
    """Drain and return the buffered events (the worker-side half of
    the cross-process shipping protocol)."""
    with _lock:
        drained = list(_events)
        _events.clear()
    return drained


def adopt(
    foreign: list[dict], *, parent: int | None = None, at: float | None = None
) -> list[dict]:
    """Merge events recorded in another process into this buffer.

    ``perf_counter`` clocks are process-local, so the foreign events are
    re-based: their earliest start is aligned to ``at`` (the parent's
    dispatch timestamp; defaults to now).  Top-level foreign spans
    (``parent is None``) are linked under ``parent`` — the parent-side
    span that dispatched the work — while the foreign *internal*
    parent/child links and pid/tid are preserved, so the flame chart
    shows the worker's phases nested inside the dispatching request.
    Span ids are remapped into this process's id space to avoid
    collisions.  Returns the adopted records.
    """
    if not foreign:
        return []
    if at is None:
        at = time.perf_counter()
    offset = at - min(event["ts"] for event in foreign)
    remap = {event["id"]: next(_ids) for event in foreign}
    adopted = []
    for event in foreign:
        record = dict(event)
        record["ts"] = event["ts"] + offset
        record["id"] = remap[event["id"]]
        record["parent"] = (
            remap.get(event["parent"], parent)
            if event["parent"] is not None
            else parent
        )
        adopted.append(record)
    global dropped
    with _lock:
        room = MAX_EVENTS - len(_events)
        _events.extend(adopted[:room])
        dropped += max(0, len(adopted) - room)
    return adopted


def chrome_trace(records: list[dict] | None = None) -> dict:
    """The buffered (or given) events as a Chrome trace-event JSON
    object — one ``"X"`` (complete) event per span, microsecond
    timestamps relative to the earliest event, loadable in
    ``chrome://tracing`` / Perfetto."""
    if records is None:
        records = events()
    base = min((event["ts"] for event in records), default=0.0)
    trace_events = [
        {
            "ph": "X",
            "name": event["name"],
            "ts": round((event["ts"] - base) * 1e6, 3),
            "dur": round(event["dur"] * 1e6, 3),
            "pid": event["pid"],
            "tid": event["tid"],
            "args": {
                **event["args"],
                "span_id": event["id"],
                "parent_id": event["parent"],
            },
        }
        for event in records
    ]
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, records: list[dict] | None = None) -> Path:
    """Write :func:`chrome_trace` JSON to ``path`` and return it."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(records), indent=2) + "\n")
    return path
