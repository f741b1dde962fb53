"""Span capture, nesting, cross-process adoption, and Chrome export."""

import json
import os
import pickle
import threading
import time

from repro.obs import trace


class TestDisabledMode:
    def test_disabled_span_is_shared_noop(self):
        a = trace.span("anything", level=1)
        b = trace.span("other")
        assert a is b is trace._NULL
        with a as handle:
            handle.set(ignored=True)
        assert trace.events() == []

    def test_enabled_flag_round_trip(self):
        assert not trace.enabled()
        trace.enable()
        assert trace.enabled()
        trace.disable()
        assert not trace.enabled()


class TestRecording:
    def test_record_shape_and_args(self):
        trace.enable()
        with trace.span("unit.phase", level=3) as timing:
            timing.set(outcome="hit")
        (record,) = trace.events()
        assert record["name"] == "unit.phase"
        assert record["args"] == {"level": 3, "outcome": "hit"}
        assert record["pid"] == os.getpid()
        assert record["tid"] == threading.get_ident()
        assert record["parent"] is None
        assert record["dur"] >= 0.0
        # Shipping across a process boundary requires plain picklable
        # dicts.
        assert pickle.loads(pickle.dumps(record)) == record

    def test_nesting_links_parent(self):
        trace.enable()
        with trace.span("outer"):
            outer_id = trace.current_id()
            with trace.span("inner"):
                assert trace.current_id() != outer_id
            with trace.span("sibling"):
                pass
        by_name = {event["name"]: event for event in trace.events()}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["sibling"]["parent"] == by_name["outer"]["id"]

    def test_tally_adds_to_the_innermost_open_span(self):
        trace.tally({"work": 1})  # disabled: nothing to credit
        trace.enable()
        trace.tally({"work": 1})  # outside every span: dropped
        with trace.span("outer", work=0):
            with trace.span("inner"):
                trace.tally({"work": 2})
                trace.tally({"work": 3, "other": 1})
            trace.tally({"work": 7})
        by_name = {event["name"]: event for event in trace.events()}
        assert set(by_name) == {"outer", "inner"}
        assert by_name["inner"]["args"] == {"work": 5, "other": 1}
        assert by_name["outer"]["args"] == {"work": 7}

    def test_exception_still_records_and_pops(self):
        trace.enable()
        try:
            with trace.span("flaky"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert trace.current_id() is None
        (record,) = trace.events()
        assert record["name"] == "flaky"

    def test_threads_do_not_nest_into_each_other(self):
        trace.enable()
        started = threading.Event()
        release = threading.Event()

        def worker():
            with trace.span("worker.root"):
                started.set()
                release.wait(5)

        thread = threading.Thread(target=worker)
        with trace.span("main.root"):
            thread.start()
            assert started.wait(5)
            release.set()
            thread.join(5)
        by_name = {event["name"]: event for event in trace.events()}
        assert by_name["worker.root"]["parent"] is None
        assert by_name["main.root"]["parent"] is None
        assert by_name["worker.root"]["tid"] != by_name["main.root"]["tid"]

    def test_take_drains_buffer(self):
        trace.enable()
        with trace.span("once"):
            pass
        drained = trace.take()
        assert [event["name"] for event in drained] == ["once"]
        assert trace.events() == []

    def test_buffer_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_EVENTS", 4)
        trace.enable()
        for index in range(7):
            with trace.span("flood", index=index):
                pass
        assert len(trace.events()) == 4
        assert trace.dropped == 3
        trace.clear()
        assert trace.dropped == 0


class TestAdopt:
    def make_foreign(self):
        """Simulate a worker: record nested spans and drain them."""
        trace.enable()
        with trace.span("w.outer"):
            with trace.span("w.inner"):
                pass
        return trace.take()

    def test_adopt_rebases_reparents_and_remaps(self):
        foreign = self.make_foreign()
        # Forge a foreign process clock far in the "past" and a fake pid
        # so re-basing and pid preservation are both observable.
        for event in foreign:
            event["ts"] -= 1e6
            event["pid"] = 99999
        trace.enable()
        with trace.span("dispatch"):
            parent_id = trace.current_id()
            dispatch_at = time.perf_counter()
            trace.adopt(foreign, parent=parent_id, at=dispatch_at)
        by_name = {event["name"]: event for event in trace.events()}
        outer, inner = by_name["w.outer"], by_name["w.inner"]
        # Roots hang under the dispatching span; internal links survive.
        assert outer["parent"] == by_name["dispatch"]["id"]
        assert inner["parent"] == outer["id"]
        # Re-based onto the parent clock at the dispatch timestamp.
        assert abs(outer["ts"] - dispatch_at) < 1e-6
        assert inner["ts"] >= outer["ts"]
        # Worker pid preserved, ids remapped into the local space.
        assert outer["pid"] == 99999
        local_ids = {by_name["dispatch"]["id"]}
        assert outer["id"] not in (event["id"] for event in foreign)
        assert len({event["id"] for event in trace.events()} | local_ids) == 3

    def test_adopt_empty_is_noop(self):
        assert trace.adopt([]) == []
        assert trace.events() == []


class TestChromeTrace:
    def test_schema(self):
        trace.enable()
        with trace.span("outer", lane="explicit"):
            with trace.span("inner"):
                pass
        doc = trace.chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 2
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert {"name", "pid", "tid", "args"} <= set(event)
            assert "span_id" in event["args"]
            assert "parent_id" in event["args"]
        outer = next(e for e in doc["traceEvents"] if e["name"] == "outer")
        assert outer["args"]["lane"] == "explicit"
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_write_chrome_trace(self, tmp_path):
        trace.enable()
        with trace.span("solo"):
            pass
        path = trace.write_chrome_trace(tmp_path / "out.json")
        loaded = json.loads(path.read_text())
        assert [e["name"] for e in loaded["traceEvents"]] == ["solo"]
