"""The ``cuba loadtest`` harness (PR 7).

One real (short) spawn-mode run — two replicas sharing a store — checks
the full ``cuba-loadtest/1`` payload: zero failures, hit-rate and lease
counters populated, the cross-replica probe proving the shared store.
The compare-gate tests are synthetic payloads: configuration matching,
calibration-normalized throughput, the zero-failures rule, and the
newest-comparable-baseline selector.
"""

import json

from repro.cpds import format_cpds
from repro.models import fig1_cpds
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.loadtest import (
    LOADTEST_SCHEMA,
    build_workloads,
    compare_loadtest,
    comparable_loadtest_configs,
    latest_comparable_loadtest,
    run_loadtest,
    spawn_replicas,
    stop_replicas,
    write_loadtest_json,
    _percentile,
)

#: Linux's default pipe capacity: a replica whose output went to an
#: undrained pipe blocked in ``write()`` once this much accumulated.
PIPE_CAPACITY = 64 * 1024


class TestWorkloads:
    def test_quick_profile_contains_the_resume_pair(self):
        names = [item.name for item in build_workloads(quick=True)]
        assert "resume-shallow" in names and "resume-deeper" in names
        assert all(item.weight > 0 for item in build_workloads(quick=True))

    def test_resume_pair_shares_problem_identity(self):
        # Same program/property/engine — only the anytime budget
        # differs, so the deeper submission resumes the shallow
        # snapshot (the lease-guarded path under load).
        items = {item.name: item for item in build_workloads(quick=True)}
        shallow = dict(items["resume-shallow"].kwargs)
        deeper = dict(items["resume-deeper"].kwargs)
        assert shallow.pop("max_rounds") < deeper.pop("max_rounds")
        assert shallow == deeper

    def test_full_profile_is_a_superset(self):
        quick = {item.name for item in build_workloads(quick=True)}
        full = {item.name for item in build_workloads(quick=False)}
        assert quick < full


def test_percentile():
    assert _percentile([], 0.5) is None
    assert _percentile([7.0], 0.99) == 7.0
    values = [float(i) for i in range(1, 101)]
    assert _percentile(values, 0.0) == 1.0
    assert _percentile(values, 1.0) == 100.0
    assert 49.0 <= _percentile(values, 0.5) <= 52.0


def test_replica_output_never_blocks_requests(tmp_path):
    """Every submit writes an audit line; a replica must keep answering
    long after its output outgrows a pipe buffer.  The short read
    timeout and zero retries turn a blocked replica into a prompt
    failure instead of a hang."""
    replicas = spawn_replicas(1, tmp_path / "store.sqlite")
    replica = replicas[0]
    client = ServiceClient(
        replica.host, replica.port,
        retry=RetryPolicy(connect_timeout=2.0, read_timeout=10.0, retries=0),
    )
    try:
        text = format_cpds(fig1_cpds())
        first = client.submit(text, property_spec="shared:3", max_rounds=4)
        for _ in range(400):
            again = client.submit(text, property_spec="shared:3", max_rounds=4)
            assert again["verdict"] == first["verdict"]
        assert replica.log_path.stat().st_size > PIPE_CAPACITY
        assert replica.log_path.parent == tmp_path
    finally:
        stop_replicas(replicas, client)


def test_two_replica_run_end_to_end(tmp_path):
    payload = run_loadtest(
        spawn=2, duration=2.5, concurrency=3, quick=True, seed=11
    )
    assert payload["schema"] == LOADTEST_SCHEMA
    assert payload["replicas"] == 2
    assert payload["calibration_seconds"] > 0
    totals = payload["totals"]
    assert totals["requests"] > 0
    assert totals["failures"] == 0
    assert totals["throughput_rps"] > 0
    assert totals["p50_ms"] <= totals["p99_ms"]
    for op in ("submit", "status", "result"):
        assert payload["ops"][op]["failures"] == 0
    # The mix converges onto the store/dedup fast path...
    assert 0.0 < totals["dedup_hit_rate"] <= 1.0
    assert totals["store_hit_rate"] > 0.0
    # ...after exercising the resume + lease path at least once.
    assert totals["resumes"] >= 1
    assert totals["lease"]["acquired"] >= 1
    assert totals["lease"]["acquired"] == totals["lease"]["released"]
    # Both replicas answer from ONE store: the probe must hit.
    assert totals["cross_replica_probes"] >= 1
    assert totals["cross_replica_store_hits"] >= 1
    path = write_loadtest_json(payload, tmp_path)
    assert path.name.startswith("LOADTEST_") and path.suffix == ".json"
    assert json.loads(path.read_text())["totals"]["requests"] == totals["requests"]


def _payload(stamp="20260101T000000Z", rps=100.0, calibration=0.1,
             failures=0, **config):
    shape = {
        "quick": True, "duration": 10.0, "concurrency": 8,
        "replicas": 2, "executor": "thread",
    }
    shape.update(config)
    return {
        "schema": LOADTEST_SCHEMA,
        "stamp": stamp,
        "calibration_seconds": calibration,
        "totals": {"throughput_rps": rps, "failures": failures},
        **shape,
    }


class TestCompareGate:
    def test_matching_config_and_throughput_passes(self):
        ok, messages = compare_loadtest(_payload(), _payload(rps=95.0))
        assert ok, messages

    def test_throughput_regression_fails(self):
        ok, messages = compare_loadtest(_payload(rps=50.0), _payload(rps=100.0))
        assert not ok
        assert any("REGRESSION" in m for m in messages)

    def test_calibration_normalizes_slow_machines(self):
        # Half the throughput on a machine whose spin takes twice as
        # long is NOT a regression.
        slow = _payload(rps=50.0, calibration=0.2)
        fast = _payload(rps=100.0, calibration=0.1)
        ok, messages = compare_loadtest(slow, fast)
        assert ok, messages

    def test_failed_requests_fail_the_gate(self):
        ok, messages = compare_loadtest(_payload(failures=3), _payload())
        assert not ok
        assert any("FAILED REQUESTS" in m for m in messages)

    def test_mismatched_config_is_not_comparable(self):
        assert not comparable_loadtest_configs(
            _payload(), _payload(replicas=3)
        )
        ok, messages = compare_loadtest(_payload(), _payload(concurrency=16))
        assert not ok
        assert any("NOT COMPARABLE" in m for m in messages)

    def test_latest_comparable_picks_newest_matching(self, tmp_path):
        old = _payload(stamp="20260101T000000Z")
        newer = _payload(stamp="20260301T000000Z")
        other_shape = _payload(stamp="20260401T000000Z", replicas=4)
        for payload in (old, newer, other_shape):
            write_loadtest_json(payload, tmp_path)
        current = _payload(stamp="20260501T000000Z")
        found = latest_comparable_loadtest(current, tmp_path)
        assert found is not None
        assert "20260301T000000Z" in found.name
        assert latest_comparable_loadtest(
            _payload(replicas=9), tmp_path
        ) is None
