"""Experiment E-bench — the BENCH perf-trajectory runner, smoke-tested.

Runs :mod:`repro.bench.runner` on a two-row subset in quick mode,
validates the ``cuba-bench/1`` payload schema (the contract ROADMAP.md
documents and CI's bench lane consumes), exercises the regression gate,
and asserts the memory discipline of this PR: the automaton and
saturation record classes are ``__slots__``-only — no stray per-instance
``__dict__`` on the objects the engines allocate by the thousand.

Marked ``quick``: part of the CI benchmark smoke lane
(``pytest benchmarks -m quick``).
"""

import hashlib
import json
import subprocess
from pathlib import Path

import pytest

from repro.bench.runner import (
    compare_bench,
    git_rev,
    merge_modes,
    run_suite,
    source_sha256,
    write_bench_json,
)

pytestmark = pytest.mark.quick


@pytest.fixture(scope="module")
def payload():
    return run_suite(quick=True, rows={"6", "9"}, max_rounds=4, repeats=1)


class TestRunnerPayload:
    def test_schema_and_metadata(self, payload):
        assert payload["schema"] == "cuba-bench/1"
        assert payload["quick"] is True
        assert payload["calibration_seconds"] > 0
        assert payload["python"]

    def test_workloads_cover_both_engines_and_micro(self, payload):
        lanes = {(w["name"], w["lane"]) for w in payload["workloads"]}
        names = {name for name, _ in lanes}
        assert any(name.startswith("6/") for name in names)
        assert any(name.startswith("9/") for name in names)
        assert ("9/Dekker [2•]", "explicit") in lanes  # Dekker satisfies FCR
        assert any(lane == "canonical-micro" for _, lane in lanes)

    def test_modes_record_time_and_meter(self, payload):
        for workload in payload["workloads"]:
            for mode, record in workload["modes"].items():
                assert record["seconds"] >= 0, (workload["name"], mode)
                assert isinstance(record["meter"], dict)
            if workload["lane"] == "symbolic":
                meter = workload["modes"]["optimized"]["meter"]
                assert meter.get("symbolic.expansions", 0) > 0
                # Batching invariant, persisted: never more saturations
                # than unique frontier views.
                assert meter["symbolic.expansions"] <= meter.get(
                    "symbolic.level_unique_views", 0
                )

    def test_explicit_lane_runs_batched_vs_per_state_pair(self, payload):
        """The explicit lane runs the view-batched engine, and its
        meters carry the one-saturation-per-unique-view proof; the
        per-state oracle is a test fixture, never a bench mode."""
        explicit = [w for w in payload["workloads"] if w["lane"] == "explicit"]
        assert explicit, "quick suite must include explicit-lane rows"
        for workload in explicit:
            meter = workload["modes"]["optimized"]["meter"]
            unique = meter.get("explicit.level_unique_views", 0)
            assert unique > 0
            assert meter.get("explicit.level_views", 0) >= unique
            # Every unique view per level is one saturation or one
            # cross-level cache hit — never more.
            assert (
                meter.get("explicit.expansions", 0)
                + meter.get("explicit.context_cache_hits", 0)
                == unique
            )
            assert list(workload["modes"]) == ["optimized"]

    def test_totals_sum_workloads(self, payload):
        total = sum(w["modes"]["optimized"]["seconds"] for w in payload["workloads"])
        assert payload["totals"]["optimized_seconds"] == pytest.approx(
            total, abs=1e-3
        )

    def test_written_file_round_trips(self, payload, tmp_path):
        path = write_bench_json(payload, tmp_path)
        assert path.name == f"BENCH_{payload['stamp']}.json"
        assert json.loads(path.read_text())["totals"] == payload["totals"]


class TestRegressionGate:
    def test_self_comparison_passes(self, payload):
        ok, messages = compare_bench(payload, payload, tolerance=0.25)
        assert ok, messages

    @staticmethod
    def _scaled(payload, factor):
        scaled = json.loads(json.dumps(payload))
        for workload in scaled["workloads"]:
            for record in workload["modes"].values():
                record["seconds"] *= factor
        return scaled

    def test_regression_detected(self, payload):
        slower = self._scaled(payload, 2.0)
        ok, messages = compare_bench(slower, payload, tolerance=0.25)
        assert not ok
        assert any("REGRESSION" in m for m in messages)

    def test_calibration_normalizes_machine_speed(self, payload):
        # Same workload numbers on a machine measured 2x slower overall
        # must NOT read as a regression once normalized.
        slower_machine = self._scaled(payload, 2.0)
        slower_machine["calibration_seconds"] *= 2.0
        ok, _messages = compare_bench(slower_machine, payload, tolerance=0.25)
        assert ok

    def test_extra_workloads_compare_shared_only(self, payload):
        """A same-config baseline with extra workloads must not skew the
        gate: only shared workloads are summed."""
        bigger = json.loads(json.dumps(payload))
        bigger["workloads"].append(
            {
                "name": "999/Imaginary [9+9]",
                "lane": "symbolic",
                "modes": {"optimized": {"seconds": 1e6, "meter": {}}},
            }
        )
        ok, messages = compare_bench(payload, bigger, tolerance=0.25)
        assert ok, messages
        assert any("excluded" in m for m in messages)
        # And a regression within the shared set is still caught.
        ok, _messages = compare_bench(self._scaled(payload, 2.0), bigger)
        assert not ok

    def test_per_lane_regression_detected(self, payload):
        """A regression confined to one lane must fail the gate even if
        another lane's (inflated) win keeps the overall total flat.
        Times are set synthetically so every lane clears the gate's
        noise floor regardless of how fast this machine ran the rows."""
        lanes = sorted({w["lane"] for w in payload["workloads"]})
        assert "explicit" in lanes, "quick suite must include explicit rows"
        baseline = json.loads(json.dumps(payload))
        for workload in baseline["workloads"]:
            for record in workload["modes"].values():
                record["seconds"] = 1.0
        victim = "explicit"
        skewed = json.loads(json.dumps(baseline))
        for workload in skewed["workloads"]:
            # Victim lane 2x slower; the rest 2x faster — the summed
            # total stays within tolerance, only the lane gate can fire.
            factor = 2.0 if workload["lane"] == victim else 0.5
            for record in workload["modes"].values():
                record["seconds"] *= factor
        ok, messages = compare_bench(skewed, baseline, tolerance=0.25)
        assert not ok
        assert any(f"lane {victim}" in m and "REGRESSION" in m for m in messages)

    def test_lane_gate_skips_noise_floor_lanes(self, payload):
        """Millisecond lanes are excluded from the per-lane gate (they
        still count toward the gated overall total)."""
        tiny = json.loads(json.dumps(payload))
        for workload in tiny["workloads"]:
            for record in workload["modes"].values():
                record["seconds"] = 1e-4
        ok, messages = compare_bench(tiny, tiny, tolerance=0.25)
        assert ok
        assert any("not gated" in m for m in messages)

    def test_mismatched_configuration_refuses_comparison(self, payload):
        """A full-run baseline must not silently neutralize the quick
        gate: mismatched configurations fail loudly."""
        full = json.loads(json.dumps(payload))
        full["quick"] = False
        ok, messages = compare_bench(payload, full, tolerance=0.25)
        assert not ok
        assert any("NOT COMPARABLE" in m for m in messages)

    def test_latest_comparable_baseline_skips_mismatched(self, payload, tmp_path):
        from repro.bench.runner import latest_comparable_baseline

        matching = json.loads(json.dumps(payload))
        matching["stamp"] = "20000101T000000Z"
        write_bench_json(matching, tmp_path)
        full = json.loads(json.dumps(payload))
        full["quick"] = False
        full["stamp"] = "20990101T000000Z"  # newer but incomparable
        write_bench_json(full, tmp_path)
        chosen = latest_comparable_baseline(payload, tmp_path)
        assert chosen is not None and "20000101" in chosen.name
        assert latest_comparable_baseline(full | {"max_rounds": 99}, tmp_path) is None

    def test_merge_before_grafts_mode(self, payload):
        other = json.loads(json.dumps(payload))
        merged = merge_modes(payload, other, "before")
        assert merged == len(payload["workloads"])
        assert payload["totals"]["before_seconds"] > 0
        assert "speedup_vs_before" in payload["totals"]


class TestLaneRegistryIntegration:
    def test_wuba_rows_present_for_applicable_models(self, payload):
        """Dekker (row 9) satisfies WCR, so the default engine set must
        produce wuba workloads for it; row 6 (K-Induction) fails WCR
        and must not."""
        wuba = {w["name"] for w in payload["workloads"] if w["lane"] == "wuba"}
        assert any(name.startswith("9/") for name in wuba)
        assert not any(name.startswith("6/") for name in wuba)

    def test_wuba_rows_carry_lane_meters(self, payload):
        for workload in payload["workloads"]:
            if workload["lane"] != "wuba":
                continue
            meter = workload["modes"]["optimized"]["meter"]
            assert meter.get("wuba.expansions", 0) > 0

    def test_alias_spelled_baseline_still_matches(self, payload):
        """A baseline file that spelled a lane by a registry alias
        (``wk``/``rk``/``sk``) must keep matching the canonical names —
        comparable_configs + workload matching go through
        ``_lane_token``."""
        aliased = json.loads(json.dumps(payload))
        spellings = {"wuba": "wk", "explicit": "rk", "symbolic": "sk"}
        for workload in aliased["workloads"]:
            workload["lane"] = spellings.get(workload["lane"], workload["lane"])
        ok, messages = compare_bench(payload, aliased, tolerance=0.25)
        assert ok, messages
        # Every workload matched: nothing excluded, no absent lanes.
        assert not any("excluded" in m or "absent" in m for m in messages)

    def test_new_lane_reported_not_silently_ungated(self, payload):
        """A lane with no baseline yet (first run after it lands) is
        called out in the gate report instead of vanishing."""
        assert any(w["lane"] == "wuba" for w in payload["workloads"])
        pre_lane = json.loads(json.dumps(payload))
        pre_lane["workloads"] = [
            w for w in pre_lane["workloads"] if w["lane"] != "wuba"
        ]
        ok, messages = compare_bench(payload, pre_lane, tolerance=0.25)
        assert ok, messages
        assert any(
            "lane wuba" in m and "absent from the baseline" in m for m in messages
        )
        # The mirror case: a lane that vanished from the current run.
        ok, messages = compare_bench(pre_lane, payload, tolerance=0.25)
        assert ok, messages
        assert any(
            "lane wuba" in m and "missing from the current run" in m
            for m in messages
        )


class TestJobsField:
    """``jobs`` and ``shards`` are retired constants: the runner no
    longer writes them, and comparison reads an absent field as the
    serial value (1 and 0)."""

    def test_jobs_and_shards_no_longer_recorded(self, payload):
        assert "jobs" not in payload
        assert "shards" not in payload

    def test_mismatched_jobs_refuses_comparison(self, payload):
        """A baseline recorded by the removed multiprocess advance
        (jobs=2) is never gated against; one recorded serially, with the
        field present or absent, still is."""
        parallel = json.loads(json.dumps(payload))
        parallel["jobs"] = 2
        ok, messages = compare_bench(payload, parallel, tolerance=0.25)
        assert not ok
        assert any("NOT COMPARABLE" in m for m in messages)
        serial = json.loads(json.dumps(payload))
        serial["jobs"] = 1
        ok, messages = compare_bench(payload, serial, tolerance=0.25)
        assert ok, messages


class TestShardMode:
    def test_mismatched_shards_refuses_comparison(self, payload):
        """A baseline recorded with replay sharding (shards=4) is never
        gated against; shards=0 (the committed files' value) still is."""
        sharded = json.loads(json.dumps(payload))
        sharded["shards"] = 4
        ok, messages = compare_bench(payload, sharded, tolerance=0.25)
        assert not ok
        assert any("NOT COMPARABLE" in m for m in messages)
        serial = json.loads(json.dumps(payload))
        serial["shards"] = 0
        ok, messages = compare_bench(payload, serial, tolerance=0.25)
        assert ok, messages


def test_retired_modes_are_rejected():
    """The ``parallel`` and ``shard`` modes went with the multiprocess
    advance and ``legacy`` with the memo knob; the runner measures one
    mode, so naming any is an error, not a silent optimized run."""
    from repro.bench.runner import main

    for mode in ("legacy", "parallel"):
        with pytest.raises(TypeError, match="modes"):
            run_suite(quick=True, rows={"9"}, modes=("optimized", mode))
    with pytest.raises(SystemExit):
        main(["--quick", "--modes", "optimized,legacy", "--no-write"])


class TestBackendField:
    """``backend`` is a retired constant like ``jobs``: the explicit lane
    has one replay loop, the runner no longer writes the field, and an
    absent field reads as ``python``."""

    def test_backend_recorded_and_resolved(self, payload):
        assert "backend" not in payload

    def test_forced_python_recorded(self, payload):
        """A baseline that recorded ``backend: python`` measured the loop
        that still runs, so it stays comparable; the runner takes no
        ``--backend`` flag any more."""
        from repro.bench.runner import main

        python = json.loads(json.dumps(payload))
        python["backend"] = "python"
        ok, messages = compare_bench(payload, python, tolerance=0.25)
        assert ok, messages
        with pytest.raises(SystemExit):
            main(["--quick", "--backend", "python", "--no-write"])

    def test_mismatched_backend_refuses_comparison(self, payload):
        """A baseline recorded with the removed numpy replay timed a
        different loop: never gated against."""
        numpy = json.loads(json.dumps(payload))
        numpy["backend"] = "numpy"
        ok, messages = compare_bench(payload, numpy, tolerance=0.25)
        assert not ok
        assert any("NOT COMPARABLE" in m for m in messages)


class TestSourceProvenance:
    """A BENCH or LOADTEST file names the tree it measured: the short
    HEAD asked at the checkout root, plus a digest of the sources that
    covers uncommitted edits (the scheme of ``perfbench/run.py``)."""

    @staticmethod
    def _digest(root):
        digest = hashlib.sha256()
        for path in sorted((root / "src").rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()[:16]

    def test_payload_records_the_source_digest(self, payload):
        import repro

        root = Path(repro.__file__).resolve().parents[2]
        assert payload["source_sha256"] == self._digest(root)

    def test_git_revision_is_taken_at_the_checkout_root(self, tmp_path, monkeypatch):
        import repro

        root = Path(repro.__file__).resolve().parents[2]
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=root, capture_output=True, text=True, timeout=10,
            )
        except OSError:  # pragma: no cover - git missing
            pytest.skip("git is not installed")
        monkeypatch.chdir(tmp_path)  # not a git checkout
        assert git_rev() == (out.stdout.strip() or None)

    def test_compare_gates_ignore_the_digest(self, payload):
        from repro.service.loadtest import compare_loadtest

        other = json.loads(json.dumps(payload))
        other["source_sha256"] = "0" * 16
        ok, messages = compare_bench(payload, other, tolerance=0.25)
        assert ok, messages
        loadtest = {
            "quick": True, "duration": 1.0, "concurrency": 1, "replicas": 1,
            "executor": "thread", "calibration_seconds": 0.1,
            "totals": {"throughput_rps": 100.0, "failures": 0},
        }
        stamped = dict(loadtest, source_sha256=source_sha256())
        ok, messages = compare_loadtest(stamped, loadtest)
        assert ok, messages


class TestMemoryDiscipline:
    """The satellite's memory assertion: hot-path records are slotted."""

    SLOTTED = [
        "repro.automata.nfa:NFA",
        "repro.automata.canonical:CanonicalNFA",
        "repro.automata.canonical:Signature",
        "repro.automata.intern:SymbolTable",
        "repro.pds.saturation:PostStarEngine",
        "repro.pds.action:Action",
        "repro.reach.symbolic:SymbolicState",
    ]

    @pytest.mark.parametrize("spec", SLOTTED)
    def test_no_instance_dict(self, spec):
        module_name, class_name = spec.split(":")
        module = __import__(module_name, fromlist=[class_name])
        cls = getattr(module, class_name)
        assert "__dict__" not in dir(cls) or not hasattr(
            _instantiate(cls), "__dict__"
        ), f"{spec} instances carry a __dict__ — __slots__ chain is broken"

    def test_nfa_instance_rejects_adhoc_attributes(self):
        from repro.automata.nfa import NFA

        nfa = NFA(initial=[0])
        with pytest.raises(AttributeError):
            nfa.scratch = 1  # type: ignore[attr-defined]


def _instantiate(cls):
    from repro.automata.canonical import CanonicalNFA, Signature
    from repro.automata.intern import SymbolTable
    from repro.automata.nfa import NFA
    from repro.pds.action import Action
    from repro.pds.pds import PDS
    from repro.pds.saturation import PostStarEngine
    from repro.reach.symbolic import SymbolicState

    if cls is NFA:
        return NFA(initial=[0])
    if cls is CanonicalNFA:
        return CanonicalNFA()
    if cls is Signature:
        return Signature((("a",), (False,), ((0,),)), 0)
    if cls is SymbolTable:
        return SymbolTable(["a"])
    if cls is PostStarEngine:
        pds = PDS(0)
        pds.rule(0, "a", 0, ["a"])
        return PostStarEngine(pds)
    if cls is Action:
        return Action(0, ("a",), 0, ("a",))
    if cls is SymbolicState:
        return SymbolicState(0, (NFA(initial=[0]),), (None,))
    raise AssertionError(f"no instantiation recipe for {cls}")
