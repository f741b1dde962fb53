"""Benchmark runner: Table 2 / Fig. 5 workloads → ``BENCH_<stamp>.json``.

Each workload runs the production path of its lane — dense Hopcroft
canonicalization (:mod:`repro.automata.dense`), batched frontier
expansion with the lanes' cross-level memos, interned symbol order,
hash-consed canonical DFAs — and is recorded under the mode name
``optimized``, the column :func:`compare_bench` gates.  Older committed
files also carry a ``legacy`` column (the seed pipeline: Moore
refinement and per-state expansion); the runner no longer measures it
and the gate never read it.

Wall time is best-of-``repeats`` (first run's METER delta and peak
memory are recorded; caches are cleared before every repetition so runs
are cold).  A ``calibration_seconds`` pure-Python spin is included so
two BENCH files from different machines can be compared on normalized
time (see :func:`compare_bench`).

The JSON layout (schema ``cuba-bench/1``) is documented in ROADMAP.md's
"BENCH perf trajectory" entry; ``BENCH_*.json`` files at the repo root
are the committed perf trajectory every perf PR is judged against.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.automata.ops import _sort_key
from repro.cuba.algorithm3 import algorithm3
from repro.cuba.scheme1 import scheme1_rk
from repro.errors import CubaError
from repro.models.registry import runnable_benchmarks, smallest_per_row
from repro.pds.saturation import post_star, psa_for_configs
from repro.pds.state import PDSState
from repro.reach import registry
from repro.util.caches import clear_runtime_caches
from repro.util.meter import METER, measure

SCHEMA = "cuba-bench/1"

#: The ``src`` directory this module runs from; its parent is the
#: checkout root when the package runs from a source tree.
_SRC = Path(__file__).resolve().parents[2]
_ROOT = _SRC.parent if _SRC.name == "src" else None

#: METER counter prefixes worth persisting per workload.
_METER_PREFIXES = ("post_star.", "canonical.", "symbolic.", "explicit.", "wuba.")


def _meter_slice(delta: dict) -> dict:
    return {
        key: value
        for key, value in sorted(delta.items())
        if key.startswith(_METER_PREFIXES)
    }


def _clear_caches() -> None:
    """Reset every process-global cache so each repetition runs cold:
    the canonicalization memo and the Hopcroft pre-cache (PR 3;
    per-engine array tables and packed-delta caches die with the engine
    and need no reset).  Delegates to the shared
    :func:`~repro.util.caches.clear_runtime_caches` (PR 5) — the same
    cleanup the analysis server's shutdown and the store's size-pressure
    eviction hook run, so every long-lived owner of these caches clears
    them identically."""
    clear_runtime_caches()


def _calibrate() -> float:
    """Pure-Python spin used to normalize timings across machines.

    Best of three ~100ms runs: long enough to ride out scheduler jitter
    (a single short sample can swing tens of percent on a shared CI
    runner, which would directly scale the normalized totals the
    regression gate compares), best-of because noise only ever slows a
    spin down.
    """
    best = None
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_500_000):
            total += i * i % 7
        assert total >= 0
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


#: Workloads slower than this run once — repeating them buys noise
#: reduction nobody needs at that timescale.
_SINGLE_RUN_THRESHOLD = 3.0


def _measured(fn, repeats: int, memory: bool = False) -> dict:
    """Best-of-``repeats`` wall time; METER delta from run 1.

    Wall time is taken *untraced*: ``tracemalloc`` multiplies runtime
    several-fold and skews allocation-heavy code paths, so memory (via
    :func:`repro.util.meter.measure`) is an opt-in extra run.
    """
    _clear_caches()
    before = METER.snapshot()
    start = time.perf_counter()
    result = fn()
    best = time.perf_counter() - start
    record = {
        "seconds": best,
        "meter": _meter_slice(METER.delta(before)),
    }
    if best < 0.05:
        # Millisecond-scale workloads sit at the scheduler-jitter noise
        # floor; timeit-style batching (time k iterations per sample,
        # divide) averages the jitter away inside each sample.
        k = max(2, int(0.1 / max(best, 1e-5)))
        for _ in range(max(3, repeats)):
            start = time.perf_counter()
            for _i in range(k):
                _clear_caches()
                fn()
            record["seconds"] = min(
                record["seconds"], (time.perf_counter() - start) / k
            )
    elif best < _SINGLE_RUN_THRESHOLD:
        for _ in range(max(repeats, 5) - 1):
            _clear_caches()
            start = time.perf_counter()
            fn()
            record["seconds"] = min(record["seconds"], time.perf_counter() - start)
    if memory:
        _clear_caches()
        record["peak_mb"] = round(measure(fn).peak_mb, 3)
    record["seconds"] = round(record["seconds"], 5)
    return record | _describe_result(result)


def _phase_profile(fn) -> dict:
    """One extra trace-enabled repetition (cold, like every measured
    run) aggregated by span name into ``{name: {"count", "seconds"}}``.

    Runs *outside* the timed repetitions, so the recorded wall times
    stay untraced; the profile is attached as the workload entry's
    optional ``phases`` field, which :func:`compare_bench` never reads
    (it gates ``modes.optimized.seconds`` only)."""
    from repro.obs import trace

    _clear_caches()
    trace.clear()
    trace.enable()
    try:
        fn()
    finally:
        trace.disable()
    profile: dict[str, dict] = {}
    for event in trace.take():
        slot = profile.setdefault(event["name"], {"count": 0, "seconds": 0.0})
        slot["count"] += 1
        slot["seconds"] += event["dur"]
    for slot in profile.values():
        slot["seconds"] = round(slot["seconds"], 5)
    return dict(sorted(profile.items()))


def _describe_result(result) -> dict:
    verdict = getattr(result, "verdict", None)
    if verdict is None:
        return {}
    return {"verdict": verdict.value, "bound": getattr(result, "bound", None)}


def _symbolic_run(cpds, prop, max_rounds: int):
    def run():
        return algorithm3(cpds, prop, engine="symbolic", max_rounds=max_rounds)

    return run


def _wuba_run(cpds, prop, max_rounds: int):
    """The WUBA lane through the convergence driver
    (:func:`repro.cuba.lanes.run_lane`)."""
    from repro.cuba.lanes import run_lane

    def run():
        return run_lane("wuba", cpds, prop, max_rounds=max_rounds)

    return run


def _explicit_run(cpds, prop, max_rounds: int):
    def run():
        return scheme1_rk(cpds, prop, max_rounds=max_rounds)

    return run


def _canonical_micro_inputs(benches) -> list[tuple]:
    """Saturated thread PSAs + alphabets: the automata the symbolic
    engine canonicalizes, precomputed so the measured region is pure
    canonicalization."""
    inputs = []
    for cpds in benches:
        initial = cpds.initial_state()
        for index, pds in enumerate(cpds.threads):
            psa = post_star(
                pds,
                psa_for_configs(
                    pds, [PDSState(initial.shared, initial.stacks[index])]
                ),
            )
            entries = sorted(pds.shared_states, key=_sort_key)
            inputs.append((psa.automaton, cpds.symbol_table(index), entries))
    return inputs


def _canonical_micro(inputs, repetitions: int):
    """Canonicalize saturated thread PSAs — the symbolic engine's inner
    loop in isolation, on realistic automata."""

    def run():
        from repro.automata.canonical import canonical_nfa

        signatures = 0
        for _ in range(repetitions):
            _clear_caches()
            for automaton, table, entries in inputs:
                for shared in entries:
                    _dfa, _sig = canonical_nfa(automaton, table, initial=[shared])
                    signatures += 1
        return signatures

    return run


def run_suite(
    *,
    quick: bool = False,
    rows: set[str] | None = None,
    engines: tuple[str, ...] = ("symbolic", "explicit", "wuba"),
    max_rounds: int | None = None,
    repeats: int = 3,
    label: str | None = None,
    memory: bool = False,
    phases: bool = False,
) -> dict:
    """Run the registry workloads and return the BENCH payload dict."""
    if max_rounds is None:
        max_rounds = 6 if quick else 10
    benches = smallest_per_row() if quick else runnable_benchmarks()
    if rows:
        benches = tuple(b for b in benches if b.row.split("/")[0] in rows)

    workloads = []
    built = []
    try:
        for bench in benches:
            cpds, prop = bench.build()
            built.append(cpds)
            runners = []
            if "symbolic" in engines:
                runners.append(("symbolic", _symbolic_run(cpds, prop, max_rounds)))
            if "explicit" in engines and bench.fcr:
                runners.append(("explicit", _explicit_run(cpds, prop, max_rounds)))
            if "wuba" in engines and registry.engine_class("wuba").applicable(
                cpds, prop
            ):
                # The write-unbounded family (PR 9) — only on models
                # satisfying its WCR precondition, mirroring the
                # explicit lane's FCR gate.
                runners.append(("wuba", _wuba_run(cpds, prop, max_rounds)))
            for lane, runner in runners:
                entry = {
                    "name": bench.name,
                    "lane": lane,
                    "modes": {"optimized": _measured(runner, repeats, memory=memory)},
                }
                if phases:
                    entry["phases"] = _phase_profile(runner)
                workloads.append(entry)

        if "symbolic" in engines:
            runner = _canonical_micro(_canonical_micro_inputs(built), 2 if quick else 5)
            workloads.append(
                {
                    "name": "canonicalization microbench",
                    "lane": "canonical-micro",
                    "modes": {"optimized": _measured(runner, repeats, memory=memory)},
                }
            )
    finally:
        # Leave the process-global caches as cold as the runs found
        # them for library callers.
        _clear_caches()

    payload = {
        "schema": SCHEMA,
        "stamp": time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
        "label": label,
        "git": _git_rev(),
        "source_sha256": source_sha256(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "quick": quick,
        "max_rounds": max_rounds,
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "calibration_seconds": round(_calibrate(), 5),
        "workloads": workloads,
        "totals": {
            "optimized_seconds": round(
                sum(w["modes"]["optimized"]["seconds"] for w in workloads), 5
            )
        },
    }
    return payload


def _git_rev() -> str | None:
    """The checkout's short HEAD, asked at the checkout root (not the
    caller's cwd); ``None`` outside a git checkout.  It names the last
    commit only: :func:`source_sha256` names the tree measured."""
    if _ROOT is None:
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:  # pragma: no cover - git missing
        return None
    return out.stdout.strip() or None


def source_sha256() -> str | None:
    """A digest of the sources measured, uncommitted edits included:
    sha256 over each ``src/**/*.py`` file's root-relative path and
    bytes in sorted path order, first 16 hex digits — the scheme of
    ``perfbench/run.py``, so a BENCH or LOADTEST file and a perfbench
    report of one tree carry the same value.  ``None`` when the package
    does not run from a source tree.  Schema-additive: the compare
    gates ignore it."""
    if _ROOT is None:
        return None
    digest = hashlib.sha256()
    for path in sorted(_SRC.rglob("*.py")):
        digest.update(path.relative_to(_ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# Public names for the other payload writers (the loadtest harness
# stamps ``cuba-loadtest/1`` files with the same machine calibration,
# git revision and source digest so its compare gate normalizes
# identically and its files name the tree they measured).
calibrate = _calibrate
git_rev = _git_rev


def merge_modes(payload: dict, other: dict, mode_label: str) -> int:
    """Merge ``other``'s ``optimized`` measurements into ``payload`` as an
    extra mode named ``mode_label`` (matched by workload name+lane).

    Used to graft measurements taken on a different source tree — e.g.
    the pre-PR seed — into one BENCH file as the "before" column.  The
    grafted times are kept raw: measure the two trees back-to-back on an
    idle machine (the spin-based calibration is too CPU-frequency-bound
    to rescale dict-heavy workloads reliably; it is only used for the
    coarse cross-machine CI gate in :func:`compare_bench`).  Returns the
    number of workloads merged.
    """
    theirs = {
        (w["name"], w["lane"]): w["modes"].get("optimized")
        for w in other.get("workloads", ())
    }
    merged = 0
    for entry in payload["workloads"]:
        record = theirs.get((entry["name"], entry["lane"]))
        if record is None:
            continue
        entry["modes"][mode_label] = record
        if record["seconds"] and entry["modes"].get("optimized"):
            entry[f"speedup_vs_{mode_label}"] = round(
                record["seconds"] / entry["modes"]["optimized"]["seconds"], 2
            )
        merged += 1
    if merged:
        total_before = sum(
            entry["modes"][mode_label]["seconds"]
            for entry in payload["workloads"]
            if mode_label in entry["modes"]
        )
        payload["totals"][f"{mode_label}_seconds"] = round(total_before, 5)
        if payload["totals"].get("optimized_seconds"):
            payload["totals"][f"speedup_vs_{mode_label}"] = round(
                total_before / payload["totals"]["optimized_seconds"], 2
            )
        # Per-model aggregate (all lanes of one registry row summed):
        # individual millisecond lanes jitter a few percent either way,
        # the per-model sums are the meaningful no-slowdown check.
        by_model: dict[str, dict[str, float]] = {}
        for entry in payload["workloads"]:
            if mode_label not in entry["modes"]:
                continue
            slot = by_model.setdefault(entry["name"], {"optimized": 0.0, mode_label: 0.0})
            slot["optimized"] += entry["modes"]["optimized"]["seconds"]
            slot[mode_label] += entry["modes"][mode_label]["seconds"]
        payload["totals"][f"by_model_vs_{mode_label}"] = {
            name: round(slot[mode_label] / slot["optimized"], 2)
            for name, slot in by_model.items()
            if slot["optimized"]
        }
        payload.setdefault("merged_baselines", {})[mode_label] = {
            "git": other.get("git"),
            "stamp": other.get("stamp"),
            "label": other.get("label"),
        }
    return merged


def write_bench_json(payload: dict, out_dir: str | Path = ".") -> Path:
    """Write ``BENCH_<stamp>.json`` into ``out_dir`` and return the path."""
    path = Path(out_dir) / f"BENCH_{payload['stamp']}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def comparable_configs(current: dict, baseline: dict) -> bool:
    """True iff two payloads were produced under the same measurement
    configuration and their totals are meaningfully comparable.

    ``jobs``, ``shards`` and ``backend`` are retired constants: the
    runner no longer writes them, and an absent field reads as the one
    value the current tree runs (1, 0 and ``"python"``).  A committed
    payload recorded with ``jobs > 1`` or ``shards > 0`` measured the
    removed multiprocess advance, and one recorded with ``backend:
    numpy`` the removed vectorized replay: timing a different loop, it
    is never comparable with a current run."""
    return (
        current.get("quick") == baseline.get("quick")
        and current.get("max_rounds") == baseline.get("max_rounds")
        and current.get("jobs", 1) == baseline.get("jobs", 1)
        and current.get("shards", 0) == baseline.get("shards", 0)
        and current.get("backend", "python") == baseline.get("backend", "python")
    )


def latest_comparable_baseline(current: dict, root: str | Path = ".") -> Path | None:
    """The newest committed ``BENCH_*.json`` whose configuration matches
    ``current`` (the CI gate's baseline selector: a committed full-run
    file must not silently become the quick lane's baseline)."""
    for path in sorted(Path(root).glob("BENCH_*.json"), reverse=True):
        try:
            candidate = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):  # pragma: no cover - corrupt file
            continue
        if comparable_configs(current, candidate):
            return path
    return None


def _lane_token(lane: str) -> str:
    """A lane name normalized for cross-file matching: registry aliases
    collapse to the canonical name (a pre-PR 9 file spelling a lane
    differently still matches), non-lane keys (``canonical-micro``)
    pass through unchanged."""
    try:
        return registry.canonical_lane(lane)
    except CubaError:
        return lane


def _optimized_seconds_by_workload(payload: dict) -> dict[tuple, float]:
    return {
        (w["name"], _lane_token(w["lane"])): w["modes"]["optimized"]["seconds"]
        for w in payload.get("workloads", ())
        if "optimized" in w.get("modes", {})
    }


#: Per-lane totals below this raw time — on *either* side — are not
#: gated individually: millisecond lanes sit at the scheduler-jitter
#: noise floor and would make the gate flaky.  Checking both sides
#: keeps the floor meaningful across machine speeds (a slow-machine
#: baseline must not force a fast machine to gate a now-tiny lane, and
#: vice versa); such lanes still count toward the overall total, which
#: is gated unconditionally.
_LANE_GATE_FLOOR_SECONDS = 0.05


def _lane_of(key: tuple) -> str:
    return key[1]


def compare_bench(
    current: dict, baseline: dict, tolerance: float = 0.25
) -> tuple[bool, list[str]]:
    """Regression gate: compare optimized totals against a baseline file.

    Only workloads present in *both* files (matched by name + lane) are
    summed, so a baseline produced with a different workload set (full
    vs ``--quick``, extra rows) cannot silently skew — or neutralize —
    the gate.  Times are normalized by each payload's
    ``calibration_seconds`` when both sides carry one, so a slower CI
    machine does not read as a regression.  Returns ``(ok, messages)``;
    ``ok`` is False when the normalized optimized total over the shared
    workloads regressed more than ``tolerance`` (fraction), **or** when
    any individual lane (``symbolic`` / ``explicit`` /
    ``canonical-micro``) with a baseline total above the noise floor
    regressed beyond the same tolerance — a symbolic speedup must not
    be allowed to mask an explicit-lane regression in the summed total.
    """
    messages: list[str] = []
    if not comparable_configs(current, baseline):
        # Summing times measured under different configurations (quick
        # vs full sweep, different round budgets) produces a ratio that
        # can hide multi-x regressions; refuse rather than neutralize
        # the gate.  CI selects its baseline via
        # :func:`latest_comparable_baseline`, so this only fires on an
        # explicitly mis-chosen --compare file.
        messages.append(
            "BASELINE NOT COMPARABLE: "
            f"current quick={current.get('quick')} max_rounds={current.get('max_rounds')} "
            f"jobs={current.get('jobs', 1)} backend={current.get('backend', 'python')} "
            f"vs baseline quick={baseline.get('quick')} max_rounds={baseline.get('max_rounds')} "
            f"jobs={baseline.get('jobs', 1)} backend={baseline.get('backend', 'python')}; "
            "pick a baseline produced with the same configuration"
        )
        return False, messages
    cur_by_workload = _optimized_seconds_by_workload(current)
    base_by_workload = _optimized_seconds_by_workload(baseline)
    shared = sorted(cur_by_workload.keys() & base_by_workload.keys())
    skipped = (cur_by_workload.keys() | base_by_workload.keys()) - set(shared)
    if skipped:
        messages.append(
            f"{len(skipped)} workload(s) present on only one side, excluded: "
            + ", ".join(f"{name} ({lane})" for name, lane in sorted(skipped))
        )
    # A whole lane on only one side must be *reported*, never silently
    # ungated: a newly landed lane has no baseline yet (it enters the
    # gate once a file containing it is committed), and a lane that
    # vanished from the current run is worth a human look.
    cur_lanes = {_lane_of(key) for key in cur_by_workload}
    base_lanes = {_lane_of(key) for key in base_by_workload}
    for lane in sorted(cur_lanes - base_lanes):
        messages.append(
            f"lane {lane}: absent from the baseline, not gated this run "
            "(gated once a baseline containing it is committed)"
        )
    for lane in sorted(base_lanes - cur_lanes):
        messages.append(
            f"lane {lane}: present in the baseline but missing from the "
            "current run, not gated"
        )
    cur_total = sum(cur_by_workload[key] for key in shared)
    base_total = sum(base_by_workload[key] for key in shared)
    messages.append(f"comparing {len(shared)} shared workload(s)")
    if not cur_total or not base_total:
        return True, messages + [
            "no overlapping measured work; nothing to compare"
        ]
    cur_cal = current.get("calibration_seconds")
    base_cal = baseline.get("calibration_seconds")
    if cur_cal and base_cal:
        cur_norm = cur_total / cur_cal
        base_norm = base_total / base_cal
        messages.append(
            f"normalized totals: current {cur_norm:.1f} vs baseline "
            f"{base_norm:.1f} (calibration {cur_cal:.4f}s / {base_cal:.4f}s)"
        )
    else:  # pragma: no cover - legacy baseline without calibration
        cur_norm, base_norm = cur_total, base_total
        messages.append(
            f"raw totals: current {cur_total:.3f}s vs baseline {base_total:.3f}s"
        )
    ratio = cur_norm / base_norm
    messages.append(f"ratio {ratio:.2f} (tolerance {1 + tolerance:.2f})")
    ok = ratio <= 1 + tolerance
    if not ok:
        messages.append(
            "PERF REGRESSION: optimized wall time regressed "
            f"{(ratio - 1) * 100:.0f}% against {baseline.get('stamp')}"
        )

    # Per-lane gate: same tolerance, applied lane by lane so one lane's
    # win cannot hide another's loss inside the total.
    scale = (base_cal / cur_cal) if (cur_cal and base_cal) else 1.0
    lanes = sorted({_lane_of(key) for key in shared})
    for lane in lanes:
        keys = [key for key in shared if _lane_of(key) == lane]
        lane_base = sum(base_by_workload[key] for key in keys)
        lane_cur = sum(cur_by_workload[key] for key in keys)
        if min(lane_base, lane_cur) < _LANE_GATE_FLOOR_SECONDS:
            messages.append(
                f"lane {lane}: {min(lane_base, lane_cur):.3f}s below the "
                f"{_LANE_GATE_FLOOR_SECONDS:.2f}s gate floor, not gated"
            )
            continue
        lane_ratio = (lane_cur * scale) / lane_base
        messages.append(
            f"lane {lane}: {len(keys)} workload(s), normalized ratio "
            f"{lane_ratio:.2f}"
        )
        if lane_ratio > 1 + tolerance:
            ok = False
            messages.append(
                f"PERF REGRESSION in lane {lane}: "
                f"{(lane_ratio - 1) * 100:.0f}% against {baseline.get('stamp')}"
            )
    return ok, messages


def main(argv: list[str] | None = None) -> int:
    """CLI used by ``benchmarks/runner.py`` and ``repro.cli bench --json``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bench-runner", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--quick", action="store_true", help="smallest config per row")
    parser.add_argument("--rows", help="comma-separated row numbers, e.g. 1,5,9")
    parser.add_argument(
        "--engines",
        default="symbolic,explicit,wuba",
        help="comma list of lanes: symbolic,explicit,wuba (wuba rows "
        "only appear on models satisfying its WCR precondition)",
    )
    parser.add_argument("--max-rounds", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--memory",
        action="store_true",
        help="also record tracemalloc peak memory (extra traced run each)",
    )
    parser.add_argument(
        "--phases",
        action="store_true",
        help="also record per-phase span timings (one extra trace-enabled "
        "run of each workload; the compare gate ignores the resulting "
        "'phases' field)",
    )
    parser.add_argument("--label", help="free-form label recorded in the payload")
    parser.add_argument("--out", default=".", help="directory for BENCH_<stamp>.json")
    parser.add_argument(
        "--merge-before",
        metavar="FILE",
        help="BENCH file measured on the pre-PR tree; grafted in as mode 'before'",
    )
    parser.add_argument(
        "--compare",
        metavar="FILE",
        help="baseline BENCH file; exit 1 on regression beyond --tolerance",
    )
    parser.add_argument(
        "--compare-latest",
        metavar="DIR",
        help="compare against the newest BENCH_*.json in DIR with a matching "
        "configuration (the CI gate); records only when none exists",
    )
    parser.add_argument("--tolerance", type=float, default=0.25)
    parser.add_argument(
        "--no-write", action="store_true", help="run and compare without writing"
    )
    args = parser.parse_args(argv)

    payload = run_suite(
        quick=args.quick,
        rows=set(args.rows.split(",")) if args.rows else None,
        engines=tuple(args.engines.split(",")),
        max_rounds=args.max_rounds,
        repeats=args.repeats,
        label=args.label,
        memory=args.memory,
        phases=args.phases,
    )
    if args.merge_before:
        other = json.loads(Path(args.merge_before).read_text())
        merged = merge_modes(payload, other, "before")
        print(f"merged {merged} 'before' measurements from {args.merge_before}")

    for entry in payload["workloads"]:
        cells = [f"{entry['name']:32s} {entry['lane']:14s}"]
        for mode, record in entry["modes"].items():
            cells.append(f"{mode}={record['seconds']:.3f}s")
        if "speedup_vs_before" in entry:
            cells.append(f"(x{entry['speedup_vs_before']} vs before)")
        print("  ".join(cells))
    print(f"totals: {payload['totals']}")

    status = 0
    baseline_path = Path(args.compare) if args.compare else None
    if baseline_path is None and args.compare_latest:
        baseline_path = latest_comparable_baseline(payload, args.compare_latest)
        if baseline_path is None:
            print("no comparable committed baseline found; recording only")
        else:
            print(f"comparing against {baseline_path}")
    if baseline_path is not None:
        baseline = json.loads(baseline_path.read_text())
        ok, messages = compare_bench(payload, baseline, args.tolerance)
        for message in messages:
            print(message)
        status = 0 if ok else 1
    if not args.no_write:
        path = write_bench_json(payload, args.out)
        print(f"wrote {path}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
