"""The in-process workloads: ``table2-auto`` and ``lane-sweep``.

One run builds every model (``setup_s`` is the median of
:data:`SETUP_REPEATS` builds), then makes whole passes over the
problems in a seeded order, each problem cold (``clear_runtime_caches()``
and a garbage collection first, outside the timed call), until the
next pass would end past ``--seconds`` (at least :data:`MIN_PASSES`).
A problem's time to verdict is the best over passes: on a shared host
interference only ever slows a pass down (five seeds on a 2-core VM:
``wall_s`` spread 1% as a best against 5% as a median).  Every
conclusive verdict is checked against the registry's ``safe`` column.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time

from perfbench import layers, problems
from perfbench.problems import Problem

#: Model builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Fewest passes of an untraced run, so every time to verdict is a
#: best of at least three.
MIN_PASSES = 3


def _build(chosen: list[Problem]) -> dict[str, tuple]:
    """Build (compile) the model of every distinct row once."""
    models: dict[str, tuple] = {}
    for problem in chosen:
        if problem.bench.name not in models:
            models[problem.bench.name] = problem.bench.build()
    return models


def setup(chosen: list[Problem]) -> tuple[dict[str, tuple], list[float]]:
    from repro.util.caches import clear_runtime_caches

    samples = []
    for _ in range(SETUP_REPEATS):
        clear_runtime_caches()
        start = time.perf_counter()
        models = _build(chosen)
        samples.append(time.perf_counter() - start)
    return models, samples


def solve(problem: Problem, cpds, prop):
    """One verification through the public API; returns the result."""
    if problem.lane is None:
        from repro.cuba.verifier import Cuba

        return Cuba(cpds, prop).verify(max_rounds=problem.bench.max_rounds).result
    from repro.cuba.lanes import run_lane

    return run_lane(problem.lane, cpds, prop, max_rounds=problem.bench.max_rounds)


class Tally:
    """Per-problem times and the verdict oracle's count."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}
        self.verdicts: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, problem: Problem, seconds: float, verdict: str | None,
               error: str | None = None) -> None:
        self.attempted += 1
        wrong = verdict in ("safe", "unsafe") and (verdict == "safe") != problem.bench.safe
        if error is not None or wrong:
            self.failed += 1
            self.errors.append(f"{problem.key}: {error or f'verdict {verdict}'}")
            return
        self.times.setdefault(problem.key, []).append(seconds)
        self.verdicts[problem.key] = verdict

    def best(self) -> dict[str, float]:
        return {key: min(values) for key, values in self.times.items()}

    def wall(self) -> float:
        return sum(self.best().values())


def run_passes(chosen, models, rng, seconds, tally: Tally, recorder=None,
               min_passes: int = 1) -> int:
    """Whole passes until the next one would end past ``seconds``."""
    from repro.util.caches import clear_runtime_caches

    started = time.perf_counter()
    pass_times: list[float] = []
    while True:
        pass_start = time.perf_counter()
        for problem in rng.sample(chosen, len(chosen)):
            cpds, prop = models[problem.bench.name]
            clear_runtime_caches()
            gc.collect()
            verdict = error = None
            start = time.perf_counter()
            try:
                if recorder is None:
                    result = solve(problem, cpds, prop)
                else:
                    with recorder.root("problem", problem=problem.key):
                        result = solve(problem, cpds, prop)
                verdict = result.verdict.value
            except Exception as failure:  # counted, reported, run goes on
                error = f"{type(failure).__name__}: {failure}"
            tally.record(problem, time.perf_counter() - start, verdict, error)
        pass_times.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - started
        if len(pass_times) >= min_passes and elapsed + statistics.median(pass_times) > seconds:
            return len(pass_times)


def chosen_problems(workload: str) -> list[Problem]:
    if workload == "table2-auto":
        return problems.table2_problems()
    return problems.lane_sweep_problems()


def untraced(workload: str, seed: int, seconds: float) -> dict:
    chosen = chosen_problems(workload)
    models, setup_samples = setup(chosen)
    tally = Tally()
    passes = run_passes(chosen, models, random.Random(seed), seconds, tally,
                        min_passes=MIN_PASSES)
    best = sorted(tally.best().values())
    decided = sum(v in ("safe", "unsafe") for v in tally.verdicts.values())
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(best),
        "p50_ms": 1000 * statistics.median(best),
        "p95_ms": 1000 * statistics.quantiles(best, n=20, method="inclusive")[-1],
        "decided_share": decided / len(chosen),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "passes": passes,
        "problems": len(chosen),
        "verdicts": tally.verdicts,
        "seconds_by_problem": {k: round(v, 5) for k, v in sorted(tally.best().items())},
        "setup_samples": setup_samples,
        "errors": tally.errors,
    }
    return {"metrics": metrics, "attempted": tally.attempted, "failed": tally.failed,
            "report": report}


#: Layers each engine workload must load; a wrapper that never fired
#: here means a rebinding missed its caller.
EXPECTED = {
    "table2-auto": ("fcr", "explicit.advance", "explicit.visible", "generators",
                    "symbolic.advance", "post_star", "canonical", "bp.compile"),
    "lane-sweep": ("wcr", "symbolic.advance", "post_star", "canonical",
                   "wuba.advance", "generators", "bp.compile"),
}

_METER_KEYS = (
    "explicit.expansions", "explicit.level_unique_views", "explicit.context_cache_hits",
    "symbolic.expansions", "symbolic.level_unique_views",
    "post_star.rule_applications", "post_star.edges_added",
    "wuba.expansions", "wuba.closure_cache_hits",
)


def traced(workload: str, seed: int, seconds: float, trace_path) -> dict:
    """Half the time untraced, half traced; per-layer figures are per
    traced pass."""
    from repro.obs import trace
    from repro.util.meter import METER

    chosen = chosen_problems(workload)
    models, _samples = setup(chosen)
    rng = random.Random(seed)
    plain = Tally()
    run_passes(chosen, models, rng, seconds / 2, plain)

    recorder = layers.Recorder()
    tally = Tally()
    trace.clear()
    trace.enable()
    try:
        with layers.instrument(recorder):
            _build(chosen)
            compile_seconds = recorder.seconds.get("bp.compile", 0.0)
            compile_calls = recorder.calls.get("bp.compile", 0)
            before = METER.snapshot()
            passes = run_passes(chosen, models, rng, seconds / 2, tally, recorder)
            meter = METER.delta(before)
    finally:
        trace.disable()
    program_spans = trace.take()

    per_pass = {name: value / passes for name, value in recorder.seconds.items()}
    calls = {name: count / passes for name, count in recorder.calls.items()}
    calls["bp.compile"] = compile_calls
    hits = meter.get("canonical.cache_hits", 0)
    misses = meter.get("canonical.cache_misses", 0)
    metrics = layers.zero_layers()
    metrics.update({
        "fcr.seconds": per_pass.get("fcr", 0.0),
        "fcr.calls": calls.get("fcr", 0),
        "wcr.seconds": per_pass.get("wcr", 0.0),
        "wcr.calls": calls.get("wcr", 0),
        "explicit.advance_s": per_pass.get("explicit.advance", 0.0),
        "explicit.visible_s": per_pass.get("explicit.visible", 0.0),
        "explicit.levels": calls.get("explicit.advance", 0),
        "generators.seconds": per_pass.get("generators", 0.0),
        "symbolic.advance_s": per_pass.get("symbolic.advance", 0.0),
        "symbolic.levels": calls.get("symbolic.advance", 0),
        "post_star.seconds": per_pass.get("post_star", 0.0),
        "canonical.seconds": per_pass.get("canonical", 0.0),
        "canonical.calls": calls.get("canonical", 0),
        "canonical.memo_hit_ratio": layers.ratio(hits, hits + misses),
        "wuba.advance_s": per_pass.get("wuba.advance", 0.0),
        "bp.compile_s": compile_seconds,
        "unattributed_share": 1 - layers.ratio(recorder.top_seconds, recorder.root_seconds),
        "trace_overhead_share": layers.ratio(tally.wall(), plain.wall()) - 1,
    })
    for key in _METER_KEYS:
        metrics[key] = meter.get(key, 0) / passes

    fired = {name: recorder.calls.get(name, 0) for name in EXPECTED[workload]}
    missing = [name for name, count in fired.items() if not count]
    expected_calls = {"table2-auto": ("fcr", len(chosen)),
                      "lane-sweep": ("wcr", sum(p.lane == "wuba" for p in chosen))}
    layer, count = expected_calls[workload]
    if calls.get(layer) != count:
        missing.append(f"{layer}.calls={calls.get(layer)} (expected {count})")

    if trace_path is not None:
        trace.write_chrome_trace(trace_path, recorder.spans + program_spans)
    spans_by_name: dict[str, list] = {}
    for event in program_spans:
        slot = spans_by_name.setdefault(event["name"], [0, 0.0])
        slot[0] += 1
        slot[1] += event["dur"]
    report = {
        "traced_passes": passes,
        "untraced_passes": len(next(iter(plain.times.values()), [])),
        "wrappers_fired": fired,
        "wrappers_missing": missing,
        "recorder_dropped": recorder.dropped,
        "program_spans": {name: {"count": c, "seconds": round(s, 5)}
                          for name, (c, s) in sorted(spans_by_name.items())},
        "errors": plain.errors + tally.errors,
    }
    return {"metrics": metrics, "attempted": plain.attempted + tally.attempted,
            "failed": plain.failed + tally.failed, "report": report,
            "ok": not missing}
