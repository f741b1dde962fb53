#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

From the repository root::

    python3 perfbench/run.py --workload table2-auto --seed 1 --seconds 30 --trace 0

Workloads: ``table2-auto``, ``lane-sweep``, ``service-mix`` (see
``perfbench/problems.py``).  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` is a separate run giving the per-layer
metrics and writing a Chrome trace under ``perfbench-out/``.  The
second-to-last stdout line is a report (verdicts, request classes, run
attributes); the last is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Exits 2 without a
result when the sources under ``src/`` are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _source_rev() -> dict:
    """The git revision when there is one, and a digest of the sources
    either way (a checkout need not be a git repository)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        rev = out.stdout.strip() or None
    except OSError:
        rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git": rev, "source_sha256": digest.hexdigest()[:16]}


def attributes() -> dict:
    """What the run found rather than set."""
    from repro.reach.vectorized import resolve_backend

    return {
        "replay_backend": resolve_backend("auto"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **_source_rev(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, help="a name in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import engine, layers, problems, service

    if args.workload not in problems.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick one of {', '.join(problems.WORKLOADS)}")

    out = ROOT / "perfbench-out"
    out.mkdir(exist_ok=True)
    trace_path = out / f"trace-{args.workload}-{args.seed}.json" if args.trace else None
    if args.workload == "service-mix":
        if args.trace:
            outcome = service.traced(ROOT, args.seed, args.seconds, trace_path)
        else:
            outcome = service.untraced(ROOT, args.seed, args.seconds)
    elif args.trace:
        outcome = engine.traced(args.workload, args.seed, args.seconds, trace_path)
    else:
        outcome = engine.untraced(args.workload, args.seed, args.seconds)

    specs = layers.PER_LAYER if args.trace else layers.END_TO_END
    metrics = {
        spec.name: {"value": outcome["metrics"][spec.name], "unit": spec.unit}
        for spec in specs
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attributes": attributes(),
        "failed_share": outcome["failed"] / max(1, outcome["attempted"]),
        **outcome["report"],
    }
    if trace_path is not None:
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps({"report": report}, default=str))
    result = {
        "correct": outcome["failed"] == 0 and outcome.get("ok", True),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
