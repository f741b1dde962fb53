#!/usr/bin/env python3
"""Smoke test of the benchmark at its smallest size.

From the repository root::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` matches the metric definitions in
``perfbench/layers.py``; runs every workload for one second (one pass
or one daemon lifetime), untraced and traced, and checks the result
line: exactly the contract keys, every named metric with its unit,
``failed == 0``, and on traced runs that every expected wrapper fired.
It also checks that the benchmark refuses to run, without printing a
result, where only ``BENCHMARK.json`` and ``perfbench/`` exist.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, problems  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_definitions(spec: dict) -> None:
    check(list(spec) == ["command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"], "BENCHMARK.json keys")
    check({w["name"]: w["why"] for w in spec["workloads"]} == problems.WORKLOADS,
          "workloads differ from perfbench/problems.py")
    for mode, metrics in (("end_to_end", layers.END_TO_END),
                          ("per_layer", layers.PER_LAYER)):
        expected = [
            {"name": m.name, "unit": m.unit, "better": m.better,
             **({"bound": m.bound} if m.bound is not None else {})}
            for m in metrics
        ]
        check(spec[mode] == expected, f"{mode} differs from perfbench/layers.py")
    from repro.reach import registry

    for bench in problems.smallest_per_row():
        cpds, prop = bench.build()
        applicable = set(registry.applicable_lanes(cpds, prop))
        for lane in ("symbolic", "wuba"):
            listed = (lane, bench.row) not in problems.INAPPLICABLE
            check(listed == (lane in applicable),
                  f"{lane} on {bench.row}: INAPPLICABLE disagrees with the registry")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = run(workload, trace)
    check(done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}: "
          f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    check(list(result) == ["correct", "attempted", "failed", "metrics"], "result keys")
    names = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    check(got == names, f"{workload} trace={trace}: metrics/units {got} != {names}")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{workload} trace={trace}: failed {result['failed']}: {report.get('errors')}")
    check(report["failed_share"] == 0, f"{workload}: failed_share")
    check(not report.get("wrappers_missing"),
          f"{workload}: wrappers did not fire: {report.get('wrappers_missing')}")
    check(result["correct"] is True, f"{workload} trace={trace}: correct is false")
    if not trace:
        check(all(value["value"] > 0 for value in result["metrics"].values()),
              f"{workload}: an end-to-end metric reads 0")
    print(f"ok  {workload:12s} trace={trace}  attempted={result['attempted']}")


def check_refuses_without_sources() -> None:
    bare = ROOT / "perfbench-out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run("lane-sweep", 0, cwd=bare)
        check(done.returncode != 0, "ran without sources")
        check(done.stdout.strip() == "", "printed output without sources")
        print("ok  refuses to run without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_definitions(spec)
    print("ok  BENCHMARK.json matches perfbench/layers.py")
    check_refuses_without_sources()
    for workload in problems.WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
