#!/usr/bin/env python3
"""CI ``service-smoke`` check of the service's prepare memo against a
real ``cuba serve`` subprocess.

Usage (from the repo root)::

    python benchmarks/prepare_memo_smoke.py

The script

1. spawns ``cuba serve`` (``PYTHONHASHSEED=0``) on an ephemeral port,
2. submits each of the 9 service-mix programs (every Table 2 row's
   smallest configuration, as ``perfbench`` sends them) twice with a
   shallow budget: a fresh run, then a store hit,
3. checks that both submits of a program got the same job id, that the
   repeat was a store hit, and that ``/meter`` counts one
   ``service.prepare_memo_hits`` per repeat, and
4. checks every id against ``fingerprint()`` computed cold by this
   script in a separate process under ``PYTHONHASHSEED=1`` (``--cold``
   prints those as JSON).

Exit codes: 0 all checks pass, 1 a check failed, 2 environment problems
(server never became healthy).
"""

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.errors import ServiceError  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

#: The lane every submit names; the fingerprint depends on it.
ENGINE = "auto"


def _programs() -> dict[str, dict]:
    """Row name → submit fields of the service-mix programs."""
    from perfbench.problems import service_problems

    return {problem.bench.row: problem.program for problem in service_problems()}


def _cold_fingerprints() -> dict[str, str]:
    from repro.bp.translate import compile_source
    from repro.cpds.format import parse_cpds
    from repro.pds.semantics import DEFAULT_STATE_LIMIT
    from repro.service.fingerprint import fingerprint
    from repro.service.server import parse_property_spec

    cold = {}
    for row, program in _programs().items():
        if "bp_text" in program:
            compiled = compile_source(
                program["bp_text"], init=program.get("bp_init") or {}
            )
            cpds, prop = compiled.cpds, compiled.prop
        else:
            cpds, prop = parse_cpds(program["cpds_text"]), parse_property_spec(None)
        cold[row] = fingerprint(
            cpds,
            prop,
            {"engine": ENGINE, "max_states_per_context": DEFAULT_STATE_LIMIT},
        )
    return cold


def _check(condition: bool, label: str) -> bool:
    print(f"{'ok' if condition else 'FAIL'}: {label}")
    return condition


def _env(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")))
    )
    env["PYTHONHASHSEED"] = hash_seed
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cold",
        action="store_true",
        help="print the programs' cold fingerprints as JSON and exit",
    )
    args = parser.parse_args(argv)
    if args.cold:
        print(json.dumps(_cold_fingerprints(), sort_keys=True))
        return 0

    cold = json.loads(
        subprocess.run(
            [sys.executable, __file__, "--cold"],
            env=_env("1"),
            check=True,
            capture_output=True,
            text=True,
        ).stdout
    )
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    failures = 0
    with tempfile.TemporaryDirectory(prefix="memo-smoke-") as scratch:
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", str(port),
                "--store", str(Path(scratch) / "store.sqlite"),
            ],
            env=_env("0"),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            client = ServiceClient(port=port, timeout=120)
            for _ in range(200):
                try:
                    client.health()
                    break
                except ServiceError:
                    time.sleep(0.05)
            else:
                print("cuba serve never became healthy", file=sys.stderr)
                return 2
            hits_before = client.meter().get("service.prepare_memo_hits", 0)
            programs = _programs()
            for row, program in programs.items():
                submit = dict(
                    bp_text=program.get("bp_text"),
                    bp_init=program.get("bp_init"),
                    engine=ENGINE,
                    max_rounds=1,
                )
                first = client.submit(program.get("cpds_text"), **submit)
                second = client.submit(program.get("cpds_text"), **submit)
                failures += not _check(
                    first["fingerprint"] == second["fingerprint"] == cold[row]
                    and second.get("cached") is True,
                    f"{row}: both job ids are the cold fingerprint "
                    f"{cold[row][:12]}, the repeat is a store hit",
                )
            hits = client.meter().get("service.prepare_memo_hits", 0) - hits_before
            failures += not _check(
                hits == len(programs),
                f"/meter service.prepare_memo_hits {hits} == "
                f"{len(programs)} repeats",
            )
        finally:
            try:
                client.shutdown()
            except ServiceError:
                pass
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
    print("prepare memo smoke:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
