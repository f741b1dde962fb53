#!/usr/bin/env python3
"""CI ``service-smoke`` check of the service's prepare memo, and of
snapshot resumes on worker-compiled programs, against a real ``cuba
serve`` subprocess.

Usage (from the repo root)::

    python benchmarks/prepare_memo_smoke.py

The script

1. spawns ``cuba serve`` (``PYTHONHASHSEED=0``) on an ephemeral port,
2. submits each of the 9 service-mix programs (every Table 2 row's
   smallest configuration, as ``perfbench`` sends them) twice with a
   shallow budget: a fresh run, then a store hit,
3. checks that both submits of a program got the same job id, that the
   repeat was a store hit, and that ``/meter`` counts one
   ``service.prepare_memo_hits`` per repeat,
4. checks every id against ``fingerprint()`` computed cold by this
   script in a separate process under ``PYTHONHASHSEED=1`` (``--cold``
   prints those as JSON), and
5. resubmits each program with its row's full budget: a program whose
   shallow run was resumable must come back ``resumed``, any other as
   a store hit, each under the same id and with the verdict, bound,
   witness and witness trace of a cold in-process ``Cuba`` run at that
   budget (a refutation's trace must survive the worker-side resume,
   under another hash seed); ``/meter`` must
   then count one ``service.resumes`` per resumable program and no
   ``service.snapshot_rejects``.  The daemon's workers compile the
   programs themselves, so this proves that their CPDSs restore the
   snapshots the store kept from earlier workers.

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


#: The first submit's budget: shallow, so most programs stay resumable.
SHALLOW_ROUNDS = 1


def _programs() -> dict[str, tuple[dict, int]]:
    """Row name → submit fields of the service-mix program and the
    row's full budget."""
    from perfbench.problems import service_problems

    return {
        problem.bench.row: (problem.program, problem.bench.max_rounds)
        for problem in service_problems()
    }


def _cold() -> dict[str, dict]:
    """Row name → the program's fingerprint, and the verdict, bound,
    witness and trace of a cold in-process ``Cuba`` run at the row's
    full budget, the last two as the service records them."""
    from repro.bp.translate import compile_source
    from repro.cpds.format import parse_cpds
    from repro.cuba.verifier import Cuba
    from repro.pds.semantics import DEFAULT_STATE_LIMIT
    from repro.service.executor import describe_result
    from repro.service.fingerprint import fingerprint
    from repro.service.server import parse_property_spec

    cold = {}
    for row, (program, budget) in _programs().items():
        if "bp_text" in program:
            compiled = compile_source(
                program["bp_text"], init=program.get("bp_init") or {}
            )
            cpds, prop = compiled.cpds, compiled.prop
        else:
            cpds, prop = parse_cpds(program["cpds_text"]), parse_property_spec(None)
        result = Cuba(cpds, prop).verify(max_rounds=budget).result
        record = describe_result(
            result, problem="", kind="", explored=0, resumable=False
        )
        cold[row] = {
            "fingerprint": fingerprint(
                cpds,
                prop,
                {"engine": ENGINE, "max_states_per_context": DEFAULT_STATE_LIMIT},
            ),
            "verdict": result.verdict.value,
            "bound": result.bound,
            "witness": record["witness"],
            "trace": record["trace"],
        }
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
        help="print the programs' cold fingerprints, verdicts and bounds "
        "as JSON and exit",
    )
    args = parser.parse_args(argv)
    if args.cold:
        print(json.dumps(_cold(), sort_keys=True))
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
            before = client.meter()
            programs = _programs()
            resumable = set()
            for row, (program, _budget) in programs.items():
                submit = dict(
                    bp_text=program.get("bp_text"),
                    bp_init=program.get("bp_init"),
                    engine=ENGINE,
                    max_rounds=SHALLOW_ROUNDS,
                )
                first = client.submit(program.get("cpds_text"), **submit)
                second = client.submit(program.get("cpds_text"), **submit)
                expected = cold[row]["fingerprint"]
                failures += not _check(
                    first["fingerprint"] == second["fingerprint"] == expected
                    and second.get("cached") is True,
                    f"{row}: both job ids are the cold fingerprint "
                    f"{expected[:12]}, the repeat is a store hit",
                )
                if not first["final"]:
                    resumable.add(row)
            hits = client.meter().get("service.prepare_memo_hits", 0) - before.get(
                "service.prepare_memo_hits", 0
            )
            failures += not _check(
                hits == len(programs),
                f"/meter service.prepare_memo_hits {hits} == "
                f"{len(programs)} repeats",
            )
            for row, (program, budget) in programs.items():
                deeper = client.submit(
                    program.get("cpds_text"),
                    bp_text=program.get("bp_text"),
                    bp_init=program.get("bp_init"),
                    engine=ENGINE,
                    max_rounds=budget,
                )
                expected = cold[row]
                how = "resumed" if row in resumable else "cached"
                failures += not _check(
                    deeper.get(how) is True
                    and deeper["fingerprint"] == expected["fingerprint"]
                    and (deeper["verdict"], deeper["bound"])
                    == (expected["verdict"], expected["bound"]),
                    f"{row}: the k={budget} resubmit is {how}, same id, "
                    f"{deeper['verdict']}/{deeper['bound']} == cold "
                    f"{expected['verdict']}/{expected['bound']}",
                )
                failures += not _check(
                    (deeper.get("witness"), deeper.get("trace"))
                    == (expected["witness"], expected["trace"]),
                    f"{row}: witness {deeper.get('witness')} and its trace "
                    f"== cold {expected['witness']}",
                )
            after = client.meter()
            resumes = after.get("service.resumes", 0) - before.get(
                "service.resumes", 0
            )
            rejects = after.get("service.snapshot_rejects", 0) - before.get(
                "service.snapshot_rejects", 0
            )
            failures += not _check(
                resumes == len(resumable) and rejects == 0,
                f"/meter service.resumes {resumes} == {len(resumable)} "
                f"resumable programs, service.snapshot_rejects {rejects} == 0",
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
