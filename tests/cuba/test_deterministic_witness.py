"""The reported witness does not depend on hash order.

A Boolean-program shared state holds ``None`` (its ``retbuf`` field), and
``hash(None)`` is address-based on CPython before 3.12, so a level's
frozenset order can change between runs even under one
``PYTHONHASHSEED``.  Witnesses are therefore picked by a fixed rule —
the greatest violator by :func:`repro.core.property.visible_token` on
the explicit lane, the least violator by value token elsewhere — and two
processes with different hash seeds must report the same witness and
trace.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROW = "1/Bluetooth-1 [1+2]"

SCRIPT = """
from repro.cuba import Cuba
from repro.cuba.lanes import run_lane
from repro.models import runnable_benchmarks

bench = next(b for b in runnable_benchmarks() if b.name == {row!r})
cpds, prop = bench.build()
if {lane!r} == "auto":
    result = Cuba(cpds, prop).verify(max_rounds=bench.max_rounds).result
else:
    result = run_lane({lane!r}, cpds, prop, max_rounds=bench.max_rounds)
print(result.verdict.value, result.bound)
print(result.witness)
print(result.trace)
"""


def _run(lane: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(row=ROW, lane=lane)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return done.stdout


@pytest.mark.parametrize("lane", ["auto", "symbolic"])
def test_witness_is_independent_of_hash_seed(lane):
    first, second = _run(lane, "0"), _run(lane, "1")
    assert first.startswith("unsafe ")
    assert first == second
    if lane == "auto":  # the explicit pair records a trace
        assert "--" in first.splitlines()[2]
