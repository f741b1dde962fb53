"""The runnable examples under ``examples/`` still run end to end.

Each script runs as its own process, the way a reader would run it
(``PYTHONPATH=src python examples/<name>.py`` from the repository root).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_example(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


#: example -> lines its output must contain.
EXAMPLES = {
    # Ex. 14: Alg. 3 rejects Fig. 1's first plateau for the unseen
    # generator; quickstart reads it from Alg. 3's stats.
    "quickstart.py": ["plateau at k=2 rejected: generator(s) ⟨0|1,6⟩ still unseen"],
    "boolean_programs.py": [],
    "unbounded_recursion.py": [],
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_runs(name):
    completed = run_example(name)
    assert completed.returncode == 0, completed.stderr
    for line in EXAMPLES[name]:
        assert line in completed.stdout
