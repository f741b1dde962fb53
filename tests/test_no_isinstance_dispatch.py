"""Grep-enforced API boundary: the verifier, service, CLI and snapshot
frame must dispatch on the lane registry, never on concrete engine
classes.

An ``isinstance(engine, ExplicitReach)`` in any of these layers means a
new lane needs edits outside its own module — exactly what the registry
exists to prevent.  This test reads the source files, so a regression
fails loudly with the offending line.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# The snapshot frame serves every lane's codec, so it must stay
# lane-agnostic too.
DISPATCH_FILES = sorted(
    [
        SRC / "cuba" / "verifier.py",
        SRC / "cli.py",
        SRC / "reach" / "snapshot.py",
        *(SRC / "service").glob("*.py"),
    ]
)

FORBIDDEN = re.compile(r"isinstance\s*\([^)]*,\s*(ExplicitReach|SymbolicReach|WubaReach)")


@pytest.mark.parametrize("path", DISPATCH_FILES, ids=lambda p: p.name)
def test_no_concrete_engine_isinstance(path):
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if FORBIDDEN.search(line)
    ]
    assert not offenders, (
        "engine dispatch must go through repro.reach.registry, found:\n"
        + "\n".join(offenders)
    )


def test_dispatch_files_exist():
    # Guard the guard: if these files move, the parametrization above
    # silently shrinks — fail instead.
    assert len(DISPATCH_FILES) >= 6
    for path in DISPATCH_FILES:
        assert path.is_file(), path
