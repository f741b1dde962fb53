"""Source-enforced layering: the analysis core never imports the layers
built on top of it.

The engines, the algorithms and everything beneath them must not import
``repro.service``, ``repro.bench`` or ``repro.cli`` — not even lazily
inside a function.  Each lane owns its checkpoint codec
(:mod:`repro.reach.snapshot` is the frame), so the service imports the
engines and never the other way round.  This test parses every module
with :mod:`ast`, so a regression fails with the offending import.

The whole library is stdlib-only, as ``setup.py`` states: no module
under ``src/repro`` imports a third-party package such as ``numpy``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

CORE_PACKAGES = (
    "automata", "pds", "cpds", "core", "reach", "cuba", "models", "bp", "obs", "util",
)
UPPER_LAYERS = ("repro.service", "repro.bench", "repro.cli")
#: Third-party packages no library module may import (the library is
#: stdlib-only; the test suite's own dependencies stay in the tests).
FORBIDDEN_ANYWHERE = ("numpy",)

CORE_FILES = sorted(
    path for package in CORE_PACKAGES for path in (SRC / package).rglob("*.py")
)


def _imported_modules(path: Path, root: Path = SRC.parent):
    """``(lineno, module)`` for every module an import statement in
    ``path`` (a file under the source ``root``) names, with relative
    imports resolved and ``from package import name`` also yielding
    ``package.name``."""
    package = ".".join(path.relative_to(root).parent.parts)
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def _is_upper(module: str) -> bool:
    return any(module == layer or module.startswith(layer + ".") for layer in UPPER_LAYERS)


@pytest.mark.parametrize(
    "path", CORE_FILES, ids=lambda p: str(p.relative_to(SRC))
)
def test_core_does_not_import_upper_layers(path):
    offenders = sorted(
        {f"{path.relative_to(SRC)}:{lineno}: {module}"
         for lineno, module in _imported_modules(path) if _is_upper(module)}
    )
    assert not offenders, (
        "the analysis core must not import the service, bench or CLI layers:\n"
        + "\n".join(offenders)
    )


def test_library_is_stdlib_only():
    offenders = sorted(
        f"{path.relative_to(SRC)}:{lineno}: {module}"
        for path in SRC.rglob("*.py")
        for lineno, module in _imported_modules(path)
        if module.split(".")[0] in FORBIDDEN_ANYWHERE
    )
    assert not offenders, (
        "the library is stdlib-only; these imports break that:\n"
        + "\n".join(offenders)
    )


def test_core_files_exist():
    # Guard the guard: every listed package is present and parsed.
    for package in CORE_PACKAGES:
        assert (SRC / package / "__init__.py").is_file(), package
    assert len(CORE_FILES) >= 40


def test_import_scan_sees_lazy_and_relative_imports(tmp_path):
    # The scan is only as good as its parser: a function-local import
    # and a relative ``from .. import`` must both be reported.
    package = tmp_path / "repro" / "reach"
    package.mkdir(parents=True)
    probe = package / "probe.py"
    probe.write_text(
        "def f():\n"
        "    from repro.service.store import AnalysisStore\n"
        "from .. import cli\n"
    )
    found = {module for _lineno, module in _imported_modules(probe, tmp_path)}
    assert "repro.service.store" in found
    assert "repro.cli" in found
