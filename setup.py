"""Setup shim: enables `python setup.py develop` in offline environments
where pip's PEP-517 path is unavailable (no `wheel` package).

The library itself is stdlib-only (``tests/test_layering.py`` enforces
it); ``requirements-dev.txt`` lists what the tests and tooling need.
"""

from setuptools import find_packages, setup

setup(
    name="cuba-repro",
    version="0.8.0",
    description="Reproduction of CUBA: context-unbounded analysis of "
    "concurrent programs (PLDI 2018)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
