"""Compatibility stub for the retired numpy replay backend.

The explicit engine has one replay loop, the scalar packed-key loop in
:meth:`repro.reach.explicit.ExplicitReach._replay`; the numpy
broadcast that once lived here bought no speed on any measured
workload and was deleted.  The only remaining caller is the repository
benchmark (``perfbench/run.py``), which records
``resolve_backend("auto")`` among its run attributes.  The benchmark
carry-over on the ROADMAP deletes this module together with that call.
"""

from __future__ import annotations


def resolve_backend(backend: str = "auto") -> str:
    """The replay loop that runs: always ``"python"``."""
    return "python"
