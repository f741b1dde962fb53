"""Process-global runtime-cache lifecycle — one cleanup path for all.

Several subsystems keep process-global caches: the canonical hash-cons
table (:mod:`repro.automata.canonical`) and the dense-table form memo
(:mod:`repro.automata.dense`).  Before the
analysis service existed, only the benchmark runner cleared them (its
cold-run contract); a long-lived daemon that never routed through the
bench path would accumulate canonical tables without bound.

:func:`clear_runtime_caches` is the single shared cleanup: the bench
runner's ``_clear_caches``, the analysis server's shutdown path, and
the store's size-pressure eviction hook all call it, so every owner of
a long-lived process drops the same state the same way.
"""

from __future__ import annotations


def clear_runtime_caches() -> None:
    """Reset every process-global cache: the canonical hash-cons table
    and the dense-table form memo."""
    from repro.automata import canonical, dense

    canonical.canonical_cache_clear()
    dense.form_cache_clear()
