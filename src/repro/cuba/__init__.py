"""CUBA: context-unbounded analysis algorithms (paper Secs. 4–6).

* :mod:`~repro.cuba.generators` — the generator set ``G`` of Eq. (2) and
  Theorem 11.
* :mod:`~repro.cuba.overapprox` — Alg. 2's context-insensitive finite
  abstraction ``M`` and its reachable set ``Z`` (Lemma 12).
* :mod:`~repro.cuba.fcr` — the finite-context-reachability condition
  (Lemma 16 / Theorem 17, Fig. 4).
* :mod:`~repro.cuba.lanes` — the one convergence driver every verdict
  comes from, and ``run_lane`` to run any registered lane with it.
* :mod:`~repro.cuba.scheme1` — Scheme 1 instantiated with ``(Rk)``.
* :mod:`~repro.cuba.algorithm3` — Alg. 3 over ``(T(Rk))`` (explicit) or
  ``(T(Sk))`` (symbolic) with generator-based stuttering detection.
* :mod:`~repro.cuba.verifier` — the Sec. 6 front-end combining them.
"""

from repro.cuba.generators import GeneratorAnalysis, generator_analysis
from repro.cuba.overapprox import (
    FiniteAbstraction,
    abstract_bug_lower_bound,
    abstract_visible_levels,
    build_abstraction,
    compute_z,
)
from repro.cuba.fcr import FCRReport, check_fcr, thread_shallow_psa
from repro.cuba.scheme1 import scheme1_rk, scheme1_sk
from repro.cuba.algorithm3 import algorithm3
from repro.cuba.cba import context_bounded_analysis
from repro.cuba.quickcheck import quick_check
from repro.cuba.verifier import Cuba, CubaReport

__all__ = [
    "Cuba",
    "CubaReport",
    "context_bounded_analysis",
    "FCRReport",
    "FiniteAbstraction",
    "GeneratorAnalysis",
    "abstract_bug_lower_bound",
    "abstract_visible_levels",
    "algorithm3",
    "build_abstraction",
    "check_fcr",
    "compute_z",
    "generator_analysis",
    "quick_check",
    "scheme1_rk",
    "scheme1_sk",
    "thread_shallow_psa",
]
