"""The observation-sequence paradigm (paper Sec. 3) — the core abstraction.

An observation sequence ``(Ok)`` maps a resource bound ``k`` to a
monotone, computable observation about a parameterized program.  The
generic verification Scheme 1 increases ``k`` until the sequence appears
to converge, checking the property on the way.  Its instantiations over
the engines' sequences (``Rk``, ``T(Rk)``, ``Sk``, ...) all run through
the one convergence driver, :func:`repro.cuba.lanes.converge`.
"""

from repro.core.property import (
    AlwaysSafe,
    MutualExclusion,
    Property,
    SharedStateReachability,
    VisiblePredicate,
)
from repro.core.result import Verdict, VerificationResult
from repro.core.terminology import (
    collapses_at,
    first_plateau,
    is_monotone,
    plateaus_at,
    stutters_at,
)

__all__ = [
    "AlwaysSafe",
    "MutualExclusion",
    "Property",
    "SharedStateReachability",
    "Verdict",
    "VerificationResult",
    "VisiblePredicate",
    "collapses_at",
    "first_plateau",
    "is_monotone",
    "plateaus_at",
    "stutters_at",
]
