"""Sound zero-iteration verification via the overapproximation ``Z``.

By Lemma 12, ``T(R) ⊆ Z``.  If no visible state in ``Z`` violates the
property, the program is safe for *every* context bound — without
computing a single ``Rk``.  This realizes, in its simplest form, the
abstract-interpretation direction the paper's conclusion raises
(computing visible-state information without the exact sets): ``Z`` is
exactly the limit of the context-insensitive abstract sequence.

The check is sound but very incomplete: a violation inside ``Z`` says
nothing (``Z`` overapproximates), so the result is then UNKNOWN and the
real algorithms must run.  It is a public library entry point
(``repro.quick_check``); no analysis in this package calls it.
"""

from __future__ import annotations

from repro.core.property import Property
from repro.core.result import Verdict, VerificationResult
from repro.cpds.cpds import CPDS
from repro.cuba.overapprox import compute_z


def quick_check(cpds: CPDS, prop: Property) -> VerificationResult:
    """Try to prove ``prop`` from ``Z`` alone.

    Returns SAFE (bound 0 — no exploration happened) when every state
    of ``Z`` satisfies the property, otherwise UNKNOWN carrying the
    abstract witness in ``stats["abstract_witness"]``.
    """
    z = compute_z(cpds)
    witness = prop.find_violation(z)
    if witness is None:
        return VerificationResult(
            Verdict.SAFE,
            bound=0,
            method="quick-check(Z)",
            message=(
                "no state of the context-insensitive overapproximation Z "
                "violates the property (sound by Lemma 12)"
            ),
            stats={"Z": len(z)},
        )
    return VerificationResult(
        Verdict.UNKNOWN,
        bound=0,
        method="quick-check(Z)",
        message="Z contains a (possibly spurious) violation",
        stats={"Z": len(z), "abstract_witness": witness},
    )
