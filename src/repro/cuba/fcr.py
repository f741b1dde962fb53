"""Finite context reachability (paper Sec. 5, Lemma 16, Theorem 17).

``Rk`` is finite for every ``k`` if, for each thread ``i``, the set
``R(Q×Σ≤1_i)`` of states reachable from shallow configurations is finite
(Thm. 17).  That set is regular: we build its pushdown store automaton by
``post*`` saturation and decide finiteness by cycle analysis (Fig. 4:
"the absence of loops ... implies their languages are finite").

Both steps are linear and cheap on the threads FCR admits.  The
``Q × Σ≤1`` seed edges ``q --x--> sink`` are never built: they lie on
no cycle and change no cycle's usefulness, so the saturation of the
push rules' consequences alone decides both answers
(:func:`~repro.pds.saturation.shallow_finiteness`; the exactness
argument is invariant 5 of :mod:`repro.pds.saturation`).  The cycle
analysis is one Tarjan pass that computes usefulness only when some
edge lies on a cycle (:func:`~repro.automata.finiteness.loop_analysis`),
so an acyclic automaton — every thread for which FCR holds — skips it.
WCR (:meth:`repro.reach.wuba.WubaReach.applicable`) runs the same test
on each thread's write-free sub-PDS.  The full automaton, seeds
included, is :func:`thread_shallow_psa` (Fig. 4's table).

When FCR holds the explicit engine may represent every ``Rk``
extensionally; otherwise the symbolic engine must be used.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpds.cpds import CPDS
from repro.pds.pds import PDS
from repro.pds.psa import PSA
from repro.pds.saturation import shallow_configs_psa, shallow_finiteness


def thread_shallow_psa(pds: PDS) -> PSA:
    """The PSA for ``post*(Q×Σ≤1)`` of one thread (Fig. 4's automata)."""
    return shallow_configs_psa(pds)


@dataclass(frozen=True, slots=True)
class FCRReport:
    """Outcome of the FCR analysis for a CPDS.

    ``thread_finite[i]`` is the Lemma 16 premise for thread ``i``;
    ``holds`` is Theorem 17's conclusion (all premises true).  The check
    is *sufficient*: a False does not prove some ``Rk`` infinite in
    general (the paper leaves decidability of FCR open), though for
    threads whose shallow reach is infinite within one context — the
    common case — it is also necessary in practice.
    """

    thread_finite: tuple[bool, ...]
    thread_has_loop: tuple[bool, ...]

    @property
    def holds(self) -> bool:
        return all(self.thread_finite)

    def __str__(self) -> str:
        verdicts = ", ".join(
            f"P{index + 1}:{'finite' if finite else 'infinite'}"
            for index, finite in enumerate(self.thread_finite)
        )
        return f"FCR {'holds' if self.holds else 'fails'} ({verdicts})"


def check_fcr(cpds: CPDS) -> FCRReport:
    """Decide the Theorem 17 premise for every thread of a CPDS.

    ``thread_finite`` uses the exact language-finiteness criterion
    (useful cycles pumping a real symbol); ``thread_has_loop`` records
    the paper's coarser graph-loop check of Fig. 4 for comparison.
    """
    finite: list[bool] = []
    loops: list[bool] = []
    for pds in cpds.threads:
        thread_finite, thread_loop = shallow_finiteness(pds)
        finite.append(thread_finite)
        loops.append(thread_loop)
    return FCRReport(tuple(finite), tuple(loops))
