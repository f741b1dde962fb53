"""Experiments E3/E4 — Figure 1's reachability table and Figure 3's Z.

Regenerates the ``Rk \\ Rk−1`` / ``T(Rk) \\ T(Rk−1)`` table for the
running example, asserts it matches the paper cell by cell, and times
the explicit engine computing it.  Also reproduces the Fig. 3 finite
abstraction and the Ex. 13 set ``Z``.
"""

from repro.cpds import GlobalState, VisibleState
from repro.cuba import compute_z
from repro.models import fig1_cpds
from repro.pds import EMPTY
from repro.reach import ExplicitReach


def gs(shared, stack1, stack2):
    return GlobalState(shared, (tuple(stack1), tuple(stack2)))


def vs(shared, *tops):
    return VisibleState(shared, tuple(tops))


PAPER_LEVELS = [
    {gs(0, [1], [4])},
    {gs(1, [2], [4]), gs(0, [1], [])},
    {gs(2, [2], [5]), gs(1, [2], []), gs(3, [2], [4, 6])},
    {gs(0, [1], [4, 6]), gs(1, [2], [4, 6])},
    {gs(0, [1], [6]), gs(2, [2], [5, 6]), gs(3, [2], [4, 6, 6])},
    {gs(0, [1], [4, 6, 6]), gs(1, [2], [4, 6, 6]), gs(1, [2], [6])},
    {gs(0, [1], [6, 6]), gs(2, [2], [5, 6, 6]), gs(3, [2], [4, 6, 6, 6])},
]

PAPER_Z = {
    vs(0, 1, 4), vs(1, 2, 4), vs(2, 2, 5), vs(3, 2, 4),
    vs(0, 1, EMPTY), vs(1, 2, EMPTY), vs(0, 1, 6), vs(1, 2, 6),
}


def test_fig1_reachability_table(benchmark, report_sink):
    rows = report_sink(
        "Figure 1 — reachability table (regenerated)",
        ["k", "Rk \\ Rk-1", "T(Rk) \\ T(Rk-1)"],
    )

    def explore():
        engine = ExplicitReach(fig1_cpds())
        engine.ensure_level(6)
        return engine

    engine = benchmark(explore)
    for k, expected in enumerate(PAPER_LEVELS):
        assert engine.states_new_at(k) == expected, f"R{k}"
        rows.append(
            [
                k,
                " ".join(sorted(str(s) for s in engine.states_new_at(k))),
                " ".join(sorted(str(v) for v in engine.visible_new_at(k))) or "(plateau)",
            ]
        )


def test_fig3_overapproximation_z(benchmark, report_sink):
    rows = report_sink("Figure 3 / Ex. 13 — context-insensitive Z", ["Z member"])
    z = benchmark(lambda: compute_z(fig1_cpds()))
    assert z == PAPER_Z
    for visible in sorted(z, key=str):
        rows.append([str(visible)])
