"""Experiment E8 — ablations for the design choices DESIGN.md calls out.

* **Engine ablation**: Scheme 1 over explicit sets vs over pushdown
  store automata on FCR benchmarks — quantifies the paper's claim that
  "an explicit-state approach (provided FCR) is competitive and far
  easier to implement" (Sec. 6).
* **Generator-test ablation**: how many stuttering plateaus Alg. 3
  rejects before certifying convergence, and how large ``G∩Z`` is —
  the machinery that makes the visible-state sequence usable at all
  (without it, the first plateau would yield an unsound "safe").
  Restricted to the rows where Alg. 3 is the concluding method; on the
  Boolean-program rows the overapproximation ``Z`` retains unreachable
  generators and Alg. 3 alone would not terminate — the non-termination
  caveat the paper itself states, covered by Scheme 1 in the front-end.
"""

import pytest

from repro.core import AlwaysSafe, Verdict
from repro.cuba import algorithm3, scheme1_rk, scheme1_sk
from repro.models import TABLE2, fig1_cpds
from repro.util import measure

#: FCR-satisfying safe rows, smallest configurations.
EXPLICIT_VS_SYMBOLIC = [
    b for b in TABLE2
    if b.safe and b.fcr and b.config in ("1+1", "1•+2", "2•")
]


@pytest.mark.parametrize("bench", EXPLICIT_VS_SYMBOLIC, ids=lambda b: b.row)
def test_engine_ablation(bench, benchmark, report_sink):
    rows = report_sink(
        "Ablation — Scheme 1: explicit sets vs store automata (FCR rows)",
        ["program", "explicit t(s)", "symbolic t(s)", "slowdown", "k(Rk)", "k(Sk)"],
    )
    cpds, prop = bench.build()

    def run_both():
        explicit = measure(
            lambda: scheme1_rk(cpds, prop, max_rounds=bench.max_rounds)
        )
        symbolic = measure(
            lambda: scheme1_sk(cpds, prop, max_rounds=bench.max_rounds)
        )
        return explicit, symbolic

    explicit, symbolic = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert explicit.value.verdict is Verdict.SAFE
    assert symbolic.value.verdict is Verdict.SAFE
    rows.append(
        [
            bench.row,
            f"{explicit.seconds:.2f}",
            f"{symbolic.seconds:.2f}",
            f"{symbolic.seconds / max(explicit.seconds, 1e-9):.1f}x",
            explicit.value.bound,
            symbolic.value.bound,
        ]
    )


#: Rows on which Alg. 3's generator test certifies convergence.
GENERATOR_ROWS = [
    b for b in TABLE2
    if b.row in ("6/K-Induction", "7/Proc-2", "8/Stefan-1", "9/Dekker")
    and not b.skip_run
]


@pytest.mark.parametrize("bench", GENERATOR_ROWS, ids=lambda b: b.name)
def test_generator_ablation(bench, benchmark, report_sink):
    rows = report_sink(
        "Ablation — stuttering detection workload",
        ["program", "threads", "|Z|", "|G∩Z|", "plateaus rejected", "kmax"],
    )
    cpds, prop = bench.build()
    engine = "explicit" if bench.fcr else "symbolic"
    result = benchmark.pedantic(
        lambda: algorithm3(cpds, prop, engine=engine, max_rounds=bench.max_rounds),
        rounds=1,
        iterations=1,
    )
    assert result.verdict is Verdict.SAFE
    rows.append(
        [
            bench.row,
            bench.config,
            result.stats["Z"],
            result.stats["G∩Z"],
            len(result.stats["plateaus_rejected"]),
            result.bound,
        ]
    )


def test_fig1_stuttering_is_exercised(benchmark, report_sink):
    """Fig. 1 is the canonical stutterer: exactly one rejected plateau."""
    result = benchmark(
        lambda: algorithm3(fig1_cpds(), AlwaysSafe(), engine="explicit")
    )
    assert len(result.stats["plateaus_rejected"]) == 1
    assert result.stats["plateaus_rejected"][0]["k"] == 2

