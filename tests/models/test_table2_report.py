"""The Table 2 report of every runnable row, pinned.

``benchmarks/test_table2.py`` asserts the verdict and FCR status of each
row and prints the collapse bounds beside the paper's.  This test pins
the whole :class:`~repro.cuba.CubaReport` summary — verdict, winning
method, ``kmax(Rk)``, ``kmax(T(Rk))`` and the bound at which the race
stopped — so an engine change that shifts a collapse bound, or hands
the race to the other method, fails tier-1.
"""

import pytest

from repro.cuba import Cuba
from repro.models import runnable_benchmarks

#: name -> (verdict, winner, rk_bound, trk_bound, interrupted_at), from
#: ``Cuba(cpds, prop).verify(max_rounds=bench.max_rounds)``.
PINNED = {
    "1/Bluetooth-1 [1+1]": ("unsafe", "cuba", None, None, 3),
    "1/Bluetooth-1 [1+2]": ("unsafe", "cuba", None, None, 3),
    "1/Bluetooth-1 [2+1]": ("unsafe", "cuba", None, None, 3),
    "2/Bluetooth-2 [1+1]": ("unsafe", "cuba", None, None, 3),
    "2/Bluetooth-2 [1+2]": ("unsafe", "cuba", None, None, 3),
    "2/Bluetooth-2 [2+1]": ("unsafe", "cuba", None, None, 3),
    "3/Bluetooth-3 [1+1]": ("safe", "scheme1(Rk)", 5, None, 5),
    "3/Bluetooth-3 [1+2]": ("safe", "scheme1(Rk)", 6, None, 6),
    "3/Bluetooth-3 [2+1]": ("safe", "scheme1(Rk)", 6, None, 6),
    "4/BST-Insert [1+1]": ("safe", "scheme1(Rk)", 3, None, 3),
    "4/BST-Insert [2+1]": ("safe", "scheme1(Rk)", 4, None, 4),
    "4/BST-Insert [2+2]": ("safe", "scheme1(Rk)", 5, None, 5),
    "5/FileCrawler [1•+2]": ("safe", "scheme1(Rk)", 6, None, 6),
    "6/K-Induction [1+1]": ("safe", "alg3(T(Sk))", None, 2, 2),
    "7/Proc-2 [2+2•]": ("safe", "alg3(T(Sk))", None, 5, 5),
    "8/Stefan-1 [2]": ("safe", "alg3(T(Sk))", None, 2, 2),
    "8/Stefan-1 [4]": ("safe", "alg3(T(Sk))", None, 4, 4),
    "9/Dekker [2•]": ("safe", "alg3(T(Rk))", 5, 4, 5),
}


def test_every_runnable_row_is_pinned():
    assert {bench.name for bench in runnable_benchmarks()} == set(PINNED)


@pytest.mark.parametrize("bench", runnable_benchmarks(), ids=lambda bench: bench.name)
def test_table2_report_pinned(bench):
    cpds, prop = bench.build()
    report = Cuba(cpds, prop).verify(max_rounds=bench.max_rounds)
    summary = (
        report.verdict.value,
        report.winner,
        report.rk_bound,
        report.trk_bound,
        report.interrupted_at,
    )
    assert summary == PINNED[bench.name]
