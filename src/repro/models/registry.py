"""Registry of the Table 2 benchmark suite.

Every row of the paper's Table 2 maps to one :class:`Benchmark` with its
builder, the expected verdict/FCR status, and the paper's reported
numbers (kmax columns, bug-revealing bound, runtime, memory).  The
Table 2 harness (``benchmarks/test_table2.py``) prints our bounds beside
the paper's; ``tests/models/test_table2_report.py`` pins each runnable
row's report.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.core.property import Property
from repro.cpds.cpds import CPDS


@dataclass(frozen=True)
class Benchmark:
    """One Table 2 row."""

    row: str               # e.g. "1/Bluetooth-1"
    config: str            # thread instantiation, e.g. "1+2"
    build: Callable[[], tuple[CPDS, Property]]
    safe: bool             # Table 2 "Safe?" column
    fcr: bool              # Table 2 "FCR?" column
    paper_k_rk: str        # Table 2 (Rk) kmax column
    paper_k_trk: str       # Table 2 (T(Rk)) kmax column
    paper_time: float | None  # seconds
    paper_mem: float | None   # MB
    max_rounds: int = 25
    #: Left out of every sweep for its cost alone.  Stefan-1 [8], the one
    #: skipped row, is decidable: ``Cuba.verify`` answers SAFE at
    #: ``trk_bound`` 8 in 28.2 s and 569 MB peak RSS (the paper ran out of
    #: memory).  It stays skipped until symmetry reduction makes it cheap.
    skip_run: bool = False

    @property
    def name(self) -> str:
        return f"{self.row} [{self.config}]"


def _bluetooth(version: int, stoppers: int, adders: int):
    def build():
        from repro.models.bluetooth import bluetooth

        compiled = bluetooth(version, stoppers, adders)
        return compiled.cpds, compiled.prop

    return build


def _bst(inserters: int, searchers: int):
    def build():
        from repro.models.bst import bst_insert

        compiled = bst_insert(inserters, searchers)
        return compiled.cpds, compiled.prop

    return build


def _filecrawler():
    from repro.models.filecrawler import filecrawler

    compiled = filecrawler(2)
    return compiled.cpds, compiled.prop


def _kinduction():
    from repro.models.kinduction import kinduction

    return kinduction()


def _proc2():
    from repro.models.proc2 import proc2

    compiled = proc2()
    return compiled.cpds, compiled.prop


def _stefan(n: int):
    def build():
        from repro.models.stefan import stefan

        return stefan(n)

    return build


def _dekker():
    from repro.models.dekker import dekker

    compiled = dekker()
    return compiled.cpds, compiled.prop


TABLE2: tuple[Benchmark, ...] = (
    Benchmark("1/Bluetooth-1", "1+1", _bluetooth(1, 1, 1), False, True, "≥7", "6 (4)", 0.26, 18.14),
    Benchmark("1/Bluetooth-1", "1+2", _bluetooth(1, 1, 2), False, True, "≥7", "6 (3)", 2.32, 136.26),
    Benchmark("1/Bluetooth-1", "2+1", _bluetooth(1, 2, 1), False, True, "≥8", "7 (4)", 12.76, 347.74),
    Benchmark("2/Bluetooth-2", "1+1", _bluetooth(2, 1, 1), False, True, "≥7", "6 (4)", 0.53, 23.43),
    Benchmark("2/Bluetooth-2", "1+2", _bluetooth(2, 1, 2), False, True, "≥7", "6 (3)", 4.39, 196.73),
    Benchmark("2/Bluetooth-2", "2+1", _bluetooth(2, 2, 1), False, True, "≥8", "7 (4)", 14.21, 387.23),
    Benchmark("3/Bluetooth-3", "1+1", _bluetooth(3, 1, 1), True, True, "≥7", "6", 0.47, 22.15),
    Benchmark("3/Bluetooth-3", "1+2", _bluetooth(3, 1, 2), True, True, "≥7", "6", 4.71, 180.11),
    Benchmark("3/Bluetooth-3", "2+1", _bluetooth(3, 2, 1), True, True, "≥8", "7", 14.46, 375.42),
    Benchmark("4/BST-Insert", "1+1", _bst(1, 1), True, True, "2", "2", 1.17, 24.53),
    Benchmark("4/BST-Insert", "2+1", _bst(2, 1), True, True, "3", "3", 15.84, 140.93),
    Benchmark("4/BST-Insert", "2+2", _bst(2, 2), True, True, "≥5", "4", 45.21, 355.74),
    Benchmark("5/FileCrawler", "1•+2", _filecrawler, True, True, "6", "6", 0.03, 5.35),
    Benchmark("6/K-Induction", "1+1", _kinduction, True, False, "≥4", "3", 0.23, 3.78),
    Benchmark("7/Proc-2", "2+2•", _proc2, True, False, "≥4", "3", 0.52, 18.04),
    Benchmark("8/Stefan-1", "2", _stefan(2), True, False, "≥3", "2", 1.01, 2.81),
    Benchmark("8/Stefan-1", "4", _stefan(4), True, False, "≥5", "4", 16.36, 1185.62),
    Benchmark("8/Stefan-1", "8", _stefan(8), True, False, "≥8", "≥8", None, None, skip_run=True),
    Benchmark("9/Dekker", "2•", _dekker, True, True, "6", "6", 0.21, 13.42),
)

#: Rows used for the Fig. 5 tool comparison (the paper compares only on
#: suites 1–5 and 9, as no other tool parses the remaining programs).
FIG5_ROWS: tuple[str, ...] = (
    "1/Bluetooth-1",
    "2/Bluetooth-2",
    "3/Bluetooth-3",
    "4/BST-Insert",
    "5/FileCrawler",
    "9/Dekker",
)


def fig5_benchmarks() -> tuple[Benchmark, ...]:
    return tuple(b for b in TABLE2 if b.row in FIG5_ROWS and not b.skip_run)


def runnable_benchmarks() -> tuple[Benchmark, ...]:
    return tuple(b for b in TABLE2 if not b.skip_run)


def smallest_per_row(predicate=None) -> tuple[Benchmark, ...]:
    """The first-listed (smallest) runnable configuration of each Table 2
    row, optionally filtered by ``predicate``.

    Shared by the test/benchmark harnesses that sweep the whole suite but
    must keep tier-1 runtimes bounded: larger configurations of a row
    change constants, not semantics (they instantiate the same thread
    programs)."""
    chosen: dict[str, Benchmark] = {}
    for bench in TABLE2:
        if bench.skip_run or bench.row in chosen:
            continue
        if predicate is not None and not predicate(bench):
            continue
        chosen[bench.row] = bench
    return tuple(chosen.values())
