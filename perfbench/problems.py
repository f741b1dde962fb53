"""What each workload runs, generated from the Table 2 registry and a seed.

* ``table2-auto`` — the default procedure (``Cuba(cpds, prop).verify()``,
  what ``cuba verify`` runs) on every runnable Table 2 row at its
  registry round budget.
* ``lane-sweep`` — ``run_lane(lane, ...)`` (what ``cuba verify --lane``
  runs) for the symbolic and wuba lanes on the smallest configuration
  of each row where the lane applies.
* ``service-mix`` — Boolean-program (Stefan: ``.cpds``) requests for the
  smallest configuration of each row under lanes auto/symbolic/wuba,
  each submitted shallow (fresh run), then deeper (resume), then
  repeated (store hits), to a real ``cuba serve``.

The seed only orders the work: it shuffles the problems of every pass
and interleaves the service requests.  The problem set is the same for
every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.models.registry import Benchmark, runnable_benchmarks, smallest_per_row

#: Why each workload exists and which layers it loads: the ``why``
#: fields of BENCHMARK.json.
WORKLOADS: dict[str, str] = {
    "table2-auto": (
        "Table 2 itself: Cuba.verify on all 18 runnable rows, cold, best of 3+ "
        "passes. Loads cuba.fcr, reach.explicit, cuba.generators/overapprox; "
        "reach.symbolic only on 4 non-FCR rows."
    ),
    "lane-sweep": (
        "run_lane symbolic+wuba on each row's smallest config (16 problems). "
        "Loads pds.saturation, automata.canonical, reach.symbolic, the WCR "
        "check, reach.wuba; never explicit or FCR."
    ),
    "service-mix": (
        "cuba serve (process executor, 2 workers, fresh store), 2 client "
        "threads: fresh runs, resumes, store hits. Loads bp, "
        "service.fingerprint/server/executor/store/snapshot."
    ),
}

#: Lane-sweep lanes whose precondition fails on a row (WCR does not
#: hold for K-Induction and Proc-2); ``run_lane`` raises on any other
#: inapplicable pair, which the benchmark counts as a failure.
INAPPLICABLE = frozenset({("wuba", "6/K-Induction"), ("wuba", "7/Proc-2")})

#: Round budget of the shallow first submit of a service problem; the
#: deeper resubmit uses the row's registry budget.
SHALLOW_ROUNDS = 1

#: Store-hit repeats of each service problem after its deeper submit.
SERVICE_HITS = 3


@dataclass(frozen=True)
class Problem:
    """One engine verification: a registry row, run by ``lane``
    (``None`` = the default Sec. 6 procedure)."""

    bench: Benchmark
    lane: str | None = None

    @property
    def key(self) -> str:
        return self.bench.name if self.lane is None else f"{self.bench.name} {self.lane}"


def table2_problems() -> list[Problem]:
    return [Problem(bench) for bench in runnable_benchmarks()]


def lane_sweep_problems() -> list[Problem]:
    return [
        Problem(bench, lane)
        for lane in ("symbolic", "wuba")
        for bench in smallest_per_row()
        if (lane, bench.row) not in INAPPLICABLE
    ]


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
def _program(bench: Benchmark) -> dict:
    """Submit fields carrying the row's smallest configuration as
    program text, with each model's ``init`` exactly as its registry
    builder passes it (without it Bluetooth-3 and BST-Insert are
    unsafe)."""
    from repro.cpds import format_cpds
    from repro.models.bluetooth import bluetooth_source
    from repro.models.bst import bst_source
    from repro.models.dekker import dekker_source
    from repro.models.filecrawler import filecrawler_source
    from repro.models.kinduction import kinduction_source
    from repro.models.proc2 import proc2_source
    from repro.models.stefan import stefan

    suite = bench.row.split("/")[1]
    if suite.startswith("Bluetooth-"):
        version = int(suite.rsplit("-", 1)[1])
        return {"bp_text": bluetooth_source(version, 1, 1), "bp_init": {"p0": 1}}
    if suite == "BST-Insert":
        return {"bp_text": bst_source(1, 1), "bp_init": {"inv": 1}}
    if suite == "FileCrawler":
        return {"bp_text": filecrawler_source(2)}
    if suite == "K-Induction":
        return {"bp_text": kinduction_source()}
    if suite == "Proc-2":
        return {"bp_text": proc2_source(2, 2)}
    if suite == "Stefan-1":
        return {"cpds_text": format_cpds(stefan(2)[0])}
    if suite == "Dekker":
        return {"bp_text": dekker_source()}
    raise ValueError(f"no service program for row {bench.row}")


@dataclass(frozen=True)
class ServiceProblem:
    """One fingerprint of the service mix: a row's program under a lane."""

    bench: Benchmark
    engine: str
    program: dict

    @property
    def key(self) -> str:
        return f"{self.bench.row} {self.engine}"

    def request(self, step: int) -> dict:
        """Submit keyword arguments of this problem's ``step``-th
        request: 0 = shallow, then the row's full budget."""
        rounds = SHALLOW_ROUNDS if step == 0 else self.bench.max_rounds
        return {**self.program, "engine": self.engine, "max_rounds": rounds}


def service_problems() -> list[ServiceProblem]:
    problems = []
    for bench in smallest_per_row():
        program = _program(bench)
        for engine in ("auto", "symbolic", "wuba"):
            if (engine, bench.row) not in INAPPLICABLE:
                problems.append(ServiceProblem(bench, engine, program))
    return problems


def service_sequence(n_problems: int, rng: random.Random) -> list[tuple[int, int]]:
    """The request sequence as ``(problem index, step)`` pairs, in
    waves: every problem's shallow submit, then every deeper resubmit,
    then ``SERVICE_HITS`` rounds of repeats, each wave in its own seeded
    order.  Waves keep the class mix over time the same for every seed,
    so the seed moves which requests overlap, not how many of a kind."""
    sequence = []
    for step in range(2 + SERVICE_HITS):
        order = list(range(n_problems))
        rng.shuffle(order)
        sequence.extend((index, step) for index in order)
    return sequence
