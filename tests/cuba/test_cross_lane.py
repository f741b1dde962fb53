"""Cross-lane agreement: every lane that applies to a model gives the
same conclusive verdict, and the lanes' reachable sets agree.

Each lane runs as ``run_lane`` runs it — the one convergence driver
with every test the lane declares — on the smallest configuration of
every Table 2 row and on the random models of
``tests/test_soundness_fuzz.py``:

* every conclusive verdict agrees with every other lane's and, on the
  Table 2 rows, with the registry's ``safe`` column;
* the two lanes whose levels count contexts (explicit, symbolic) report
  the same UNSAFE bound, the minimal one;
* on every FCR model, once both ``(Sk)`` and ``(Rk)`` reach their
  fixpoint, ``T(S≤k)`` equals the explicit lane's ``T(R)``.
"""

from functools import cache

import pytest

from repro.core import AlwaysSafe, Verdict, VisiblePredicate
from repro.cuba import check_fcr
from repro.cuba.lanes import converge, drive
from repro.models import RandomSpec, random_cpds
from repro.models.registry import smallest_per_row
from repro.reach import registry

ROWS = {bench.name: bench for bench in smallest_per_row()}

#: The corpus, property and round budget of tests/test_soundness_fuzz.py.
SEEDS = range(40)
SPEC = RandomSpec(n_threads=2, rules_per_thread=5, push_bias=0.25)
RANDOM_ROUNDS = 8


def _target_property(cpds):
    def is_bad(visible):
        return visible.shared == 1 and all(top is not None for top in visible.tops)

    return VisiblePredicate(is_bad, "shared 1 with all stacks nonempty")


@cache
def _model(name: str):
    if name in ROWS:
        bench = ROWS[name]
        return (*bench.build(), bench.max_rounds)
    cpds = random_cpds(int(name.removeprefix("seed-")), SPEC)
    return cpds, _target_property(cpds), RANDOM_ROUNDS


@cache
def _runs(name: str) -> dict:
    """``lane -> (Convergence, engine)`` for every lane applicable to
    the model ``name`` (a Table 2 row or ``seed-N``)."""
    cpds, prop, rounds = _model(name)
    runs = {}
    for lane in registry.applicable_lanes(cpds, prop):
        engine = registry.create(lane, cpds)
        runs[lane] = (drive(engine, prop, max_rounds=rounds), engine)
    return runs


MODELS = [*ROWS, *(f"seed-{seed}" for seed in SEEDS)]
FCR_MODELS = [
    *(name for name, bench in ROWS.items() if bench.fcr),
    *(f"seed-{seed}" for seed in SEEDS if check_fcr(random_cpds(seed, SPEC)).holds),
]


@pytest.mark.parametrize("name", MODELS)
def test_conclusive_verdicts_agree(name):
    results = {lane: outcome.result for lane, (outcome, _) in _runs(name).items()}
    conclusive = {lane: r.verdict for lane, r in results.items() if r.conclusive}
    assert len(set(conclusive.values())) <= 1, f"{name}: {conclusive}"
    if name in ROWS:
        expected = Verdict.SAFE if ROWS[name].safe else Verdict.UNSAFE
        assert set(conclusive.values()) <= {expected}, f"{name}: {conclusive}"
    unsafe_bounds = {
        results[lane].bound
        for lane in ("explicit", "symbolic")
        if lane in results and results[lane].is_unsafe
    }
    assert len(unsafe_bounds) <= 1, f"{name}: UNSAFE bounds {unsafe_bounds}"


def test_every_lane_decides_the_table2_rows():
    # The fixpoint test lets the symbolic lane decide the FCR rows Alg. 3
    # alone leaves open; only Stefan-1 under wuba stays UNKNOWN.
    undecided = {
        (name, lane)
        for name in ROWS
        for lane, (outcome, _) in _runs(name).items()
        if not outcome.result.conclusive
    }
    assert undecided == {("8/Stefan-1 [2]", "wuba")}


def _fixpoint(engine, rounds: int) -> int | None:
    """Continue ``engine`` past its verdict to its fixpoint, if it has
    one within ``rounds`` levels."""
    return converge(
        engine, AlwaysSafe(), max_rounds=rounds, fixpoint=True, generators=False
    ).fixpoint_bound


@pytest.mark.parametrize("name", FCR_MODELS)
def test_symbolic_fixpoint_sees_the_explicit_reachable_set(name):
    runs = _runs(name)
    rounds = _model(name)[2]
    symbolic, explicit = runs["symbolic"][1], runs["explicit"][1]
    sk = _fixpoint(symbolic, rounds)
    if sk is None:
        # Stacks may grow forever under FCR (Fig. 1); every Table 2 FCR
        # row reaches its (Sk) fixpoint, though.
        assert name not in ROWS, f"{name}: no (Sk) fixpoint within {rounds}"
        return
    # γ(S≤k) is the whole reachable set, so (Rk) plateaus by level k too.
    rk = _fixpoint(explicit, sk)
    assert rk is not None, f"{name}: (Sk) fixpoint at {sk} but no (Rk) one"
    assert set(symbolic.visible_up_to(sk)) == set(explicit.visible_up_to(rk))
