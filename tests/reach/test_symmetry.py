"""Symmetry reduction in the explicit and symbolic lanes is exact.

A translated program that runs one thread template several times
declares its replica swaps (``CPDS.symmetry_candidates``); the batched
explicit engine verifies them rule for rule and stores one
representative per orbit of the generated group, with an ``_ids`` entry
for every orbit member.  Everything the algorithms observe must be what
an unreduced run observes: decoded levels, ``first_seen``, level sizes,
``T(Rk)`` level by level and the property violation found there.  The
ground truths are the per-state oracle (``batched=False``, never
reduced) and a batched run on the same threads without candidates (the
trivial group).  Witness traces of non-representative states must
replay through the CPDS semantics from the initial state.

The batched symbolic engine expands one state per orbit of its
frontier and keys its expansion memo by orbit-canonical thread views;
its levels, ``T(Sk)`` levels and verdicts must be those of the same
threads without candidates, and a blob of such a run (raw-view memo
keys) must resume on the reduced engine.
"""

import random

import pytest

from repro.bp.translate import compile_source
from repro.core.property import MutualExclusion, SharedStateReachability
from repro.cpds import format_cpds, parse_cpds
from repro.cpds.cpds import CPDS
from repro.cpds.symmetry import verified_symmetry
from repro.cuba import Cuba
from repro.errors import ContextExplosionError
from repro.models.registry import TABLE2
from repro.pds.pds import PDS
from repro.cuba.lanes import run_lane
from repro.reach.explicit import ExplicitReach
from repro.reach.symbolic import SymbolicReach
from repro.reach.witness import validate_trace
from repro.util.meter import scoped

#: The FCR rows whose translation declares replica swaps.
CANDIDATE_ROWS = tuple(
    bench for bench in TABLE2 if bench.fcr and not bench.skip_run and (
        bench.config in ("1+2", "2+1", "2+2", "1•+2")
    )
)

ORACLE_K = 3

#: name -> (representatives, |R|) at the plateau.
PINNED_ORBITS = {
    "4/BST-Insert [2+2]": (55_024, 206_342),
    "4/BST-Insert [2+1]": (7_840, 15_335),
}


def trivial_copy(cpds: CPDS) -> CPDS:
    """The same threads without declared candidates: the trivial group,
    the same fingerprint.  (Translated shared states are tuples, which
    the ``.cpds`` text format cannot spell, so a translated model is
    re-wrapped rather than printed and parsed.)"""
    return CPDS(cpds.threads, cpds.initial_stacks, name=cpds.name)


def run_to(engine: ExplicitReach, k: int | None = None) -> ExplicitReach:
    if k is None:
        while not engine.plateaued_at(engine.k):
            engine.advance()
    else:
        engine.ensure_level(k)
    return engine


def assert_same_observations(reduced, other, props, k_max):
    """Equal levels, level sizes, ``T(Rk)`` per level and violations.
    ``violation_at`` picks by value, not by component numbering, so the
    reported violator itself must be the same even when a level holds
    several."""
    assert reduced.level_sizes()[: k_max + 1] == other.level_sizes()[: k_max + 1]
    for k in range(k_max + 1):
        assert reduced.levels[k] == other.levels[k], f"k={k}"
        assert reduced.visible_new_at(k) == other.visible_new_at(k), f"k={k}"
        assert len(reduced.visible_up_to(k)) == len(other.visible_up_to(k))
        for prop in props:
            assert reduced.violation_at(k, prop) == other.violation_at(k, prop), (
                f"k={k}"
            )


def orbit_count(states, symmetry) -> int:
    """Orbits of ``states`` by orbit-stabilizer: each state contributes
    ``|Stab(s)| / |G|``."""
    fixed = sum(
        symmetry.apply(element, state) == state
        for state in states
        for element in range(symmetry.order)
    )
    assert fixed % symmetry.order == 0
    return fixed // symmetry.order


# ----------------------------------------------------------------------
# Table 2 rows
# ----------------------------------------------------------------------
def test_candidate_rows_are_the_nine_replicated_fcr_rows():
    assert len(CANDIDATE_ROWS) == 9
    for bench in CANDIDATE_ROWS:
        cpds, _prop = bench.build()
        assert cpds.symmetry_candidates, bench.name
        assert verified_symmetry(cpds).order == (
            4 if bench.config == "2+2" else 2
        ), bench.name


@pytest.mark.parametrize("bench", CANDIDATE_ROWS, ids=lambda b: b.name)
def test_reduced_matches_the_per_state_oracle(bench):
    cpds, prop = bench.build()
    reduced = run_to(ExplicitReach(cpds), ORACLE_K)
    oracle = run_to(ExplicitReach(cpds, batched=False), ORACLE_K)
    assert reduced.table.order > 1
    assert oracle.table.order == 1
    assert_same_observations(reduced, oracle, [prop], ORACLE_K)
    assert reduced.first_seen == oracle.first_seen


@pytest.mark.parametrize("bench", CANDIDATE_ROWS, ids=lambda b: b.name)
def test_reduced_matches_the_trivial_group_to_the_plateau(bench):
    cpds, prop = bench.build()
    reduced = run_to(ExplicitReach(cpds))
    plain = run_to(ExplicitReach(trivial_copy(cpds)))
    assert plain.table.order == 1
    assert reduced.k == plain.k
    # Equal levels are equal ``first_seen`` maps (checked against the
    # oracle above), so the full decode happens once per engine here.
    assert_same_observations(reduced, plain, [prop], reduced.k)
    assert reduced.stats()["global_states"] == plain.stats()["global_states"]
    assert reduced.stats()["symmetry_order"] == reduced.table.order
    # One stored representative per orbit of the unreduced set.
    symmetry = reduced.symmetry
    unreduced = [state for level in plain.levels for state in level]
    assert len(reduced.table) == orbit_count(unreduced, symmetry)
    assert len(reduced.table) < plain.n_states
    if bench.name in PINNED_ORBITS:
        assert (len(reduced.table), plain.n_states) == PINNED_ORBITS[bench.name]


def test_orbit_images_meter_counts_the_image_entries():
    bench = next(b for b in CANDIDATE_ROWS if b.name == "4/BST-Insert [2+1]")
    cpds, _prop = bench.build()
    with scoped() as work:
        engine = run_to(ExplicitReach(cpds))
    assert len(engine.table) + work["explicit.orbit_images"] == engine.n_states
    # The batching identity holds under reduction too.
    assert (
        work["explicit.expansions"] + work.get("explicit.context_cache_hits", 0)
        == work["explicit.level_unique_views"]
    )


@pytest.mark.parametrize(
    "name", ["1/Bluetooth-1 [1+2]", "1/Bluetooth-1 [2+1]"]
)
def test_witness_traces_replay_from_the_initial_state(name):
    bench = next(b for b in CANDIDATE_ROWS if b.name == name)
    cpds, prop = bench.build()
    cuba = Cuba(cpds, prop)
    result = cuba.verify(max_rounds=bench.max_rounds).result
    assert result.verdict.value == "unsafe"
    validate_trace(cpds, result.trace)
    assert result.trace.target.visible() == result.witness
    # Every state of the violating level, representative or image.
    engine = cuba.last_engine
    assert engine.table.order == 2
    k = result.bound
    images = 0
    for state in engine.states_new_at(k):
        path = engine.trace(state)
        validate_trace(cpds, path)
        assert path.target == state
        images += engine.table.id_of(state) % engine.table.order
    assert images  # some targets were reached through an image entry


# ----------------------------------------------------------------------
# Checker negatives: any mismatch falls back to the trivial group
# ----------------------------------------------------------------------
def _rebuilt(cpds: CPDS, thread: int, actions) -> CPDS:
    pds = cpds.thread(thread)
    copy = PDS(
        initial_shared=pds.initial_shared,
        shared_states=pds.shared_states,
        alphabet=pds.alphabet,
        name=pds.name,
    )
    copy.add_actions(actions)
    threads = list(cpds.threads)
    threads[thread] = copy
    return CPDS(
        threads,
        cpds.initial_stacks,
        name=cpds.name,
        symmetry_candidates=cpds.symmetry_candidates,
    )


def _bluetooth_1_2():
    bench = next(b for b in CANDIDATE_ROWS if b.name == "1/Bluetooth-1 [1+2]")
    return bench.build()


def test_a_rule_dropped_from_one_replica_gives_the_trivial_group():
    cpds, _prop = _bluetooth_1_2()
    assert verified_symmetry(cpds).order == 2
    actions = cpds.thread(2).actions
    broken = _rebuilt(cpds, 2, actions[:-1])
    assert verified_symmetry(broken).order == 1
    engine = ExplicitReach(broken)
    assert engine.table.order == 1 and engine.stats()["symmetry_order"] == 1


def test_unequal_initial_stacks_give_the_trivial_group():
    cpds, _prop = _bluetooth_1_2()
    stacks = list(cpds.initial_stacks)
    other = next(s for s in cpds.alphabet(2) if (s,) != stacks[2])
    stacks[2] = (other,)
    skewed = CPDS(
        cpds.threads, stacks, symmetry_candidates=cpds.symmetry_candidates
    )
    assert verified_symmetry(skewed).order == 1


RETURNING = """
decl v;
bool get() { return v; }
void reader() { decl t; t := call get(); v := !t; }
void main() { thread_create(&reader); thread_create(&reader); }
"""


def test_a_missing_retbuf_relabelling_gives_the_trivial_group():
    cpds = compile_source(RETURNING).cpds
    ((perm, shared_map),) = cpds.symmetry_candidates
    assert verified_symmetry(cpds).order == 2
    # Relabel ``owner`` only, leaving retbuf's restore owner alone.
    partial = {}
    for q, image in shared_map.items():
        if isinstance(q, tuple) and q[2] is not None:
            image = image[:2] + (q[2],) + image[3:]
        partial[q] = image
    assert partial != shared_map
    broken = CPDS(
        cpds.threads, cpds.initial_stacks, symmetry_candidates=[(perm, partial)]
    )
    assert verified_symmetry(broken).order == 1


def test_returning_replicas_reduce_exactly():
    """The retbuf relabelling in action: handoffs in flight move with
    the thread that owns them."""
    compiled = compile_source(RETURNING)
    cpds = compiled.cpds
    reduced = run_to(ExplicitReach(cpds))
    plain = run_to(ExplicitReach(trivial_copy(cpds)))
    assert reduced.table.order == 2
    assert_same_observations(reduced, plain, [compiled.prop], reduced.k)
    for state in plain.states_up_to():
        validate_trace(cpds, reduced.trace(state))


def test_verification_is_memoized_until_a_rule_changes():
    cpds, _prop = _bluetooth_1_2()
    first = verified_symmetry(cpds)
    assert verified_symmetry(cpds) is first
    pds = cpds.thread(0)
    pds.declare_symbol(("extra", 0, ()))
    assert verified_symmetry(cpds) is not first


# ----------------------------------------------------------------------
# Random models built from replicated templates
# ----------------------------------------------------------------------
def replicated_cpds(seed: int, copies: int = 2, loners: int = 1) -> CPDS:
    """Random threads from one template, ``copies`` times, plus
    ``loners`` unrelated threads.  Shared states ``o<owner>v<value>``
    name an owner (0: nobody), and a replica acts only from states it
    or nobody owns, like the translator's atomic sections; the swaps
    relabel owners.  Every state and symbol is a plain token, so the
    model round-trips through the ``.cpds`` text format."""
    rng = random.Random(seed)
    n = copies + loners
    values = (0, 1)
    symbols = ["a", "b", "c"]
    shared = [f"o{owner}v{value}" for owner in range(n + 1) for value in values]

    def write():
        roll = rng.random()
        if roll < 0.3:
            return (rng.choice(symbols), rng.choice(symbols))
        if roll < 0.7:
            return (rng.choice(symbols),)
        return ()

    def rules():
        # The first rule is enabled initially, so every run moves.
        return [(False, 0, "a", rng.random() < 0.3, rng.choice(values), write())] + [
            (rng.random() < 0.3, rng.choice(values), rng.choice(symbols),
             rng.random() < 0.3, rng.choice(values), write())
            for _ in range(9)
        ]

    template = rules()
    threads = []
    for index in range(n):
        own = index + 1
        pds = PDS(initial_shared="o0v0", shared_states=shared, alphabet=symbols,
                  name=f"T{own}")
        for src_own, src, read, dst_own, dst, written in (
            template if index < copies else rules()
        ):
            pds.rule(
                f"o{own if src_own else 0}v{src}", read,
                f"o{own if dst_own else 0}v{dst}", written,
            )
        threads.append(pds)
    swaps = []
    for first in range(copies):
        for second in range(first + 1, copies):
            perm = list(range(n))
            perm[first], perm[second] = second, first
            owners = {first + 1: second + 1, second + 1: first + 1}
            swaps.append((
                tuple(perm),
                {
                    f"o{owner}v{value}": f"o{owners.get(owner, owner)}v{value}"
                    for owner in range(n + 1)
                    for value in values
                },
            ))
    return CPDS(threads, [("a",)] * n, name=f"replicated-{seed}",
                symmetry_candidates=swaps)


@pytest.mark.parametrize("seed", range(16))
def test_random_replicated_models_reduce_exactly(seed):
    copies = 3 if seed % 3 == 0 else 2
    cpds = replicated_cpds(seed, copies=copies, loners=seed % 2)
    symmetry = verified_symmetry(cpds)
    assert symmetry.order == (6 if copies == 3 else 2)
    plain = parse_cpds(format_cpds(cpds))
    assert not plain.symmetry_candidates
    props = [
        SharedStateReachability({"o1v1", "o2v0"}),
        MutualExclusion({0: {"b"}, 1: {"c"}}),
    ]
    k_max = 4
    engines = (
        ExplicitReach(cpds, max_states_per_context=500),
        ExplicitReach(plain, max_states_per_context=500),
        ExplicitReach(
            cpds, max_states_per_context=500, batched=False
        ),
    )
    exploded = []
    for engine in engines:
        try:
            run_to(engine, k_max)
            exploded.append(False)
        except ContextExplosionError:
            exploded.append(True)
    assert len(set(exploded)) == 1, f"seed {seed}: divergence disagrees"
    if exploded[0]:
        return  # not FCR: every engine trips the guard
    reduced, trivial, oracle = engines
    assert reduced.table.order == symmetry.order
    assert_same_observations(reduced, trivial, props, k_max)
    assert_same_observations(reduced, oracle, props, k_max)
    assert reduced.first_seen == oracle.first_seen
    assert len(reduced.table) == orbit_count(oracle.states_up_to(k_max), symmetry)
    for state in oracle.states_up_to(k_max):
        validate_trace(cpds, reduced.trace(state))


def test_a_level_with_several_violators_reports_the_same_one():
    """The violator does not follow the component numbering: a reduced
    engine interns a shared state's orbit with it and shares one stack
    pool among replicas, and the per-state oracle interns in set order,
    yet all three report the same violator of a level that holds
    several."""
    cpds = replicated_cpds(4, copies=2, loners=0)
    prop = SharedStateReachability({"o1v1", "o2v0"})
    reduced = run_to(ExplicitReach(cpds), 1)
    trivial = run_to(ExplicitReach(parse_cpds(format_cpds(cpds))), 1)
    oracle = run_to(ExplicitReach(cpds, batched=False), 1)
    assert reduced.table.order == 2
    assert sum(map(prop.violated_by, trivial.visible_new_at(1))) >= 2
    # The orbit of a shared state is interned with it: the numberings
    # differ, so a key order would pick differently.
    assert reduced.table._shareds != trivial.table._shareds
    found = reduced.violation_at(1, prop)
    assert found is not None
    assert found == trivial.violation_at(1, prop) == oracle.violation_at(1, prop)
    for engine in (reduced, trivial, oracle):
        validate_trace(cpds, engine.trace(engine.find_visible(found)))


@pytest.mark.parametrize("seed, copies", [(0, 3), (2, 2)])
def test_repacking_rewrites_the_image_entries(seed, copies):
    """Start both engines at 1-bit fields so the component pools
    outgrow them: every repack must carry the orbit images' entries
    (they have no packed column) along with the representatives'.  On
    these two models a repack happens after image entries exist."""
    cpds = replicated_cpds(seed, copies=copies, loners=0)
    engines = [ExplicitReach(cpds), ExplicitReach(parse_cpds(format_cpds(cpds)))]
    for engine in engines:
        table = engine.table
        assert table._packed == [0]  # the initial key is 0 at any width
        table._bits, table._mask, table._limit = 1, 1, 2
        table._qshift = cpds.n_threads
        table._era += 1
    reduced, plain = (run_to(engine, 4) for engine in engines)
    assert reduced.table.order > 1 and reduced.table._bits > 1
    assert_same_observations(reduced, plain, [], 4)
    for state in plain.states_up_to(4):
        validate_trace(cpds, reduced.trace(state))


# ----------------------------------------------------------------------
# Symbolic lane
# ----------------------------------------------------------------------
#: Every runnable row whose translation declares replica swaps: the
#: FCR rows above and Proc-2 [2+2•].
SYMBOLIC_ROWS = tuple(
    bench for bench in TABLE2 if not bench.skip_run and (
        bench.config in ("1+2", "2+1", "2+2", "1•+2", "2+2•")
    )
)

#: name -> symbolic.expansions of the reduced lane run.
PINNED_EXPANSIONS = {
    "5/FileCrawler [1•+2]": 281,
    "7/Proc-2 [2+2•]": 21,
}


def assert_same_symbolic_levels(reduced, plain, k_max):
    for k in range(k_max + 1):
        assert reduced.levels[k] == plain.levels[k], f"k={k}"
        assert reduced.visible_new_at(k) == plain.visible_new_at(k), f"k={k}"


def test_symbolic_rows_are_the_ten_replicated_rows():
    assert len(SYMBOLIC_ROWS) == 10
    assert set(PINNED_EXPANSIONS) <= {bench.name for bench in SYMBOLIC_ROWS}


@pytest.mark.parametrize("bench", SYMBOLIC_ROWS, ids=lambda b: b.name)
def test_symbolic_reduced_matches_the_trivial_group(bench):
    cpds, prop = bench.build()
    reduced = SymbolicReach(cpds)
    plain = SymbolicReach(trivial_copy(cpds))
    with scoped() as work:
        result = run_lane(reduced, cpds, prop, max_rounds=bench.max_rounds)
    with scoped() as plain_work:
        expected = run_lane(plain, cpds, prop, max_rounds=bench.max_rounds)
    assert reduced.stats()["symmetry_order"] > 1
    assert plain.stats()["symmetry_order"] == 1
    assert (result.verdict, result.bound, result.method) == (
        expected.verdict, expected.bound, expected.method
    )
    assert reduced.k == plain.k
    assert_same_symbolic_levels(reduced, plain, reduced.k)
    assert reduced.stats()["levels"] == plain.stats()["levels"]
    # One expansion per orbit-canonical view, never more than unreduced.
    assert work["symbolic.expansions"] < plain_work["symbolic.expansions"]
    assert (
        work["symbolic.expansions"] + work.get("symbolic.expansion_cache_hits", 0)
        == work["symbolic.level_unique_views"]
    )
    if bench.name in PINNED_EXPANSIONS:
        assert work["symbolic.expansions"] == PINNED_EXPANSIONS[bench.name]


@pytest.mark.parametrize("seed", range(12))
def test_symbolic_random_replicated_models_reduce_exactly(seed):
    copies = 3 if seed % 3 == 0 else 2
    cpds = replicated_cpds(seed, copies=copies, loners=seed % 2)
    plain_cpds = parse_cpds(format_cpds(cpds))
    reduced = SymbolicReach(cpds)
    plain = SymbolicReach(plain_cpds)
    oracle = SymbolicReach(cpds, batched=False)
    k_max = 3
    for engine in (reduced, plain, oracle):
        engine.ensure_level(k_max)
    assert reduced.stats()["symmetry_order"] == (6 if copies == 3 else 2)
    assert oracle.stats()["symmetry_order"] == 1
    assert_same_symbolic_levels(reduced, plain, k_max)
    assert_same_symbolic_levels(reduced, oracle, k_max)


@pytest.mark.parametrize(
    "name", ["5/FileCrawler [1•+2]", "7/Proc-2 [2+2•]", "1/Bluetooth-1 [1+2]"]
)
def test_symbolic_blob_with_raw_view_keys_resumes_reduced(name):
    """A blob of the candidate-free run carries memo keys that are not
    orbit-canonical; the reduced engine re-keys them on restore and
    finishes with the uninterrupted levels."""
    bench = next(b for b in SYMBOLIC_ROWS if b.name == name)
    cpds, _prop = bench.build()
    plain = SymbolicReach(trivial_copy(cpds))
    plain.ensure_level(2)
    restored = SymbolicReach.restore(cpds, plain.snapshot())
    assert restored.stats()["symmetry_order"] > 1
    assert len(restored._expansions) < len(plain._expansions)
    uninterrupted = SymbolicReach(cpds)
    uninterrupted.ensure_level(5)
    restored.ensure_level(5)
    assert_same_symbolic_levels(restored, uninterrupted, 5)
