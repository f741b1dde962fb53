"""Tests for Alg. 2 / Z — golden values from Fig. 3 and Ex. 13,
a property-based check of Lemma 12 (T(R) ⊆ Z), and the lazy generator
test (:class:`GeneratorSearch`) against the eager ``G ∩ Z ⊆ T(Rk)``."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpds import CPDS, VisibleState
from repro.cuba import build_abstraction, compute_z, generator_analysis
from repro.cuba.overapprox import GeneratorSearch
from repro.errors import ContextExplosionError
from repro.models import fig1_cpds, fig2_cpds, runnable_benchmarks
from repro.pds import EMPTY, PDS
from repro.reach import ExplicitReach, registry
from repro.util.meter import METER


def vs(shared, *tops):
    return VisibleState(shared, tuple(tops))


def reference_z(cpds: CPDS) -> frozenset[VisibleState]:
    """Z by a plain BFS over :class:`VisibleState` objects (the
    definitional form of the asynchronous product ``Mn``)."""
    abstractions = [build_abstraction(pds) for pds in cpds.threads]
    initial = cpds.initial_state().visible()
    seen = {initial}
    work = deque([initial])
    while work:
        current = work.popleft()
        for index, abstraction in enumerate(abstractions):
            for shared, top in abstraction.successors(current.thread_visible(index)):
                tops = list(current.tops)
                tops[index] = top
                successor = VisibleState(shared, tuple(tops))
                if successor not in seen:
                    seen.add(successor)
                    work.append(successor)
    return frozenset(seen)


class TestBuildAbstractionFig1:
    def test_thread1_matches_fig3(self):
        abstraction = build_abstraction(fig1_cpds().thread(0))
        assert abstraction.transitions == {
            (0, 1): frozenset({(1, 2)}),
            (3, 2): frozenset({(0, 1)}),
        }
        assert abstraction.emerging == frozenset()

    def test_thread2_matches_fig3(self):
        abstraction = build_abstraction(fig1_cpds().thread(1))
        assert abstraction.emerging == frozenset({6})
        assert abstraction.transitions == {
            (0, 4): frozenset({(0, EMPTY), (0, 6)}),  # f1/f2 of Fig. 3
            (1, 4): frozenset({(2, 5)}),              # f3
            (2, 5): frozenset({(3, 4)}),              # f4
        }

    def test_transition_count(self):
        abstraction = build_abstraction(fig1_cpds().thread(1))
        assert abstraction.n_transitions() == 4


class TestComputeZFig1:
    def test_z_matches_ex13(self):
        expected = {
            vs(0, 1, 4),
            vs(1, 2, 4),
            vs(2, 2, 5),
            vs(3, 2, 4),
            vs(0, 1, EMPTY),
            vs(1, 2, EMPTY),
            vs(0, 1, 6),
            vs(1, 2, 6),
        }
        assert compute_z(fig1_cpds()) == expected


class TestLemma12OnPaperModels:
    def test_fig1_visible_reach_inside_z(self):
        cpds = fig1_cpds()
        z = compute_z(cpds)
        engine = ExplicitReach(cpds, track_traces=False)
        engine.ensure_level(8)
        assert engine.visible_up_to() <= z

    def test_fig2_z_is_finite_superset_of_samples(self):
        # Fig. 2 has no FCR, but Z is still finite and must contain the
        # visible states of known reachable states (Ex. 8's witness).
        z = compute_z(fig2_cpds())
        assert vs("⊥", 2, 6) in z
        assert vs(1, 4, 9) in z  # projection of ⟨1|4,9⟩
        assert len(z) < 3 * 5 * 5  # bounded by Q × Σ≤1 × Σ≤1


class TestEmergingOnEmptyWrite:
    def test_pop_gets_emerging_expansion(self):
        pds = PDS(initial_shared=0)
        pds.rule(0, "a", 1, ())             # pop
        pds.rule(1, "b", 1, ("c", "d"))     # push: d emerges
        abstraction = build_abstraction(pds)
        assert abstraction.transitions[(0, "a")] == frozenset(
            {(1, EMPTY), (1, "d")}
        )

    def test_no_pushes_no_expansion(self):
        pds = PDS(initial_shared=0)
        pds.rule(0, "a", 1, ())
        abstraction = build_abstraction(pds)
        assert abstraction.transitions[(0, "a")] == frozenset({(1, EMPTY)})


# ---------------------------------------------------------------------------
# Lemma 12 as a property: T(Rk) ⊆ Z on random CPDS.
# ---------------------------------------------------------------------------

@st.composite
def random_cpds(draw):
    threads = []
    stacks = []
    for _t in range(draw(st.integers(min_value=1, max_value=2))):
        pds = PDS(initial_shared=0, shared_states={0, 1}, alphabet={"a", "b"})
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            read = draw(st.sampled_from([None, "a", "b"]))
            if read is None:
                write = draw(st.sampled_from([(), ("a",), ("b",)]))
            else:
                write = draw(
                    st.sampled_from([(), ("a",), ("b",), ("a", "b"), ("b", "a")])
                )
            pds.rule(
                draw(st.sampled_from([0, 1])),
                read,
                draw(st.sampled_from([0, 1])),
                write,
            )
        threads.append(pds)
        stacks.append(tuple(draw(st.lists(st.sampled_from(["a", "b"]), max_size=1))))
    return CPDS(threads, initial_stacks=stacks)


@settings(max_examples=80, deadline=None)
@given(random_cpds())
def test_compute_z_matches_reference_on_random_cpds(cpds):
    assert compute_z(cpds) == reference_z(cpds)


#: |Z| of the largest row, pinned.
Z_SIZES = {"4/BST-Insert [2+2]": 158_783}


@pytest.mark.parametrize("bench", runnable_benchmarks(), ids=lambda bench: bench.name)
def test_compute_z_matches_reference_on_table2(bench):
    cpds, _prop = bench.build()
    before = METER.snapshot()
    z = compute_z(cpds)
    steps = METER.delta(before).get("overapprox.abstract_steps", 0)
    assert z == reference_z(cpds)
    assert steps == len(z)  # one abstract step per state of Z
    assert len(z) == Z_SIZES.get(bench.name, len(z))


@settings(max_examples=60, deadline=None)
@given(random_cpds())
def test_lemma12_on_random_cpds(cpds):
    z = compute_z(cpds)
    engine = ExplicitReach(cpds, max_states_per_context=3000, track_traces=False)
    try:
        engine.ensure_level(4)
    except ContextExplosionError:
        pass  # partial levels still satisfy the lemma
    assert engine.visible_up_to() <= z


class TestAbstractSequence:
    """The stratified abstraction (A_k): T(Rk) ⊆ A_k, limit = Z."""

    def test_limit_is_z(self):
        from repro.cuba import abstract_visible_levels

        cpds = fig1_cpds()
        levels = abstract_visible_levels(cpds)
        assert levels[-1] == compute_z(cpds)

    def test_monotone(self):
        from repro.cuba import abstract_visible_levels

        levels = abstract_visible_levels(fig1_cpds())
        for earlier, later in zip(levels, levels[1:]):
            assert earlier < later  # cumulative and strictly growing

    def test_dominates_concrete_levels_on_fig1(self):
        from repro.cuba import abstract_visible_levels

        cpds = fig1_cpds()
        levels = abstract_visible_levels(cpds)
        engine = ExplicitReach(cpds, track_traces=False)
        engine.ensure_level(6)
        for k in range(min(len(levels), 7)):
            assert engine.visible_up_to(k) <= levels[k], f"k={k}"

    def test_bug_lower_bound_tight_on_fig1(self):
        from repro.core import SharedStateReachability
        from repro.cuba import abstract_bug_lower_bound

        # Shared 3 is truly reachable at bound 2; the abstraction agrees.
        bound = abstract_bug_lower_bound(fig1_cpds(), SharedStateReachability({3}))
        assert bound == 2

    def test_bug_lower_bound_none_means_safe(self):
        from repro.core import SharedStateReachability
        from repro.cuba import abstract_bug_lower_bound

        assert abstract_bug_lower_bound(
            fig1_cpds(), SharedStateReachability({99})
        ) is None

    def test_lower_bound_sound_on_fig2(self):
        from repro.core import MutualExclusion
        from repro.cuba import abstract_bug_lower_bound
        from repro.models import fig2_cpds

        # ⟨1|4,9⟩ reachable at real bound 2; abstract bound must be ≤ 2.
        prop = MutualExclusion({0: {4}, 1: {9}})
        bound = abstract_bug_lower_bound(fig2_cpds(), prop)
        assert bound is not None and bound <= 2


@settings(max_examples=40, deadline=None)
@given(random_cpds())
def test_abstract_levels_dominate_concrete(cpds):
    from repro.cuba import abstract_visible_levels

    levels = abstract_visible_levels(cpds)
    engine = ExplicitReach(cpds, max_states_per_context=3000, track_traces=False)
    try:
        engine.ensure_level(3)
    except ContextExplosionError:
        return
    for k in range(4):
        abstract = levels[min(k, len(levels) - 1)]
        assert engine.visible_up_to(k) <= abstract, f"k={k}"


# ---------------------------------------------------------------------------
# The lazy generator test against the eager oracle.
# ---------------------------------------------------------------------------

def eager_oracle(cpds: CPDS) -> tuple[frozenset[VisibleState], frozenset[VisibleState]]:
    """``(Z, G ∩ Z)``, computed up front."""
    z = compute_z(cpds)
    return z, generator_analysis(cpds).intersect(z)


def check_exhausted(search: GeneratorSearch, z, eager) -> None:
    """Exhausting the search gives exactly ``Z`` and ``|G ∩ Z|``."""
    assert not search.unseen(z)  # Z ⊇ every T(Rk) (Lemma 12): still monotone
    assert search.exhausted
    assert search.states() == z
    assert search.z_size == len(z)
    assert search.generators == len(eager)


#: Paper figures and every runnable Table 2 row, each on its Cuba lane.
DIFFERENTIAL = [
    pytest.param(fig1_cpds, "explicit", id="fig1"),
    pytest.param(fig2_cpds, "symbolic", id="fig2"),
    *(
        pytest.param(
            lambda bench=bench: bench.build()[0],
            "explicit" if bench.fcr else "symbolic",
            id=bench.name,
        )
        for bench in runnable_benchmarks()
    ),
]


@pytest.mark.parametrize(("build", "lane"), DIFFERENTIAL)
def test_lazy_generator_test_matches_eager_at_each_new_plateau(build, lane):
    cpds = build()
    z, eager = eager_oracle(cpds)
    engine = registry.create(lane, cpds)
    before = METER.snapshot()
    search = GeneratorSearch(cpds, generator_analysis(cpds))
    plateaus = 0
    # Up to the first passed test or the (Rk) collapse; every row
    # reaches a new plateau of T(Rk) by bound 8.
    while engine.k < 8:
        engine.advance()
        k = engine.k
        if not engine.visible_new_at(k) and engine.visible_new_at(k - 1):
            plateaus += 1
            seen = engine.visible_up_to(k)
            missing = search.unseen(seen)
            assert (not missing) == (eager <= seen), f"k={k}"
            assert missing <= eager - seen
            if not missing:
                break
        if lane == "explicit" and engine.plateaued_at(k):
            break
    assert plateaus
    check_exhausted(search, z, eager)
    # One abstract step per state of Z, summed over the resumed calls.
    assert METER.delta(before).get("overapprox.abstract_steps", 0) == len(z)


@settings(max_examples=60, deadline=None)
@given(random_cpds())
def test_lazy_generator_test_matches_eager_on_random_cpds(cpds):
    z, eager = eager_oracle(cpds)
    engine = ExplicitReach(cpds, max_states_per_context=3000, track_traces=False)
    search = GeneratorSearch(cpds, generator_analysis(cpds))
    # Asked at every bound, not just at new plateaus: any growing
    # sequence of seen sets must get the eager answer.
    for k in range(6):
        if k:
            try:
                engine.advance()
            except ContextExplosionError:
                break
        seen = engine.visible_up_to(k)
        missing = search.unseen(seen)
        assert (not missing) == (eager <= seen), f"k={k}"
        assert missing <= eager - seen
    check_exhausted(search, z, eager)


def test_ex14_missing_generator_is_reported_again_until_seen():
    cpds = fig1_cpds()
    engine = ExplicitReach(cpds, track_traces=False)
    engine.ensure_level(6)
    search = GeneratorSearch(cpds, generator_analysis(cpds))
    # T(R3) = T(R2) lacks ⟨0|1,6⟩ (Ex. 14); T(R6) = T(R5) has it.
    assert search.unseen(engine.visible_up_to(3)) == {vs(0, 1, 6)}
    before = METER.snapshot()
    # Asked again: the kept generator answers without resuming the DFS.
    assert search.unseen(engine.visible_up_to(3)) == {vs(0, 1, 6)}
    assert METER.delta(before).get("overapprox.abstract_steps", 0) == 0
    assert not search.exhausted
    assert not search.unseen(engine.visible_up_to(6))
    assert search.exhausted
    assert (search.z_size, search.generators) == (8, 2)  # Ex. 13 / Ex. 14
