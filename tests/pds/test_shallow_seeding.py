"""The seedless shallow saturation behind the FCR and WCR preconditions.

:class:`PostStarEngine`'s shallow engine saturates only the push
consequences of ``post*(Q × Σ≤1)`` and never builds the ``Q × Σ≤1``
seed edges (invariant 5 of the saturation Performance notes).
:func:`shallow_configs_psa` adds the seeds after the drain and must
produce exactly the automaton of a cold ``post*`` over
``psa_for_configs(pds, Q × Σ≤1)``; :func:`shallow_finiteness`, which
decides on the seedless automaton, must give that automaton's
``(finite, has_loop)`` — on every runnable Table 2 thread, on each
thread's write-free sub-PDS, and on random PDSs using every action
kind — and finiteness must match the naive oracle's automaton.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuba.fcr import check_fcr
from repro.models.registry import runnable_benchmarks
from repro.pds import PDS, PDSState, post_star, post_star_naive, psa_for_configs
from repro.pds.action import ActionKind
from repro.pds.saturation import shallow_configs_psa, shallow_finiteness
from repro.reach.wuba import write_free_sub_pds
from repro.util.meter import scoped


def _shallow_configs(pds: PDS):
    """The initial P-automaton for ``Q × Σ≤1``."""
    configs = [
        PDSState(shared, stack)
        for shared in pds.shared_states
        for stack in [(), *((symbol,) for symbol in pds.alphabet)]
    ]
    return psa_for_configs(pds, configs)


def _assert_same_automaton(pds: PDS) -> None:
    seeded = shallow_configs_psa(pds)
    cold = post_star(pds, _shallow_configs(pds))
    assert set(seeded.automaton.transitions()) == set(cold.automaton.transitions())
    assert seeded.automaton.states == cold.automaton.states
    assert seeded.automaton.accepting == cold.automaton.accepting
    assert seeded.control_states == cold.control_states


def _assert_same_finiteness(pds: PDS) -> None:
    expected = post_star(pds, _shallow_configs(pds)).finiteness()
    assert shallow_finiteness(pds) == expected
    assert shallow_configs_psa(pds).finiteness() == expected


ROWS = {bench.name: bench for bench in runnable_benchmarks()}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_table2_threads_match_cold_saturation(name):
    cpds, _prop = ROWS[name].build()
    for pds in cpds.threads:
        _assert_same_automaton(pds)
        _assert_same_automaton(write_free_sub_pds(pds))


@pytest.mark.parametrize("name", sorted(ROWS))
def test_table2_seedless_finiteness_matches_cold_saturation(name):
    cpds, _prop = ROWS[name].build()
    for pds in cpds.threads:
        _assert_same_finiteness(pds)
        _assert_same_finiteness(write_free_sub_pds(pds))


SHARED = (0, 1, 2)
SYMBOLS = ("a", "b")
_KIND_SHAPES = {
    ActionKind.POP: (st.sampled_from(SYMBOLS), st.just(())),
    ActionKind.OVERWRITE: (st.sampled_from(SYMBOLS), st.tuples(st.sampled_from(SYMBOLS))),
    ActionKind.PUSH: (
        st.sampled_from(SYMBOLS),
        st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(SYMBOLS)),
    ),
    ActionKind.EMPTY_OVERWRITE: (st.none(), st.just(())),
    ActionKind.EMPTY_PUSH: (st.none(), st.tuples(st.sampled_from(SYMBOLS))),
}


@st.composite
def pds_with_every_kind(draw):
    """A PDS with at least one rule of each of the five action kinds
    (empty-stack reads included) plus up to six more of any kind."""
    kinds = list(_KIND_SHAPES) + draw(
        st.lists(st.sampled_from(list(_KIND_SHAPES)), max_size=6)
    )
    pds = PDS(initial_shared=0, shared_states=SHARED, alphabet=SYMBOLS)
    for kind in kinds:
        read, write = _KIND_SHAPES[kind]
        pds.rule(
            draw(st.sampled_from(SHARED)),
            draw(read),
            draw(st.sampled_from(SHARED)),
            draw(write),
        )
    assert {action.kind for action in pds.actions} == set(_KIND_SHAPES)
    return pds


@settings(max_examples=150, deadline=None)
@given(pds_with_every_kind())
def test_random_pds_matches_cold_saturation(pds):
    _assert_same_automaton(pds)
    _assert_same_automaton(write_free_sub_pds(pds))


@settings(max_examples=150, deadline=None)
@given(pds_with_every_kind())
def test_random_pds_seedless_finiteness_matches_cold_saturation(pds):
    _assert_same_finiteness(pds)
    _assert_same_finiteness(write_free_sub_pds(pds))


@settings(max_examples=150, deadline=None)
@given(pds_with_every_kind())
def test_finiteness_matches_naive_oracle(pds):
    naive = post_star_naive(pds, _shallow_configs(pds))
    assert shallow_configs_psa(pds).language_is_finite() == naive.language_is_finite()
    assert shallow_finiteness(pds)[0] == naive.language_is_finite()


def test_fcr_meter_on_bluetooth_1():
    """The seeds are never built.  The cold saturation has 6,525 edges,
    5,805 of them seeds (129 controls × (ε + 28 symbols) on thread 1,
    × (ε + 15) on thread 2); the seedless one has 951, of which 231 are
    seeds the push consequences derive.  Each derived seed is processed
    once as a premise, so rule applications rise from 464 (push
    consequences only) to 656."""
    cpds, _prop = ROWS["1/Bluetooth-1 [1+1]"].build()
    with scoped() as work:
        report = check_fcr(cpds)
    assert report.holds
    assert work.get("post_star.edges_added", 0) == 951
    assert work.get("post_star.rule_applications", 0) == 656
