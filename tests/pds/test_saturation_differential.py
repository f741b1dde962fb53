"""Differential testing: worklist post* vs the naive reference.

The production :func:`post_star` (worklist, derived ε-closure) and
:func:`post_star_naive` (direct rule transcription, fixpoint) must
accept exactly the same configurations for any PDS and initial set.

Two generators feed the harness: hypothesis strategies (shrinking,
adversarial) and the library's own seeded generator
:mod:`repro.models.random_gen` (reproducible bulk — 200+ systems per
run, including empty-stack actions and multi-config initial sets).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.random_gen import RandomSpec, random_cpds
from repro.pds import (
    PDS,
    PDSState,
    post_star,
    post_star_naive,
    psa_for_configs,
)

SYMBOLS = ("a", "b")
SHARED = (0, 1, 2)


@st.composite
def random_pds_and_configs(draw):
    pds = PDS(initial_shared=0, shared_states=SHARED, alphabet=SYMBOLS)
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        src = draw(st.sampled_from(SHARED))
        dst = draw(st.sampled_from(SHARED))
        read = draw(st.sampled_from([None, "a", "b"]))
        if read is None:
            write = draw(st.sampled_from([(), ("a",), ("b",)]))
        else:
            write = draw(
                st.sampled_from(
                    [(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
                )
            )
        pds.rule(src, read, dst, write)
    n_configs = draw(st.integers(min_value=1, max_value=3))
    configs = []
    for _ in range(n_configs):
        shared = draw(st.sampled_from(SHARED))
        stack = tuple(draw(st.lists(st.sampled_from(SYMBOLS), max_size=2)))
        configs.append(PDSState(shared, stack))
    return pds, configs


@settings(max_examples=120, deadline=None)
@given(random_pds_and_configs())
def test_worklist_matches_naive(case):
    pds, configs = case
    fast = post_star(pds, psa_for_configs(pds, configs))
    slow = post_star_naive(pds, psa_for_configs(pds, configs))
    for shared in SHARED:
        assert fast.tops(shared) == slow.tops(shared), f"tops({shared})"
        fast_states = set(fast.enumerate_states(3))
        slow_states = set(slow.enumerate_states(3))
        assert fast_states == slow_states


@settings(max_examples=60, deadline=None)
@given(random_pds_and_configs())
def test_worklist_matches_naive_on_long_stacks(case):
    pds, configs = case
    fast = post_star(pds, psa_for_configs(pds, configs))
    slow = post_star_naive(pds, psa_for_configs(pds, configs))
    assert set(fast.enumerate_states(5)) == set(slow.enumerate_states(5))


# ---------------------------------------------------------------------------
# Bulk randomized harness over the library's seeded generator.
# ---------------------------------------------------------------------------

#: Shape chosen so empty-stack actions, pushes, and multi-symbol stacks
#: all occur regularly (empty_read_bias well above the generator default).
_SPEC = RandomSpec(
    n_threads=1,
    n_shared=3,
    n_symbols=2,
    rules_per_thread=7,
    push_bias=0.35,
    empty_read_bias=0.25,
    max_initial_stack=2,
)

N_RANDOM_SYSTEMS = 200


def _random_case(seed: int) -> tuple[PDS, list[PDSState]]:
    """Reproducible random PDS + initial config set for one seed."""
    pds = random_cpds(seed, _SPEC).thread(0)
    rng = random.Random(seed * 7919 + 17)
    shared = sorted(pds.shared_states)
    symbols = sorted(pds.alphabet)
    configs = []
    for _ in range(rng.randint(1, 3)):
        stack = tuple(
            rng.choice(symbols) for _ in range(rng.randint(0, 2))
        )
        configs.append(PDSState(rng.choice(shared), stack))
    return pds, configs


def _accepted_sets(psa, shared_states, depth=4):
    return {
        "tops": {shared: psa.tops(shared) for shared in shared_states},
        "states": set(psa.enumerate_states(depth)),
    }


@pytest.mark.parametrize("seed", range(N_RANDOM_SYSTEMS))
def test_randomized_differential(seed):
    """Worklist ≡ naive on 200 seeded random PDSs (zero divergences)."""
    pds, configs = _random_case(seed)
    fast = post_star(pds, psa_for_configs(pds, configs))
    slow = post_star_naive(pds, psa_for_configs(pds, configs))
    shared = sorted(pds.shared_states)
    assert _accepted_sets(fast, shared) == _accepted_sets(slow, shared), (
        f"divergence on seed {seed}: {pds!r}, configs {configs}"
    )
