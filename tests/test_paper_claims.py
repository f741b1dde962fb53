"""Consolidated tests for the paper's formal claims.

Each test class corresponds to one lemma/property/theorem of the paper
and validates it either on the paper's own examples or as a
property-based statement on random systems.  (The figure-level golden
tests live next to their modules; this file covers the *claims*.)
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import terminology
from repro.cpds import CPDS
from repro.cuba import check_fcr, compute_z
from repro.errors import ContextExplosionError
from repro.models import fig1_cpds, fig2_cpds
from repro.pds import PDS, PDSState, post_star_explicit
from repro.pds.saturation import shallow_configs_psa
from repro.reach import ExplicitReach, SymbolicReach, validate_trace

SYMBOLS = ("a", "b")
SHARED = (0, 1)


@st.composite
def random_cpds(draw, max_threads=2, max_rules=6):
    threads = []
    stacks = []
    for _t in range(draw(st.integers(min_value=1, max_value=max_threads))):
        pds = PDS(initial_shared=0, shared_states=SHARED, alphabet=SYMBOLS)
        for _ in range(draw(st.integers(min_value=1, max_value=max_rules))):
            read = draw(st.sampled_from([None, "a", "b"]))
            if read is None:
                write = draw(st.sampled_from([(), ("a",), ("b",)]))
            else:
                write = draw(
                    st.sampled_from([(), ("a",), ("b",), ("a", "b"), ("b", "a")])
                )
            pds.rule(
                draw(st.sampled_from(SHARED)), read,
                draw(st.sampled_from(SHARED)), write,
            )
        threads.append(pds)
        stacks.append(tuple(draw(st.lists(st.sampled_from(SYMBOLS), max_size=1))))
    return CPDS(threads, initial_stacks=stacks)


class TestDefinition1Monotonicity:
    """Observation sequences are monotone by construction (Def. 1)."""

    @settings(max_examples=40, deadline=None)
    @given(random_cpds())
    def test_visible_sequence_monotone(self, cpds):
        engine = ExplicitReach(cpds, max_states_per_context=2000)
        try:
            engine.ensure_level(4)
        except ContextExplosionError:
            assume(False)
        prefix = [engine.visible_up_to(k) for k in range(5)]
        assert terminology.is_monotone(prefix)

    @settings(max_examples=25, deadline=None)
    @given(random_cpds())
    def test_symbolic_visible_sequence_monotone(self, cpds):
        engine = SymbolicReach(cpds)
        engine.ensure_level(3)
        prefix = [engine.visible_up_to(k) for k in range(4)]
        assert terminology.is_monotone(prefix)


class TestProperty3FiniteDomainConverges:
    """An OS over a finite domain converges (Prop. 3): T(Rk) always
    stabilizes because its domain Q×Σ≤1×...×Σ≤1 is finite."""

    @settings(max_examples=25, deadline=None)
    @given(random_cpds(max_threads=1, max_rules=4))
    def test_visible_sequence_stabilizes(self, cpds):
        engine = SymbolicReach(cpds)
        domain_size = len(cpds.shared_states) * (len(cpds.alphabet(0)) + 1)
        engine.ensure_level(domain_size + 1)
        # After |domain| growth steps there must be a plateau somewhere.
        prefix = [engine.visible_up_to(k) for k in range(domain_size + 2)]
        assert any(
            prefix[k] == prefix[k + 1] for k in range(len(prefix) - 1)
        )


class TestLemma7StutterFreeness:
    """(Rk) is stutter-free: one plateau means collapse (Lemma 7)."""

    @settings(max_examples=40, deadline=None)
    @given(random_cpds())
    def test_plateau_implies_collapse(self, cpds):
        engine = ExplicitReach(cpds, max_states_per_context=2000)
        try:
            engine.ensure_level(6)
        except ContextExplosionError:
            assume(False)
        sizes = [len(engine.states_up_to(k)) for k in range(7)]
        for k in range(1, 6):
            if sizes[k] == sizes[k - 1]:
                assert sizes[k:] == [sizes[k]] * (len(sizes) - k), sizes
                break

    def test_fig1_never_plateaus(self):
        # Ex. 5: (Rk) diverges on Fig. 1.
        engine = ExplicitReach(fig1_cpds())
        engine.ensure_level(8)
        for k in range(1, 9):
            assert not engine.plateaued_at(k)


class TestLemma12ZOverapproximates:
    """T(R) ⊆ Z (Lemma 12) — also covered per-module; here on Fig. 2
    via the symbolic engine (non-FCR case)."""

    def test_fig2_symbolic_visible_inside_z(self):
        cpds = fig2_cpds()
        z = compute_z(cpds)
        engine = SymbolicReach(cpds)
        engine.ensure_level(4)
        assert engine.visible_up_to() <= z


class TestLemma16FiniteShallowReach:
    """If R(Q×Σ≤1) is finite then R(s) is finite for any single s."""

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_deep_start_stays_finite(self, data):
        pds = PDS(initial_shared=0, shared_states=SHARED, alphabet=SYMBOLS)
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            read = data.draw(st.sampled_from(["a", "b"]))
            write = data.draw(
                st.sampled_from([(), ("a",), ("b",), ("a", "b"), ("b", "a")])
            )
            pds.rule(
                data.draw(st.sampled_from(SHARED)), read,
                data.draw(st.sampled_from(SHARED)), write,
            )
        assume(shallow_configs_psa(pds).language_is_finite())
        # Lemma 16: even from a size-4 stack, explicit search terminates.
        stack = tuple(data.draw(st.lists(st.sampled_from(SYMBOLS), min_size=4, max_size=4)))
        start = PDSState(data.draw(st.sampled_from(SHARED)), stack)
        post_star_explicit(pds, start, max_states=100_000)  # must not raise


class TestTheorem17FcrSoundness:
    """If the per-thread premise holds, every Rk is finite: the explicit
    engine never trips its guard on FCR-positive random CPDS."""

    @settings(max_examples=40, deadline=None)
    @given(random_cpds())
    def test_fcr_implies_explicit_termination(self, cpds):
        assume(check_fcr(cpds).holds)
        engine = ExplicitReach(cpds, max_states_per_context=100_000)
        engine.ensure_level(4)  # must not raise ContextExplosionError


class TestWitnessSoundness:
    """Counterexample traces replay under the real semantics."""

    def test_fig1_traces_replay(self):
        cpds = fig1_cpds()
        engine = ExplicitReach(cpds)
        engine.ensure_level(5)
        for state in engine.states_up_to(5):
            validate_trace(cpds, engine.trace(state))

    def test_validator_rejects_wrong_start(self):
        from repro.reach import Trace

        with pytest.raises(ValueError):
            validate_trace(fig1_cpds(), Trace(fig2_cpds().initial_state(), ()))

    def test_validator_rejects_forged_step(self):
        from repro.reach import Trace, TraceStep
        from repro.cpds import GlobalState

        cpds = fig1_cpds()
        action = cpds.thread(0).actions[0]  # f1
        forged = GlobalState(2, ((2,), (4,)))  # wrong shared state
        trace = Trace(cpds.initial_state(), (TraceStep(0, action, forged),))
        with pytest.raises(ValueError):
            validate_trace(cpds, trace)

    @settings(max_examples=30, deadline=None)
    @given(random_cpds())
    def test_random_traces_replay(self, cpds):
        engine = ExplicitReach(cpds, max_states_per_context=2000)
        try:
            engine.ensure_level(3)
        except ContextExplosionError:
            assume(False)
        for state in engine.states_up_to(3):
            validate_trace(cpds, engine.trace(state))


class TestEngineAgreement:
    """Explicit and symbolic engines compute the same T(Rk) (App. E)."""

    @settings(max_examples=25, deadline=None)
    @given(random_cpds())
    def test_visible_levels_agree(self, cpds):
        explicit = ExplicitReach(cpds, max_states_per_context=2000)
        try:
            explicit.ensure_level(3)
        except ContextExplosionError:
            assume(False)
        symbolic = SymbolicReach(cpds)
        symbolic.ensure_level(3)
        for k in range(4):
            assert symbolic.visible_up_to(k) == explicit.visible_up_to(k), f"k={k}"
