"""Tests for the context-bounded baseline (the Fig. 5 comparator)."""

import pytest

from repro.core import AlwaysSafe, SharedStateReachability, Verdict
from repro.cuba import context_bounded_analysis
from repro.models import fig1_cpds, fig2_cpds
from repro.reach import registry


class TestRefutation:
    def test_finds_bug_at_minimal_bound(self):
        result = context_bounded_analysis(
            fig1_cpds(), SharedStateReachability({3}), bound=5
        )
        assert result.verdict is Verdict.UNSAFE
        assert result.bound == 2

    def test_explicit_engine_agrees(self):
        result = context_bounded_analysis(
            fig1_cpds(), SharedStateReachability({3}), bound=5, engine="explicit"
        )
        assert result.verdict is Verdict.UNSAFE
        assert result.bound == 2

    def test_bug_beyond_bound_slips_through(self):
        # Shared 3 needs 2 contexts; with bound 1 CBA misses it.
        result = context_bounded_analysis(
            fig1_cpds(), SharedStateReachability({3}), bound=1
        )
        assert result.verdict is Verdict.UNKNOWN

    def test_initial_violation(self):
        result = context_bounded_analysis(
            fig1_cpds(), SharedStateReachability({0}), bound=3
        )
        assert result.verdict is Verdict.UNSAFE
        assert result.bound == 0


class TestCannotProve:
    def test_safe_program_stays_unknown(self):
        result = context_bounded_analysis(fig1_cpds(), AlwaysSafe(), bound=8)
        assert result.verdict is Verdict.UNKNOWN
        assert "cannot prove" in result.message

    def test_handles_non_fcr_with_symbolic(self):
        result = context_bounded_analysis(fig2_cpds(), AlwaysSafe(), bound=3)
        assert result.verdict is Verdict.UNKNOWN
        assert result.stats["visible_states"] > 0

    def test_explicit_on_non_fcr_reports_divergence(self):
        result = context_bounded_analysis(
            fig2_cpds(), AlwaysSafe(), bound=3,
            engine="explicit", max_states_per_context=500,
        )
        assert result.verdict is Verdict.UNKNOWN
        assert "diverged" in result.message

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            context_bounded_analysis(fig1_cpds(), AlwaysSafe(), 2, engine="bdd")


class TestPreparedEngine:
    """A prepared engine's existing levels are checked, not skipped:
    Fig. 1 first reaches shared state 3 at bound 2."""

    @pytest.mark.parametrize("lane", ["explicit", "symbolic"])
    @pytest.mark.parametrize("held", [1, 2, 3, 6])
    def test_held_levels_are_checked(self, lane, held):
        cpds = fig1_cpds()
        engine = registry.create(lane, cpds)
        engine.ensure_level(held)
        result = context_bounded_analysis(
            cpds, SharedStateReachability({3}), bound=4, engine=engine
        )
        assert (result.verdict, result.bound) == (Verdict.UNSAFE, 2)

    def test_deeper_engine_reports_nothing_beyond_bound(self):
        cpds = fig1_cpds()
        engine = registry.create("explicit", cpds)
        engine.ensure_level(4)
        result = context_bounded_analysis(
            cpds, SharedStateReachability({3}), bound=1, engine=engine
        )
        assert (result.verdict, result.bound) == (Verdict.UNKNOWN, 1)
