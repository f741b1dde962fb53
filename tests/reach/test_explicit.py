"""Explicit engine tests, centered on the paper's Fig. 1 golden table."""

import pytest

from repro.cpds import GlobalState, VisibleState
from repro.models import fig1_cpds
from repro.pds import EMPTY
from repro.reach import ExplicitReach


def gs(shared, stack1, stack2):
    return GlobalState(shared, (tuple(stack1), tuple(stack2)))


def vs(shared, top1, top2):
    return VisibleState(shared, (top1, top2))


#: The reachability table of Fig. 1 (right), rows Rk \ Rk−1 for k = 0..6.
FIG1_LEVELS = [
    {gs(0, [1], [4])},
    {gs(1, [2], [4]), gs(0, [1], [])},
    {gs(2, [2], [5]), gs(1, [2], []), gs(3, [2], [4, 6])},
    {gs(0, [1], [4, 6]), gs(1, [2], [4, 6])},
    {gs(0, [1], [6]), gs(2, [2], [5, 6]), gs(3, [2], [4, 6, 6])},
    {gs(0, [1], [4, 6, 6]), gs(1, [2], [4, 6, 6]), gs(1, [2], [6])},
    {gs(0, [1], [6, 6]), gs(2, [2], [5, 6, 6]), gs(3, [2], [4, 6, 6, 6])},
]

#: The visible-state column T(Rk) \ T(Rk−1) of Fig. 1 for k = 0..6.
FIG1_VISIBLE_LEVELS = [
    {vs(0, 1, 4)},
    {vs(1, 2, 4), vs(0, 1, EMPTY)},
    {vs(2, 2, 5), vs(1, 2, EMPTY), vs(3, 2, 4)},
    set(),
    {vs(0, 1, 6)},
    {vs(1, 2, 6)},
    set(),
]


@pytest.fixture
def engine():
    reach = ExplicitReach(fig1_cpds())
    reach.ensure_level(6)
    return reach


class TestFig1GoldenTable:
    def test_global_levels_match_paper(self, engine):
        for k, expected in enumerate(FIG1_LEVELS):
            assert engine.states_new_at(k) == expected, f"R{k} mismatch"

    def test_visible_levels_match_paper(self, engine):
        for k, expected in enumerate(FIG1_VISIBLE_LEVELS):
            assert engine.visible_new_at(k) == expected, f"T(R{k}) mismatch"

    def test_plateau_structure(self, engine):
        # (T(Rk)) plateaus at 2 (stuttering) and at 5 (Ex. 5 / Ex. 9).
        assert engine.visible_plateaued_at(3)
        assert not engine.visible_plateaued_at(4)
        assert not engine.visible_plateaued_at(5)
        assert engine.visible_plateaued_at(6)

    def test_global_sequence_never_plateaus_up_to_6(self, engine):
        # (Rk) diverges on Fig. 1 (Ex. 5): every level adds states.
        for k in range(1, 7):
            assert not engine.plateaued_at(k)

    def test_cumulative_counts(self, engine):
        assert len(engine.states_up_to(0)) == 1
        assert len(engine.states_up_to(2)) == 6
        assert len(engine.states_up_to(6)) == sum(len(level) for level in FIG1_LEVELS)

    def test_visible_up_to_is_union(self, engine):
        expected = set()
        for level in FIG1_VISIBLE_LEVELS[:5]:
            expected |= level
        assert engine.visible_up_to(4) == expected

    def test_monotone_cumulative_visible(self, engine):
        for k in range(1, 7):
            assert engine.visible_up_to(k - 1) <= engine.visible_up_to(k)


class TestTraces:
    def test_trace_to_initial_is_empty(self):
        reach = ExplicitReach(fig1_cpds())
        trace = reach.trace(fig1_cpds().initial_state())
        assert len(trace) == 0
        assert trace.n_contexts == 0

    def test_trace_to_deep_state(self, engine):
        target = gs(3, [2], [4, 6, 6])
        trace = engine.trace(target)
        assert trace.target == target
        assert trace.initial == fig1_cpds().initial_state()
        # Verify every step is a real transition of the claimed thread.
        from repro.cpds import global_successors

        current = trace.initial
        for step in trace.steps:
            options = {
                (thread, state)
                for thread, _a, state in global_successors(fig1_cpds(), current)
            }
            assert (step.thread, step.state) in options
            current = step.state

    def test_trace_context_count_bounded_by_level(self, engine):
        # A state first reached at bound k has a witness with ≤ k contexts.
        for k, level in enumerate(FIG1_LEVELS):
            for state in level:
                assert engine.trace(state).n_contexts <= k

    def test_trace_unknown_state(self, engine):
        with pytest.raises(KeyError):
            engine.trace(gs(0, [2], [4]))

    def test_find_visible(self, engine):
        found = engine.find_visible(vs(0, 1, 6))
        assert found is not None
        assert found.visible() == vs(0, 1, 6)
        assert engine.find_visible(vs(3, 1, 4)) is None

    def test_trace_str_formats_path(self, engine):
        trace = engine.trace(gs(1, [2], [4]))
        assert "f1[T1]" in str(trace)
