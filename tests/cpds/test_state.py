"""Unit tests for global/visible states and the projection T."""

import pytest

from repro.cpds import GlobalState, VisibleState, project
from repro.pds import EMPTY, PDSState


class TestGlobalState:
    def test_thread_view(self):
        state = GlobalState(1, ((2, 4), (6,)))
        assert state.thread(0) == PDSState(1, (2, 4))
        assert state.thread(1) == PDSState(1, (6,))

    def test_visible_projection(self):
        state = GlobalState(3, ((2, 4, 6), ()))
        assert state.visible() == VisibleState(3, (2, EMPTY))

    def test_stacks_coerced_to_tuples(self):
        state = GlobalState(0, [[1, 2], []])
        assert state.stacks == ((1, 2), ())
        assert hash(state)

    def test_tuple_of_lists_fails_loudly(self):
        # Only a non-tuple container is coerced; a tuple is trusted, so
        # a list inside it cannot be hashed.
        with pytest.raises(TypeError):
            GlobalState(0, ([1], ()))

    def test_max_stack_size(self):
        assert GlobalState(0, ((1, 2, 3), (4,))).max_stack_size() == 3
        assert GlobalState(0, ((), ())).max_stack_size() == 0

    def test_str(self):
        assert str(GlobalState(0, ((1,), ()))) == "⟨0|1,ε⟩"

    def test_n_threads(self):
        assert GlobalState(0, ((), (), ())).n_threads == 3


class TestVisibleState:
    def test_thread_visible(self):
        visible = VisibleState(2, (5, EMPTY))
        assert visible.thread_visible(0) == (2, 5)
        assert visible.thread_visible(1) == (2, EMPTY)

    def test_str_uses_epsilon(self):
        assert str(VisibleState(0, (1, EMPTY))) == "⟨0|1,ε⟩"

    def test_equality_hash(self):
        assert VisibleState(0, (1,)) == VisibleState(0, (1,))
        assert len({VisibleState(0, (1,)), VisibleState(0, (1,))}) == 1


class TestProject:
    def test_projects_set(self):
        states = [
            GlobalState(0, ((1, 9), (4,))),
            GlobalState(0, ((1, 8), (4,))),  # same projection
            GlobalState(1, ((2,), ())),
        ]
        assert project(states) == frozenset(
            {VisibleState(0, (1, 4)), VisibleState(1, (2, EMPTY))}
        )
