"""Unit tests for the PDS container and its explicit step semantics."""

import pytest

from repro.errors import ContextExplosionError, ModelError
from repro.pds import PDS, Action, PDSState, enabled_actions, post_star_explicit, step, successors
from repro.pds.action import ActionKind


def fig1_thread2():
    """Thread 2 of the paper's Fig. 1 CPDS (∆2)."""
    pds = PDS(initial_shared=0, shared_states={0, 1, 2, 3}, name="P2")
    pds.rule(0, "4", 0, (), label="b1")
    pds.rule(1, "4", 2, ("5",), label="b2")
    pds.rule(2, "5", 3, ("4", "6"), label="b3")
    return pds


class TestPDSContainer:
    def test_auto_registration(self):
        pds = PDS(initial_shared="i")
        pds.rule("i", "a", "j", ("b", "c"))
        assert pds.shared_states == frozenset({"i", "j"})
        assert pds.alphabet == frozenset({"a", "b", "c"})

    def test_actions_for_trigger(self):
        pds = fig1_thread2()
        labels = [a.label for a in pds.actions_for(0, "4")]
        assert labels == ["b1"]
        assert pds.actions_for(9, "4") == ()

    def test_empty_stack_trigger_uses_none(self):
        pds = PDS(initial_shared=0)
        pds.rule(0, None, 1, ("a",))
        assert len(pds.actions_for(0, None)) == 1

    def test_rejects_none_symbol(self):
        pds = PDS(initial_shared=0)
        with pytest.raises(ModelError):
            pds.add_action(Action(0, (None,), 1, ()))

    def test_bulk_add_keeps_insertion_order(self):
        # Multiples of 1024 share a hash-table slot, so the iteration
        # order of a set of them shows the order they were added in.
        k = 1024
        actions = [
            Action.of_kind(k, (k + 1,), 2 * k, (1,), ActionKind.OVERWRITE),
            Action.of_kind(2 * k, (1,), 3 * k, (2 * k + 1, k + 1), ActionKind.PUSH),
            Action.of_kind(3 * k, (2 * k + 1,), k, (), ActionKind.POP),
            Action.of_kind(k, (), 4 * k, (3 * k + 1,), ActionKind.EMPTY_PUSH),
            Action.of_kind(k, (k + 1,), k, (4 * k + 1,), ActionKind.OVERWRITE),
        ]
        pds = PDS(initial_shared=0)
        before = pds.version
        pds.add_actions(actions)
        assert pds.version == before + 1
        assert pds.actions == tuple(actions)
        # Per action: from_shared, to_shared, then read, write.
        shared, alphabet = {0}, set()
        for action in actions:
            shared.add(action.from_shared)
            shared.add(action.to_shared)
            alphabet.update(action.read)
            alphabet.update(action.write)
        assert list(pds._shared_states) == list(shared)
        assert list(pds._alphabet) == list(alphabet)
        assert list(pds.trigger_index().items()) == [
            ((k, k + 1), (actions[0], actions[4])),
            ((2 * k, 1), (actions[1],)),
            ((3 * k, 2 * k + 1), (actions[2],)),
            ((k, None), (actions[3],)),
        ]

    @pytest.mark.parametrize(
        "action",
        [
            Action.of_kind(0, (None,), 1, (), ActionKind.POP),
            Action.of_kind(0, ("a",), 1, (None,), ActionKind.OVERWRITE),
            Action.of_kind(0, ("a",), 1, ("b",), ActionKind.PUSH),
            Action.of_kind(0, (), 1, ("a", "b"), ActionKind.EMPTY_PUSH),
            Action.of_kind(0, ("a", "b"), 1, (), ActionKind.POP),
        ],
        ids=["none-read", "none-write", "kind-mismatch", "empty-push-two", "reads-two"],
    )
    def test_bulk_add_rejects_before_adding(self, action):
        pds = PDS(initial_shared=0)
        good = Action.of_kind(0, ("x",), 0, ("y",), ActionKind.OVERWRITE)
        with pytest.raises(ModelError):
            pds.add_actions([good, action])
        assert pds.actions == ()
        assert pds.alphabet == frozenset()

    def test_initial_state_default_empty(self):
        assert fig1_thread2().initial_state() == PDSState(0, ())

    def test_initial_state_with_stack(self):
        assert fig1_thread2().initial_state(["4"]) == PDSState(0, ("4",))

    def test_initial_state_checks_alphabet(self):
        with pytest.raises(ModelError):
            fig1_thread2().initial_state(["zz"])

    def test_validate_passes_on_wellformed(self):
        fig1_thread2().validate()


class TestStepSemantics:
    def test_pop_removes_top(self):
        action = Action.make(0, "4", 0, ())
        assert step(PDSState(0, ("4", "6")), action) == PDSState(0, ("6",))

    def test_pop_last_symbol_empties_stack(self):
        action = Action.make(0, "4", 1, ())
        assert step(PDSState(0, ("4",)), action) == PDSState(1, ())

    def test_overwrite_replaces_top(self):
        action = Action.make(1, "4", 2, ("5",))
        assert step(PDSState(1, ("4", "6")), action) == PDSState(2, ("5", "6"))

    def test_push_grows_stack_and_overwrites(self):
        # (2,5) → (3,46): 5 becomes 6, 4 pushed above (paper Fig. 1 b3).
        action = Action.make(2, "5", 3, ("4", "6"))
        assert step(PDSState(2, ("5",)), action) == PDSState(3, ("4", "6"))
        assert step(PDSState(2, ("5", "9")), action) == PDSState(3, ("4", "6", "9"))

    def test_empty_overwrite_changes_shared_only(self):
        action = Action.make(0, None, 7, ())
        assert step(PDSState(0, ()), action) == PDSState(7, ())

    def test_empty_push_starts_stack(self):
        action = Action.make(0, None, 1, ("a",))
        assert step(PDSState(0, ()), action) == PDSState(1, ("a",))

    def test_enabled_actions_depend_on_visible_state(self):
        pds = fig1_thread2()
        assert [a.label for a in enabled_actions(pds, PDSState(0, ("4", "6")))] == ["b1"]
        assert [a.label for a in enabled_actions(pds, PDSState(1, ("4",)))] == ["b2"]
        assert enabled_actions(pds, PDSState(0, ("6",))) == ()
        assert enabled_actions(pds, PDSState(0, ())) == ()

    def test_successors_pairs_action_with_state(self):
        pds = fig1_thread2()
        pairs = list(successors(pds, PDSState(0, ("4",))))
        assert len(pairs) == 1
        action, state = pairs[0]
        assert action.label == "b1"
        assert state == PDSState(0, ())


class TestPostStarExplicit:
    def test_terminating_exploration(self):
        pds = fig1_thread2()
        reached = post_star_explicit(pds, PDSState(0, ("4",)))
        assert reached == {PDSState(0, ("4",)), PDSState(0, ())}

    def test_run_through_shared_changes(self):
        pds = fig1_thread2()
        reached = post_star_explicit(pds, PDSState(1, ("4",)))
        assert PDSState(2, ("5",)) in reached
        assert PDSState(3, ("4", "6")) in reached
        # From (3, top 4) nothing fires.
        assert len(reached) == 3

    def test_divergence_guard_raises(self):
        pds = PDS(initial_shared=0)
        pds.rule(0, "a", 0, ("a", "a"))  # unbounded growth
        with pytest.raises(ContextExplosionError) as err:
            post_star_explicit(pds, PDSState(0, ("a",)), max_states=50)
        assert err.value.states_seen > 50

    def test_zero_steps_included(self):
        pds = fig1_thread2()
        start = PDSState(3, ("9",))
        assert post_star_explicit(pds, start) == {start}
