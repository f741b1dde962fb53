"""Tests for the generator set G (Eq. 2) — golden values from Ex. 14."""

import pytest

from repro.cpds import VisibleState
from repro.cuba import compute_z, generator_analysis
from repro.models import fig1_cpds, fig2_cpds, runnable_benchmarks
from repro.pds import EMPTY


def vs(shared, *tops):
    return VisibleState(shared, tuple(tops))


class TestGeneratorAnalysisFig1:
    def test_ingredients(self):
        analysis = generator_analysis(fig1_cpds())
        assert analysis.pop_targets == (frozenset(), frozenset({0}))
        assert analysis.emerging == (frozenset(), frozenset({6}))

    def test_paper_listed_generators(self):
        # Ex. 14: G = {⟨0|1,ε⟩, ⟨0|1,6⟩, ⟨0|2,ε⟩, ⟨0|2,6⟩}.
        analysis = generator_analysis(fig1_cpds())
        for generator in [
            vs(0, 1, EMPTY),
            vs(0, 1, 6),
            vs(0, 2, EMPTY),
            vs(0, 2, 6),
        ]:
            assert analysis.is_generator(generator), str(generator)

    def test_non_generators(self):
        analysis = generator_analysis(fig1_cpds())
        assert not analysis.is_generator(vs(0, 1, 4))  # σ2 not emerging
        assert not analysis.is_generator(vs(1, 1, 6))  # 1 not a pop target
        assert not analysis.is_generator(vs(3, 2, 4))

    def test_g_intersect_z_golden(self):
        # Ex. 14: G ∩ Z = {⟨0|1,ε⟩, ⟨0|1,6⟩}.
        cpds = fig1_cpds()
        analysis = generator_analysis(cpds)
        assert analysis.intersect(compute_z(cpds)) == frozenset(
            {vs(0, 1, EMPTY), vs(0, 1, 6)}
        )


class TestGeneratorAnalysisFig2:
    def test_ingredients(self):
        analysis = generator_analysis(fig2_cpds())
        # foo pops via f5 into shared 1; push f3 writes 4 underneath.
        assert analysis.pop_targets[0] == frozenset({1})
        assert analysis.emerging[0] == frozenset({4})
        # bar pops via b9 into shared 0; push b7 writes 8 underneath.
        assert analysis.pop_targets[1] == frozenset({0})
        assert analysis.emerging[1] == frozenset({8})

    def test_membership_examples(self):
        analysis = generator_analysis(fig2_cpds())
        assert analysis.is_generator(vs(1, EMPTY, 6))
        assert analysis.is_generator(vs(1, 4, 8))
        assert analysis.is_generator(vs(0, 2, 8))
        assert analysis.is_generator(vs(0, 5, EMPTY))
        assert not analysis.is_generator(vs("⊥", 2, 6))
        assert not analysis.is_generator(vs(0, 4, 6))  # wrong thread/symbol mix


class TestUpwardClosureRemark:
    def test_any_thread_suffices(self):
        """Eq. (2) is an existential over threads: one witness thread is
        enough regardless of the other components."""
        analysis = generator_analysis(fig1_cpds())
        # thread 2 qualifies; thread 1's symbol is arbitrary (even junk).
        assert analysis.is_generator(vs(0, "junk", 6))


def reference_intersect(analysis, visibles):
    """``G ∩ visibles`` straight from Eq. (2), one membership test each."""
    return frozenset(v for v in visibles if analysis.is_generator(v))


class TestIntersectMatchesMembership:
    def test_short_visible_states_only_use_their_own_threads(self):
        analysis = generator_analysis(fig1_cpds())
        candidates = [vs(0, EMPTY), vs(0, 1), vs(0, 1, 6), vs(0, 1, 4), vs(1, 2, EMPTY)]
        assert analysis.intersect(candidates) == reference_intersect(analysis, candidates)
        assert analysis.intersect(candidates) == frozenset({vs(0, 1, 6)})

    @pytest.mark.parametrize(
        "bench", runnable_benchmarks(), ids=lambda bench: bench.name
    )
    def test_table2_g_intersect_z(self, bench):
        cpds, _prop = bench.build()
        analysis = generator_analysis(cpds)
        z = compute_z(cpds)
        generators = analysis.intersect(z)
        assert generators == reference_intersect(analysis, z)
        assert len(generators) == G_Z_SIZES.get(bench.name, len(generators))


#: |G ∩ Z| of the largest row, pinned.
G_Z_SIZES = {"4/BST-Insert [2+2]": 40_056}
