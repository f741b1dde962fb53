"""Tests for the FCR condition — golden verdicts from Fig. 4 / Ex. 15,
and the check's one run per thread orbit."""

import pytest

from repro.cpds import CPDS
from repro.cpds.symmetry import verified_symmetry
from repro.cuba import check_fcr, fcr, thread_shallow_psa
from repro.models import fig1_cpds, fig2_cpds, runnable_benchmarks
from repro.models.registry import TABLE2
from repro.pds import PDS
from repro.pds.saturation import shallow_finiteness


class TestFig4Verdicts:
    def test_fig1_satisfies_fcr(self):
        report = check_fcr(fig1_cpds())
        assert report.holds
        assert report.thread_finite == (True, True)
        # Fig. 4 (left two): the PSAs are loop-free.
        assert report.thread_has_loop == (False, False)

    def test_fig2_violates_fcr(self):
        report = check_fcr(fig2_cpds())
        assert not report.holds
        assert report.thread_finite == (False, False)
        # Fig. 4 (right two): self-loops in both automata.
        assert report.thread_has_loop == (True, True)

    def test_report_str(self):
        assert "holds" in str(check_fcr(fig1_cpds()))
        assert "fails" in str(check_fcr(fig2_cpds()))


class TestShallowPsa:
    def test_fig1_thread_languages_finite(self):
        for pds in fig1_cpds().threads:
            assert thread_shallow_psa(pds).language_is_finite()

    def test_fig2_thread_languages_infinite(self):
        for pds in fig2_cpds().threads:
            assert not thread_shallow_psa(pds).language_is_finite()

    def test_shallow_psa_accepts_seed_configs(self):
        pds = fig1_cpds().thread(1)
        psa = thread_shallow_psa(pds)
        for shared in pds.shared_states:
            assert psa.accepts_config(shared, ())
            for symbol in pds.alphabet:
                assert psa.accepts_config(shared, (symbol,))


class TestMixedCases:
    def test_one_bad_thread_spoils_fcr(self):
        good = PDS(initial_shared=0, shared_states={0, 1})
        good.rule(0, "a", 1, ("b",))
        bad = PDS(initial_shared=0, shared_states={0, 1})
        bad.rule(0, "x", 0, ("x", "x"))  # pumps within one context
        report = check_fcr(CPDS([good, bad], initial_stacks=[("a",), ("x",)]))
        assert report.thread_finite == (True, False)
        assert not report.holds

    def test_recursion_with_bounded_depth_is_fcr(self):
        # Pushes exist but every push is immediately popped: depth ≤ 2.
        pds = PDS(initial_shared=0, shared_states={0, 1})
        pds.rule(0, "a", 1, ("c", "b"))  # call
        pds.rule(1, "c", 0, ())          # immediate return
        report = check_fcr(CPDS([pds], initial_stacks=[("a",)]))
        assert report.holds

    def test_non_recursive_threads_trivially_fcr(self):
        pds = PDS(initial_shared=0, shared_states={0, 1})
        pds.rule(0, "a", 1, ("b",))
        pds.rule(1, "b", 0, ("a",))
        assert check_fcr(CPDS([pds], initial_stacks=[("a",)])).holds


class TestOncePerOrbit:
    @pytest.mark.parametrize("bench", runnable_benchmarks(), ids=lambda bench: bench.name)
    def test_report_is_every_threads_own_check(self, bench):
        cpds, _prop = bench.build()
        answers = [shallow_finiteness(pds) for pds in cpds.threads]
        report = check_fcr(cpds)
        assert report.thread_finite == tuple(finite for finite, _loop in answers)
        assert report.thread_has_loop == tuple(loop for _finite, loop in answers)

    def test_replicas_are_checked_once(self, monkeypatch):
        cpds, _prop = next(b for b in TABLE2 if b.name == "1/Bluetooth-1 [1+2]").build()
        plain = CPDS(cpds.threads, cpds.initial_stacks, name=cpds.name)
        checked = []

        def counted(pds):
            checked.append(pds)
            return shallow_finiteness(pds)

        monkeypatch.setattr(fcr, "shallow_finiteness", counted)
        pools = verified_symmetry(cpds).pools
        assert len(set(pools)) < cpds.n_threads  # the replicas form one orbit
        report = check_fcr(cpds)
        assert checked == [cpds.thread(index) for index in sorted(set(pools))]
        checked.clear()
        assert check_fcr(plain) == report
        assert checked == list(cpds.threads)  # trivial group: every thread
