"""End-to-end tests: Boolean source → CPDS → verification."""

import pytest

from repro.bp import compile_source
from repro.bp.translate import ERR, INIT
from repro.core import Verdict
from repro.cpds import format_cpds
from repro.cuba import Cuba, check_fcr, scheme1_rk
from repro.errors import TranslationError
from repro.models.bluetooth import bluetooth_source
from repro.models.bst import bst_source
from repro.models.dekker import dekker_source
from repro.models.filecrawler import filecrawler_source
from repro.models.kinduction import kinduction_source
from repro.models.proc2 import proc2_source
from repro.models.registry import runnable_benchmarks
from repro.models.stefan import stefan
from repro.reach import ExplicitReach
from repro.service.executor import compile_program
from repro.service.fingerprint import cpds_digest
from repro.service.server import AnalysisRequest

FIG2_SOURCE = """
decl x;
void foo() {
  if (*) { call foo(); }
  while (x) { skip; }
  x := 1;
}
void bar() {
  if (*) { call bar(); }
  while (!x) { skip; }
  x := 0;
}
void main() {
  thread_create(&foo);
  thread_create(&bar);
}
"""


class TestFig2Compilation:
    """The paper's Fig. 2 source program, compiled instead of hand-built."""

    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_source(FIG2_SOURCE, init={"x": "*"})

    def test_two_threads(self, compiled):
        assert compiled.cpds.n_threads == 2
        assert compiled.thread_roots == ("foo", "bar")

    def test_initial_state_is_bottom(self, compiled):
        assert compiled.cpds.initial_state().shared == INIT

    def test_violates_fcr_like_the_paper_model(self, compiled):
        assert not check_fcr(compiled.cpds).holds

    def test_symbolic_analysis_proves_safe(self, compiled):
        report = Cuba(compiled.cpds, compiled.prop).verify(max_rounds=10)
        assert report.verdict is Verdict.SAFE
        assert report.winner == "alg3(T(Sk))"

    def test_descriptions(self, compiled):
        q = (0, 0, None, (1,))
        assert compiled.describe_shared(q) == "{x=1}"
        assert compiled.describe_shared(ERR) == "ERR"
        symbol = ("foo", 0, ())
        assert compiled.describe_symbol(symbol) == "foo@0"


class TestAssertions:
    def test_failing_assert_reaches_err(self):
        source = """
        decl flag;
        void setter() { flag := 1; }
        void checker() { assert (!flag); }
        void main() { thread_create(&setter); thread_create(&checker); }
        """
        compiled = compile_source(source)
        report = Cuba(compiled.cpds, compiled.prop).verify(max_rounds=10)
        assert report.verdict is Verdict.UNSAFE
        assert report.result.witness.shared == ERR
        assert report.result.trace is not None

    def test_passing_assert_proved_safe(self):
        source = """
        decl flag;
        void setter() { flag := 1; assert (flag); }
        void main() { thread_create(&setter); }
        """
        compiled = compile_source(source)
        report = Cuba(compiled.cpds, compiled.prop).verify(max_rounds=10)
        assert report.verdict is Verdict.SAFE

    def test_assert_with_nondet_is_violable(self):
        source = """
        void w() { assert (*); }
        void main() { thread_create(&w); }
        """
        compiled = compile_source(source)
        result = scheme1_rk(compiled.cpds, compiled.prop)
        assert result.verdict is Verdict.UNSAFE


class TestSequentialSemantics:
    def run_states(self, source, levels=6, **kw):
        compiled = compile_source(source, **kw)
        engine = ExplicitReach(compiled.cpds)
        engine.ensure_level(levels)
        return compiled, engine

    def test_assignment_and_if(self):
        source = """
        decl a, b;
        void w() {
          a := 1;
          if (a) { b := 1; } else { b := 0; }
          assert (b);
        }
        void main() { thread_create(&w); }
        """
        compiled, engine = self.run_states(source)
        shareds = {state.shared for state in engine.first_seen}
        assert ERR not in shareds
        assert (0, 0, None, (1, 1)) in shareds

    def test_while_loop_terminates_analysis(self):
        source = """
        decl done;
        void w() {
          while (!done) { done := 1; }
          assert (done);
        }
        void main() { thread_create(&w); }
        """
        compiled = compile_source(source)
        report = Cuba(compiled.cpds, compiled.prop).verify(max_rounds=10)
        assert report.verdict is Verdict.SAFE

    def test_constrain_filters_transitions(self):
        source = """
        decl p, q;
        void w() {
          p, q := *, * constrain p != q;
          assert (p != q);
        }
        void main() { thread_create(&w); }
        """
        compiled = compile_source(source)
        report = Cuba(compiled.cpds, compiled.prop).verify(max_rounds=10)
        assert report.verdict is Verdict.SAFE

    def test_goto_nondeterminism(self):
        source = """
        decl hit_a, hit_b;
        void w() {
          goto a, b;
          a: hit_a := 1;
          return;
          b: hit_b := 1;
        }
        void main() { thread_create(&w); }
        """
        compiled, engine = self.run_states(source)
        vals = {state.shared[3] for state in engine.first_seen if isinstance(state.shared, tuple)}
        assert (1, 0) in vals
        assert (0, 1) in vals
        assert (1, 1) not in vals  # return before b, no fallthrough to b


class TestCallsAndReturns:
    def test_value_call_round_trip(self):
        source = """
        decl out;
        bool negate(p) { return !p; }
        void w() {
          decl t;
          t := call negate(0);
          out := t;
          assert (out);
        }
        void main() { thread_create(&w); }
        """
        compiled = compile_source(source)
        report = Cuba(compiled.cpds, compiled.prop).verify(max_rounds=12)
        assert report.verdict is Verdict.SAFE

    def test_recursive_bool_function(self):
        # flip(1, 1) = flip(!1, 0) = 0: one recursion level negates once.
        source = """
        decl out;
        bool flip(p, depth) {
          decl t;
          if (depth) { t := call flip(!p, 0); return t; }
          return p;
        }
        void w() {
          decl t;
          t := call flip(1, 1);
          out := t;
          assert (!out);
        }
        void main() { thread_create(&w); }
        """
        compiled = compile_source(source)
        report = Cuba(compiled.cpds, compiled.prop).verify(max_rounds=12)
        assert report.verdict is Verdict.SAFE

    def test_handoff_not_corrupted_by_other_thread(self):
        # While a return value is in flight the other thread is frozen,
        # so the asserted equality can't be broken mid-handoff.
        source = """
        decl shared_val;
        bool get() { return shared_val; }
        void reader() {
          decl t;
          t := call get();
          assert (t = shared_val | !t | t);
        }
        void writer() { shared_val := 1; shared_val := 0; }
        void main() { thread_create(&reader); thread_create(&writer); }
        """
        compiled = compile_source(source)
        report = Cuba(compiled.cpds, compiled.prop).verify(max_rounds=12)
        assert report.verdict is Verdict.SAFE


class TestAtomicAndLock:
    def test_atomic_check_then_set_is_safe(self):
        source = """
        decl balance, busy;
        void w1() {
          atomic { assume (!busy); busy := 1; }
          assert (!balance);
          balance := 1;
          balance := 0;
          busy := 0;
        }
        void w2() {
          atomic { assume (!busy); busy := 1; }
          assert (!balance);
          balance := 1;
          balance := 0;
          busy := 0;
        }
        void main() { thread_create(&w1); thread_create(&w2); }
        """
        compiled = compile_source(source)
        report = Cuba(compiled.cpds, compiled.prop).verify(max_rounds=20)
        assert report.verdict is Verdict.SAFE

    def test_unprotected_version_is_unsafe(self):
        source = """
        decl balance;
        void w1() { assert (!balance); balance := 1; balance := 0; }
        void w2() { assert (!balance); balance := 1; balance := 0; }
        void main() { thread_create(&w1); thread_create(&w2); }
        """
        compiled = compile_source(source)
        report = Cuba(compiled.cpds, compiled.prop).verify(max_rounds=20)
        assert report.verdict is Verdict.UNSAFE

    def test_lock_protects_critical_section(self):
        source = """
        decl balance;
        void w1() { lock; assert (!balance); balance := 1; balance := 0; unlock; }
        void w2() { lock; assert (!balance); balance := 1; balance := 0; unlock; }
        void main() { thread_create(&w1); thread_create(&w2); }
        """
        compiled = compile_source(source)
        report = Cuba(compiled.cpds, compiled.prop).verify(max_rounds=20)
        assert report.verdict is Verdict.SAFE


class TestTranslationErrors:
    def test_unknown_init_variable(self):
        with pytest.raises(TranslationError):
            compile_source(
                "void w() { skip; } void main() { thread_create(&w); }",
                init={"ghost": 1},
            )

    def test_nondet_locals_entry_needs_bottom(self):
        source = """
        void w() { decl t; assert (t | !t); }
        void main() { thread_create(&w); }
        """
        with pytest.raises(TranslationError):
            compile_source(source, nondet_locals=True)

    def test_nondet_locals_with_bottom_ok(self):
        source = """
        decl x;
        void w() { decl t; assert (t | !t); }
        void main() { thread_create(&w); }
        """
        compiled = compile_source(source, init={"x": "*"}, nondet_locals=True)
        report = Cuba(compiled.cpds, compiled.prop).verify(max_rounds=10)
        assert report.verdict is Verdict.SAFE


class TestInitialValues:
    def test_concrete_init(self):
        source = """
        decl x;
        void w() { assert (x); }
        void main() { thread_create(&w); }
        """
        safe = compile_source(source, init={"x": 1})
        assert Cuba(safe.cpds, safe.prop).verify().verdict is Verdict.SAFE
        unsafe = compile_source(source, init={"x": 0})
        assert Cuba(unsafe.cpds, unsafe.prop).verify().verdict is Verdict.UNSAFE

    def test_nondet_init_explores_both(self):
        source = """
        decl x;
        void w() { assert (x); }
        void main() { thread_create(&w); }
        """
        compiled = compile_source(source, init={"x": "*"})
        report = Cuba(compiled.cpds, compiled.prop).verify()
        assert report.verdict is Verdict.UNSAFE  # x = 0 branch fails

    def test_booleans_compile_like_bits(self):
        from repro.service.fingerprint import cpds_digest

        source = "decl x; void w() { assert (x); } void main() { thread_create(&w); }"
        for flag, bit in ((True, 1), (False, 0)):
            assert cpds_digest(compile_source(source, init={"x": flag}).cpds) == (
                cpds_digest(compile_source(source, init={"x": bit}).cpds)
            )
        unmentioned = compile_source(source, init={"x": None})
        assert cpds_digest(unmentioned.cpds) == cpds_digest(compile_source(source).cpds)

    @pytest.mark.parametrize("value", [2, -1, 1.0, "x", "1", [1], {}])
    def test_non_bit_init_is_refused(self, value):
        source = "decl x; void w() { assert (x); } void main() { thread_create(&w); }"
        with pytest.raises(TranslationError, match="must be 0, 1"):
            compile_source(source, init={"x": value})


# ----------------------------------------------------------------------
# Pinned fingerprints: stored rows stay valid
# ----------------------------------------------------------------------
#: ``cpds_digest`` of every runnable Table 2 row's model.  The service
#: store keys results by these digests, so a translator change that
#: moves one orphans every stored result of that model.
ROW_DIGESTS = {
    "1/Bluetooth-1 [1+1]":
        "558fe4e51324ebb95cf1cdd742379fefb58fd688a3f38eb1fd128935e3a341bc",
    "1/Bluetooth-1 [1+2]":
        "99d13363f2e365b7b10ffa7e371cce0ed8b10f594613213f78312caf9bedefef",
    "1/Bluetooth-1 [2+1]":
        "7103d43dd76615bbdb3b0baf64275fbcc04e196a76e922d79900194269a122f8",
    "2/Bluetooth-2 [1+1]":
        "e33787789ba8585c02935f4d1da849a9cfd1772a9230ad79f1d2283abe1f729a",
    "2/Bluetooth-2 [1+2]":
        "341c4d18be424f344b529a9ff309bcc77bbe11e17d3ac36936f2507c6e1629db",
    "2/Bluetooth-2 [2+1]":
        "70abd161750bfadfb7e605bb5584b851837725a3df6f9dc9b1f907cc3d0488dd",
    "3/Bluetooth-3 [1+1]":
        "aeffb14117b520f9b571b62fe0f1d150148591f8fca8014c6a3ce80c1fe0bda5",
    "3/Bluetooth-3 [1+2]":
        "5343665107cc837f8b7181e5d311d04cc960d6eaaf02459191c6012c0db0c785",
    "3/Bluetooth-3 [2+1]":
        "a173578b341a2814f2ce580e9a14307b453735b15569ffd50637a00141e0aac1",
    "4/BST-Insert [1+1]":
        "ad4027a48a3a9bcd6497ba3bd58db218525382c4167e4db4c4653b854d255478",
    "4/BST-Insert [2+1]":
        "a460b1e8d401999c200b40641e213df62d2eab81d341e237a4b0f8d07bc29468",
    "4/BST-Insert [2+2]":
        "80d19e6bd4eb236961861fd15c9047dc192fc8c510a81fae6da1b6992b65b281",
    "5/FileCrawler [1•+2]":
        "3ecfe6936022865e3139dbcb75c4e25aedd812a956bd2e824d11ecbecb12d1fa",
    "6/K-Induction [1+1]":
        "e0838dc2be0f70e917ab07b87d651284fe7a8da6157f947293fab642d932fd98",
    "7/Proc-2 [2+2•]":
        "e57de95ee56f35ddd2e178ee244105ae7ff997800957c3c6527461de1cd9bb2d",
    "8/Stefan-1 [2]":
        "f464fdcf87732330982b982cb0985bff77862d8daffe2a783868cccff5fc061a",
    "8/Stefan-1 [4]":
        "4bf30a15281c1eef262e46388560aee6f79bbb2556736930234a6a9719b4d787",
    "9/Dekker [2•]":
        "c90c0d50df54c7b4e1b03461bdb4741dd0ce2512bc7165ae7c416940490eae75",
}

#: ``cpds_digest`` of each service-mix program (the smallest
#: configuration of every row), as the service's ``compile_program`` builds it.
SERVICE_DIGESTS = {
    "1/Bluetooth-1":
        "558fe4e51324ebb95cf1cdd742379fefb58fd688a3f38eb1fd128935e3a341bc",
    "2/Bluetooth-2":
        "e33787789ba8585c02935f4d1da849a9cfd1772a9230ad79f1d2283abe1f729a",
    "3/Bluetooth-3":
        "aeffb14117b520f9b571b62fe0f1d150148591f8fca8014c6a3ce80c1fe0bda5",
    "4/BST-Insert":
        "ad4027a48a3a9bcd6497ba3bd58db218525382c4167e4db4c4653b854d255478",
    "5/FileCrawler":
        "3ecfe6936022865e3139dbcb75c4e25aedd812a956bd2e824d11ecbecb12d1fa",
    "6/K-Induction":
        "8de65b5ef04f0e88f1162b95a8c1673fd387674b35019d0d52e043edeb88606c",
    "7/Proc-2":
        "e57de95ee56f35ddd2e178ee244105ae7ff997800957c3c6527461de1cd9bb2d",
    "8/Stefan-1":
        "f464fdcf87732330982b982cb0985bff77862d8daffe2a783868cccff5fc061a",
    "9/Dekker":
        "c90c0d50df54c7b4e1b03461bdb4741dd0ce2512bc7165ae7c416940490eae75",
}

#: The service-mix submit fields, as ``perfbench/problems.py::_program``
#: builds them.
SERVICE_PROGRAMS = {
    "1/Bluetooth-1": {"bp_text": bluetooth_source(1, 1, 1), "bp_init": {"p0": 1}},
    "2/Bluetooth-2": {"bp_text": bluetooth_source(2, 1, 1), "bp_init": {"p0": 1}},
    "3/Bluetooth-3": {"bp_text": bluetooth_source(3, 1, 1), "bp_init": {"p0": 1}},
    "4/BST-Insert": {"bp_text": bst_source(1, 1), "bp_init": {"inv": 1}},
    "5/FileCrawler": {"bp_text": filecrawler_source(2)},
    "6/K-Induction": {"bp_text": kinduction_source()},
    "7/Proc-2": {"bp_text": proc2_source(2, 2)},
    "8/Stefan-1": {"cpds_text": format_cpds(stefan(2)[0])},
    "9/Dekker": {"bp_text": dekker_source()},
}


@pytest.mark.parametrize("bench", runnable_benchmarks(), ids=lambda bench: bench.name)
def test_row_digest_is_pinned(bench):
    cpds, _prop = bench.build()
    assert cpds_digest(cpds) == ROW_DIGESTS[bench.name]


@pytest.mark.parametrize("row", sorted(SERVICE_PROGRAMS))
def test_service_program_digest_is_pinned(row):
    cpds, _prop = compile_program(AnalysisRequest(**SERVICE_PROGRAMS[row]))
    assert cpds_digest(cpds) == SERVICE_DIGESTS[row]


def test_every_row_is_pinned():
    assert sorted(ROW_DIGESTS) == sorted(bench.name for bench in runnable_benchmarks())
