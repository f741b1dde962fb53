"""Expression evaluation and semantic-analysis tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bp import analyze, ast, parse_program
from repro.bp.eval import BOTH, eval_expr, free_variables
from repro.errors import SemanticError


class TestEvalExpr:
    def test_constants(self):
        assert eval_expr(ast.Const(1), {}) == frozenset({1})

    def test_variables(self):
        assert eval_expr(ast.Var("x"), {"x": 0}) == frozenset({0})

    def test_undefined_variable(self):
        with pytest.raises(SemanticError):
            eval_expr(ast.Var("ghost"), {})

    def test_nondet(self):
        assert eval_expr(ast.Nondet(), {}) == BOTH

    def test_not(self):
        assert eval_expr(ast.Not(ast.Const(0)), {}) == frozenset({1})
        assert eval_expr(ast.Not(ast.Nondet()), {}) == BOTH

    @pytest.mark.parametrize(
        "op, a, b, expected",
        [
            ("&", 1, 1, 1), ("&", 1, 0, 0),
            ("|", 0, 0, 0), ("|", 0, 1, 1),
            ("^", 1, 1, 0), ("^", 1, 0, 1),
            ("=", 1, 1, 1), ("=", 0, 1, 0),
            ("!=", 0, 1, 1), ("!=", 1, 1, 0),
        ],
    )
    def test_binops(self, op, a, b, expected):
        expr = ast.BinOp(op, ast.Const(a), ast.Const(b))
        assert eval_expr(expr, {}) == frozenset({expected})

    def test_nondet_propagates_setwise(self):
        # * & 0 is always 0; * & 1 is either.
        assert eval_expr(ast.BinOp("&", ast.Nondet(), ast.Const(0)), {}) == frozenset({0})
        assert eval_expr(ast.BinOp("&", ast.Nondet(), ast.Const(1)), {}) == BOTH

    def test_may_helpers(self):
        # "May be true/false" is membership of 1/0 in the value set.
        env = {"x": 1}
        assert 1 in eval_expr(ast.Var("x"), env)
        assert 0 not in eval_expr(ast.Var("x"), env)
        assert 0 in eval_expr(ast.Nondet(), env)

    def test_free_variables(self):
        expr = ast.BinOp("&", ast.Var("a"), ast.Not(ast.BinOp("|", ast.Var("b"), ast.Const(1))))
        assert free_variables(expr) == frozenset({"a", "b"})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1))
def test_eval_deterministic_expressions_are_singletons(a, b):
    env = {"a": a, "b": b}
    expr = ast.BinOp("^", ast.Var("a"), ast.Not(ast.Var("b")))
    assert eval_expr(expr, env) == frozenset({a ^ (1 - b)})


GOOD = """
decl g;
bool id(p) { return p; }
void worker() {
  decl t;
  t := call id(g);
  loop: if (t) { goto loop; }
  assert (!t | g);
}
void main() { thread_create(&worker); }
"""


class TestAnalyzeAccepts:
    def test_wellformed_program(self):
        table = analyze(parse_program(GOOD))
        assert table.thread_roots == ("worker",)
        assert table.calls["worker"] == frozenset({"id"})
        assert table.callees_closure("worker") == frozenset({"worker", "id"})

    def test_atomic_tracking(self):
        src = """
        void w() { atomic { skip; } }
        void main() { thread_create(&w); }
        """
        table = analyze(parse_program(src))
        assert table.has_atomic == frozenset({"w"})


def expect_error(source, fragment):
    with pytest.raises(SemanticError) as err:
        analyze(parse_program(source))
    assert fragment in str(err.value), str(err.value)


class TestAnalyzeRejects:
    def test_missing_main(self):
        expect_error("void f() { skip; }", "no main")

    def test_main_with_logic(self):
        expect_error(
            "decl x; void w() { skip; } "
            "void main() { thread_create(&w); x := 1; }",
            "only thread_create",
        )

    def test_no_threads(self):
        expect_error("void main() { skip; }", "creates no threads")

    def test_undefined_variable(self):
        expect_error(
            "void w() { ghost := 1; } void main() { thread_create(&w); }",
            "undefined assignment target",
        )

    def test_undefined_in_condition(self):
        expect_error(
            "void w() { assume (ghost); } void main() { thread_create(&w); }",
            "undefined variable",
        )

    def test_arity_mismatch_assignment(self):
        expect_error(
            "decl a, b; void w() { a, b := 1; } void main() { thread_create(&w); }",
            "targets but",
        )

    def test_duplicate_shared(self):
        expect_error(
            "decl a; decl a; void w() { skip; } void main() { thread_create(&w); }",
            "declared twice",
        )

    def test_duplicate_local(self):
        expect_error(
            "void w() { decl t, t; skip; } void main() { thread_create(&w); }",
            "declared twice",
        )

    def test_duplicate_label(self):
        expect_error(
            "void w() { l: skip; l: skip; } void main() { thread_create(&w); }",
            "duplicate label",
        )

    def test_goto_unknown_label(self):
        expect_error(
            "void w() { goto nowhere; } void main() { thread_create(&w); }",
            "unknown label",
        )

    def test_call_undefined_function(self):
        expect_error(
            "void w() { call nope(); } void main() { thread_create(&w); }",
            "undefined function",
        )

    def test_call_arity(self):
        expect_error(
            "bool g(p) { return p; } void w() { decl t; t := call g(); } "
            "void main() { thread_create(&w); }",
            "expects 1 arguments",
        )

    def test_void_function_in_value_call(self):
        expect_error(
            "void g() { skip; } void w() { decl t; t := call g(); } "
            "void main() { thread_create(&w); }",
            "void function g used in value call",
        )

    def test_bool_function_without_target(self):
        expect_error(
            "bool g() { return 1; } void w() { call g(); } "
            "void main() { thread_create(&w); }",
            "requires a target",
        )

    def test_void_returning_value(self):
        expect_error(
            "void w() { return 1; } void main() { thread_create(&w); }",
            "void function returns a value",
        )

    def test_bool_bare_return(self):
        expect_error(
            "bool g() { return; } void w() { decl t; t := call g(); } "
            "void main() { thread_create(&w); }",
            "returns no value",
        )

    def test_thread_create_outside_main(self):
        expect_error(
            "void w() { thread_create(&w); } void main() { thread_create(&w); }",
            "thread_create outside main",
        )

    def test_thread_root_with_params(self):
        expect_error(
            "void w(p) { skip; } void main() { thread_create(&w); }",
            "must be void and parameterless",
        )

    def test_nested_atomic(self):
        expect_error(
            "void w() { atomic { atomic { skip; } } } "
            "void main() { thread_create(&w); }",
            "nested atomic",
        )

    def test_atomic_via_call(self):
        expect_error(
            "void inner() { atomic { skip; } } "
            "void w() { atomic { call inner(); } } "
            "void main() { thread_create(&w); }",
            "reaches atomic",
        )

    def test_atomic_via_transitive_call(self):
        expect_error(
            "void deep() { atomic { skip; } } "
            "void mid() { call deep(); } "
            "void w() { atomic { call mid(); } } "
            "void main() { thread_create(&w); }",
            "reaches atomic",
        )
