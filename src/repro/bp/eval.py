"""Expression evaluation over Boolean valuations.

Because of the nondeterministic ``*``, an expression evaluates to a *set*
of possible values; every occurrence of ``*`` is an independent coin, so
set semantics composes pointwise: ``eval(a & b)`` is
``{x & y : x ∈ eval(a), y ∈ eval(b)}``.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.bp import ast
from repro.errors import SemanticError

_OPS = {
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "=": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
}

BOTH = frozenset({0, 1})


def eval_expr(expr: ast.Expr, env: Mapping[str, int]) -> frozenset[int]:
    """Set of possible values of ``expr`` in ``env`` (var → 0/1)."""
    if isinstance(expr, ast.Const):
        return frozenset({expr.value})
    if isinstance(expr, ast.Var):
        try:
            return frozenset({env[expr.name]})
        except KeyError:
            raise SemanticError(f"undefined variable {expr.name!r}") from None
    if isinstance(expr, ast.Nondet):
        return BOTH
    if isinstance(expr, ast.Not):
        return frozenset({1 - value for value in eval_expr(expr.operand, env)})
    if isinstance(expr, ast.BinOp):
        op = _OPS[expr.op]
        lefts = eval_expr(expr.left, env)
        rights = eval_expr(expr.right, env)
        return frozenset({op(lhs, rhs) for lhs in lefts for rhs in rights})
    raise SemanticError(f"cannot evaluate {type(expr).__name__}")


def free_variables(expr: ast.Expr) -> frozenset[str]:
    """Variables referenced by an expression."""
    if isinstance(expr, ast.Var):
        return frozenset({expr.name})
    if isinstance(expr, ast.Not):
        return free_variables(expr.operand)
    if isinstance(expr, ast.BinOp):
        return free_variables(expr.left) | free_variables(expr.right)
    return frozenset()
