"""The compiled translator against the tree-walking oracle, rule for rule.

``repro.bp.translate`` evaluates each expression once per valuation of
its free variables and adds a thread's rules in one bulk call;
``translate_oracle`` is the translator it replaced, evaluating every
expression at every ``(frame, shared state)`` and adding rules one at a
time.  Both must build the same CPDS in the same order: per thread the
same action sequence (kinds included), the same iteration order of
``Q`` and ``Σ``, and the same trigger index — so dense ids, explicit
state ids, witnesses and fingerprints downstream cannot tell them
apart.  Orders are compared within one process, where set iteration
order is a function of the insertion sequence.  Both sides register
rules through ``PDS.add_actions`` (``PDS.rule`` is its one-action
case), so the order in which that call inserts into ``Q``, ``Σ`` and
the trigger index is pinned by ``tests/pds/test_pds_semantics.py``,
not here.
"""

import ast as pyast
import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from translate_oracle import oracle_compile_program

from repro.bp import ast, compile_program, parse_program
from repro.bp.translate import _Compilation
from repro.errors import SemanticError
from repro.models.kinduction import kinduction_source
from repro.models.registry import runnable_benchmarks

ROOT = Path(__file__).resolve().parents[2]
MODEL_MODULES = ("bluetooth", "bst", "dekker", "filecrawler", "proc2")


class _Captured(Exception):
    pass


def _registry_calls() -> list[tuple[str, tuple]]:
    """``(row, (source, init, nondet_locals))`` of every runnable row
    built from a Boolean program; ``smallest_per_row()`` rows are among
    them.  Each model module's ``compile_source`` is swapped for one
    that records its arguments and stops the build."""
    calls = []

    def record(source, init=None, nondet_locals=False):
        calls.append((source, init, nondet_locals))
        raise _Captured

    modules = [importlib.import_module(f"repro.models.{name}") for name in MODEL_MODULES]
    originals = [module.compile_source for module in modules]
    found = []
    try:
        for module in modules:
            module.compile_source = record
        for bench in runnable_benchmarks():
            before = len(calls)
            try:
                bench.build()
            except _Captured:
                pass
            found.extend((bench.name, call) for call in calls[before:])
    finally:
        for module, original in zip(modules, originals):
            module.compile_source = original
    return found


def _source_constants(path: Path) -> list[str]:
    """Every string literal in ``path`` that is a whole program."""
    return [
        node.value
        for node in pyast.walk(pyast.parse(path.read_text()))
        if isinstance(node, pyast.Constant)
        and isinstance(node.value, str)
        and "thread_create" in node.value
    ]


def _example_programs() -> list[str]:
    spec = importlib.util.spec_from_file_location(
        "boolean_programs_example", ROOT / "examples" / "boolean_programs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [module.SAFE_PROTOCOL, module.BROKEN_PROTOCOL]


def _variants(source: str) -> list[tuple[dict, bool]]:
    """``(init, nondet_locals)`` settings to compile a test program
    under: every shared variable 0, or ``*`` (the ⊥ bootstrap), each
    with and without nondeterministic locals, and the first one 1."""
    shared = parse_program(source).shared
    variants = [({}, False), ({}, True)]
    if shared:
        every = {name: "*" for name in shared}
        variants += [(every, False), (every, True), ({shared[0]: 1}, False)]
    return variants


def _thread_view(pds) -> tuple:
    return (
        pds.name,
        pds.initial_shared,
        [(action, action.kind, action.label) for action in pds.actions],
        list(pds._shared_states),
        list(pds._alphabet),
        list(pds.trigger_index().items()),
    )


def _outcome(compile_, source: str, init, nondet_locals: bool) -> tuple:
    """What compiling gives: the CPDS's views, or the error raised."""
    try:
        compiled = compile_(parse_program(source), init, nondet_locals)
    except Exception as error:  # both must fail alike
        return ("error", type(error).__name__, str(error))
    cpds = compiled.cpds
    return (
        "ok",
        compiled.shared_names,
        compiled.thread_roots,
        cpds.initial_stacks,
        [_thread_view(pds) for pds in cpds.threads],
    )


def assert_same_translation(source: str, init=None, nondet_locals: bool = False) -> None:
    expected = _outcome(oracle_compile_program, source, init, nondet_locals)
    actual = _outcome(compile_program, source, init, nondet_locals)
    if expected[0] == "ok" and actual[0] == "ok":
        for thread, (old, new) in enumerate(zip(expected[4], actual[4])):
            for part, name in enumerate(("name", "initial", "actions", "Q", "Σ", "triggers")):
                assert new[part] == old[part], f"thread {thread}: {name} differs"
    assert actual == expected


REGISTRY = _registry_calls()


def test_registry_rows_are_captured():
    rows = {row for row, _call in REGISTRY}
    assert len(rows) == 15  # every runnable row but K-Induction and Stefan-1 ×2
    assert any(row.startswith("9/Dekker") for row in rows)


@pytest.mark.parametrize("call", [call for _row, call in REGISTRY],
                         ids=[row for row, _call in REGISTRY])
def test_registry_model(call):
    source, init, nondet_locals = call
    assert_same_translation(source, init, nondet_locals)


def test_kinduction_program():
    # Service-mix submits K-Induction as a program; the registry row is
    # the hand-built Fig. 2 CPDS.
    assert_same_translation(kinduction_source())


TEST_PROGRAMS = _source_constants(ROOT / "tests" / "bp" / "test_translate.py")


def test_test_programs_are_found():
    assert len(TEST_PROGRAMS) >= 15


@pytest.mark.parametrize("source", TEST_PROGRAMS + _example_programs())
def test_corpus_program(source):
    for init, nondet_locals in _variants(source):
        assert_same_translation(source, init, nondet_locals)


# ----------------------------------------------------------------------
# Generated programs
# ----------------------------------------------------------------------
def _exprs(names: list[str]):
    leaves = st.sampled_from(["0", "1", "*", *names])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(lambda e: f"!{e}"),
            st.tuples(inner, st.sampled_from(["&", "|", "^", "=", "!="]), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
        ),
        max_leaves=4,
    )


@st.composite
def _simple_stmt(draw, writable: list[str], readable: list[str]):
    """A statement without calls (so also allowed inside ``atomic``)."""
    expr = _exprs(readable)
    kind = draw(st.sampled_from(["skip", "assign", "multi", "assume", "assert"]))
    if kind == "skip":
        return "skip;"
    if kind == "assign":
        return f"{draw(st.sampled_from(writable))} := {draw(expr)};"
    if kind == "multi":
        targets = draw(st.lists(st.sampled_from(writable), min_size=2, max_size=2, unique=True)
                       if len(writable) > 1 else st.just(writable))
        values = ", ".join(draw(expr) for _ in targets)
        text = f"{', '.join(targets)} := {values}"
        if draw(st.booleans()):
            text += f" constrain {draw(expr)}"
        return text + ";"
    return f"{kind} ({draw(expr)});"


@st.composite
def _stmts(draw, writable, readable, callees, depth=0):
    """A statement list; ``callees`` are the ``(name, arity, returns_bool)``
    functions that may be called."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["simple", "simple", "if", "while", "atomic", "lock", "call"]
            if depth < 2 else ["simple", "lock"]
        ))
        if kind == "simple":
            out.append(draw(_simple_stmt(writable, readable)))
        elif kind == "lock":
            out.append("lock; skip; unlock;")
        elif kind == "atomic":
            body = " ".join(draw(st.lists(_simple_stmt(writable, readable), min_size=1,
                                          max_size=2)))
            out.append(f"atomic {{ {body} }}")
        elif kind in ("if", "while"):
            cond = draw(_exprs(readable))
            body = draw(_stmts(writable, readable, callees, depth + 1))
            if kind == "while":
                out.append(f"while ({cond}) {{ {body} }}")
            else:
                other = draw(_stmts(writable, readable, callees, depth + 1))
                out.append(f"if ({cond}) {{ {body} }} else {{ {other} }}")
        elif callees:
            name, arity, returns_bool = draw(st.sampled_from(callees))
            args = ", ".join(draw(_exprs(readable)) for _ in range(arity))
            if returns_bool:
                out.append(f"{draw(st.sampled_from(writable))} := call {name}({args});")
            else:
                out.append(f"call {name}({args});")
    return " ".join(out)


@st.composite
def programs(draw):
    """A small well-formed program: up to 3 shared variables, a bool
    helper with a parameter and a local (recursive, returning a value),
    a void helper, 1–2 threads with locals, and an ``init``."""
    shared = [f"g{i}" for i in range(draw(st.integers(0, 3)))]
    helper_vars = ["p", "r", *shared]
    helper_body = draw(_stmts(helper_vars, helper_vars, [("h", 1, True)], depth=1))
    helper_return = draw(_exprs(helper_vars))
    callees = [("h", 1, True), ("v", 0, False)]
    void_body = draw(_stmts(shared or ["z"], shared or ["z"], [], depth=1))
    threads = []
    for index in range(draw(st.integers(1, 2))):
        locals_ = ["t", "u"][: draw(st.integers(0 if shared else 1, 2))]
        names = locals_ + shared
        threads.append((f"w{index}", locals_, draw(_stmts(names, names, callees))))
    lines = [f"decl {', '.join(shared)};"] if shared else []
    lines.append(f"bool h(p) {{ decl r; {helper_body} return {helper_return}; }}")
    void_decl = "" if shared else "decl z; "
    lines.append(f"void v() {{ {void_decl}{void_body} }}")
    for name, locals_, body in threads:
        decl = f"decl {', '.join(locals_)}; " if locals_ else ""
        lines.append(f"void {name}() {{ {decl}{body} }}")
    creates = " ".join(f"thread_create(&{name});" for name, _l, _b in threads)
    lines.append(f"void main() {{ {creates} }}")
    init = {
        name: value
        for name in shared
        if (value := draw(st.sampled_from([None, 0, 1, "*"]))) is not None
    }
    return "\n".join(lines), init, draw(st.booleans())


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_generated_program(program):
    source, init, nondet_locals = program
    assert_same_translation(source, init, nondet_locals)


def test_undefined_variable_raises_the_evaluator_error():
    # Analysis rejects undefined names first; the compiled closures must
    # still fail the way tree-walking evaluation does if one gets through.
    program = parse_program("decl g; void w() { skip; } void main() { thread_create(&w); }")
    compilation = _Compilation(None, {}, ("g",), False)
    expr = ast.BinOp("&", ast.Var("g"), ast.Var("ghost"))
    with pytest.raises(SemanticError, match="undefined variable 'ghost'"):
        compilation.column(program.function("w"), expr, ())
