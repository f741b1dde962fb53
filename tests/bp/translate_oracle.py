"""Test-only oracle: the tree-walking Boolean-program translator.

This is the translator ``repro.bp.translate`` used before expressions
were compiled to memoized columns and rules were added in bulk, kept
verbatim: every expression is evaluated by :func:`eval_expr` at every
``(frame, shared state)`` and every rule goes through ``PDS.rule``.
``test_translate_differential.py`` checks the production translator
against it rule for rule.  Only the entry point is renamed.
"""

from __future__ import annotations

import itertools

from repro.bp import ast
from repro.bp.analysis import SymbolTable, analyze
from repro.bp.cfg import (
    CFG,
    AssertOp,
    AssignOp,
    AssumeOp,
    AtomicBeginOp,
    AtomicEndOp,
    CallOp,
    LockOp,
    ReceiveOp,
    ReturnOp,
    SkipOp,
    UnlockOp,
    build_cfg,
)
from repro.bp.eval import eval_expr
from repro.bp.translate import ERR, INIT, CompiledProgram
from repro.core.property import SharedStateReachability
from repro.cpds.cpds import CPDS
from repro.errors import TranslationError
from repro.pds.pds import PDS


class _ThreadTranslator:
    """Builds the PDS of one thread instance."""

    def __init__(
        self,
        table: SymbolTable,
        cfgs: dict[str, CFG],
        shared_names: tuple[str, ...],
        thread_index: int,  # 1-based (owner encoding)
        root: str,
        nondet_locals: bool,
        initial_shared,
    ) -> None:
        self.table = table
        self.cfgs = cfgs
        self.shared_names = shared_names
        self.index = thread_index
        self.root = root
        self.nondet_locals = nondet_locals
        self.pds = PDS(initial_shared=initial_shared, name=f"{root}#{thread_index}")

    # -- helpers ---------------------------------------------------------
    def _local_frames(self, function: ast.Function):
        return itertools.product((0, 1), repeat=len(function.all_locals))

    def _shared_tuples(self, with_retbuf: bool):
        """Shared states thread ``index`` can act from."""
        owners = (0, self.index)
        if with_retbuf:
            retbufs = [(value, owner) for value in (0, 1) for owner in (0, self.index)]
        else:
            retbufs = [None]
        for owner in owners:
            for lock in (0, 1):
                for retbuf in retbufs:
                    for vals in itertools.product((0, 1), repeat=len(self.shared_names)):
                        yield (owner, lock, retbuf, vals)

    def _env(self, function: ast.Function, q, frame) -> dict[str, int]:
        env = dict(zip(self.shared_names, q[3]))
        env.update(zip(function.all_locals, frame))  # locals shadow shareds
        return env

    def _apply(self, function: ast.Function, q, frame, updates: dict[str, int]):
        """Write back variable updates, splitting locals from shareds."""
        vals = list(q[3])
        locals_ = list(frame)
        local_index = {name: i for i, name in enumerate(function.all_locals)}
        shared_index = {name: i for i, name in enumerate(self.shared_names)}
        for name, value in updates.items():
            if name in local_index:  # locals shadow shareds
                locals_[local_index[name]] = value
            else:
                vals[shared_index[name]] = value
        return (q[0], q[1], q[2], tuple(vals)), tuple(locals_)

    def _entry_symbol(self, function: ast.Function, args: tuple[int, ...]):
        cfg = self.cfgs[function.name]
        n_plain = len(function.locals)
        if self.nondet_locals:
            for extra in itertools.product((0, 1), repeat=n_plain):
                yield (function.name, cfg.entry, args + extra)
        else:
            yield (function.name, cfg.entry, args + (0,) * n_plain)

    # -- op translation ----------------------------------------------------
    def translate(self) -> PDS:
        for name in sorted(self.table.callees_closure(self.root)):
            function = self.table.functions[name]
            cfg = self.cfgs[name]
            for location, ops in cfg.ops.items():
                for op in ops:
                    self._translate_op(function, cfg, location, op)
        return self.pds

    def _translate_op(self, function, cfg, location, op) -> None:
        name = function.name
        for frame in self._local_frames(function):
            symbol = (name, location, frame)
            if isinstance(op, ReceiveOp):
                for q in self._shared_tuples(with_retbuf=True):
                    value, restore = q[2]
                    if q[0] != self.index:
                        continue  # handoff always owned by this thread
                    q_base = (restore, q[1], None, q[3])
                    q_new, frame_new = self._apply(
                        function, q_base, frame, {op.var: value}
                    )
                    self.pds.rule(q, (symbol,), q_new, ((name, op.target, frame_new),))
                continue

            for q in self._shared_tuples(with_retbuf=False):
                env = self._env(function, q, frame)
                if isinstance(op, SkipOp):
                    self.pds.rule(q, (symbol,), q, ((name, op.target, frame),))
                elif isinstance(op, AssumeOp):
                    if 1 in eval_expr(op.condition, env):
                        self.pds.rule(q, (symbol,), q, ((name, op.target, frame),))
                elif isinstance(op, AssertOp):
                    values = eval_expr(op.condition, env)
                    if 0 in values:
                        self.pds.rule(q, (symbol,), ERR, (symbol,))
                    if 1 in values:
                        self.pds.rule(q, (symbol,), q, ((name, op.target, frame),))
                elif isinstance(op, AssignOp):
                    self._translate_assign(function, q, frame, symbol, op, env)
                elif isinstance(op, CallOp):
                    self._translate_call(function, q, frame, symbol, op, env)
                elif isinstance(op, ReturnOp):
                    self._translate_return(q, symbol, op, env)
                elif isinstance(op, LockOp):
                    if q[1] == 0:
                        q_new = (q[0], 1, q[2], q[3])
                        self.pds.rule(q, (symbol,), q_new, ((name, op.target, frame),))
                elif isinstance(op, UnlockOp):
                    q_new = (q[0], 0, q[2], q[3])
                    self.pds.rule(q, (symbol,), q_new, ((name, op.target, frame),))
                elif isinstance(op, AtomicBeginOp):
                    if q[0] == 0:
                        q_new = (self.index, q[1], q[2], q[3])
                        self.pds.rule(q, (symbol,), q_new, ((name, op.target, frame),))
                elif isinstance(op, AtomicEndOp):
                    if q[0] == self.index:
                        q_new = (0, q[1], q[2], q[3])
                        self.pds.rule(q, (symbol,), q_new, ((name, op.target, frame),))
                else:  # pragma: no cover
                    raise TranslationError(f"unknown op {type(op).__name__}")

    def _translate_assign(self, function, q, frame, symbol, op: AssignOp, env) -> None:
        name = function.name
        value_sets = [eval_expr(value, env) for value in op.values]
        for combo in itertools.product(*value_sets):
            updates = dict(zip(op.targets, combo))
            q_new, frame_new = self._apply(function, q, frame, updates)
            if op.constrain is not None:
                post_env = self._env(function, q_new, frame_new)
                if 1 not in eval_expr(op.constrain, post_env):
                    continue
            self.pds.rule(q, (symbol,), q_new, ((name, op.target, frame_new),))

    def _translate_call(self, function, q, frame, symbol, op: CallOp, env) -> None:
        name = function.name
        callee = self.table.functions[op.func]
        arg_sets = [eval_expr(arg, env) for arg in op.args]
        return_site = (name, op.target, frame)
        for combo in itertools.product(*arg_sets):
            for entry in self._entry_symbol(callee, tuple(combo)):
                self.pds.rule(q, (symbol,), q, (entry, return_site))

    def _translate_return(self, q, symbol, op: ReturnOp, env) -> None:
        if op.value is None:
            self.pds.rule(q, (symbol,), q, ())
            return
        for value in eval_expr(op.value, env):
            # Take atomicity for the handoff; remember who to restore.
            q_new = (self.index, q[1], (value, q[0]), q[3])
            self.pds.rule(q, (symbol,), q_new, ())


def oracle_compile_program(
    program: ast.Program,
    init: dict[str, int | str] | None = None,
    nondet_locals: bool = False,
) -> CompiledProgram:
    """Compile an analyzed AST into a CPDS plus its safety property.

    ``init`` maps shared variables to 0, 1 or ``"*"`` (nondeterministic,
    resolved by the first action of whichever thread is scheduled first,
    via the ``⊥`` pre-state).  Unmentioned variables start at 0.
    ``nondet_locals`` makes non-parameter locals start nondeterministic
    instead of 0.
    """
    table = analyze(program)
    init = dict(init or {})
    for nm in init:
        if nm not in program.shared:
            raise TranslationError(f"init for unknown shared variable {nm!r}")
    shared_names = tuple(program.shared)
    cfgs = {func.name: build_cfg(func) for func in program.functions}

    threads: list[PDS] = []
    stacks: list[tuple] = []
    nondet_names = [name for name in shared_names if init.get(name) == "*"]
    concrete = tuple(
        0 if init.get(name) in (None, "*") else int(init[name]) for name in shared_names
    )
    base_q = (0, 0, None, concrete)
    initial_shared = INIT if nondet_names else base_q

    for position, root in enumerate(table.thread_roots, start=1):
        translator = _ThreadTranslator(
            table, cfgs, shared_names, position, root, nondet_locals, initial_shared
        )
        pds = translator.translate()
        pds.declare_shared(ERR)

        root_function = table.functions[root]
        root_entries = list(translator._entry_symbol(root_function, ()))
        entry0 = root_entries[0]
        pds.declare_symbol(entry0)

        if nondet_names:
            # ⊥ bootstrap: the first scheduled thread fixes the initial
            # valuation (and, under nondet_locals, its own frame).
            indices = [shared_names.index(name) for name in nondet_names]
            for values in itertools.product((0, 1), repeat=len(indices)):
                vals = list(concrete)
                for idx, value in zip(indices, values):
                    vals[idx] = value
                q = (0, 0, None, tuple(vals))
                for entry in root_entries:
                    pds.rule(INIT, (entry0,), q, (entry,))
        elif nondet_locals and len(root_entries) > 1:
            raise TranslationError(
                "nondet_locals on thread roots requires at least one "
                "nondeterministically initialized shared variable "
                "(the ⊥ bootstrap resolves the frame)"
            )

        threads.append(pds)
        stacks.append((entry0,))

    cpds = CPDS(threads, initial_stacks=stacks, name="bp")
    return CompiledProgram(
        cpds=cpds,
        prop=SharedStateReachability({ERR}),
        table=table,
        shared_names=shared_names,
        thread_roots=table.thread_roots,
        cfgs=cfgs,
    )
