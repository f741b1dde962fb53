"""Translation of concurrent Boolean programs to CPDS.

Encoding
--------

* **Shared state** ``q = (owner, lock, retbuf, vals)``:

  - ``owner`` — 0 or the 1-based index of the thread holding atomicity
    (inside an ``atomic`` block or mid return-value handoff);
  - ``lock`` — the global lock bit;
  - ``retbuf`` — ``None`` or ``(value, restore_owner)``, the in-flight
    function return value.  The returning pop takes atomicity (sets
    ``owner`` to the returning thread) and the caller's await-site
    consume restores ``restore_owner``, making the value handoff
    race-free;
  - ``vals`` — the shared Boolean variables in declaration order.

  Two extra shared states exist: :data:`ERR` (the target of failed
  assertions, absorbing) and :data:`INIT` (the paper's ``⊥``) when any
  shared variable is initialized nondeterministically — the first thread
  to move resolves the initial valuation, exactly like Fig. 2's ``f0``.

* **Stack symbol** ``(function, location, locals)`` — the paper's
  "interpreted as the name of the passed function" seeding: each thread
  starts with one symbol, its root's entry.

* **Actions**: calls push ``(callee entry, return site)``; returns pop;
  everything else overwrites.  A thread's actions are only generated
  from shared states with ``owner ∈ {0, i}``, which is what makes
  ``atomic`` atomic.

The compiled safety property is "``ERR`` unreachable", i.e. no assertion
fails.

Evaluation
----------

Rules are enumerated per op, per local frame, per ``owner``, ``lock``
(``retbuf``) and shared valuation, but an expression's value depends
only on its free variables.  Each expression therefore compiles to a
closure that projects the frame and the valuation onto those variables
and calls :func:`~repro.bp.eval.eval_expr` once per projection it has
not seen; the values of one frame, over all valuations, are a *column*
reused for every ``owner`` and ``lock``.  Valuations and frames are
known by their index in ``itertools.product`` order, so a write is bit
arithmetic on the index, and the shared states a thread acts from and
the stack symbols are built once and looked up.  The memos live in one :class:`_Compilation`, shared by
the threads of a :func:`compile_program` call and dropped with it.
Each thread's rules are built by :meth:`Action.of_kind
<repro.pds.action.Action.of_kind>` and added by one
:meth:`PDS.add_actions <repro.pds.pds.PDS.add_actions>` call, which
checks them and keeps the insertion order of adding them one at a time:
the rules, their order, and every set and index order downstream are
those of evaluating every expression at every state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

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
from repro.bp.eval import eval_expr, free_variables
from repro.bp.parser import parse_program
from repro.core.property import SharedStateReachability
from repro.cpds.cpds import CPDS
from repro.errors import TranslationError
from repro.obs import trace
from repro.pds.action import Action, ActionKind
from repro.pds.pds import PDS

#: Absorbing error shared state (failed assertions).
ERR = "ERR"
#: Pre-initialization shared state (the paper's ⊥), used when some
#: shared variable starts nondeterministic.
INIT = "⊥"


@dataclass
class CompiledProgram:
    """Result of compiling a Boolean program."""

    cpds: CPDS
    prop: SharedStateReachability
    table: SymbolTable
    shared_names: tuple[str, ...]
    thread_roots: tuple[str, ...]
    cfgs: dict[str, CFG]

    def describe_shared(self, q: Any) -> str:
        """Human-readable rendering of a shared state."""
        if q == ERR:
            return "ERR"
        if q == INIT:
            return "⊥"
        owner, lock, retbuf, vals = q
        pieces = [f"{name}={value}" for name, value in zip(self.shared_names, vals)]
        if owner:
            pieces.append(f"atomic=T{owner}")
        if lock:
            pieces.append("locked")
        if retbuf is not None:
            pieces.append(f"ret={retbuf[0]}")
        return "{" + ",".join(pieces) + "}"

    def describe_symbol(self, symbol: Any) -> str:
        """Human-readable rendering of a stack symbol."""
        function, location, locals_ = symbol
        func = self.table.functions[function]
        pieces = [f"{n}={v}" for n, v in zip(func.all_locals, locals_)]
        suffix = f"[{','.join(pieces)}]" if pieces else ""
        return f"{function}@{location}{suffix}"


def _valuations(width: int) -> tuple[tuple[int, ...], ...]:
    """Every 0/1 tuple of length ``width`` in ``itertools.product``
    order: position ``i`` of the result is ``i`` written in binary,
    first variable most significant."""
    return tuple(itertools.product((0, 1), repeat=width))


def _weights(width: int) -> tuple[int, ...]:
    """Bit of each variable in a valuation's index (see :func:`_valuations`)."""
    return tuple(1 << (width - 1 - slot) for slot in range(width))


class _Compilation:
    """What every thread of one :func:`compile_program` call shares.

    Holds the program, the valuation tables, and the memos that make
    compiling cheap: each expression's values per valuation of its free
    variables (:meth:`column`), stack symbols wrapped as 1-tuples
    (:meth:`unit`) and callee entry symbols (:meth:`entries`).  Memo
    keys are ``id``s of AST nodes this object keeps alive through
    ``cfgs``; everything is dropped with the call.
    """

    def __init__(
        self,
        table: SymbolTable,
        cfgs: dict[str, CFG],
        shared_names: tuple[str, ...],
        nondet_locals: bool,
    ) -> None:
        self.table = table
        self.cfgs = cfgs
        self.nondet_locals = nondet_locals
        #: Shared valuations; a shared state's ``vals`` is known by its
        #: index here.
        self.valuations = _valuations(len(shared_names))
        self._shared_slot = {name: slot for slot, name in enumerate(shared_names)}
        self._shared_weights = _weights(len(shared_names))
        self._columns: dict[tuple[str, int], Any] = {}
        self._units: dict[tuple, tuple] = {}
        self._entries: dict[tuple, tuple] = {}

    def slots(self, function: ast.Function, names) -> tuple[tuple[bool, int], ...]:
        """``(is_local, bit)`` of each written variable; locals shadow
        shareds, and the bit is the variable's weight in the frame or
        valuation index."""
        local_slot = {name: slot for slot, name in enumerate(function.all_locals)}
        local_weights = _weights(len(function.all_locals))
        return tuple(
            (True, local_weights[local_slot[name]])
            if name in local_slot
            else (False, self._shared_weights[self._shared_slot[name]])
            for name in names
        )

    def unit(self, function: str, location: int, frame: tuple) -> tuple:
        """The 1-tuple ``((function, location, frame),)``: an overwrite's
        read or write."""
        key = (function, location, frame)
        found = self._units.get(key)
        if found is None:
            found = self._units[key] = (key,)
        return found

    def entries(self, function: ast.Function, args: tuple[int, ...]) -> tuple:
        """Entry symbols of a call of ``function`` with ``args``: one, or
        one per initial valuation of its plain locals under
        ``nondet_locals``."""
        key = (function.name, args)
        found = self._entries.get(key)
        if found is None:
            entry = self.cfgs[function.name].entry
            n_plain = len(function.locals)
            extras = _valuations(n_plain) if self.nondet_locals else ((0,) * n_plain,)
            found = self._entries[key] = tuple(
                (function.name, entry, args + extra) for extra in extras
            )
        return found

    def column(self, function: ast.Function, expr: ast.Expr, frame: tuple) -> tuple:
        """The value sets of ``expr`` under local ``frame``, one per
        shared valuation (indexed like :attr:`valuations`)."""
        key = (function.name, id(expr))
        closure = self._columns.get(key)
        if closure is None:
            closure = self._columns[key] = self._compile(function, expr)
        return closure(frame)

    def _compile(self, function: ast.Function, expr: ast.Expr):
        """``frame -> column`` for one expression.

        The closure projects the frame onto the expression's free
        locals and each valuation onto its free shareds, and calls
        :func:`eval_expr` once per projected pair it has not seen.  A
        name that is neither local nor shared stays out of the
        environment, so ``eval_expr`` raises its usual
        :class:`~repro.errors.SemanticError` for it.
        """
        local_slot = {name: slot for slot, name in enumerate(function.all_locals)}
        local_names, local_slots, shared_names, shared_slots = [], [], [], []
        for name in sorted(free_variables(expr)):
            if name in local_slot:  # locals shadow shareds
                local_names.append(name)
                local_slots.append(local_slot[name])
            elif name in self._shared_slot:
                shared_names.append(name)
                shared_slots.append(self._shared_slot[name])
        valuations = self.valuations
        columns: dict[tuple, tuple] = {}

        def column(frame: tuple) -> tuple:
            local_key = tuple([frame[slot] for slot in local_slots])
            found = columns.get(local_key)
            if found is None:
                local_env = dict(zip(local_names, local_key))
                values: dict[tuple, frozenset[int]] = {}
                cells = []
                for vals in valuations:
                    shared_key = tuple([vals[slot] for slot in shared_slots])
                    value = values.get(shared_key)
                    if value is None:
                        env = dict(zip(shared_names, shared_key), **local_env)
                        value = values[shared_key] = eval_expr(expr, env)
                    cells.append(value)
                found = columns[local_key] = tuple(cells)
            return found

        return column


def _assign(updates, combo, index: int, frame_index: int) -> tuple[int, int]:
    """Valuation and frame indices after writing ``combo`` to the
    variables whose :meth:`_Compilation.slots` are ``updates``."""
    for (is_local, bit), value in zip(updates, combo):
        if is_local:
            frame_index = frame_index | bit if value else frame_index & ~bit
        else:
            index = index | bit if value else index & ~bit
    return index, frame_index


_OVERWRITE = ActionKind.OVERWRITE


class _ThreadTranslator:
    """Builds the PDS of one thread instance.

    Rules are produced frame by frame, per op, in the loop order
    ``owner``, ``lock`` (``retbuf``), valuation, and collected for one
    :meth:`PDS.add_actions` call.  An op that only reads and writes
    variables is first turned into *steps*: for each valuation, the
    ``(target valuation index or None for ERR, write, kind)`` triples
    it allows — the same for every ``owner`` and ``lock``.
    """

    def __init__(
        self,
        compilation: _Compilation,
        thread_index: int,  # 1-based (owner encoding)
        root: str,
        initial_shared,
    ) -> None:
        self.compilation = compilation
        self.index = thread_index
        self.root = root
        self.pds = PDS(initial_shared=initial_shared, name=f"{root}#{thread_index}")
        self.actions: list[Action] = []
        #: ``rows[owner][lock]``: the shared states ``(owner, lock,
        #: None, vals)`` in valuation order, for ``owner`` 0 and this
        #: thread (the ones this thread may act from).
        self.rows = {
            owner: tuple(
                tuple((owner, lock, None, vals) for vals in compilation.valuations)
                for lock in (0, 1)
            )
            for owner in (0, thread_index)
        }

    def translate(self) -> PDS:
        compilation = self.compilation
        for name in sorted(compilation.table.callees_closure(self.root)):
            function = compilation.table.functions[name]
            for location, ops in compilation.cfgs[name].ops.items():
                for op in ops:
                    self._translate_op(function, location, op)
        self.pds.add_actions(self.actions)
        return self.pds

    def _translate_op(self, function, location, op) -> None:
        translate = self._BY_OP.get(type(op))
        if translate is None:  # pragma: no cover
            raise TranslationError(f"unknown op {type(op).__name__}")
        frames = _valuations(len(function.all_locals))
        for frame_index, frame in enumerate(frames):
            read = self.compilation.unit(function.name, location, frame)
            translate(self, function, op, frames, frame_index, read)

    # -- emission --------------------------------------------------------
    def _emit_steps(self, read: tuple, steps) -> None:
        """``read``'s rules from every state this thread acts from, given
        the per-valuation ``steps``."""
        append = self.actions.append
        of_kind = Action.of_kind
        for rows in self.rows.values():
            for row in rows:
                for q, allowed in zip(row, steps):
                    for target, write, kind in allowed:
                        to = ERR if target is None else row[target]
                        append(of_kind(q, read, to, write, kind))

    def _emit_moves(self, read: tuple, write: tuple, move) -> None:
        """``read``'s rules that only move ``owner``/``lock``: ``move``
        maps a source ``(owner, lock)`` to the target's, or ``None``."""
        append = self.actions.append
        of_kind = Action.of_kind
        for owner, rows in self.rows.items():
            for lock, row in enumerate(rows):
                moved = move(owner, lock)
                if moved is None:
                    continue
                target_row = self.rows[moved[0]][moved[1]]
                for q, to in zip(row, target_row):
                    append(of_kind(q, read, to, write, _OVERWRITE))

    # -- ops ---------------------------------------------------------------
    def _skip(self, function, op, frames, frame_index, read) -> None:
        write = self.compilation.unit(function.name, op.target, frames[frame_index])
        self._emit_steps(
            read,
            [((index, write, _OVERWRITE),) for index in range(len(self.compilation.valuations))],
        )

    def _assume(self, function, op, frames, frame_index, read) -> None:
        frame = frames[frame_index]
        write = self.compilation.unit(function.name, op.target, frame)
        column = self.compilation.column(function, op.condition, frame)
        self._emit_steps(
            read,
            [((index, write, _OVERWRITE),) if 1 in values else ()
             for index, values in enumerate(column)],
        )

    def _assert(self, function, op, frames, frame_index, read) -> None:
        frame = frames[frame_index]
        write = self.compilation.unit(function.name, op.target, frame)
        column = self.compilation.column(function, op.condition, frame)
        steps = []
        for index, values in enumerate(column):
            allowed = []
            if 0 in values:
                allowed.append((None, read, _OVERWRITE))
            if 1 in values:
                allowed.append((index, write, _OVERWRITE))
            steps.append(allowed)
        self._emit_steps(read, steps)

    def _assign_op(self, function, op: AssignOp, frames, frame_index, read) -> None:
        compilation = self.compilation
        name = function.name
        frame = frames[frame_index]
        updates = compilation.slots(function, op.targets)
        columns = [compilation.column(function, value, frame) for value in op.values]
        steps = []
        for index in range(len(compilation.valuations)):
            allowed = []
            for combo in itertools.product(*[column[index] for column in columns]):
                new_index, new_frame_index = _assign(updates, combo, index, frame_index)
                new_frame = frames[new_frame_index]
                if op.constrain is not None:
                    post = compilation.column(function, op.constrain, new_frame)
                    if 1 not in post[new_index]:
                        continue
                write = compilation.unit(name, op.target, new_frame)
                allowed.append((new_index, write, _OVERWRITE))
            steps.append(allowed)
        self._emit_steps(read, steps)

    def _call(self, function, op: CallOp, frames, frame_index, read) -> None:
        compilation = self.compilation
        frame = frames[frame_index]
        callee = compilation.table.functions[op.func]
        columns = [compilation.column(function, arg, frame) for arg in op.args]
        (return_site,) = compilation.unit(function.name, op.target, frame)
        steps = []
        for index in range(len(compilation.valuations)):
            steps.append([
                (index, (entry, return_site), ActionKind.PUSH)
                for combo in itertools.product(*[column[index] for column in columns])
                for entry in compilation.entries(callee, combo)
            ])
        self._emit_steps(read, steps)

    def _return(self, function, op: ReturnOp, frames, frame_index, read) -> None:
        if op.value is None:
            self._emit_steps(
                read,
                [((index, (), ActionKind.POP),)
                 for index in range(len(self.compilation.valuations))],
            )
            return
        column = self.compilation.column(function, op.value, frames[frame_index])
        append = self.actions.append
        for owner, rows in self.rows.items():
            for lock, row in enumerate(rows):
                for q, values in zip(row, column):
                    for value in values:
                        # Take atomicity for the handoff; remember who to restore.
                        to = (self.index, lock, (value, owner), q[3])
                        append(Action.of_kind(q, read, to, (), ActionKind.POP))

    def _receive(self, function, op: ReceiveOp, frames, frame_index, read) -> None:
        # The handoff is always owned by this thread.
        updates = self.compilation.slots(function, (op.var,))
        retbufs = [(value, owner) for value in (0, 1) for owner in (0, self.index)]
        append = self.actions.append
        for lock in (0, 1):
            for retbuf in retbufs:
                value, restore = retbuf
                row = self.rows[restore][lock]
                for index, vals in enumerate(self.compilation.valuations):
                    new_index, new_frame_index = _assign(
                        updates, (value,), index, frame_index
                    )
                    write = self.compilation.unit(
                        function.name, op.target, frames[new_frame_index]
                    )
                    q = (self.index, lock, retbuf, vals)
                    append(Action.of_kind(q, read, row[new_index], write, _OVERWRITE))

    def _lock(self, function, op, frames, frame_index, read) -> None:
        write = self.compilation.unit(function.name, op.target, frames[frame_index])
        self._emit_moves(read, write, lambda owner, lock: None if lock else (owner, 1))

    def _unlock(self, function, op, frames, frame_index, read) -> None:
        write = self.compilation.unit(function.name, op.target, frames[frame_index])
        self._emit_moves(read, write, lambda owner, lock: (owner, 0))

    def _atomic_begin(self, function, op, frames, frame_index, read) -> None:
        write = self.compilation.unit(function.name, op.target, frames[frame_index])
        index = self.index
        self._emit_moves(read, write, lambda owner, lock: None if owner else (index, lock))

    def _atomic_end(self, function, op, frames, frame_index, read) -> None:
        write = self.compilation.unit(function.name, op.target, frames[frame_index])
        index = self.index
        self._emit_moves(
            read, write, lambda owner, lock: (0, lock) if owner == index else None
        )

    _BY_OP = {
        SkipOp: _skip,
        AssumeOp: _assume,
        AssertOp: _assert,
        AssignOp: _assign_op,
        CallOp: _call,
        ReturnOp: _return,
        ReceiveOp: _receive,
        LockOp: _lock,
        UnlockOp: _unlock,
        AtomicBeginOp: _atomic_begin,
        AtomicEndOp: _atomic_end,
    }


def compile_program(
    program: ast.Program,
    init: dict[str, int | str] | None = None,
    nondet_locals: bool = False,
) -> CompiledProgram:
    """Compile an analyzed AST into a CPDS plus its safety property.

    ``init`` maps shared variables to 0, 1 (or ``False``/``True``) or
    ``"*"`` (nondeterministic, resolved by the first action of whichever
    thread is scheduled first, via the ``⊥`` pre-state); any other value
    raises :class:`TranslationError`.  Unmentioned variables (or
    ``None``) start at 0.
    ``nondet_locals`` makes non-parameter locals start nondeterministic
    instead of 0.  Timed as one ``bp.compile`` span (``threads``,
    ``rules``).
    """
    if not trace.enabled():
        return _compile_program(program, init, nondet_locals)
    with trace.span("bp.compile") as timing:
        compiled = _compile_program(program, init, nondet_locals)
        threads = compiled.cpds.threads
        timing.set(threads=len(threads), rules=sum(len(pds.actions) for pds in threads))
    return compiled


def _init_value(name: str, value) -> int | str | None:
    """One shared variable's ``init`` entry, checked: 0 or 1 (``False``
    and ``True`` are the same bits), ``"*"`` (nondeterministic) or
    ``None`` (unmentioned).  Anything else would compile into a shared
    state no Boolean program can reach."""
    if value is None or value == "*":
        return value
    if isinstance(value, int) and value in (0, 1):
        return int(value)
    raise TranslationError(
        f"init for {name!r} must be 0, 1, true, false or '*', got {value!r}"
    )


def _compile_program(program: ast.Program, init, nondet_locals: bool) -> CompiledProgram:
    table = analyze(program)
    init = dict(init or {})
    for nm in init:
        if nm not in program.shared:
            raise TranslationError(f"init for unknown shared variable {nm!r}")
        init[nm] = _init_value(nm, init[nm])
    shared_names = tuple(program.shared)
    cfgs = {func.name: build_cfg(func) for func in program.functions}
    compilation = _Compilation(table, cfgs, shared_names, nondet_locals)

    threads: list[PDS] = []
    stacks: list[tuple] = []
    nondet_names = [name for name in shared_names if init.get(name) == "*"]
    concrete = tuple(
        0 if init.get(name) in (None, "*") else init[name] for name in shared_names
    )
    base_q = (0, 0, None, concrete)
    initial_shared = INIT if nondet_names else base_q

    for position, root in enumerate(table.thread_roots, start=1):
        translator = _ThreadTranslator(compilation, position, root, initial_shared)
        pds = translator.translate()
        pds.declare_shared(ERR)

        root_entries = compilation.entries(table.functions[root], ())
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

    cpds = CPDS(
        threads,
        initial_stacks=stacks,
        name="bp",
        symmetry_candidates=_replica_swaps(threads, table.thread_roots, stacks),
    )
    return CompiledProgram(
        cpds=cpds,
        prop=SharedStateReachability({ERR}),
        table=table,
        shared_names=shared_names,
        thread_roots=table.thread_roots,
        cfgs=cfgs,
    )


def _replica_swaps(threads, roots, stacks) -> tuple:
    """Candidate symmetry generators (see :mod:`repro.cpds.symmetry`):
    one transposition per pair of threads that run the same root from
    equal initial stacks.  The shared-state map relabels the thread
    indices the encoding stores — ``owner`` and ``retbuf``'s restore
    owner, both 1-based with 0 for "nobody" — and fixes ``ERR`` and
    ``⊥``.  Plain tuples and dicts, so the CPDS stays picklable; the
    explicit engine verifies each one rule for rule before use."""
    shared = frozenset().union(*(pds.shared_states for pds in threads))
    swaps = []
    for first in range(len(threads)):
        for second in range(first + 1, len(threads)):
            if roots[first] != roots[second] or stacks[first] != stacks[second]:
                continue
            perm = list(range(len(threads)))
            perm[first], perm[second] = second, first
            owners = {first + 1: second + 1, second + 1: first + 1}
            shared_map = {}
            for q in shared:
                if q == ERR or q == INIT:
                    shared_map[q] = q
                    continue
                owner, lock, retbuf, vals = q
                if retbuf is not None:
                    retbuf = (retbuf[0], owners.get(retbuf[1], retbuf[1]))
                shared_map[q] = (owners.get(owner, owner), lock, retbuf, vals)
            swaps.append((tuple(perm), shared_map))
    return tuple(swaps)


def compile_source(
    source: str,
    init: dict[str, int | str] | None = None,
    nondet_locals: bool = False,
) -> CompiledProgram:
    """Parse, analyze and compile Boolean-program source text."""
    return compile_program(parse_program(source), init, nondet_locals)
