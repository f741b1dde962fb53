"""``post*`` saturation: PDS reachability as a pushdown store automaton.

Implements the classical construction of Bouajjani/Esparza/Maler (used by
the paper via Schwoon's formulation [38]) extended to the paper's
empty-stack actions ``(q,ε)→(q',w')``.

Given a P-automaton ``A`` accepting an initial set ``C`` of PDS states,
the returned PSA accepts exactly ``post*(C)``, the states reachable from
``C``.  The saturation rules are, writing ``p --γ--> q`` for "``q`` is
reachable from ``p`` by ``ε* γ ε*``" in the *current* automaton:

* pop ``(p,γ)→(p',ε)``:        add ``p' --ε--> q``    for each ``p --γ--> q``
* overwrite ``(p,γ)→(p',γ')``: add ``p' --γ'--> q``   for each ``p --γ--> q``
* push ``(p,γ)→(p',ρ0ρ1)``:    add ``p' --ρ0--> m`` and
  ``m --ρ1--> q`` for each ``p --γ--> q``, where ``m`` is a helper state
  unique to ``(p', ρ0)`` (Schwoon's ``q_{p'γ'}``)
* empty-overwrite ``(p,ε)→(p',ε)``: if ``⟨p|ε⟩`` accepted,
  add ``p' --ε--> sink``
* empty-push ``(p,ε)→(p',σ)``:      if ``⟨p|ε⟩`` accepted,
  add ``p' --σ--> sink``

where ``sink`` is a dedicated accepting state without outgoing edges, so
the last two rules add exactly the configurations ``⟨p'|ε⟩`` / ``⟨p'|σ⟩``.

The production implementation is the worklist engine
:class:`PostStarEngine`, used one way everywhere: build it (the
constructor, :meth:`~PostStarEngine.from_edges` or
:meth:`~PostStarEngine.shallow`), :meth:`~PostStarEngine.drain` it once,
then adopt its edge relation with :meth:`~PostStarEngine.detach_nfa`
(:func:`post_star` and :func:`shallow_configs_psa` wrap exactly this).
The direct transcription of the rules survives as
:func:`post_star_naive`, the differential-testing oracle.

Performance notes
-----------------
The worklist engine maintains five invariants that together make every
piece of work happen exactly once, and only where the entry reaches:

1. **Each transition is processed once.**  New transitions enter a FIFO
   frontier guarded by the ``seen`` set; processing a popped transition
   applies every Δ-rule it can serve as a premise for, looked up through
   the PDS's ``(control, top-symbol)`` trigger index
   (:meth:`repro.pds.pds.PDS.actions_for`) — no scan over Δ ever happens.
2. **ε-closure is materialized, not queried.**  The two-premise join
   "``p --ε--> q`` and ``q --x--> r`` yields ``p --x--> r``" is applied
   from both sides (when the ε-edge pops, against the processed
   out-edges ``rel[q]``; when the out-edge pops, against the processed
   ε-predecessors ``eps_into[q]``), so the relation ``p --γ--> q`` used
   by the saturation rules is always a *direct* edge and rules fire on
   edge labels alone.  The oracle instead re-resolves ε-closure on every
   query (now cached inside :class:`~repro.automata.nfa.NFA`, but still
   re-queried every sweep).
3. **The paper's empty-stack rules fire on evidence.**  ``⟨p|ε⟩`` is
   accepted exactly when a (derived) ε-edge connects control ``p`` to an
   accepting state; the rules fire when such an edge pops, never by
   polling.
4. **Helper edges are emitted on first push firing.**  The edge
   ``p' --ρ0--> m`` into a push rule's helper ``m = q_{p'ρ0}`` enters
   the frontier when a push into ``(p', ρ0)`` first fires, as in
   Schwoon's formulation, never up front.  Before that ``m`` has no
   out-edge, so an eager edge into it adds no accepted configuration,
   only dead work: every rule triggered by ``(p', ρ0)`` fires on it.
   On the symbolic lane's Table 2 contexts that closure of the whole
   program's call skeleton was most of each saturation's edges (696
   of 714 on Bluetooth-3's first context of its second thread).
   :func:`post_star_naive` keeps the eager skeleton on purpose, so the
   differential harness checks lazy ≡ eager.
5. **Shallow seeds start processed.**  The FCR/WCR premise saturates
   ``Q × Σ≤1``, whose initial edges are the seeds ``q --x--> sink`` for
   every control ``q`` and ``x ∈ {ε} ∪ Σ``.  Controls have no in-edges
   and ``sink`` has no out-edges, so no ε-join ever reads a seed, and
   processing one derives only a control → ``sink`` edge (pop,
   overwrite and the empty-stack rules), which is itself a seed, or a
   push consequence ``p' --ρ0--> m`` / ``m --ρ1--> sink``.
   :meth:`PostStarEngine.shallow` therefore enters every seed in
   ``rel`` and ``seen`` with ``eps_into[sink] = Q``, as if popped,
   and puts only each push rule's two consequences on the frontier;
   one :meth:`~PostStarEngine.drain` then reaches exactly the edge set
   of a cold saturation of ``psa_for_configs(pds, Q × Σ≤1)``.  The
   seeds count in ``post_star.edges_added`` but not in
   ``post_star.rule_applications`` (Bluetooth-1 [1+1]'s ``check_fcr``:
   6,525 edges either way, 5,200 → 464 rule applications).

An engine saturates one initial automaton.  Re-entering a saturated
automaton from a different control state is **not** sound reuse,
because edges derived for the old entry would pollute the new entry's
language.  Cross-expansion reuse in the reachability engines therefore
happens at the level of whole expansions, keyed by canonical automaton
signature (:mod:`repro.reach.symbolic`) or by local thread view
(:mod:`repro.reach.explicit`).

All engines report algorithmic work through
:data:`repro.util.meter.METER`:

=====================================  =============================================
counter                                meaning
=====================================  =============================================
``post_star.rule_applications``        Δ-rule × premise pairs processed (worklist)
``post_star.edges_added``              distinct automaton edges discovered
``post_star.eps_propagations``         derived-edge joins through ε-edges
``post_star_naive.rule_applications``  Δ-rule × premise pairs processed (oracle)
``post_star_naive.sweeps``             full passes over Δ until the fixpoint
=====================================  =============================================

A *rule application* counts one attempt to apply one Δ-rule to one
premise.  The worklist engine touches each (rule, premise) pair exactly
once; the oracle re-touches all of them every sweep and needs a final
no-change sweep to detect the fixpoint, so on any input needing ≥ 2
sweeps the worklist performs strictly fewer rule applications — the
benchmarked invariant in ``tests/pds/test_saturation_meter.py``.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Hashable, Iterable

from repro.automata import EPSILON, NFA
from repro.errors import ModelError
from repro.pds.action import ActionKind
from repro.pds.pds import PDS
from repro.pds.psa import FINAL_SINK, PSA
from repro.pds.state import PDSState
from repro.util.meter import METER

Shared = Hashable
Symbol = Hashable


def psa_for_configs(pds: PDS, configs: Iterable[PDSState | tuple]) -> PSA:
    """Build the initial P-automaton accepting exactly ``configs``.

    Each config is a :class:`PDSState` or a ``(shared, stack)`` pair,
    encoded as a chain reading its stack from the control state through
    fresh chain states into the accepting sink (an empty stack becomes a
    single ε-edge).  Control states are all of ``pds.shared_states``;
    fresh chain states keep the "no transitions into control states"
    precondition.
    """
    nfa = NFA(states=pds.shared_states, accepting=[FINAL_SINK])
    counter = itertools.count()
    for config in configs:
        state = config if isinstance(config, PDSState) else PDSState(*config)
        if state.shared not in pds.shared_states:
            raise ModelError(f"config {state} has unknown shared state")
        if not state.stack:
            nfa.add_transition(state.shared, EPSILON, FINAL_SINK)
            continue
        source = state.shared
        for symbol in state.stack[:-1]:
            chain_state = ("__chain__", next(counter))
            nfa.add_transition(source, symbol, chain_state)
            source = chain_state
        nfa.add_transition(source, state.stack[-1], FINAL_SINK)
    return PSA(nfa, pds.shared_states)


def _check_preconditions(psa: PSA) -> None:
    nfa = psa.automaton
    for _src, _label, dst in nfa.transitions():
        if dst in psa.control_states:
            raise ModelError(
                "initial P-automaton has a transition into a control state; "
                "post* saturation requires control states to be entry-only"
            )
    for accepting in nfa.accepting:
        if accepting in psa.control_states:
            raise ModelError("control states must not be accepting initially")


def _helper(to_shared: Shared, pushed: Symbol):
    """Schwoon's per-(p', ρ0) midpoint state ``q_{p'ρ0}``."""
    return ("__push__", to_shared, pushed)


class PostStarEngine:
    """Worklist-based ``post*`` saturation of one initial automaton.

    The engine owns the growing edge relation.  Its one use is::

        engine = PostStarEngine(pds, initial)   # or from_edges / shallow
        nfa = engine.detach_nfa()               # drain(), then adopt

    The input PSA is never mutated: the engine copies its edges into
    dicts of its own, which :meth:`detach_nfa` then hands over.

    The engine resolves Δ-rules through the PDS's cached
    :meth:`~repro.pds.pds.PDS.trigger_index` — one dict shared by every
    engine over the same PDS, whose construction also interns the stack
    alphabet (so downstream canonicalization sees the dense symbol
    order) — and reports METER work in per-:meth:`drain` batches rather
    than per edge.
    """

    __slots__ = (
        "controls",
        "accepting",
        "_rules",
        "_seen",
        "_frontier",
        "_rel",
        "_eps_into",
        "_edges_accounted",
    )

    def __init__(
        self, pds: PDS, initial: PSA | None = None, *, validate: bool = True
    ) -> None:
        if initial is None:
            initial = psa_for_configs(pds, [pds.initial_state()])
        if validate:
            _check_preconditions(initial)
        self._init_core(
            pds,
            frozenset(initial.control_states) | frozenset(pds.shared_states),
            frozenset(initial.automaton.accepting) | {FINAL_SINK},
            initial.automaton.transitions(),
        )

    @classmethod
    def from_edges(
        cls,
        pds: PDS,
        edges: Iterable[tuple],
        accepting: Iterable,
        controls: Iterable[Shared] | None = None,
    ) -> "PostStarEngine":
        """Engine over a raw initial edge list — the symbolic engine's
        per-context hot path, which skips materializing an intermediate
        P-automaton.  The P-automaton preconditions (no edges into
        control states, controls not accepting) are the caller's
        responsibility; ``controls`` defaults to the PDS's shared states.
        """
        engine = cls.__new__(cls)
        engine._init_core(
            pds,
            frozenset(pds.shared_states) | frozenset(controls or ()),
            frozenset(accepting) | {FINAL_SINK},
            edges,
        )
        return engine

    @classmethod
    def shallow(cls, pds: PDS) -> "PostStarEngine":
        """Engine for ``post*(Q × Σ≤1)`` with every seed edge
        ``q --x--> FINAL_SINK`` (``x ∈ {ε} ∪ Σ``) already *processed*
        and only the push consequences on the frontier (Performance
        notes, invariant 5); :meth:`drain` finishes the saturation."""
        engine = cls.from_edges(pds, (), ())
        labels = (EPSILON, *pds.alphabet)
        rel = engine._rel
        seen = engine._seen
        for control in engine.controls:
            rel[control] = {label: {FINAL_SINK} for label in labels}
            seen.update([(control, label, FINAL_SINK) for label in labels])
        engine._eps_into[FINAL_SINK] = set(engine.controls)
        # Processing the seeds derives only seeds, except that each push
        # rule fires on its own seed premise (from_shared, γ, FINAL_SINK).
        push = engine._push
        for action in pds.actions:
            if action.kind is ActionKind.PUSH:
                rho0, rho1 = action.write
                mid = _helper(action.to_shared, rho0)
                push(action.to_shared, rho0, mid)
                push(mid, rho1, FINAL_SINK)
        return engine

    def _init_core(
        self, pds: PDS, controls: frozenset, accepting: frozenset, edges: Iterable
    ) -> None:
        self.controls = controls
        self.accepting = accepting
        #: (shared, top-or-None) -> matching Δ-rules, shared across engines.
        self._rules = pds.trigger_index()

        self._seen: set[tuple] = set()
        self._frontier: deque[tuple] = deque()
        #: processed edges: src -> label -> set of dst
        self._rel: dict = {}
        #: processed ε-edges, reversed: state -> set of ε-predecessors
        self._eps_into: dict = {}
        #: edges already reported to METER (batched in :meth:`drain`)
        self._edges_accounted = 0

        for src, label, dst in edges:
            self._push(src, label, dst)
        # No push-helper edges here: drain() emits p' --ρ0--> m when a
        # push into (p', ρ0) first fires (Performance notes, invariant 4).

    # ------------------------------------------------------------------
    # Frontier
    # ------------------------------------------------------------------
    def _push(self, src, label, dst) -> None:
        transition = (src, label, dst)
        if transition not in self._seen:
            self._seen.add(transition)
            self._frontier.append(transition)

    def drain(self) -> "PostStarEngine":
        """Saturate in place: process the frontier to the fixpoint."""
        rel = self._rel
        eps_into = self._eps_into
        rules = self._rules
        no_rules: tuple = ()
        accepting = self.accepting
        controls = self.controls
        frontier = self._frontier
        # _push inlined below: one membership test + two appends per
        # candidate edge, no method-call overhead on the innermost loop.
        seen = self._seen
        seen_add = seen.add
        emit = frontier.append
        rule_applications = 0
        eps_propagations = 0

        while frontier:
            transition = frontier.popleft()
            src, label, dst = transition
            rel.setdefault(src, {}).setdefault(label, set()).add(dst)

            # ε-predecessors of src read `label` through src as well.
            predecessors = eps_into.get(src)
            if predecessors:
                eps_propagations += len(predecessors)
                for predecessor in predecessors:
                    derived = (predecessor, label, dst)
                    if derived not in seen:
                        seen_add(derived)
                        emit(derived)

            if label is EPSILON:
                eps_into.setdefault(dst, set()).add(src)
                # Derive src --x--> r for everything dst already reads.
                for label2, dsts2 in rel.get(dst, {}).items():
                    eps_propagations += len(dsts2)
                    for dst2 in dsts2:
                        derived = (src, label2, dst2)
                        if derived not in seen:
                            seen_add(derived)
                            emit(derived)
                # ⟨src|ε⟩ is accepted: the paper's empty-stack rules fire.
                if dst in accepting and src in controls:
                    for action in rules.get((src, None), no_rules):
                        rule_applications += 1
                        if action.kind is ActionKind.EMPTY_OVERWRITE:
                            derived = (action.to_shared, EPSILON, FINAL_SINK)
                        else:  # EMPTY_PUSH
                            derived = (action.to_shared, action.write[0], FINAL_SINK)
                        if derived not in seen:
                            seen_add(derived)
                            emit(derived)
                continue

            # Real symbol: saturation rules for actions triggered by
            # (src, label); src is a control state whenever any match.
            matching = rules.get((src, label), no_rules)
            rule_applications += len(matching)
            for action in matching:
                kind = action.kind
                if kind is ActionKind.POP:
                    derived = (action.to_shared, EPSILON, dst)
                elif kind is ActionKind.OVERWRITE:
                    derived = (action.to_shared, action.write[0], dst)
                else:  # PUSH: write = (ρ0, ρ1)
                    rho0, rho1 = action.write
                    mid = _helper(action.to_shared, rho0)
                    # The helper edge, on first firing (invariant 4).
                    helper_edge = (action.to_shared, rho0, mid)
                    if helper_edge not in seen:
                        seen_add(helper_edge)
                        emit(helper_edge)
                    derived = (mid, rho1, dst)
                if derived not in seen:
                    seen_add(derived)
                    emit(derived)

        if rule_applications:
            METER.bump("post_star.rule_applications", rule_applications)
        if eps_propagations:
            METER.bump("post_star.eps_propagations", eps_propagations)
        edges = len(self._seen) - self._edges_accounted
        if edges:
            METER.bump("post_star.edges_added", edges)
            self._edges_accounted = len(self._seen)
        return self

    def detach_nfa(self) -> NFA:
        """Drain, then adopt the saturated edge relation as an NFA
        *without copying*.

        The returned automaton shares the engine's internal transition
        dicts, so the engine is spent afterwards: call this once and drop
        it.  Every ``post*`` takes this path; the symbolic lane builds
        one engine per context expansion and only reads the result.
        """
        self.drain()
        nfa = NFA(states=self.controls, accepting=self.accepting)
        delta = nfa._delta
        states = nfa._states
        for src, by_label in self._rel.items():
            delta[src] = by_label
            states.add(src)
            for targets in by_label.values():
                states |= targets
        return nfa

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PostStarEngine(edges={len(self._seen)}, "
            f"pending={len(self._frontier)}, controls={len(self.controls)})"
        )


def post_star(pds: PDS, initial: PSA | None = None, *, validate: bool = True) -> PSA:
    """Saturate ``initial`` into a PSA for ``post*(L(initial))``.

    When ``initial`` is omitted, the start set is the singleton
    ``{⟨qI|ε⟩}`` (the paper's initial PDS state).  The input PSA is not
    mutated, and each call returns an automaton of its own.  This is the
    one-shot wrapper around :class:`PostStarEngine`; see
    :func:`post_star_naive` for the differential-testing oracle.
    """
    engine = PostStarEngine(pds, initial, validate=validate)
    return PSA(engine.detach_nfa(), engine.controls)


def post_star_naive(
    pds: PDS, initial: PSA | None = None, *, validate: bool = True
) -> PSA:
    """Reference implementation: re-apply all saturation rules until no
    transition is added, resolving ε-closure on every query.  Quadratic
    and slow, but a direct transcription of the rules — kept as the
    differential-testing oracle for :func:`post_star` and
    :class:`PostStarEngine` (see ``tests/pds/test_saturation_differential``).
    """
    if initial is None:
        initial = psa_for_configs(pds, [pds.initial_state()])
    if validate:
        _check_preconditions(initial)

    nfa = initial.automaton.copy()
    controls = set(initial.control_states) | set(pds.shared_states)
    nfa.add_accepting(FINAL_SINK)  # ensure the sink exists for ε-rules
    for shared in controls:
        nfa.add_state(shared)

    # Eager skeleton edges p' --ρ0--> m for every push rule, unlike the
    # engine's first-firing emission: the differential tests then check
    # that both give every control the same language.
    for action in pds.actions:
        if action.kind is ActionKind.PUSH:
            rho0 = action.write[0]
            nfa.add_transition(action.to_shared, rho0, _helper(action.to_shared, rho0))

    changed = True
    while changed:
        changed = False
        METER.bump("post_star_naive.sweeps")
        for action in pds.actions:
            kind = action.kind
            if kind.reads_empty_stack:
                # ⟨p|ε⟩ accepted iff accepting state in ε-closure of p.
                METER.bump("post_star_naive.rule_applications")
                closure = nfa.epsilon_closure([action.from_shared])
                if not (closure & nfa.accepting):
                    continue
                if kind is ActionKind.EMPTY_OVERWRITE:
                    changed |= nfa.add_transition(action.to_shared, EPSILON, FINAL_SINK)
                else:  # EMPTY_PUSH
                    changed |= nfa.add_transition(
                        action.to_shared, action.write[0], FINAL_SINK
                    )
                continue

            gamma = action.read[0]
            for target in nfa.reads(action.from_shared, gamma):
                METER.bump("post_star_naive.rule_applications")
                if kind is ActionKind.POP:
                    changed |= nfa.add_transition(action.to_shared, EPSILON, target)
                elif kind is ActionKind.OVERWRITE:
                    changed |= nfa.add_transition(
                        action.to_shared, action.write[0], target
                    )
                else:  # PUSH: write = (ρ0, ρ1)
                    rho0, rho1 = action.write
                    mid = _helper(action.to_shared, rho0)
                    changed |= nfa.add_transition(action.to_shared, rho0, mid)
                    changed |= nfa.add_transition(mid, rho1, target)
    return PSA(nfa, frozenset(controls))


def format_saturation_stats(stats: dict) -> str:
    """One-line rendering of a meter delta for benchmark tables.

    Picks out the saturation counters documented in the module's
    Performance notes; unknown keys are ignored.
    """
    parts = []
    for key, label in (
        ("post_star.rule_applications", "rules"),
        ("post_star.edges_added", "edges"),
        ("post_star.eps_propagations", "ε-joins"),
        ("post_star_naive.rule_applications", "naive-rules"),
        ("post_star_naive.sweeps", "naive-sweeps"),
    ):
        if stats.get(key):
            parts.append(f"{label}={stats[key]}")
    return " ".join(parts) if parts else "no saturation work"


def shallow_configs_psa(pds: PDS) -> PSA:
    """PSA for ``post*(Q × Σ≤1)`` — the FCR premise of Lemma 16/Thm 17.

    Initial set: every shared state with an empty stack or any single
    stack symbol, i.e. the seed edges ``q --x--> FINAL_SINK`` for
    ``x ∈ {ε} ∪ Σ``.  The engine starts with the seeds already processed
    (:meth:`PostStarEngine.shallow`, invariant 5 of the Performance
    notes), drains only the push consequences, and hands over its edge
    relation without a copy.  The edge set equals
    ``post_star(pds, psa_for_configs(pds, Q × Σ≤1))``.
    """
    engine = PostStarEngine.shallow(pds)
    return PSA(engine.detach_nfa(), engine.controls)
