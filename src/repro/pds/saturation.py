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
:class:`PostStarEngine` (wrapped by :func:`post_star`); the direct
transcription of the rules survives as :func:`post_star_naive`, the
differential-testing oracle.

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

Because saturation is a monotone closure operator, the engine supports
*incremental resaturation*: after :meth:`PostStarEngine.saturate`, extra
initial edges or configurations can be injected
(:meth:`~PostStarEngine.add_transition`, :meth:`~PostStarEngine.add_config`)
and a further :meth:`~PostStarEngine.saturate` propagates exactly the new
consequences — the result equals a cold saturation of the enlarged
initial set (confluence), at the cost of only the new frontier.  Note the
warm start grows the *initial set*; re-entering the same saturated
automaton from a different control state is **not** a sound warm start,
because edges derived for the old entry would pollute the new entry's
language.  Cross-expansion reuse in the reachability engines therefore
happens at the level of whole expansions, keyed by canonical automaton
signature (:mod:`repro.reach.symbolic`) or by local thread view
(:mod:`repro.reach.explicit`).  No production path warm-starts any more
(the shallow saturation seeds instead, invariant 5); the differential
tests still exercise it.

All engines report algorithmic work through
:data:`repro.util.meter.METER`:

=====================================  =============================================
counter                                meaning
=====================================  =============================================
``post_star.rule_applications``        Δ-rule × premise pairs processed (worklist)
``post_star.edges_added``              distinct automaton edges discovered
``post_star.eps_propagations``         derived-edge joins through ε-edges
``post_star.resaturations``            warm-start :meth:`~PostStarEngine.saturate` calls
``post_star_naive.rule_applications``  Δ-rule × premise pairs processed (oracle)
``post_star_naive.sweeps``             full passes over Δ until the fixpoint
``pre_star.rule_applications``         Δ-rule × premise pairs processed (worklist)
``pre_star.edges_added``               distinct automaton edges discovered
``pre_star_naive.sweeps``              full passes over Δ until the fixpoint
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
from collections.abc import Hashable, Iterable, Sequence

from repro.automata import EPSILON, NFA
from repro.errors import ModelError
from repro.pds.action import ActionKind
from repro.pds.pds import PDS
from repro.pds.psa import FINAL_SINK, PSA
from repro.pds.state import PDSState
from repro.util.meter import METER

Shared = Hashable
Symbol = Hashable


def _config_edges(state: PDSState, fresh) -> Iterable[tuple]:
    """The chain edges encoding one configuration ``⟨q|w⟩``: read ``w``
    from ``q`` through fresh chain states (supplied by ``fresh()``) into
    the accepting sink; an empty stack becomes a single ε-edge."""
    if not state.stack:
        yield (state.shared, EPSILON, FINAL_SINK)
        return
    source = state.shared
    for symbol in state.stack[:-1]:
        chain_state = fresh()
        yield (source, symbol, chain_state)
        source = chain_state
    yield (source, state.stack[-1], FINAL_SINK)


def psa_for_configs(pds: PDS, configs: Iterable[PDSState | tuple]) -> PSA:
    """Build the initial P-automaton accepting exactly ``configs``.

    Each config is a :class:`PDSState` or a ``(shared, stack)`` pair.
    Control states are all of ``pds.shared_states``; fresh chain states
    keep the "no transitions into control states" precondition.
    """
    nfa = NFA(states=pds.shared_states, accepting=[FINAL_SINK])
    counter = itertools.count()
    for config in configs:
        state = config if isinstance(config, PDSState) else PDSState(*config)
        if state.shared not in pds.shared_states:
            raise ModelError(f"config {state} has unknown shared state")
        for src, label, dst in _config_edges(
            state, lambda: ("__chain__", next(counter))
        ):
            nfa.add_transition(src, label, dst)
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
    """Worklist-based ``post*`` saturation with incremental resaturation.

    The engine owns the growing edge relation.  Typical one-shot use is
    ``PostStarEngine(pds, initial).saturate()`` (what :func:`post_star`
    does); incremental use saturates, injects extra initial edges or
    configurations, and saturates again::

        engine = PostStarEngine(pds, psa_for_configs(pds, base))
        psa0 = engine.saturate()
        engine.add_config(extra_state)      # warm start: only the new
        psa1 = engine.saturate()            # consequences propagate

    ``psa1`` equals a cold ``post_star`` over ``base + [extra_state]``
    (see the module's Performance notes).  The input PSA is never
    mutated; every :meth:`saturate`/:meth:`psa` call snapshots a fresh
    automaton.

    The engine resolves Δ-rules through the PDS's cached
    :meth:`~repro.pds.pds.PDS.trigger_index` — one dict shared by every
    engine over the same PDS, whose construction also interns the stack
    alphabet (so downstream canonicalization sees the dense symbol
    order) — and reports METER work in per-:meth:`drain` batches rather
    than per edge.
    """

    __slots__ = (
        "pds",
        "controls",
        "accepting",
        "_rules",
        "_seen",
        "_frontier",
        "_rel",
        "_eps_into",
        "_chain",
        "_edges_accounted",
        "_saturated_once",
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
        self.pds = pds
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
        #: fresh-chain-state counter for :meth:`add_config`
        self._chain = 0
        #: edges already reported to METER (batched in :meth:`drain`)
        self._edges_accounted = 0

        for src, label, dst in edges:
            self._push(src, label, dst)
        # No push-helper edges here: drain() emits p' --ρ0--> m when a
        # push into (p', ρ0) first fires (Performance notes, invariant 4).
        self._saturated_once = False

    # ------------------------------------------------------------------
    # Frontier
    # ------------------------------------------------------------------
    def _push(self, src, label, dst) -> None:
        transition = (src, label, dst)
        if transition not in self._seen:
            self._seen.add(transition)
            self._frontier.append(transition)

    def add_transition(self, src, label, dst) -> None:
        """Inject an extra initial edge (warm-start entry point).

        The edge must satisfy the P-automaton preconditions (it must not
        point into a control state); consequences propagate on the next
        :meth:`saturate`.
        """
        if dst in self.controls:
            raise ModelError("cannot add a transition into a control state")
        self._push(src, label, dst)

    def add_config(self, config: PDSState | tuple) -> None:
        """Inject an extra initial configuration (as fresh chain edges)."""
        state = config if isinstance(config, PDSState) else PDSState(*config)
        if state.shared not in self.pds.shared_states:
            raise ModelError(f"config {state} has unknown shared state")
        for src, label, dst in _config_edges(state, self._fresh_chain):
            self._push(src, label, dst)

    def _fresh_chain(self):
        chain_state = ("__chain_inc__", self._chain)
        self._chain += 1
        return chain_state

    # ------------------------------------------------------------------
    # Saturation
    # ------------------------------------------------------------------
    def saturate(self) -> PSA:
        """Drain the frontier to the fixpoint and snapshot the PSA.

        Idempotent; after extra edges/configs were injected this is a
        warm start that processes only the new frontier.  Use
        :meth:`drain` instead when more injections follow and the
        intermediate snapshot would be discarded.
        """
        self.drain()
        return self.psa()

    def drain(self) -> "PostStarEngine":
        """Saturate in place without building a PSA snapshot."""
        if self._saturated_once and self._frontier:
            METER.bump("post_star.resaturations")
        rel = self._rel
        eps_into = self._eps_into
        # Re-fetch per drain: trigger_index() is version-cached (a dict
        # identity is returned unless the PDS mutated), so rules — and
        # any shared states they introduced — added between a saturation
        # and a warm start are picked up without per-edge lookup cost.
        # NOTE: a rule added *after* some premise edge was already
        # processed still only fires on future edges — mutate the PDS
        # before building engines for exact semantics.
        rules = self._rules = self.pds.trigger_index()
        if not self.controls >= self.pds.shared_states:
            self.controls = self.controls | self.pds.shared_states
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
        self._saturated_once = True
        return self

    def snapshot_nfa(self) -> NFA:
        """The current (saturated or partial) edge relation as a bare NFA."""
        nfa = NFA(states=self.controls, accepting=self.accepting)
        nfa.add_transitions(self._seen)
        return nfa

    def detach_nfa(self) -> NFA:
        """Adopt the saturated edge relation as an NFA *without copying*.

        The returned automaton shares the engine's internal transition
        dicts: the engine must be discarded afterwards (any further
        injection + drain would mutate the "snapshot").  This is the
        symbolic engine's hot path — one context expansion builds one
        engine, drains it once, and only needs the result to read from.
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

    def psa(self) -> PSA:
        """Snapshot the current (saturated or partial) automaton."""
        return PSA(self.snapshot_nfa(), self.controls)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PostStarEngine(edges={len(self._seen)}, "
            f"pending={len(self._frontier)}, controls={len(self.controls)})"
        )


def post_star(pds: PDS, initial: PSA | None = None, *, validate: bool = True) -> PSA:
    """Saturate ``initial`` into a PSA for ``post*(L(initial))``.

    When ``initial`` is omitted, the start set is the singleton
    ``{⟨qI|ε⟩}`` (the paper's initial PDS state).  The input PSA is not
    mutated.  This is the one-shot wrapper around :class:`PostStarEngine`;
    see :func:`post_star_naive` for the differential-testing oracle.
    """
    return PostStarEngine(pds, initial, validate=validate).saturate()


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
        ("post_star.resaturations", "warm-starts"),
        ("post_star_naive.rule_applications", "naive-rules"),
        ("post_star_naive.sweeps", "naive-sweeps"),
    ):
        if stats.get(key):
            parts.append(f"{label}={stats[key]}")
    return " ".join(parts) if parts else "no saturation work"


def pre_star(pds: PDS, targets: PSA | None = None, *, validate: bool = True) -> PSA:
    """Saturate ``targets`` into a PSA for ``pre*(L(targets))`` — all
    states from which some target configuration is reachable.

    The classical backward counterpart of :func:`post_star` (Bouajjani/
    Esparza/Maler): for every rule ``⟨p,γ⟩→⟨p',w'⟩`` and every path
    ``p' --w'--> q`` in the current automaton, add ``p --γ--> q``.  The
    paper's empty-stack rules contribute ``⟨p|ε⟩ ∈ pre*`` whenever their
    right-hand configuration is already accepted.

    This is the worklist formulation on the :class:`PostStarEngine`
    pattern: each transition is processed once, rules are resolved
    through premise-shape indices (no sweep over Δ), ε-closure is
    materialized as direct edges via the same two-sided join the post
    engine uses, and the two-premise push rule keeps Schwoon-style
    pending sets so the second premise fires on arrival.  Because the
    input automaton may carry ε-edges (empty-stack target configs) and
    rules add more, acceptance of ``⟨p|ε⟩`` / ``⟨p|σ⟩`` is tracked by an
    incremental "ε-accepting" set (states reaching an accepting state by
    ε-edges alone) instead of re-querying closures.  The result can
    contain derived edges absent from the sweep's automaton (and vice
    versa); the accepted *languages* coincide, which is what
    ``tests/pds/test_pre_star.py`` checks per entry state against the
    retained sweep oracle :func:`pre_star_naive`.

    METER counters: ``pre_star.rule_applications`` (rule × premise pairs
    processed) and ``pre_star.edges_added`` (distinct edges discovered).

    When ``targets`` is omitted, the target set is ``{⟨qI|ε⟩}``.
    """
    if targets is None:
        targets = psa_for_configs(pds, [pds.initial_state()])
    if validate:
        _check_preconditions(targets)

    source = targets.automaton
    controls = frozenset(targets.control_states) | pds.shared_states
    accepting = frozenset(source.accepting) | {FINAL_SINK}

    # Premise-shape indices over Δ (built once; no sweeps).
    pop_by_state: dict = {}       # to_shared -> [POP rules]
    overwrite_by_edge: dict = {}  # (to_shared, write0) -> [OVERWRITE rules]
    push_by_edge: dict = {}       # (to_shared, rho0) -> [PUSH rules]
    empty_overwrite_by_state: dict = {}  # to_shared -> [EMPTY_OVERWRITE]
    empty_push_by_edge: dict = {}        # (to_shared, write0) -> [EMPTY_PUSH]
    for action in pds.actions:
        kind = action.kind
        if kind is ActionKind.POP:
            pop_by_state.setdefault(action.to_shared, []).append(action)
        elif kind is ActionKind.OVERWRITE:
            overwrite_by_edge.setdefault(
                (action.to_shared, action.write[0]), []
            ).append(action)
        elif kind is ActionKind.PUSH:
            push_by_edge.setdefault(
                (action.to_shared, action.write[0]), []
            ).append(action)
        elif kind is ActionKind.EMPTY_OVERWRITE:
            empty_overwrite_by_state.setdefault(action.to_shared, []).append(action)
        else:  # EMPTY_PUSH
            empty_push_by_edge.setdefault(
                (action.to_shared, action.write[0]), []
            ).append(action)

    seen: set[tuple] = set()
    frontier: deque[tuple] = deque()
    rule_applications = 0

    def emit(src, label, dst) -> None:
        transition = (src, label, dst)
        if transition not in seen:
            seen.add(transition)
            frontier.append(transition)

    #: processed edges: src -> label -> set of dst
    rel: dict = {}
    #: processed ε-edges, reversed: state -> set of ε-predecessors
    eps_into: dict = {}
    #: Schwoon pending sets: (mid, ρ1) -> {(from_shared, γ)} waiting for
    #: the push rule's second premise to arrive.
    waiting: dict[tuple, set] = {}
    #: states from which ε-edges alone reach an accepting state.
    eps_accepting: set = set(accepting)
    #: (src, label) empty-push premise keys observed into each dst, so a
    #: state joining ``eps_accepting`` late re-fires them.
    acceptance_watch: dict = {}

    def mark_eps_accepting(state) -> None:
        nonlocal rule_applications
        stack = [state]
        while stack:
            current = stack.pop()
            if current in eps_accepting:
                continue
            eps_accepting.add(current)
            for action in empty_overwrite_by_state.get(current, ()):
                rule_applications += 1
                emit(action.from_shared, EPSILON, FINAL_SINK)
            for premise in acceptance_watch.get(current, ()):
                for action in empty_push_by_edge.get(premise, ()):
                    rule_applications += 1
                    emit(action.from_shared, EPSILON, FINAL_SINK)
            for predecessor in eps_into.get(current, ()):
                if predecessor not in eps_accepting:
                    stack.append(predecessor)

    for edge in source.transitions():
        emit(*edge)
    # POP rules always fire for the zero-length ε-path q = p'.
    for to_shared, actions in pop_by_state.items():
        for action in actions:
            rule_applications += 1
            emit(action.from_shared, action.read[0], to_shared)
    # EMPTY_OVERWRITE with an already-accepting target state.
    for to_shared, actions in empty_overwrite_by_state.items():
        if to_shared in eps_accepting:
            for action in actions:
                rule_applications += 1
                emit(action.from_shared, EPSILON, FINAL_SINK)

    no_rules: tuple = ()
    while frontier:
        src, label, dst = frontier.popleft()
        rel.setdefault(src, {}).setdefault(label, set()).add(dst)

        # ε-predecessors of src read `label` through src as well (the
        # materialization join of the post engine, forward direction).
        predecessors = eps_into.get(src)
        if predecessors:
            for predecessor in predecessors:
                emit(predecessor, label, dst)

        if label is EPSILON:
            eps_into.setdefault(dst, set()).add(src)
            for label2, dsts2 in rel.get(dst, {}).items():
                for dst2 in dsts2:
                    emit(src, label2, dst2)
            if dst in eps_accepting and src not in eps_accepting:
                mark_eps_accepting(src)
            # POP: ⟨p,γ⟩→⟨src,ε⟩ reaches dst through the ε-path.
            matching = pop_by_state.get(src, no_rules)
            rule_applications += len(matching)
            for action in matching:
                emit(action.from_shared, action.read[0], dst)
            continue

        # OVERWRITE: ⟨p,γ⟩→⟨src,label⟩ reads label from src to dst.
        matching = overwrite_by_edge.get((src, label), no_rules)
        rule_applications += len(matching)
        for action in matching:
            emit(action.from_shared, action.read[0], dst)

        # PUSH first premise: src --ρ0--> dst; wait on dst --ρ1--> q.
        for action in push_by_edge.get((src, label), no_rules):
            rho1 = action.write[1]
            pending = waiting.setdefault((dst, rho1), set())
            pair = (action.from_shared, action.read[0])
            if pair not in pending:
                pending.add(pair)
                for target in rel.get(dst, {}).get(rho1, ()):
                    rule_applications += 1
                    emit(pair[0], pair[1], target)

        # PUSH second premise: some rule is waiting on (src, label).
        pairs = waiting.get((src, label))
        if pairs:
            rule_applications += len(pairs)
            for from_shared, gamma in pairs:
                emit(from_shared, gamma, dst)

        # EMPTY_PUSH: ⟨p,ε⟩→⟨src,label⟩ needs ⟨src|label⟩ accepted.
        if (src, label) in empty_push_by_edge:
            if dst in eps_accepting:
                for action in empty_push_by_edge[(src, label)]:
                    rule_applications += 1
                    emit(action.from_shared, EPSILON, FINAL_SINK)
            else:
                acceptance_watch.setdefault(dst, set()).add((src, label))

    if rule_applications:
        METER.bump("pre_star.rule_applications", rule_applications)
    METER.bump("pre_star.edges_added", len(seen))
    nfa = NFA(states=controls | frozenset(source.states), accepting=accepting)
    nfa.add_transitions(seen)
    return PSA(nfa, frozenset(controls))


def pre_star_naive(
    pds: PDS, targets: PSA | None = None, *, validate: bool = True
) -> PSA:
    """Reference implementation of ``pre*``: re-apply all saturation
    rules until no transition is added, re-resolving ε-closure on every
    query.  Quadratic and slow, but a direct transcription of the rules
    — kept as the differential-testing oracle for :func:`pre_star` (see
    ``tests/pds/test_pre_star.py``).

    When ``targets`` is omitted, the target set is ``{⟨qI|ε⟩}``.
    """
    if targets is None:
        targets = psa_for_configs(pds, [pds.initial_state()])
    if validate:
        _check_preconditions(targets)

    nfa = targets.automaton.copy()
    controls = set(targets.control_states) | set(pds.shared_states)
    nfa.add_accepting(FINAL_SINK)
    for shared in controls:
        nfa.add_state(shared)

    changed = True
    while changed:
        changed = False
        METER.bump("pre_star_naive.sweeps")
        for action in pds.actions:
            kind = action.kind
            if kind.reads_empty_stack:
                if kind is ActionKind.EMPTY_OVERWRITE:
                    accepted = bool(
                        nfa.epsilon_closure([action.to_shared]) & nfa.accepting
                    )
                else:  # EMPTY_PUSH: ⟨p'|σ⟩ must be accepted
                    accepted = bool(
                        nfa.reads(action.to_shared, action.write[0]) & nfa.accepting
                    )
                if accepted:
                    changed |= nfa.add_transition(
                        action.from_shared, EPSILON, FINAL_SINK
                    )
                continue

            gamma = action.read[0]
            if kind is ActionKind.POP:
                # ⟨p,γ⟩→⟨p',ε⟩: p reads γ to wherever p' "is" (ε-closed).
                for target in nfa.epsilon_closure([action.to_shared]):
                    changed |= nfa.add_transition(action.from_shared, gamma, target)
            elif kind is ActionKind.OVERWRITE:
                for target in nfa.reads(action.to_shared, action.write[0]):
                    changed |= nfa.add_transition(action.from_shared, gamma, target)
            else:  # PUSH: write = (ρ0, ρ1)
                rho0, rho1 = action.write
                for mid in nfa.reads(action.to_shared, rho0):
                    for target in nfa.step([mid], rho1):
                        changed |= nfa.add_transition(
                            action.from_shared, gamma, target
                        )
    return PSA(nfa, frozenset(controls))


def reachable_set_psa(
    pds: PDS, start_stack: Sequence[Symbol] = (), start_shared: Shared | None = None
) -> PSA:
    """PSA for all states reachable from a single start configuration."""
    shared = pds.initial_shared if start_shared is None else start_shared
    return post_star(pds, psa_for_configs(pds, [PDSState(shared, tuple(start_stack))]))


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
