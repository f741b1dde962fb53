"""Safety properties over visible states.

The paper formulates reachability properties (assertions) over visible
states (Sec. 1: "Most reachability properties, including assertions
inserted into a program, are formulated only over visible states").  A
:class:`Property` is a predicate telling which visible states *violate*
safety; the CUBA algorithms check it against each new ``T(Rk)`` level.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Collection, Hashable, Iterable, Mapping

from repro.automata.intern import value_key
from repro.cpds.state import VisibleState
from repro.errors import FingerprintError

Shared = Hashable
Symbol = Hashable


class Property(abc.ABC):
    """A safety property ``C``: characterizes the *bad* visible states."""

    @abc.abstractmethod
    def violated_by(self, visible: VisibleState) -> bool:
        """True iff reaching ``visible`` violates the property."""

    def find_violation(self, visibles: Iterable[VisibleState]) -> VisibleState | None:
        """The least violating visible state in ``visibles`` by
        :func:`visible_token`, or ``None``.  A fixed rule, not the first
        one met: frozenset order depends on ``hash(None)`` (ε, and
        Boolean-program ``retbuf`` fields), which is address-based, so
        "first" would change the reported witness from run to run."""
        violators = [visible for visible in visibles if self.violated_by(visible)]
        if not violators:
            return None
        return min(violators, key=visible_token)

    def describe(self) -> str:
        return type(self).__name__

    def fingerprint_token(self) -> tuple:
        """A canonical, process-independent token identifying this
        property's *semantics*, consumed by the content-addressed
        fingerprint of :mod:`repro.service.fingerprint`.  Two property
        objects with identical semantics must return equal tokens.

        The base implementation refuses: a property that does not
        declare its semantics (e.g. an opaque callable) cannot be
        content-addressed and must not silently collide in the
        persistent analysis store.
        """
        raise FingerprintError(
            f"property {type(self).__name__} is not fingerprintable; "
            "implement fingerprint_token() to use it with the analysis "
            "service"
        )


def visible_token(visible: VisibleState) -> tuple:
    """Process-independent sort key of a visible state, from the
    :func:`~repro.automata.intern.value_key` of its shared state and
    tops."""
    return (value_key(visible.shared), tuple(map(value_key, visible.tops)))


class SharedStateReachability(Property):
    """Violated when the shared state enters a bad set.

    This is the shape assertion failures compile to: the Boolean-program
    front-end routes failed ``assert`` statements into a dedicated error
    shared state.
    """

    def __init__(self, bad_shared: Collection[Shared]) -> None:
        self.bad_shared = frozenset(bad_shared)

    def violated_by(self, visible: VisibleState) -> bool:
        return visible.shared in self.bad_shared

    def describe(self) -> str:
        bad = ", ".join(sorted(map(str, self.bad_shared)))
        return f"shared state never in {{{bad}}}"

    def fingerprint_token(self) -> tuple:
        return ("shared", tuple(sorted(map(value_key, self.bad_shared))))


class VisiblePredicate(Property):
    """Violated when a user predicate holds on the visible state."""

    def __init__(
        self, is_bad: Callable[[VisibleState], bool], description: str = ""
    ) -> None:
        self.is_bad = is_bad
        self.description = description

    def violated_by(self, visible: VisibleState) -> bool:
        return bool(self.is_bad(visible))

    def describe(self) -> str:
        return self.description or "visible-state predicate"


class MutualExclusion(Property):
    """Violated when two or more threads sit in critical sections.

    ``critical`` maps a thread index to the set of its top-of-stack
    symbols that mean "inside the critical section" — the paper's
    "mutually exclusive local-state reachability" (Ex. 2).
    """

    def __init__(self, critical: Mapping[int, Collection[Symbol]]) -> None:
        self.critical = {index: frozenset(tops) for index, tops in critical.items()}

    def violated_by(self, visible: VisibleState) -> bool:
        inside = 0
        for index, tops in self.critical.items():
            if index < visible.n_threads and visible.tops[index] in tops:
                inside += 1
                if inside >= 2:
                    return True
        return False

    def describe(self) -> str:
        threads = ", ".join(str(index) for index in sorted(self.critical))
        return f"mutual exclusion among threads {{{threads}}}"

    def fingerprint_token(self) -> tuple:
        return (
            "mutex",
            tuple(
                (index, tuple(sorted(map(value_key, tops))))
                for index, tops in sorted(self.critical.items())
            ),
        )


class AlwaysSafe(Property):
    """The trivially true property — used to drive pure convergence runs
    (e.g. measuring ``kmax`` without an assertion)."""

    def violated_by(self, visible: VisibleState) -> bool:
        return False

    def describe(self) -> str:
        return "true"

    def fingerprint_token(self) -> tuple:
        return ("true",)


def _atom(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def property_from_spec(spec: str | None) -> Property:
    """Parse the textual property grammar shared by the CLI and the
    analysis-service wire format: ``None`` means trivially safe,
    ``shared:STATE[,STATE...]`` a shared-state reachability property
    (integer-looking tokens become ints, matching the CPDS format's
    atom rule).  There is deliberately one parser: the two entry points
    must agree for service fingerprints to be entry-point independent.
    Raises :class:`ValueError` on anything else — callers wrap it in
    their surface's error type.
    """
    if spec is None:
        return AlwaysSafe()
    kind, _sep, payload = str(spec).partition(":")
    if kind == "shared" and payload:
        return SharedStateReachability({_atom(s) for s in payload.split(",")})
    raise ValueError(
        f"cannot parse property {spec!r}; use shared:STATE[,STATE...]"
    )
