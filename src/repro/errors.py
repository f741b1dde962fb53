"""Exception hierarchy for the CUBA reproduction.

Every error raised by this library derives from :class:`CubaError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the individual failure modes below.
"""

from __future__ import annotations


class CubaError(Exception):
    """Base class of all errors raised by this library."""


class ModelError(CubaError):
    """A PDS/CPDS definition is malformed (bad action shape, unknown
    shared state, alphabet violation, inconsistent thread count, ...)."""


class ContextExplosionError(CubaError):
    """The explicit-state engine exceeded its divergence guard.

    Raised when a single context produces more states than the configured
    limit.  This is the symptom of a program that violates finite context
    reachability (FCR, paper Sec. 5): within one context a thread's stack
    can grow without bound, so the set of states reachable in that context
    is infinite and explicit enumeration cannot terminate.
    """

    def __init__(self, message: str, *, states_seen: int = 0) -> None:
        super().__init__(message)
        self.states_seen = states_seen


class FingerprintError(CubaError):
    """An analysis input cannot be content-addressed — e.g. a property
    carrying an opaque predicate whose semantics the fingerprint cannot
    capture (see :meth:`repro.core.property.Property.fingerprint_token`)."""


class SnapshotError(CubaError):
    """An engine snapshot could not be decoded or does not belong to the
    CPDS it is being restored against.  The persistent store treats this
    as a cache miss (bad blob ⇒ recompute), never as a crash."""


class ServiceError(CubaError):
    """The analysis service rejected a request (unknown engine lane,
    unparseable payload, unsupported property spec, ...)."""


class FormatError(CubaError):
    """A textual CPDS description could not be parsed."""

    def __init__(self, message: str, *, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BoolProgError(CubaError):
    """Base class for Boolean-program front-end errors (App. B language)."""


class LexError(BoolProgError):
    """The tokenizer met an unexpected character."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ParseError(BoolProgError):
    """The parser met an unexpected token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class SemanticError(BoolProgError):
    """A Boolean program is syntactically valid but ill-formed
    (undefined variable, wrong arity, duplicate label, ...)."""


class TranslationError(BoolProgError):
    """A Boolean program feature cannot be translated to a CPDS."""
