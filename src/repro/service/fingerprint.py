"""Content-addressed fingerprints of analysis problems.

The persistent store (:mod:`repro.service.store`) keys everything by a
stable identity of the *problem*: the CPDS, the property, and the
engine configuration that affects results.  The fingerprint must
satisfy two properties the obvious ``sha256(repr(cpds))`` does not:

* **Semantically identical inputs collide.**  Rule insertion order,
  rule labels (excluded from :class:`~repro.pds.action.Action`
  equality), and the builder that produced the object are all
  irrelevant to the analysis; the fingerprint canonicalizes them away
  by interning every shared state and stack symbol to a dense id in a
  *canonical local order* and hashing the sorted id-encoded rule set —
  the same dense-id idea as
  :class:`~repro.automata.intern.SymbolTable`, but anchored to the
  process-independent :func:`~repro.automata.intern.value_key`
  ``(type qualname, repr)`` instead of the process-global intern order
  (which depends on what else the process interned first, and a
  persistent store must survive restarts).
* **Config changes don't.**  The engine lane (the *canonical* registry
  name, see :func:`repro.reach.registry.canonical_lane` — aliases must
  collide) and divergence-guard limit change what a stored
  verdict/snapshot means, so they are part of the key.  The per-state
  differential oracle (``batched=False`` on the explicit and symbolic
  engine constructors) is not a service option and provably does not
  affect results, so it has no token.

Model values (shared states, stack symbols) are identified by
``(type qualname, repr)``; every in-tree model uses ints and strings,
whose reprs are deterministic.  A custom value type with an
address-dependent repr would need a stable ``__repr__`` to be
fingerprintable — the same contract the seed's symbol ordering already
imposed.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping

from repro.automata.intern import value_key
from repro.core.property import Property
from repro.cpds.cpds import CPDS
from repro.errors import FingerprintError

#: Bumped whenever the canonical serialization below changes shape (or
#: the meaning of a config token — version 2: the ``engine`` token is
#: the registry's canonical lane name); part of the hashed payload, so
#: old store entries simply miss.
FINGERPRINT_VERSION = 2


def _canonical_ids(values) -> tuple[list, dict]:
    """Order ``values`` by :func:`value_key` and hand out dense ids:
    the fingerprint's own local symbol table."""
    ordered = sorted(values, key=value_key)
    return ordered, {value: index for index, value in enumerate(ordered)}


def _cpds_structure(cpds: CPDS) -> tuple:
    """The CPDS as a nested tuple of ints and value tokens, invariant
    under rule order, rule labels, and construction history."""
    shared_order, shared_ids = _canonical_ids(cpds.shared_states)
    threads = []
    for index, pds in enumerate(cpds.threads):
        symbol_order, symbol_ids = _canonical_ids(pds.alphabet)
        rules = sorted(
            (
                shared_ids[action.from_shared],
                tuple(symbol_ids[symbol] for symbol in action.read),
                shared_ids[action.to_shared],
                tuple(symbol_ids[symbol] for symbol in action.write),
            )
            for action in pds.actions
        )
        threads.append(
            (
                tuple(map(value_key, symbol_order)),
                tuple(symbol_ids[symbol] for symbol in cpds.initial_stacks[index]),
                tuple(rules),
            )
        )
    return (
        tuple(map(value_key, shared_order)),
        shared_ids[cpds.initial_shared],
        tuple(threads),
    )


def _config_structure(config: Mapping | None) -> tuple:
    if not config:
        return ()
    items = []
    for key in sorted(config):
        value = config[key]
        if not isinstance(value, (str, int, float, bool, type(None))):
            raise FingerprintError(
                f"config value for {key!r} is not a scalar: {value!r}"
            )
        items.append((str(key), type(value).__qualname__, repr(value)))
    return tuple(items)


def _digest(structure: tuple) -> str:
    return hashlib.sha256(repr(structure).encode()).hexdigest()


def cpds_digest(cpds: CPDS) -> str:
    """Content digest of the CPDS alone (no property, no config): two
    programs with equal digests are the same CPDS, whatever property or
    budget a request pairs them with."""
    return _digest(("cuba-cpds", FINGERPRINT_VERSION, _cpds_structure(cpds)))


def fingerprint(
    cpds: CPDS, prop: Property | None = None, config: Mapping | None = None
) -> str:
    """The content-addressed identity of ``(cpds, prop, config)`` as a
    sha256 hex digest.

    Raises :class:`~repro.errors.FingerprintError` for properties that
    cannot declare their semantics (see
    :meth:`~repro.core.property.Property.fingerprint_token`) and for
    non-scalar config values.
    """
    return _digest(
        (
            "cuba-fp",
            FINGERPRINT_VERSION,
            _cpds_structure(cpds),
            prop.fingerprint_token() if prop is not None else None,
            _config_structure(config),
        )
    )
