"""Lane registry: canonical lane names → engine classes.

Every analysis family ("lane") registers its engine class here with
:func:`register`; the verifier, CLI, bench runner, and service resolve
lanes exclusively through these lookups instead of ``isinstance``
checks or scattered string literals.  Adding the next lane is one new
module with a ``@register``-decorated engine class — no dispatch site
changes.

Import order: engine modules import this module to decorate themselves,
so the lookup functions must not import engine modules at module load
time.  :func:`_ensure_builtin_lanes` imports the in-tree lanes lazily
on first lookup, which both breaks the cycle and keeps third-party
lanes first-class (they register at their own import time).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import CubaError

if TYPE_CHECKING:
    from repro.core.property import Property
    from repro.cpds.cpds import CPDS
    from repro.reach.base import ReachabilityEngine

__all__ = [
    "register",
    "lane_names",
    "canonical_lane",
    "engine_class",
    "engine_for_kind",
    "applicable_lanes",
    "create",
    "LANE_ALIASES",
]

#: Back-compat / paper-notation spellings accepted anywhere a lane name
#: is, resolved to canonical names by :func:`canonical_lane`.  Pre-PR 9
#: BENCH/LOADTEST files already used the canonical "explicit"/
#: "symbolic", so the aliases are mostly the paper's sequence names.
LANE_ALIASES: dict[str, str] = {
    "rk": "explicit",
    "sk": "symbolic",
    "wk": "wuba",
    "write-unbounded": "wuba",
}

_LANES: dict[str, type["ReachabilityEngine"]] = {}
_builtins_loaded = False


def register(cls: type["ReachabilityEngine"]) -> type["ReachabilityEngine"]:
    """Class decorator adding an engine class to the registry after
    validating its lane contract attributes."""
    lane = getattr(cls, "lane", "")
    if not lane or not isinstance(lane, str):
        raise CubaError(f"{cls.__name__}: lane name must be a non-empty string")
    if not getattr(cls, "sequence_name", ""):
        raise CubaError(f"{cls.__name__}: lane {lane!r} must set sequence_name")
    prefix = getattr(cls, "meter_prefix", "")
    if not prefix.endswith("."):
        raise CubaError(
            f"{cls.__name__}: lane {lane!r} meter_prefix must end with '.'"
        )
    kind = getattr(cls, "snapshot_kind", 0)
    if not isinstance(kind, int) or kind <= 0:
        raise CubaError(
            f"{cls.__name__}: lane {lane!r} snapshot_kind must be a positive int"
        )
    existing = _LANES.get(lane)
    if existing is not None and existing is not cls:
        raise CubaError(f"lane {lane!r} already registered by {existing.__name__}")
    for other in _LANES.values():
        if other is not cls and other.snapshot_kind == kind:
            raise CubaError(
                f"lane {lane!r} snapshot_kind {kind} collides with "
                f"lane {other.lane!r}"
            )
    _LANES[lane] = cls
    return cls


def _ensure_builtin_lanes() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    # Side effect of importing: the @register decorators run.
    import repro.reach.explicit  # noqa: F401
    import repro.reach.symbolic  # noqa: F401
    import repro.reach.wuba  # noqa: F401


def lane_names() -> tuple[str, ...]:
    """Canonical names of all registered lanes, sorted."""
    _ensure_builtin_lanes()
    return tuple(sorted(_LANES))


def canonical_lane(name: str) -> str:
    """Resolve ``name`` (canonical or alias, case-insensitive) to the
    registry's canonical lane name; raises CubaError on unknown names."""
    _ensure_builtin_lanes()
    key = name.strip().lower()
    key = LANE_ALIASES.get(key, key)
    if key not in _LANES:
        known = ", ".join(sorted(_LANES))
        raise CubaError(f"unknown lane {name!r} (registered lanes: {known})")
    return key


def engine_class(name: str) -> type["ReachabilityEngine"]:
    """The engine class registered for ``name`` (aliases accepted)."""
    return _LANES[canonical_lane(name)]


def engine_for_kind(kind: int) -> type["ReachabilityEngine"]:
    """The engine class whose snapshots carry kind byte ``kind``."""
    _ensure_builtin_lanes()
    for cls in _LANES.values():
        if cls.snapshot_kind == kind:
            return cls
    raise CubaError(f"no registered lane for snapshot kind {kind}")


def applicable_lanes(
    cpds: "CPDS", prop: "Property | None" = None, *, excluding: str | None = None
) -> tuple[str, ...]:
    """Lanes whose precondition holds on ``(cpds, prop)``.  The lane
    named ``excluding`` is left out without running its precondition
    (callers pass a lane whose check has just failed)."""
    _ensure_builtin_lanes()
    return tuple(
        name
        for name in sorted(_LANES)
        if name != excluding and _LANES[name].applicable(cpds, prop)
    )


def create(
    name: str,
    cpds: "CPDS",
    *,
    max_states_per_context: int | None = None,
) -> "ReachabilityEngine":
    """Construct a fresh engine for lane ``name``."""
    return engine_class(name).create(cpds, max_states_per_context=max_states_per_context)
