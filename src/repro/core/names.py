"""Names of the provenance calculus: channels, principals and variables.

The paper (Table 1) assumes three pairwise-disjoint sets:

* ``X``  — variables, ranged over by ``x, y, z``;
* ``C``  — channel names, ranged over by ``l, m, n``;
* ``A``  — principal names, ranged over by ``a, b, c``.

Plain values ``V = C ∪ A`` are either channels or principals; identifiers
are annotated values or variables (see :mod:`repro.core.values`).

We model each set with its own frozen dataclass so disjointness is enforced
by the type system: a :class:`Channel` never compares equal to a
:class:`Principal` with the same spelling.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Container, Iterable, Union

__all__ = [
    "Channel",
    "Principal",
    "Variable",
    "PlainValue",
    "NameSupply",
    "freshen",
    "NAME_RE",
]

# the one name rule: the lexer scans names with it, constructors check it
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def _check_name(name: str) -> None:
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(f"invalid name {name!r}: must match {NAME_RE.pattern}")


@dataclass(frozen=True, slots=True)
class Channel:
    """A channel name ``n ∈ C``.

    Channels are both communication addresses and first-class data: the
    calculus can send channels over channels, and channel *occurrences*
    inside processes carry their own provenance annotation (the message
    address itself is a bare :class:`Channel`).
    """

    name: str

    def __post_init__(self) -> None:
        _check_name(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Principal:
    """A principal name ``a ∈ A`` — the unit of trust and identity.

    Principals label located processes ``a[P]`` and appear inside
    provenance events ``a!κ`` / ``a?κ``.  They are data too: a process may
    send a principal name over a channel.
    """

    name: str

    def __post_init__(self) -> None:
        _check_name(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Variable:
    """A variable ``x ∈ X``, bound by pattern-restricted input."""

    name: str

    def __post_init__(self) -> None:
        _check_name(self.name)

    def __str__(self) -> str:
        return self.name


PlainValue = Union[Channel, Principal]
"""A plain value ``v ∈ V = C ∪ A`` (Table 1)."""


def freshen(base: str, avoid: Container[str]) -> str:
    """Return a name derived from ``base`` that does not occur in ``avoid``.

    The derived name keeps ``base`` as a readable prefix and appends the
    smallest primed counter that avoids the collision, so alpha-renaming
    stays legible in pretty-printed output (``n``, ``n'1``, ``n'2`` …).

    ``avoid`` only needs membership (``in``); live views over indexed
    name sets work as well as plain sets.  This is *the* fresh-name
    probing scheme: every supply (:class:`NameSupply`, the incremental
    engine's session views) must route through it so from-scratch and
    incremental reduction draw byte-identical names.
    """

    if base not in avoid:
        return base
    stem = base.split("'", 1)[0]
    for i in itertools.count(1):
        candidate = f"{stem}'{i}"
        if candidate not in avoid:
            return candidate
    raise AssertionError("unreachable")


class NameSupply:
    """A deterministic supply of fresh names.

    The reduction semantics needs fresh channel names when extruding
    restrictions and materializing replication copies.  A supply is seeded
    with the set of names already in use and hands out derivatives that are
    guaranteed never to collide, including with each other.

    The supply is intentionally *not* global: each engine run owns one, so
    reductions are reproducible and parallel runs cannot interfere.
    """

    def __init__(self, avoid: Iterable[str] = ()) -> None:
        self._taken: set[str] = set(avoid)

    def reserve(self, names: Iterable[str]) -> None:
        """Mark ``names`` as used so they are never handed out."""

        self._taken.update(names)

    def fresh(self, base: str) -> str:
        """Return and reserve a fresh name derived from ``base``."""

        name = freshen(base, self._taken)
        self._taken.add(name)
        return name

    def fresh_channel(self, base: Union[str, Channel]) -> Channel:
        """Return a fresh :class:`Channel` derived from ``base``."""

        stem = base.name if isinstance(base, Channel) else base
        return Channel(self.fresh(stem))

    def fresh_variable(self, base: Union[str, Variable]) -> Variable:
        """Return a fresh :class:`Variable` derived from ``base``."""

        stem = base.name if isinstance(base, Variable) else base
        return Variable(self.fresh(stem))

    def __contains__(self, name: str) -> bool:
        return name in self._taken
