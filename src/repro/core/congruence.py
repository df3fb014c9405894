"""Structural congruence, normal forms and canonical forms.

The paper omits its structural congruence as "standard"; we adopt the usual
laws for flat located calculi (cf. Dpi):

* ``|`` and ``‖`` are commutative monoids with units ``0`` / ``a[0]``;
* ``a[P | Q] ≡ a[P] ‖ a[Q]`` — located parallel splits;
* ``a[(νn)P] ≡ (νn)a[P]``  and  ``(νn)S ‖ T ≡ (νn)(S ‖ T)`` for ``n`` not
  free in ``T`` — scope extrusion (with alpha-renaming);
* ``(νn)(νm)S ≡ (νm)(νn)S``;
* ``∗P ≡ P | ∗P`` — replication unfolds (handled lazily by the semantics);
* alpha-conversion of restricted names.

A :class:`NormalForm` is the workhorse representation: all restrictions
hoisted to the outside (renamed apart), all located parallels split, every
component either a *thread* (a located output, input sum, match or
replication) or a message.  Reduction enumerates redexes over normal forms.

A *canonical* form additionally garbage-collects unused restrictions,
renames the remaining ones to position-determined names and sorts the
components, giving a hashable key under which structurally congruent
systems (almost always) collide.  Canonicalization is *sound* — equal
canonical forms imply congruent systems — and complete in practice for the
systems the test-suite and state-space explorer produce; pathological
symmetric systems may canonicalize to distinct keys, which merely makes
state-space exploration conservative (states are split, never merged
wrongly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.names import Channel, NameSupply, Variable
from repro.core.process import (
    Inaction,
    InputSum,
    Match,
    Output,
    Parallel,
    Process,
    Replication,
    Restriction,
)
from repro.core.substitution import rename_free_channel
from repro.core.system import (
    Located,
    Message,
    SysParallel,
    SysRestriction,
    System,
    system_free_channels,
)
from repro.core.values import AnnotatedValue, Identifier

__all__ = [
    "NormalForm",
    "normalize",
    "as_normal_form",
    "normal_form_of",
    "flatten_component",
    "to_system",
    "canonical",
    "alpha_equivalent",
    "all_system_names",
]

Thread = Process
"""A process that is not a parallel, restriction or inaction."""


@dataclass(frozen=True, slots=True)
class NormalForm:
    """A system in restriction-prenex, fully flattened form.

    ``restricted`` lists the hoisted (pairwise distinct, renamed-apart)
    channel binders, outermost first; ``components`` are located threads
    and messages.  ``NormalForm`` is hashable and doubles as a state key.
    """

    restricted: tuple[Channel, ...]
    components: tuple[System, ...]

    def __str__(self) -> str:
        nu = "".join(f"(new {n})" for n in self.restricted)
        body = " || ".join(str(c) for c in self.components) or "0"
        return f"{nu}({body})" if nu else body


def all_system_names(system: System) -> set[str]:
    """Every name (free or bound, of any sort) occurring in ``system``.

    Normalization seeds its fresh-name supply with this set so hoisted
    binders can never collide with anything, bound or free.
    """

    names: set[str] = set()

    def visit_identifier(identifier: Identifier) -> None:
        if isinstance(identifier, Variable):
            names.add(identifier.name)
        else:
            names.add(identifier.value.name)
            for event in identifier.provenance:
                names.add(event.principal.name)

    def visit_process(p: Process) -> None:
        kind = type(p)  # exact types: ABC instance checks are slow
        if kind is Output:
            visit_identifier(p.channel)
            for w in p.payload:
                visit_identifier(w)
        elif kind is InputSum:
            visit_identifier(p.channel)
            for b in p.branches:
                for x in b.binders:
                    names.add(x.name)
                visit_process(b.continuation)
        elif kind is Match:
            visit_identifier(p.left)
            visit_identifier(p.right)
            visit_process(p.then_branch)
            visit_process(p.else_branch)
        elif kind is Restriction:
            names.add(p.channel.name)
            visit_process(p.body)
        elif kind is Parallel:
            for part in p.parts:
                visit_process(part)
        elif kind is Replication:
            visit_process(p.body)
        elif kind is Inaction:
            return
        else:
            raise TypeError(f"not a process: {p!r}")

    def visit(s: System) -> None:
        if isinstance(s, Located):
            names.add(s.principal.name)
            visit_process(s.process)
        elif isinstance(s, Message):
            names.add(s.channel.name)
            for w in s.payload:
                visit_identifier(w)
        elif isinstance(s, SysRestriction):
            names.add(s.channel.name)
            visit(s.body)
        elif isinstance(s, SysParallel):
            for part in s.parts:
                visit(part)
        else:
            raise TypeError(f"not a system: {s!r}")

    visit(system)
    return names


def normalize(system: System, supply: NameSupply | None = None) -> NormalForm:
    """Rewrite ``system`` to its restriction-prenex normal form.

    A hoisted binder keeps its name unless it collides with a free channel
    name or an earlier binder; renames draw fresh names that avoid *every*
    name in the system (so no capture is possible).  Keeping names when
    possible makes normalization **stable**: re-normalizing a normal form
    is the identity on binder names — which matters because the monitored
    semantics pins hoisted names into the global log, and the correctness
    checker re-normalizes states when collecting their values.

    The transformation only applies structural-congruence laws, so
    ``to_system(normalize(S)) ≡ S``.
    """

    if supply is None:
        supply = NameSupply(all_system_names(system))
    taken = {channel.name for channel in system_free_channels(system)}
    restricted: list[Channel] = []
    components: list[System] = []
    _flatten_system(system, supply, restricted, components, taken)
    return NormalForm(tuple(restricted), tuple(components))


def as_normal_form(system: System) -> NormalForm | None:
    """View an *already normalized* system as a :class:`NormalForm`.

    Returns ``None`` unless ``system`` is restriction-prenex with every
    component a thread or message and every hoisted binder exactly as
    :func:`normalize` would keep it (pairwise distinct, disjoint from the
    system's free channel names) — the conditions under which
    ``normalize`` is the identity, so the view equals ``normalize``'s
    output without rebuilding or renaming anything.  States along an
    engine run are normal by construction (the incremental reducer keeps
    a persistent normal form; raw fired targets re-normalize stably), so
    monitors checking every state use this to skip re-normalization.
    """

    restricted: list[Channel] = []
    node = system
    while isinstance(node, SysRestriction):
        restricted.append(node.channel)
        node = node.body
    parts = node.parts if isinstance(node, SysParallel) else (node,)
    for part in parts:
        if isinstance(part, Message):
            continue
        if isinstance(part, Located) and isinstance(
            part.process, (Output, InputSum, Match, Replication)
        ):
            continue
        return None
    taken = {channel.name for channel in system_free_channels(system)}
    for binder in restricted:
        if binder.name in taken:
            return None
        taken.add(binder.name)
    return NormalForm(tuple(restricted), tuple(parts))


def normal_form_of(system: System) -> NormalForm:
    """The system's normal form, free of charge when it already is one.

    The one fallback chain every checker shares: the cheap
    :func:`as_normal_form` view when ``system`` is already normalized
    (every state along an engine run), a full :func:`normalize`
    otherwise.
    """

    nf = as_normal_form(system)
    if nf is None:
        nf = normalize(system)
    return nf


def flatten_component(
    component: System,
    supply: NameSupply,
    taken: set[str],
) -> tuple[list[System], list[Channel]]:
    """The normal-form *delta* of a single raw component.

    Splits and hoists ``component`` exactly as :func:`normalize` would
    while flattening it inside a larger system: parallels are split,
    restrictions hoisted (kept when their name is not ``taken``, renamed
    from ``supply`` otherwise), inactions dropped.  Returns the flat
    components and the hoisted binders, in traversal order.

    This is the incremental engine's workhorse.  Because normalization is
    *stable* — already-flat components pass through untouched and hoisted
    binders keep their names — splicing the returned components into a
    previous normal form (and appending the returned binders to its
    restriction list) reproduces, name for name, what ``normalize`` of
    the whole rebuilt system would produce.  Only the replaced component
    is ever traversed: the delta costs O(|component|), not O(|system|).

    ``taken`` must contain every free channel name of the surrounding
    system plus all existing binder names (the same set ``normalize``
    threads through its traversal); kept and fresh binder names are added
    to it.  ``supply``/``taken`` only need ``in``/``add``-style
    membership, so callers may pass live views over indexed name sets.
    """

    restricted: list[Channel] = []
    components: list[System] = []
    _flatten_system(component, supply, restricted, components, taken)
    return components, restricted


def _hoist_binder(
    binder: Channel,
    supply: NameSupply,
    taken: set[str] | None,
) -> tuple[Channel, bool]:
    """Decide the hoisted name for a binder.

    ``taken = None`` forces a rename (used for replication copies, whose
    restrictions must be fresh per copy).  Returns the (possibly fresh)
    binder and whether a rename happened.
    """

    if taken is not None and binder.name not in taken:
        taken.add(binder.name)
        supply.reserve((binder.name,))
        return binder, False
    fresh = supply.fresh_channel(binder)
    if taken is not None:
        taken.add(fresh.name)
    return fresh, True


def _flatten_system(
    system: System,
    supply: NameSupply,
    restricted: list[Channel],
    components: list[System],
    taken: set[str] | None,
) -> None:
    if isinstance(system, SysParallel):
        for part in system.parts:
            _flatten_system(part, supply, restricted, components, taken)
    elif isinstance(system, SysRestriction):
        binder, renamed = _hoist_binder(system.channel, supply, taken)
        body = system.body
        if renamed:
            body = _rename_system(body, system.channel, binder)
        restricted.append(binder)
        _flatten_system(body, supply, restricted, components, taken)
    elif isinstance(system, Message):
        components.append(system)
    elif isinstance(system, Located):
        _flatten_process(
            system.principal, system.process, supply, restricted, components,
            taken,
        )
    else:
        raise TypeError(f"not a system: {system!r}")


def _flatten_process(
    principal,
    process: Process,
    supply: NameSupply,
    restricted: list[Channel],
    components: list[System],
    taken: set[str] | None,
) -> None:
    kind = type(process)
    if kind is Parallel:
        for part in process.parts:
            _flatten_process(
                principal, part, supply, restricted, components, taken
            )
    elif kind is Restriction:
        binder, renamed = _hoist_binder(process.channel, supply, taken)
        body = process.body
        if renamed:
            body = rename_free_channel(body, process.channel, binder)
        restricted.append(binder)
        _flatten_process(
            principal, body, supply, restricted, components, taken
        )
    elif kind is Inaction:
        return
    elif kind in (Output, InputSum, Match, Replication):
        components.append(Located(principal, process))
    else:
        raise TypeError(f"not a process: {process!r}")


def _rename_system(system: System, old: Channel, new: Channel) -> System:
    """Rename free occurrences of channel ``old`` in a system."""

    if isinstance(system, Located):
        return Located(
            system.principal, rename_free_channel(system.process, old, new)
        )
    if isinstance(system, Message):
        channel = new if system.channel == old else system.channel
        payload = tuple(
            AnnotatedValue(new, w.provenance) if w.value == old else w
            for w in system.payload
        )
        return Message(channel, payload)
    if isinstance(system, SysRestriction):
        if system.channel == old:
            return system
        return SysRestriction(system.channel, _rename_system(system.body, old, new))
    if isinstance(system, SysParallel):
        return SysParallel(
            tuple(_rename_system(p, old, new) for p in system.parts)
        )
    raise TypeError(f"not a system: {system!r}")


def to_system(nf: NormalForm) -> System:
    """Rebuild a :class:`System` from a normal form."""

    body: System = (
        nf.components[0]
        if len(nf.components) == 1
        else SysParallel(nf.components)
    )
    for binder in reversed(nf.restricted):
        body = SysRestriction(binder, body)
    return body


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def canonical(system: System) -> NormalForm:
    """A canonical normal form usable as a state key.

    Pipeline: normalize → garbage-collect unused restrictions → mask
    restricted names and sort components structurally → rename restricted
    names to ``_nu0, _nu1, …`` in first-use order → final sort.
    """

    nf = normalize(system)
    used = _used_channels(nf.components)
    live = [n for n in nf.restricted if n in used]

    # Canonical names must not collide with any name that *survives*
    # renaming; the live binders themselves are about to be replaced, so
    # they are excluded — otherwise canonicalizing a canonical form would
    # escalate the prefix and break idempotence.
    prefix = "_nu"
    taken = all_system_names(SysParallel(nf.components)) - {
        binder.name for binder in live
    }
    while any(name.startswith(prefix) for name in taken):
        prefix += "x"

    masked = sorted(
        range(len(nf.components)),
        key=lambda i: _component_key(nf.components[i], set(live)),
    )
    renaming: dict[Channel, Channel] = {}
    for index in masked:
        for name in _channel_occurrences(nf.components[index]):
            if name in set(live) and name not in renaming:
                renaming[name] = Channel(f"{prefix}{len(renaming)}")
    components: list[System] = []
    for index in masked:
        component = nf.components[index]
        for old, new in renaming.items():
            component = _rename_system(component, old, new)
        components.append(component)
    components.sort(key=str)
    restricted = tuple(sorted(renaming.values(), key=lambda c: c.name))
    return NormalForm(restricted, tuple(components))


def _used_channels(components: tuple[System, ...]) -> frozenset[Channel]:
    result: frozenset[Channel] = frozenset()
    for component in components:
        result |= system_free_channels(component)
    return result


def _component_key(component: System, masked: set[Channel]) -> str:
    """A structural sort key with restricted names hidden."""

    tokens = []
    for name in _tokenize(component):
        if isinstance(name, Channel):
            tokens.append("#" if name in masked else name.name)
        else:
            tokens.append(name)
    return "\x00".join(tokens)


def _tokenize(system: System) -> Iterator:
    """Deterministic token stream of a component; channels kept as objects."""

    if isinstance(system, Located):
        yield "loc"
        yield system.principal.name
        yield from _tokenize_process(system.process)
    elif isinstance(system, Message):
        yield "msg"
        yield system.channel
        for w in system.payload:
            yield from _tokenize_identifier(w)
    else:
        raise TypeError(f"unexpected component: {system!r}")


def _tokenize_identifier(identifier: Identifier) -> Iterator:
    if isinstance(identifier, Variable):
        yield f"var:{identifier.name}"
    else:
        if isinstance(identifier.value, Channel):
            yield identifier.value
        else:
            yield f"prin:{identifier.value.name}"
        yield f"prov:{identifier.provenance}"


def _tokenize_process(process: Process) -> Iterator:
    if isinstance(process, Output):
        yield "out"
        yield from _tokenize_identifier(process.channel)
        for w in process.payload:
            yield from _tokenize_identifier(w)
    elif isinstance(process, InputSum):
        yield "in"
        yield from _tokenize_identifier(process.channel)
        for branch in process.branches:
            yield "branch"
            for p in branch.patterns:
                yield f"pat:{p}"
            for x in branch.binders:
                yield f"bind:{x.name}"
            yield from _tokenize_process(branch.continuation)
    elif isinstance(process, Match):
        yield "if"
        yield from _tokenize_identifier(process.left)
        yield from _tokenize_identifier(process.right)
        yield from _tokenize_process(process.then_branch)
        yield from _tokenize_process(process.else_branch)
    elif isinstance(process, Restriction):
        yield "new"
        yield process.channel
        yield from _tokenize_process(process.body)
    elif isinstance(process, Parallel):
        yield "par"
        for part in process.parts:
            yield from _tokenize_process(part)
    elif isinstance(process, Replication):
        yield "rep"
        yield from _tokenize_process(process.body)
    elif isinstance(process, Inaction):
        yield "nil"
    else:
        raise TypeError(f"not a process: {process!r}")


def _channel_occurrences(system: System) -> Iterator[Channel]:
    """Channels in deterministic traversal order (with repetitions)."""

    for token in _tokenize(system):
        if isinstance(token, Channel):
            yield token


def alpha_equivalent(left: System, right: System) -> bool:
    """Best-effort structural congruence check via canonical forms.

    Sound: a ``True`` answer guarantees the systems are structurally
    congruent.  See the module docstring for the (benign) incompleteness.
    """

    return canonical(left) == canonical(right)
