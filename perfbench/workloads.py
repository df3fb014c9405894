"""Workload inputs, the query mix and the brute-force query oracle.

Everything here is deterministic in ``(size, seed)``: the systems do not
depend on the seed at all; the seed only reaches the runtime (latency
jitter) and the query draw.  The program under test receives the
generated systems, their source text and the drawn queries — nothing
else from this module.
"""

from __future__ import annotations

import random

from repro.core.builder import ch, inp, located, out, pr, sys_par, var
from repro.core.names import Principal
from repro.core.provenance import OutputEvent
from repro.patterns.nfa import NFAMatcher
from repro.workloads.scaling import relay_guard
from repro.workloads.topologies import freeze

SIZES = {
    "full": {
        # 217 principals, 24,588 deliveries, 0.98 MB of source text.  Each
        # guard level around a burst output adds more parse work than
        # run() work, so without them run() is a third of the repetition
        "fanout": dict(
            n_regions=12, sources_per_region=16, burst=128, guard_depth=0
        ),
        # the write side: every relay vets its spine, checkpoints cut
        # every 700 events
        "capture": dict(lanes=16, hops=128, checkpoint_every=700),
        # the read side: one store written per run, then opened,
        # replay-verified and queried by every repetition
        "store": dict(lanes=8, hops=256, checkpoint_every=700),
        "queries": 2000,
        # the untimed oracle repetition checks every n-th query of the mix
        "oracle_every": 20,
    },
    "smoke": {
        "fanout": dict(
            n_regions=3, sources_per_region=4, burst=2, guard_depth=0
        ),
        "capture": dict(lanes=2, hops=12, checkpoint_every=40),
        "store": dict(lanes=2, hops=16, checkpoint_every=40),
        "queries": 120,
        "oracle_every": 4,
    },
}

QUERY_KINDS = (
    "derived_from_sends",
    "taint",
    "cone_of_influence",
    "run_where",
    "iter_value_witnesses",
    "happens_before",
)

MAX_EVENTS = 100_000_000


def relay_lanes(lanes: int, hops: int):
    """``lanes`` independent copies of ``vetted_relay_chain(hops)``.

    Lane ``l`` is ``a_l → p_l_1 → … → p_l_hops → z_l`` on its own
    channels; every input vets the accumulated history against
    :func:`relay_guard`, so hop ``i`` vets a ``2i−1``-event spine.
    Returns ``(system, expected deliveries)``.
    """

    guard = relay_guard()
    x = var("x")
    components = []
    for lane in range(lanes):
        hop_channels = [ch(f"t{lane}_{i}") for i in range(hops + 1)]
        components.append(
            located(pr(f"a{lane}"), out(hop_channels[0], ch(f"v{lane}")))
        )
        for i in range(hops):
            components.append(
                located(
                    pr(f"p{lane}_{i + 1}"),
                    inp(
                        hop_channels[i],
                        (guard, x),
                        body=out(hop_channels[i + 1], x),
                    ),
                )
            )
        components.append(
            located(
                pr(f"z{lane}"),
                inp(hop_channels[-1], (guard, x), body=freeze(x)),
            )
        )
    return sys_par(*components), lanes * (hops + 1)


# -- the query mix ------------------------------------------------------


def draw_queries(seed: int, count: int, principals, delivered: int):
    """``count`` queries, kinds round-robin, arguments from ``seed``.

    Each query is a ``(kind, args)`` pair of plain names and ordinals,
    so the same draw can be replayed against the index and the oracle.
    """

    rng = random.Random(seed * 7919 + 17)
    names = sorted(principals)
    queries = []
    for i in range(count):
        kind = QUERY_KINDS[i % len(QUERY_KINDS)]
        if kind in ("derived_from_sends", "taint"):
            args = (rng.choice(names),)
        elif kind in ("cone_of_influence", "iter_value_witnesses"):
            args = (rng.randrange(delivered),)
        elif kind == "happens_before":
            args = (rng.randrange(delivered), rng.randrange(delivered))
        else:
            axis = rng.randrange(3)
            args = (
                rng.choice(names),
                rng.choice(names) if axis == 1 else None,
                rng.randrange(delivered) if axis == 2 else None,
            )
        queries.append((kind, args))
    return queries


def run_query(index, planner, kind, args, guard):
    """Answer one drawn query through the public query API.

    ``planner`` is the :mod:`repro.query.planner` module, called through
    its attribute so a traced run's shim sees the call.
    """

    if kind == "derived_from_sends":
        return index.derived_from_sends(Principal(args[0]))
    if kind == "taint":
        return index.taint(Principal(args[0]))
    if kind == "cone_of_influence":
        return index.cone_of_influence(args[0])
    if kind == "happens_before":
        return index.happens_before(args[0], args[1])
    if kind == "iter_value_witnesses":
        return tuple(index.iter_value_witnesses(args[0], guard))
    sender, receiver, channel_of = args
    channel = (
        None if channel_of is None else index.delivery(channel_of).channel
    )
    ordinals, _ = planner.run_where(
        index,
        sender=Principal(sender),
        receiver=None if receiver is None else Principal(receiver),
        channel=channel,
    )
    return ordinals


class TraceOracle:
    """Brute-force answers from a walk of the delivered trace.

    Recomputes every delivery's sender set by walking each value's
    spine and nested channel histories, and the happens-before edges
    from their definitions: program order (previous delivery to the
    same receiver), channel order (previous delivery on the channel,
    unless already the program-order source), and dataflow (the latest
    earlier delivery whose value history is a suffix of this one's).
    The dataflow rule is exact for traces whose value histories only
    grow along a chain — every relay hop extends the previous hop's
    spine — which is the shape of the stores this benchmark queries.
    Suffix witnesses are decided by the NFA reference matcher.
    """

    def __init__(self, trace) -> None:
        self.trace = list(trace)
        self.senders = [self._senders_of(entry[3]) for entry in self.trace]
        self.preds = self._edges()

    @staticmethod
    def _senders_of(values) -> frozenset:
        found = set()
        seen = set()
        work = [value.provenance for value in values]
        while work:
            node = work.pop()
            for event in node:
                if event in seen:
                    continue
                seen.add(event)
                if type(event) is OutputEvent:
                    found.add(event.principal)
                work.append(event.channel_provenance)
        return frozenset(found)

    def _edges(self):
        last_principal, last_channel, delivered_by_root = {}, {}, {}
        preds = []
        for ordinal, (_, principal, channel, values, _) in enumerate(self.trace):
            edges = []
            previous = last_principal.get(principal)
            if previous is not None:
                edges.append(("program", previous))
            previous = last_channel.get(channel)
            if previous is not None and (not edges or edges[0][1] != previous):
                edges.append(("channel", previous))
            last_principal[principal] = ordinal
            last_channel[channel] = ordinal
            derived = set()
            for value in values:
                root = value.provenance
                if not len(root):
                    continue
                latest = None
                for suffix in root.suffixes():
                    for earlier in delivered_by_root.get(suffix, ()):
                        if latest is None or earlier > latest:
                            latest = earlier
                if latest is not None:
                    derived.add(latest)
            for value in values:
                if len(value.provenance):
                    delivered_by_root.setdefault(value.provenance, []).append(
                        ordinal
                    )
            edges.extend(("derives", source) for source in sorted(derived))
            preds.append(edges)
        return preds

    def _backward(self, ordinal, kinds=None):
        seen, frontier = {ordinal}, [ordinal]
        while frontier:
            for kind, source in self.preds[frontier.pop()]:
                if (kinds is None or kind in kinds) and source not in seen:
                    seen.add(source)
                    frontier.append(source)
        seen.discard(ordinal)
        return seen

    def answer(self, kind, args, guard):
        if kind == "derived_from_sends":
            who = Principal(args[0])
            return tuple(
                o for o, senders in enumerate(self.senders) if who in senders
            )
        if kind == "taint":
            who = Principal(args[0])
            reached = {
                o
                for o, senders in enumerate(self.senders)
                if who in senders or self.trace[o][1] == who
            }
            for ordinal in range(len(self.trace)):
                if ordinal in reached:
                    continue
                if any(
                    kind_ in ("derives", "channel") and source in reached
                    for kind_, source in self.preds[ordinal]
                ):
                    reached.add(ordinal)
            return tuple(sorted(reached))
        if kind == "cone_of_influence":
            return tuple(sorted(self._backward(args[0])))
        if kind == "happens_before":
            earlier, later = args
            return earlier != later and earlier in self._backward(later)
        if kind == "iter_value_witnesses":
            matcher = NFAMatcher()
            pairs = []
            for value in self.trace[args[0]][3]:
                witness = None
                for suffix in value.provenance.suffixes():
                    if matcher.matches(suffix, guard):
                        witness = suffix
                pairs.append((value.provenance, witness))
            return tuple(pairs)
        sender, receiver, channel_of = args
        channel = None if channel_of is None else self.trace[channel_of][2]
        who = Principal(sender)
        return tuple(
            o
            for o, entry in enumerate(self.trace)
            if who in self.senders[o]
            and (receiver is None or entry[1] == Principal(receiver))
            and (channel is None or entry[2] == channel)
        )
