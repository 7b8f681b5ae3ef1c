"""Assembling operation combinations from collected proposals and picking one.

An operation combination (OC) is one production proposal plus every feasible
way of getting the workpiece there: directly, through a buffer (two transport
legs plus a buffer slot), or not at all when the workpiece already sits on the
proposing machine. Routes are wired from the ``realizes``/``via`` links the
buffer and crane proposals echo from the order's CFPs, so the order decides
which routes exist by what it asks for; this module only checks them.
Selection is one rule over every route ``build_ocs`` admits: the minimum of
(fulfillment, production price + route price, production resource id,
production proposal id, route proposal ids). The brute-force enumerator in
the test suite's oracle module ranks in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from .protocol import Proposal
from .timebase import Seconds


_proposal_id = attrgetter("proposal_id")


@dataclass(frozen=True)
class StageContext:
    """What the order agent knows going into selection."""

    f_prev: Seconds
    prev_resource: Optional[str]


class RouteCandidate(NamedTuple):
    """One feasible way to realize a production proposal.

    ``arrival`` (when the last leg unloads at the production resource; None
    without a leg) and ``price`` (the legs' and the buffer stay's prices)
    are worked out once, by :func:`build_ocs`, which reads them off the slots.
    """

    kind: str  # "entry" | "stay-on-machine" | "direct" | "buffered"
    buffer: Optional[Proposal]
    legs: tuple[Proposal, ...]
    arrival: Optional[Seconds]
    price: int

    @property
    def proposal_ids(self) -> tuple[str, ...]:
        ids = [leg.proposal_id for leg in self.legs]
        if self.buffer is not None:
            ids.append(self.buffer.proposal_id)
        return tuple(ids)


@dataclass
class OperationCombination:
    production: Proposal
    routes: list[RouteCandidate] = field(default_factory=list)


def build_ocs(
    production: Sequence[Proposal],
    buffers: Sequence[Proposal],
    transports: Sequence[Proposal],
    ctx: StageContext,
) -> list[OperationCombination]:
    """Wire collected proposals into operation combinations with route candidates.

    A route is kept when its timing holds, read straight off the slots: the
    workpiece arrives by the production proposal's latest start; a direct
    leg loads no earlier than the previous operation's finish and depends on
    no other movement; a buffered route's inbound leg depends on none,
    arrives once the stay has begun, and the outbound leg loads after that
    arrival, within the stay's slack, and depends on nothing but that
    inbound leg.
    """
    buffers_for: dict[Optional[str], list[Proposal]] = {}
    for b in buffers:
        buffers_for.setdefault(b.realizes, []).append(b)

    # legs by (via, realizes): (None, buffer) inbound, (buffer, production)
    # outbound, (None, production) direct; proposal ids are unique across
    # resources, so the three kinds never share a key
    legs: dict[tuple[Optional[str], Optional[str]], list[Proposal]] = {}
    for t in transports:
        legs.setdefault((t.via, t.realizes), []).append(t)

    f_prev, prev_resource = ctx.f_prev, ctx.prev_resource
    ocs: list[OperationCombination] = []
    for p in sorted(production, key=_proposal_id):
        oc = OperationCombination(production=p)
        routes = oc.routes
        pid = p.proposal_id
        if prev_resource is None:
            # system entry: the first operation needs no transport at all
            routes.append(RouteCandidate("entry", None, (), None, 0))
        elif p.resource_id == prev_resource:
            routes.append(RouteCandidate("stay-on-machine", None, (), None, 0))
        else:
            # a route for every link the order's CFPs asked for: buffered,
            # direct or both; arriving by the latest start is arriving by
            # max(slot start, arrival), since the slack is never negative
            latest = p.slack_after.bound_from(p.slot.start)
            for b in buffers_for.get(pid, ()):
                bid = b.proposal_id
                outbound = legs.get((bid, pid), ())
                stay_start, pickup_by = b.slot.start, b.slack_after.bound_from(b.slot.end)
                for leg_in in legs.get((None, bid), ()):
                    dropped = leg_in.slot.end
                    if leg_in.required_operation is not None or dropped < stay_start:
                        continue
                    for leg_out in outbound:
                        picked, arrival = leg_out.slot
                        required = leg_out.required_operation
                        if (
                            picked >= dropped
                            and (pickup_by is None or picked <= pickup_by)
                            and (required is None or required == leg_in.proposal_id)
                            and (latest is None or arrival <= latest)
                        ):
                            routes.append(
                                RouteCandidate(
                                    "buffered", b, (leg_in, leg_out), arrival,
                                    leg_in.price + leg_out.price + b.price,
                                )
                            )
            for leg in legs.get((None, pid), ()):
                picked, arrival = leg.slot
                if (
                    leg.required_operation is None
                    and picked >= f_prev
                    and (latest is None or arrival <= latest)
                ):
                    routes.append(RouteCandidate("direct", None, (leg,), arrival, leg.price))
        ocs.append(oc)
    return ocs


class Selection(NamedTuple):
    winner: OperationCombination
    route: RouteCandidate
    fulfillment: Seconds
    accept_ids: tuple[str, ...]


def select(ocs: Sequence[OperationCombination]) -> Optional[Selection]:
    """The best route over every combination; None when no route is feasible.

    The one ranking rule: the least (fulfillment, production price + route
    price, production resource id, production proposal id, route proposal
    ids), the first on a full tie; the route ids are compared only then.
    """
    best: Optional[tuple] = None  # (the rule's first four, combination, route)
    for oc in ocs:
        p = oc.production
        start, dur, price = p.slot.start, p.op_duration, p.price
        for route in oc.routes:
            arrival = route.arrival
            finish = (start if arrival is None or arrival < start else arrival) + dur
            key = (finish, price + route.price, p.resource_id, p.proposal_id)
            if best is None or key < best[0] or (
                key == best[0] and route.proposal_ids < best[2].proposal_ids
            ):
                best = key, oc, route
    if best is None:
        return None
    key, oc, route = best
    return Selection(
        winner=oc,
        route=route,
        fulfillment=key[0],
        accept_ids=(oc.production.proposal_id,) + route.proposal_ids,
    )
