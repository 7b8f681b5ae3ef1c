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
    """One feasible way to realize a production proposal."""

    kind: str  # "entry" | "stay-on-machine" | "direct" | "buffered"
    buffer: Optional[Proposal] = None
    legs: tuple[Proposal, ...] = ()

    @property
    def arrival(self) -> Optional[Seconds]:
        """Arrival time at the production resource (None for stay-on-machine)."""
        return self.legs[-1].slot.end if self.legs else None

    @property
    def price(self) -> int:
        total = sum(leg.price for leg in self.legs)
        if self.buffer is not None:
            total += self.buffer.price
        return total

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


def _within_latest_start(p: Proposal, start: Seconds) -> bool:
    latest = p.slack_after.bound_from(p.slot.start)
    return latest is None or start <= latest


def _route_ok(production: Proposal, route: RouteCandidate, ctx: StageContext) -> bool:
    """Temporal consistency of a candidate chain."""
    arrival = route.arrival
    if arrival is None:
        return True
    if not _within_latest_start(production, max(production.slot.start, arrival)):
        return False
    if route.kind == "buffered":
        leg_in, leg_out = route.legs
        buf = route.buffer
        assert buf is not None
        if leg_out.slot.start < leg_in.slot.end:
            return False  # picked up before it arrived
        if leg_in.slot.end < buf.slot.start:
            return False  # buffer not yet available on arrival
        buf_latest = buf.slack_after.bound_from(buf.slot.end)
        if buf_latest is not None and leg_out.slot.start > buf_latest:
            return False
        if leg_out.required_operation is not None and (
            leg_out.required_operation != leg_in.proposal_id
        ):
            return False
        if leg_in.required_operation is not None:
            return False  # inbound legs never depend on a later movement
    else:
        (leg,) = route.legs
        if leg.required_operation is not None:
            return False
        if leg.slot.start < ctx.f_prev:
            return False
    return True


def build_ocs(
    production: Sequence[Proposal],
    buffers: Sequence[Proposal],
    transports: Sequence[Proposal],
    ctx: StageContext,
) -> list[OperationCombination]:
    """Wire collected proposals into operation combinations with route candidates."""
    buffers_for: dict[Optional[str], list[Proposal]] = {}
    for b in buffers:
        buffers_for.setdefault(b.realizes, []).append(b)

    # legs by (via, realizes): (None, buffer) inbound, (buffer, production)
    # outbound, (None, production) direct; proposal ids are unique across
    # resources, so the three kinds never share a key
    legs: dict[tuple[Optional[str], Optional[str]], list[Proposal]] = {}
    for t in transports:
        legs.setdefault((t.via, t.realizes), []).append(t)

    ocs: list[OperationCombination] = []
    for p in sorted(production, key=_proposal_id):
        oc = OperationCombination(production=p)
        if ctx.prev_resource is None:
            # system entry: the first operation needs no transport at all
            oc.routes.append(RouteCandidate("entry"))
        elif p.resource_id == ctx.prev_resource:
            oc.routes.append(RouteCandidate("stay-on-machine"))
        else:
            # a route for every link the order's CFPs asked for: buffered, direct or both
            for b in buffers_for.get(p.proposal_id, []):
                for leg_in in legs.get((None, b.proposal_id), []):
                    for leg_out in legs.get((b.proposal_id, p.proposal_id), []):
                        route = RouteCandidate("buffered", b, (leg_in, leg_out))
                        if _route_ok(p, route, ctx):
                            oc.routes.append(route)
            for leg in legs.get((None, p.proposal_id), []):
                route = RouteCandidate("direct", None, (leg,))
                if _route_ok(p, route, ctx):
                    oc.routes.append(route)
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
        for route in oc.routes:
            start = max(p.slot.start, route.legs[-1].slot.end) if route.legs else p.slot.start
            key = (start + p.op_duration, p.price + route.price, p.resource_id, p.proposal_id)
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
