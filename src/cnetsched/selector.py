"""Assembling operation combinations from collected proposals and picking one.

An operation combination (OC) is one production proposal plus every feasible
way of getting the workpiece there: directly, through a buffer (two transport
legs plus a buffer slot), or not at all when the workpiece already sits on the
proposing machine. Selection prunes leg alternatives pairwise before comparing
whole combinations, exactly four steps:

1. per buffer proposal, keep the best buffer-to-machine leg;
2. per buffer proposal, keep the best machine-to-buffer leg;
3. per OC, keep the best surviving route;
4. pick the best OC.

"Best" is always the same lexicographic criterion: earliest fulfillment, then
lowest price, then lowest resource/proposal id. The pruning is deliberately
local (it can discard a link partner a later step would have wanted); the
brute-force enumerator in the test suite's oracle module quantifies that gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from .protocol import BUFFER, PRODUCTION, TRANSPORT, Proposal
from .timebase import Seconds


class SelectionError(Exception):
    pass


@dataclass(frozen=True)
class StageContext:
    """What the order agent knows going into selection."""

    f_prev: Seconds
    prev_resource: Optional[str]
    buffered: frozenset[str]  # production proposal ids that require buffering


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

    def sort_key(self) -> tuple:
        return (self.price, self.proposal_ids)


@dataclass
class OperationCombination:
    production: Proposal
    routes: list[RouteCandidate] = field(default_factory=list)
    selected: Optional[RouteCandidate] = None

    def fulfillment(self, route: RouteCandidate, ctx: StageContext) -> Seconds:
        """Planned finish of the production operation via this route."""
        start = self.production.slot.start
        if route.arrival is not None:
            start = max(start, route.arrival)
        return start + self.production.op_duration

    def feasible(self) -> bool:
        return bool(self.routes)


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
    # buffer proposals carry the production proposal they serve in
    # connected_operations[0] (echoed from the CFP alternative's realizes tag)
    buffers_for: dict[str, list[Proposal]] = {}
    for b in buffers:
        if b.connected_operations:
            buffers_for.setdefault(b.connected_operations[0], []).append(b)

    legs_to_buffer: dict[str, list[Proposal]] = {}
    legs_from_buffer: dict[tuple[str, str], list[Proposal]] = {}
    legs_direct: dict[str, list[Proposal]] = {}
    for t in transports:
        if t.leg is None:
            continue
        if t.leg.via is not None:
            legs_from_buffer.setdefault((t.leg.via, t.leg.realizes), []).append(t)
        elif any(t.leg.realizes == b.proposal_id for b in buffers):
            legs_to_buffer.setdefault(t.leg.realizes, []).append(t)
        else:
            legs_direct.setdefault(t.leg.realizes, []).append(t)

    ocs: list[OperationCombination] = []
    for p in sorted(production, key=lambda x: x.proposal_id):
        oc = OperationCombination(production=p)
        if ctx.prev_resource is None:
            # system entry: the first operation needs no transport at all
            oc.routes.append(RouteCandidate(kind="entry"))
        elif p.resource_id == ctx.prev_resource:
            oc.routes.append(RouteCandidate(kind="stay-on-machine"))
        elif p.proposal_id in ctx.buffered:
            for b in buffers_for.get(p.proposal_id, []):
                inbound = legs_to_buffer.get(b.proposal_id, [])
                outbound = legs_from_buffer.get((b.proposal_id, p.proposal_id), [])
                for leg_in in inbound:
                    for leg_out in outbound:
                        route = RouteCandidate(
                            kind="buffered", buffer=b, legs=(leg_in, leg_out)
                        )
                        if _route_ok(p, route, ctx):
                            oc.routes.append(route)
        else:
            for leg in legs_direct.get(p.proposal_id, []):
                route = RouteCandidate(kind="direct", legs=(leg,))
                if _route_ok(p, route, ctx):
                    oc.routes.append(route)
        ocs.append(oc)
    return ocs


class Selection(NamedTuple):
    winner: OperationCombination
    route: RouteCandidate
    fulfillment: Seconds
    accept_ids: tuple[str, ...]


def _leg_key(leg: Proposal) -> tuple:
    return (leg.slot.end, leg.price, leg.resource_id, leg.proposal_id)


def select(
    ocs: Sequence[OperationCombination], ctx: StageContext
) -> Optional[Selection]:
    """Four-step selection over operation combinations; None when nothing is feasible."""
    # steps 1+2: pairwise pruning of transport legs per buffer proposal
    kept_out: dict[str, str] = {}
    kept_in: dict[str, str] = {}
    kept_out_key: dict[str, tuple] = {}
    kept_in_key: dict[str, tuple] = {}
    for oc in ocs:
        for route in oc.routes:
            if route.kind != "buffered":
                continue
            b_id = route.buffer.proposal_id  # type: ignore[union-attr]
            leg_in, leg_out = route.legs
            k_out = _leg_key(leg_out)
            if b_id not in kept_out_key or k_out < kept_out_key[b_id]:
                kept_out_key[b_id] = k_out
                kept_out[b_id] = leg_out.proposal_id
            k_in = _leg_key(leg_in)
            if b_id not in kept_in_key or k_in < kept_in_key[b_id]:
                kept_in_key[b_id] = k_in
                kept_in[b_id] = leg_in.proposal_id

    def survives(route: RouteCandidate) -> bool:
        if route.kind != "buffered":
            return True
        b_id = route.buffer.proposal_id  # type: ignore[union-attr]
        leg_in, leg_out = route.legs
        return (
            kept_in.get(b_id) == leg_in.proposal_id
            and kept_out.get(b_id) == leg_out.proposal_id
        )

    # step 3: best surviving route per OC
    best: Optional[tuple[tuple, OperationCombination, RouteCandidate]] = None
    for oc in ocs:
        candidates = [r for r in oc.routes if survives(r)]
        if not candidates:
            continue
        route = min(
            candidates,
            key=lambda r: (oc.fulfillment(r, ctx),) + r.sort_key(),
        )
        oc.selected = route
        # step 4: best OC overall
        key = (
            oc.fulfillment(route, ctx),
            oc.production.price + route.price,
            oc.production.resource_id,
            oc.production.proposal_id,
        )
        if best is None or key < best[0]:
            best = (key, oc, route)

    if best is None:
        return None
    _key, oc, route = best
    return Selection(
        winner=oc,
        route=route,
        fulfillment=_key[0],
        accept_ids=(oc.production.proposal_id,) + route.proposal_ids,
    )
