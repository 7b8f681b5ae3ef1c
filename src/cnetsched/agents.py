"""Agent roles: order, production resource, buffer place, transport, directory.

Each schedule-owning agent keeps its calendar private and talks only through
the protocol vocabulary. Handlers are plain functions from one inbound event
to a list of outbound envelopes, so the same classes run unchanged under the
deterministic and the concurrent kernel.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import logging
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, Optional, Sequence

from . import calculus
from .calculus import (
    InfeasibleWindow,
    ScheduleParams,
    SlotCommitment,
    StageWindows,
    proposal_price,
)
from .protocol import (
    BUFFER,
    DONE,
    FAILED,
    PRODUCTION,
    TRANSPORT,
    AcceptProposal,
    Cfp,
    CfpAlternative,
    DeadlineExpired,
    HoldBook,
    InformDeparture,
    InformFailure,
    Message,
    OfferHold,
    Proposal,
    RejectProposal,
    StageFailure,
    StageNegotiation,
    StartStage,
    TransportLeg,
    WorkpieceInfo,
    advance_stage,
    conversation_id,
    parse_conversation,
    reject_unused,
    rejects,
)
from .selector import StageContext, build_ocs, select
from .timebase import (
    BookingEntry,
    GapRow,
    NoOpenTail,
    OverlapError,
    ResourceSchedule,
    ScheduleError,
    Seconds,
    Slack,
    TimeInterval,
    gaps_for,
)

if TYPE_CHECKING:  # scenario imports this module; its records are read by attribute
    from .scenario import BufferSpec, FixedBlock, MachineSpec, OrderSpec, TransportSpec

log = logging.getLogger(__name__)

#: upper edge of every placement scan; a gap reaching it counts as unbounded
HORIZON: Seconds = 10**9
_ALL = TimeInterval(0, HORIZON)
#: a machine offers one slot per free gap, at most this many per CFP alternative
MAX_SLOTS_PER_CFP = 2
_iv_start = attrgetter("start")
_iv_end = attrgetter("end")


class StartOrder(NamedTuple):
    """Kernel-injected event that wakes an order agent."""

    order_id: str


class DirectoryService:
    """In-process capability registry (yellow pages)."""

    def __init__(self) -> None:
        self._by_capability: dict[str, set[str]] = {}

    def register(self, capability: str, agent_id: str) -> None:
        self._by_capability.setdefault(capability, set()).add(agent_id)

    def search(self, capability: str) -> tuple[str, ...]:
        return tuple(sorted(self._by_capability.get(capability, ())))


# ---------------------------------------------------------------------------
# shared helpers


def _envelope(sender: str, receiver: str, conv: str, parts: Sequence) -> Message:
    return Message(sender=sender, receiver=receiver, conversation_id=conv, parts=tuple(parts))


def _failure(sender: str, receiver: str, conv: str, proposal_id: str, reason: str) -> Message:
    return _envelope(sender, receiver, conv, [InformFailure(proposal_id, reason)])


def _no_setup(state: Any) -> Seconds:
    return 0


def _slack_from(
    gap_end: Seconds, nominal_end: Seconds, *caps: Optional[Seconds]
) -> Slack:
    """Shift room for a slot ending at ``nominal_end`` in a gap ending at
    ``gap_end``, window-capped; a gap reaching the scan horizon is unbounded."""
    limits = [c for c in (gap_end if gap_end < HORIZON else None, *caps) if c is not None]
    if not limits:
        return Slack.UNBOUNDED
    return Slack(max(0, min(limits) - nominal_end))


# ---------------------------------------------------------------------------
# resource agent core


class _Refusal(Exception):
    """An accept the resource cannot honour; the message is the reason sent back."""


def _check_booked(p: Proposal, booked: TimeInterval, what: str) -> None:
    """A booked slot keeps the offered length and may only shift later within the slack."""
    if booked.duration != p.op_duration:
        raise _Refusal(f"{what} duration mismatch")
    if booked.start < p.slot.start:
        raise _Refusal("booked earlier than offered")
    latest = p.slack_after.bound_from(p.slot.start)
    if latest is not None and booked.start > latest:
        raise _Refusal("booked outside the offered slack")


class _ResourceAgent:
    """What machines, buffer places and cranes share.

    Each owns a private calendar and a book of held offers: it answers a CFP
    with proposals whose spans it withholds from other orders, then commits or
    releases them as the order decides. A subclass says how it places
    proposals (``_propose``) and lays out an accepted booking (``_booking``).
    """

    kind: str  # PRODUCTION | BUFFER | TRANSPORT
    #: successor setup callback for ``insert_booking``; None keeps it as booked
    _succ_setup = None
    #: S, the largest setup (plus unload prefix) a gap's predecessor or
    #: successor can impose on this resource; set by each kind
    _setup_bound: Seconds = 0

    def __init__(self, agent_id: str) -> None:
        self.agent_id = agent_id
        self.schedule = ResourceSchedule()
        self.holds = HoldBook()
        self._seq = 0

    def _book_fixed(self, block: FixedBlock, label: str, kind: str) -> None:
        """Book a scenario's fixed block before any negotiation."""
        segments = [(kind, TimeInterval(block.start, block.end))]
        self.schedule.insert_booking(
            BookingEntry(block.order_id, label, segments, end_state=block.state)
        )

    def handle(self, event, ctx) -> list[Message]:
        if not isinstance(event, Message):
            return []
        out: list[Message] = []
        accept_failed = released = False
        for part in event.parts:
            if isinstance(part, Cfp):
                out.extend(self._on_cfp(event, part, ctx))
            elif isinstance(part, AcceptProposal):
                if accept_failed:
                    # linked accepts in one envelope commit or fail as a unit
                    self.holds.release(part.proposal_id)
                    out.append(
                        _failure(
                            self.agent_id,
                            event.sender,
                            event.conversation_id,
                            part.proposal_id,
                            "a linked movement in the same commit failed",
                        )
                    )
                    continue
                failures = self._on_accept(event, part, ctx)
                accept_failed = accept_failed or bool(failures)
                out.extend(failures)
            elif isinstance(part, RejectProposal):
                self.holds.release(part.proposal_id)
                released = True
            else:
                out.extend(self._on_other(part, ctx))
        if released:
            out.extend(self._drain(ctx))
        return out

    def _on_other(self, part, ctx) -> list[Message]:
        log.warning("%s: unexpected %s", self.agent_id, type(part).__name__)
        return []

    def _drain(self, ctx) -> list[Message]:
        """Answer CFPs queued while engaged; only a machine queues any."""
        return []

    # -- offers -----------------------------------------------------------

    def _on_cfp(self, msg: Message, cfp: Cfp, ctx) -> list[Message]:
        now = ctx.now()
        if cfp.deadline and cfp.deadline <= now:
            return []  # answered too late to matter (e.g. drained after blocking)
        # the one purge per CFP: _engaged_elsewhere and _free read live holds only
        self.holds.purge(now)
        _order, stage = parse_conversation(msg.conversation_id)
        proposals = self._propose(msg, cfp, (stage or 0) + 1, ctx)
        if not proposals:
            return []  # absence is refusal; the order's deadline handles it
        return [_envelope(self.agent_id, msg.sender, msg.conversation_id, proposals)]

    def _propose(self, msg: Message, cfp: Cfp, step: int, ctx) -> list[Proposal]:
        """Proposals for one CFP of the 1-based plan step ``step``, each held by ``_offer``."""
        raise NotImplementedError

    def _free(
        self, conv: str, base: Seconds, assume_closed: frozenset[str] = frozenset()
    ) -> list[TimeInterval]:
        """Free calendar intervals with other conversations' holds counted busy.

        This conversation's holds are ignored, so the offers made for one CFP
        never block each other and the list holds for the whole CFP. ``base``
        is the earliest start of any slot the CFP asks for; intervals that
        :meth:`_usable` would drop for it are not even listed. Machines and
        cranes turn the list into one gap table per CFP right away
        (``ResourceSchedule.gap_table``); buffers, whose stays impose no
        setup, use the plain intervals.
        """
        return self.schedule.free_intervals(
            _ALL,
            extra_busy=self.holds.active_spans(exclude_conversation=conv),
            assume_closed=assume_closed,
            after=base - self._setup_bound - 1,
        )

    def _usable(self, free: list, base: Seconds) -> list:
        """The intervals of ``free`` that may host a slot starting no earlier than ``base``.

        ``free`` is a list of free intervals or the rows of a gap table;
        either way this is one bisect into the sorted interval ends.

        In an interval with ``iv.end + S < base`` the predecessor's setup
        (at most S) ends before ``base``, so the slot starts at exactly
        ``base``; the gap ends at most the successor's old setup (at most S)
        after the interval, so the slot overruns it. A latest-start or
        latest-finish break such a slot would trigger fires on the first
        interval kept as well, so dropping these intervals changes no offer.
        """
        return free[bisect.bisect_left(free, base - self._setup_bound, key=_iv_end):]

    def _fits(
        self, table: list[GapRow], end_state: Any, earliest: Seconds, dur: Seconds,
        windows: StageWindows, setup_of: Callable[[Any], Seconds], handling: Seconds = 0,
        tail: Seconds = 0,
    ) -> Iterator[tuple[Seconds, Seconds, Seconds, Seconds, Slack]]:
        """Every slot of ``dur`` a gap of ``table`` holds, earliest gap first.

        A slot starts no earlier than ``earliest`` and than the gap's start
        plus ``setup_of(from_state)`` and ``handling``; ``tail`` more must
        fit behind it. The walk stops at the first slot that would start
        after the latest start or end after the latest finish, since every
        later gap's slot would too. Yields ``(start, end, setup, ti_next,
        slack_after)``, the slack capped by the windows.
        """
        ls, lf = windows.ls, windows.lf
        for gap_start, gap_end, from_state, ti_next in gaps_for(
            self._usable(table, earliest), end_state, self._succ_setup
        ):
            setup = setup_of(from_state)
            start = max(earliest, gap_start + setup + handling)
            if ls is not None and start > ls:
                return
            end = start + dur
            if lf is not None and end > lf:
                return
            if end + tail > gap_end:
                continue
            slack_after = _slack_from(
                gap_end,
                end + tail,
                ls + dur + tail if ls is not None else None,
                lf + tail if lf is not None else None,
            )
            yield start, end, setup, ti_next, slack_after

    def _offer(
        self, ctx, conv: str, step_label: str, span: TimeInterval, end_state="", **fields
    ) -> Proposal:
        """Number a proposal and hold ``span`` for it until the hold deadline."""
        self._seq += 1
        pid = f"{self.agent_id}#p{self._seq}"
        proposal = Proposal(proposal_id=pid, kind=self.kind, resource_id=self.agent_id, **fields)
        self.holds.add(
            OfferHold(
                proposal_id=pid,
                span=span,
                conversation_id=conv,
                deadline=ctx.now() + ctx.hold_deadline,
                proposal=proposal,
                step_label=step_label,
                end_state=end_state,
            )
        )
        return proposal

    # -- commitment -------------------------------------------------------

    def _on_accept(self, msg: Message, acc: AcceptProposal, ctx) -> list[Message]:
        def fail(reason: str) -> list[Message]:
            return [
                _failure(self.agent_id, msg.sender, msg.conversation_id, acc.proposal_id, reason)
            ]

        hold = self.holds.take(acc.proposal_id, ctx.now())
        if hold is None:
            return fail("offer unknown or hold expired")
        order_id, _ = parse_conversation(msg.conversation_id)
        try:
            self._commit(hold, self._booking(hold, acc, order_id), ctx)
        except (_Refusal, ScheduleError, ValueError) as exc:
            return fail(str(exc))
        return []

    def _booking(self, hold: OfferHold, acc: AcceptProposal, order_id: str) -> BookingEntry:
        """Re-validate an accept against its offer and lay out the booking.

        Raises ``_Refusal`` (or a calendar error) when the accept cannot be honoured.
        """
        raise NotImplementedError

    def _commit(self, hold: OfferHold, entry: BookingEntry, ctx) -> None:
        self.schedule.insert_booking(entry, successor_setup=self._succ_setup)
        ctx.record_commit(self.agent_id, entry)


# ---------------------------------------------------------------------------
# production resource agent


class ProductionAgent(_ResourceAgent):
    """Owns one machine calendar; proposes, commits, blocks, defers."""

    kind = PRODUCTION

    def __init__(self, spec: MachineSpec, unload_estimate: Seconds = 0, load_estimate: Seconds = 0):
        super().__init__(spec.id)
        self.location = spec.location
        self.op_duration = spec.op_duration
        self.setup = spec.setup
        self.initial_state = spec.initial_state
        self.unload_estimate = unload_estimate
        self.load_estimate = load_estimate
        self._deferred: list[Message] = []
        for b in spec.initial_bookings:
            self._book_fixed(b, "init", "operation")
        for w in spec.maintenance:
            self._book_fixed(w, "maintenance", "maintenance")

    # -- state ------------------------------------------------------------

    @property
    def blocked(self) -> bool:
        return bool(self.schedule.open_tail_entries())

    def _engaged_elsewhere(self, order_id: str) -> bool:
        """True while another order's negotiation could still claim this machine.

        A booked workpiece blocks the machine until its departure is known,
        and an outstanding offer may yet turn into such a booking whose tail
        would run into anything promised after it.  Either way the machine
        serves one order at a time and queues the rest.
        """
        if self.blocked and self.schedule.open_tail_for(order_id) is None:
            return True
        return any(parse_conversation(h.conversation_id)[0] != order_id for h in self.holds)

    def _setup(self, from_state: str, to_state: str) -> Seconds:
        return self.setup.get(from_state, {}).get(to_state, 0)

    @functools.cached_property
    def _setup_bound(self) -> Seconds:
        # worked out at the first CFP, not for every machine a run builds
        setups = [d for row in self.setup.values() for d in row.values()]
        return max(setups, default=0) + self.unload_estimate

    def _succ_setup(self, new_state: str, succ: BookingEntry) -> Seconds:
        # a maintenance window demands its end_state just like a job does, so
        # finishing in the wrong state in front of one costs a changeover too
        return self._setup(new_state, succ.end_state)

    # -- event handling ----------------------------------------------------

    def _on_other(self, part, ctx) -> list[Message]:
        if isinstance(part, InformDeparture):
            return self._on_departure(part, ctx)
        return super()._on_other(part, ctx)

    def _propose(self, msg: Message, cfp: Cfp, step: int, ctx) -> list[Proposal]:
        order_id = cfp.workpiece.order_id
        if self._engaged_elsewhere(order_id):
            # blocked for further negotiations: queue, answer after the
            # engagement resolves (departure, rejection, or hold expiry)
            self._deferred.append(msg)
            return []
        product = cfp.workpiece.product
        op_dur = self.op_duration.get(product)
        if op_dur is None:
            return []
        tail = self.schedule.open_tail_for(order_id)
        own = tail is not None
        entry_stage = cfp.workpiece.location is None
        unload = 0 if (entry_stage or own) else self.unload_estimate
        load_est = self.load_estimate
        conv = msg.conversation_id
        # the requested es includes a transport estimate; when the piece is
        # already sitting on this machine it is available at operation end
        earliest = [
            tail.operation_end if tail is not None else alt.windows.es
            for alt in cfp.alternatives
        ]
        if not earliest:
            return []
        free = self._free(
            conv, min(earliest), frozenset({order_id}) if own else frozenset()
        )
        # every alternative reads the same table: the new end state is the product
        table = self.schedule.gap_table(free, self.initial_state)
        if tail is not None:
            # the workpiece sits on this machine and can only wait in place:
            # any slot beyond the next booking is unreachable
            table = [row for row in table if row.start == tail.operation_end]
        setup_of = functools.partial(self._setup, to_state=product)
        proposals: list[Proposal] = []
        for alt_idx, (alt, es) in enumerate(zip(cfp.alternatives, earliest)):
            slots = self._fits(table, product, es, op_dur, alt.windows, setup_of, unload, load_est)
            for op_start, op_end, setup, ti_next, slack_after in itertools.islice(
                slots, MAX_SLOTS_PER_CFP
            ):
                proposals.append(
                    self._offer(
                        ctx,
                        conv,
                        str(step),
                        TimeInterval(op_start - setup - unload, op_end + load_est),
                        product,
                        location=self.location,
                        slot=TimeInterval(op_start, op_end),
                        slack_after=slack_after,
                        op_duration=op_dur,
                        load_time=load_est,
                        unload_time=unload,
                        price=proposal_price(op_dur, setup, ti_next),
                        alternative=alt_idx,
                    )
                )
        return proposals

    def _booking(self, hold: OfferHold, acc: AcceptProposal, order_id: str) -> BookingEntry:
        p = hold.proposal
        booked = acc.booked_slot
        _check_booked(p, booked, "operation")
        unload = acc.actual_unload_time if p.unload_time else 0
        # a piece staying here departed first (see OrderAgent.decide): every open tail blocks
        from_state = self.schedule.state_before(
            booked.start, self.initial_state, assume_closed=frozenset()
        )
        setup = self._setup(from_state, hold.end_state)
        segments: list[tuple[str, TimeInterval]] = []
        t = booked.start - unload - setup
        if setup:
            segments.append(("setup", TimeInterval(t, t + setup)))
            t += setup
        if unload:
            segments.append(("unload", TimeInterval(t, t + unload)))
            t += unload
        segments.append(("operation", booked))
        return BookingEntry(
            order_id, hold.step_label, segments, open_tail=True, end_state=hold.end_state
        )

    def _on_departure(self, info: InformDeparture, ctx) -> list[Message]:
        try:
            self.schedule.close_open_tail(info.order_id, info.departure, info.loading_time)
        except NoOpenTail:
            pass  # an abort departs again after the stage's own departure closed it
        except OverlapError as exc:
            log.warning("%s: departure rejected: %s", self.agent_id, exc)
            return []
        return self._drain(ctx)

    def _drain(self, ctx) -> list[Message]:
        """Re-run queued calls once an engagement resolves; still-engaged ones requeue."""
        if self.blocked or not self._deferred:
            return []
        pending, self._deferred = self._deferred, []
        out: list[Message] = []
        for queued in pending:
            for part in queued.parts:
                if isinstance(part, Cfp):
                    out.extend(self._on_cfp(queued, part, ctx))
        return out


# ---------------------------------------------------------------------------
# buffer agent


class BufferAgent(_ResourceAgent):
    """A capacity-1 buffer place offering decoupling slots."""

    kind = BUFFER

    def __init__(self, spec: BufferSpec, unload_estimate: Seconds = 0, load_estimate: Seconds = 0):
        super().__init__(spec.id)
        self.location = spec.location
        self.unload_estimate = unload_estimate
        self.load_estimate = load_estimate
        self._setup_bound = unload_estimate

    def _propose(self, msg: Message, cfp: Cfp, step: int, ctx) -> list[Proposal]:
        conv = msg.conversation_id
        u_est, l_est = self.unload_estimate, self.load_estimate
        if not cfp.alternatives:
            return []
        free = self._free(conv, min(alt.windows.es for alt in cfp.alternatives))
        proposals: list[Proposal] = []
        for alt_idx, alt in enumerate(cfp.alternatives):
            w = alt.windows
            for iv in self._usable(free, w.es):
                start = max(w.es, iv.start + u_est)
                if w.ls is not None and start > w.ls:
                    break
                end = max(w.ef, start)
                if w.lf is not None and end > w.lf:
                    break
                if end + l_est > iv.end:
                    continue
                slack_after = _slack_from(
                    iv.end, end + l_est, w.lf + l_est if w.lf is not None else None
                )
                proposals.append(
                    self._offer(
                        ctx,
                        conv,
                        f"B{step}",
                        TimeInterval(max(0, start - u_est), end + l_est),
                        location=self.location,
                        slot=TimeInterval(start, end),
                        slack_after=slack_after,
                        op_duration=end - start,
                        load_time=l_est,
                        unload_time=u_est,
                        price=0,
                        alternative=alt_idx,
                        realizes=alt.realizes,
                    )
                )
                break  # earliest feasible slot per alternative
        return proposals

    def _booking(self, hold: OfferHold, acc: AcceptProposal, order_id: str) -> BookingEntry:
        p = hold.proposal
        resident = acc.booked_slot
        if resident.start < p.slot.start:
            raise _Refusal("arrival earlier than the offered slot")
        latest = p.slack_after.bound_from(p.slot.end)
        if latest is not None and resident.end > latest:
            raise _Refusal("pickup outside the offered slack")
        u, l = acc.actual_unload_time, acc.actual_load_time
        segments: list[tuple[str, TimeInterval]] = []
        if u:
            segments.append(("unload", TimeInterval(resident.start - u, resident.start)))
        if not resident.is_empty():
            segments.append(("buffer-hold", resident))
        if l:
            segments.append(("load", TimeInterval(resident.end, resident.end + l)))
        if not segments:
            raise _Refusal("empty buffering interval")
        return BookingEntry(order_id, hold.step_label, segments)


# ---------------------------------------------------------------------------
# transport agent


class TransportAgent(_ResourceAgent):
    """One crane/vehicle on a 1-D segment; prices setup travel explicitly."""

    kind = TRANSPORT

    def __init__(self, spec: TransportSpec):
        super().__init__(spec.id)
        self.geometry = geom = spec.geometry()
        self.initial_x = spec.initial_x
        self._pickup_x: dict[tuple[str, str], float] = {}
        self._committed_pids: set[str] = set()
        # every setup is travel inside the crane's own segment
        self._setup_bound = geom.travel_seconds(geom.x_min, geom.x_max)
        for b in spec.initial_bookings:
            self._book_fixed(b, "init", "operation")

    def _succ_setup(self, new_state, succ: BookingEntry) -> Seconds:
        """Travel from ``new_state`` (a drop-off x) to the successor's pickup.

        A booking whose pickup this crane never recorded keeps its setup.
        """
        pickup = self._pickup_x.get((succ.order_id, succ.step_label))
        if pickup is None:
            return succ.setup_interval.duration if succ.setup_interval else 0
        return self.geometry.travel_seconds(new_state, pickup)

    def _propose(self, msg: Message, cfp: Cfp, step: int, ctx) -> list[Proposal]:
        geom = self.geometry
        conv = msg.conversation_id
        # legs that some other leg chains onto head into a buffer
        chain_targets = {leg.chain_after for leg in cfp.legs if leg.chain_after is not None}
        legs: list[tuple[int, TransportLeg, str, Seconds]] = []
        for leg_idx, leg in enumerate(cfp.legs):
            fx, tx = leg.from_location[0], leg.to_location[0]
            if not (geom.covers(fx) and geom.covers(tx)):
                continue
            if leg.via is not None:
                label = f"T:B{step},{step}"
            elif leg_idx in chain_targets:
                label = f"T:{step - 1},B{step}"
            else:
                label = f"T:{step - 1},{step}"
            dur = calculus.transport_duration(leg.from_location, leg.to_location, geom)
            legs.append((leg_idx, leg, label, dur))
        if not legs:
            return []  # outside this crane's segment: silent, no calendar walk
        # a chained variant starts after its partner, which is placed no
        # earlier than its own leg's base; the table does not depend on where
        # a leg drops off, so every leg and chained variant reads it
        free = self._free(
            conv, min(max(leg.windows.es, leg.windows.ef - dur) for _, leg, _, dur in legs)
        )
        table = self.schedule.gap_table(free, self.initial_x)
        proposals: list[Proposal] = []
        emitted_by_leg: dict[int, Proposal] = {}
        for leg_idx, leg, label, dur in legs:
            fx, tx = leg.from_location[0], leg.to_location[0]
            plain = self._place_leg(leg, dur, table)
            if plain is not None:
                made = self._offer(ctx, conv, label, end_state=tx, **plain)
                proposals.append(made)
                emitted_by_leg[leg_idx] = made
            # chained variant: departing right where a partner leg drops off
            partner = emitted_by_leg.get(leg.chain_after)
            if partner is None or abs(cfp.legs[leg.chain_after].to_location[0] - fx) >= 1e-9:
                continue
            chained = self._place_leg(leg, dur, table, after=partner)
            # one equal to the plain placement is not offered: no hold, no id
            if chained is not None and (
                plain is None
                or (chained["slot"], chained["price"]) != (plain["slot"], plain["price"])
            ):
                proposals.append(self._offer(ctx, conv, label, end_state=tx, **chained))
        return proposals

    def _place_leg(
        self,
        leg: TransportLeg,
        dur: Seconds,
        table: list[GapRow],
        after: Optional[Proposal] = None,
    ) -> Optional[dict]:
        """Where ``leg`` fits first, as ``_offer`` arguments: the span and the proposal's fields.

        ``after`` places the chained variant, which loads where and when the
        partner proposal ``after`` unloads. None when the leg fits nowhere.
        Nothing is held here; ``_propose`` decides what becomes an offer.
        """
        geom = self.geometry
        w = leg.windows
        fx, tx = leg.from_location[0], leg.to_location[0]
        earliest = max(w.es, w.ef - dur)
        setup_of: Callable[[float], Seconds] = functools.partial(geom.travel_seconds, x_to=fx)
        if after is not None:
            # a chained leg loads where and when the partner unloads, with no
            # approach; a gap that holds it and starts by the partner's start
            # holds the partner's slot too
            table = table[: bisect.bisect_right(table, after.slot.start, key=_iv_start)]
            earliest = max(earliest, after.slot.end)
            setup_of = _no_setup
        for load_start, end, setup, ti_next, slack_after in self._fits(
            table, tx, earliest, dur, w, setup_of
        ):
            return dict(
                span=TimeInterval(load_start - setup, end),
                location=(fx, leg.from_location[1]),
                slot=TimeInterval(load_start, end),
                slack_after=slack_after,
                op_duration=dur,
                load_time=geom.load_time,
                unload_time=geom.unload_time,
                price=proposal_price(dur, setup, ti_next),
                alternative=0,
                realizes=leg.realizes,
                via=leg.via,
                required_operation=after.proposal_id if after is not None else None,
            )
        return None

    def _booking(self, hold: OfferHold, acc: AcceptProposal, order_id: str) -> BookingEntry:
        p = hold.proposal
        booked = acc.booked_slot
        _check_booked(p, booked, "transport")
        if p.required_operation is not None and p.required_operation not in self._committed_pids:
            raise _Refusal("required preceding movement was not committed")

        geom = self.geometry
        pickup_x, drop_x = p.location[0], hold.end_state
        pred_x = self.schedule.state_before(booked.start, self.initial_x)
        setup = geom.travel_seconds(pred_x, pickup_x)
        travel = geom.travel_seconds(pickup_x, drop_x)
        segments: list[tuple[str, TimeInterval]] = []
        t = booked.start - setup
        if setup:
            segments.append(("travel", TimeInterval(t, booked.start)))
        t = booked.start
        segments.append(("load", TimeInterval(t, t + geom.load_time)))
        t += geom.load_time
        if travel:
            segments.append(("travel", TimeInterval(t, t + travel)))
            t += travel
        segments.append(("unload", TimeInterval(t, t + geom.unload_time)))
        return BookingEntry(order_id, hold.step_label, segments, end_state=drop_x)

    def _commit(self, hold: OfferHold, entry: BookingEntry, ctx) -> None:
        super()._commit(hold, entry, ctx)
        self._pickup_x[(entry.order_id, entry.step_label)] = hold.proposal.location[0]
        self._committed_pids.add(hold.proposal_id)


# ---------------------------------------------------------------------------
# order agent


@dataclass
class StageCommit:
    resource_id: str
    location: tuple[float, float]
    op_slot: TimeInterval
    slack_after: Slack


def _leg(frm, to: Proposal, windows: StageWindows, **fields) -> TransportLeg:
    """The movement from ``frm`` (a commit or a proposal) to the resource of
    ``to``, which it realizes."""
    return TransportLeg(frm.location, to.location, windows, to.proposal_id, **fields)


class OrderAgent:
    """Drives one order through its plan, stage by stage."""

    def __init__(self, spec: OrderSpec, plan: Sequence[str], params: ScheduleParams):
        self.agent_id = spec.id
        self.product = spec.product
        self.arrival = spec.arrival
        self.plan = plan  # operation names, in order
        self.params = params
        self.status = "pending"  # pending -> running -> done | failed
        self.stage_index = 0
        self.committed: list[StageCommit] = []
        self.neg: Optional[StageNegotiation] = None
        self.t_start = None
        self.t_end = None
        self.diagnostic: Optional[str] = None
        # the stage's production proposals ``plan_buffer`` asked buffer stays for
        self._buffered: frozenset[str] = frozenset()

    # -- kernel event entry -------------------------------------------------

    def handle(self, event, ctx) -> list[Message]:
        if self.status in ("done", "failed"):
            return reject_unused(self.agent_id, event)
        if isinstance(event, StartOrder):
            self.status = "running"
            self.t_start = ctx.now()
            return self._start_stage(ctx)
        if isinstance(event, DeadlineExpired):
            return self._drive(event, ctx)
        if isinstance(event, Message):
            for part in event.parts:
                if isinstance(part, InformFailure):
                    _, failed_stage = parse_conversation(event.conversation_id)
                    if failed_stage is not None and len(self.committed) > failed_stage:
                        # that stage's decision was recorded before the refusal
                        # came back; drop it (and anything chained on top) so
                        # the abort frees the machine actually holding the piece
                        del self.committed[failed_stage:]
                    return self._abort(
                        ctx, f"commit refused by {event.sender}: {part.reason}"
                    )
            return self._drive(event, ctx)
        return []

    def _start_stage(self, ctx) -> list[Message]:
        self.neg = StageNegotiation(order_id=self.agent_id, stage_index=self.stage_index)
        return self._drive(StartStage(), ctx)

    def _drive(self, event, ctx) -> list[Message]:
        neg = self.neg
        if neg is None:
            return []
        out = advance_stage(neg, event, self, ctx)
        if neg.phase == FAILED:
            out.extend(self._abort(ctx, f"stage {self.stage_index + 1}: {neg.failure_reason}"))
        elif neg.phase == DONE:
            # chains into the next stage (recursing through _start_stage)
            out.extend(self._on_stage_done(ctx))
        return out

    def _on_stage_done(self, ctx) -> list[Message]:
        self.stage_index += 1
        if self.stage_index >= len(self.plan):
            self.status = "done"
            self.t_end = ctx.now()
            self.neg = None
            return []
        return self._start_stage(ctx)

    def _abort(self, ctx, reason: str) -> list[Message]:
        self.status = "failed"
        self.diagnostic = reason
        self.t_end = ctx.now()
        self.neg = None
        out: list[Message] = []
        if self.committed:
            # free the machine still holding (or believed to hold) the piece;
            # a resource without a matching open tail simply ignores this
            commit = self.committed[-1]
            conv = conversation_id(self.agent_id, len(self.committed) - 1)
            out.append(self._depart(commit.resource_id, conv, commit.op_slot.end))
        log.info("order %s failed: %s", self.agent_id, reason)
        return out

    # -- planner interface (called by advance_stage) -------------------------

    @property
    def _prev(self) -> Optional[StageCommit]:
        return self.committed[-1] if self.committed else None

    @property
    def _f_prev(self) -> Seconds:
        prev = self._prev
        return prev.op_slot.end if prev is not None else self.arrival

    @property
    def _st_prev(self) -> Slack:
        prev = self._prev
        return prev.slack_after if prev is not None else Slack.UNBOUNDED

    def _call(
        self,
        neg: StageNegotiation,
        ctx,
        capability: str,
        location: Optional[tuple[float, float]],
        **cfp_fields,
    ) -> list[Message]:
        """One CFP round: the same CFP, whose operation is ``capability``, to
        every agent registered for it; empty when nobody is."""
        cfp = Cfp(
            workpiece=WorkpieceInfo(self.agent_id, self.product, location),
            operation=capability,
            deadline=ctx.now() + ctx.cfp_deadline,
            **cfp_fields,
        )
        return [
            _envelope(self.agent_id, rid, neg.conversation, [cfp])
            for rid in ctx.directory.search(capability)
        ]

    def _depart(
        self, resource: str, conv: str, departure: Seconds, loading_time: Seconds = 0
    ) -> Message:
        """The InformDeparture that frees ``resource`` from this workpiece."""
        info = InformDeparture(self.agent_id, departure, loading_time)
        return _envelope(self.agent_id, resource, conv, [info])

    @functools.cached_property
    def rounds(self) -> tuple:
        """A stage's CFP rounds, in the order they open (built on first use, not at setup)."""
        return (
            (PRODUCTION, self.plan_production),
            (BUFFER, self.plan_buffer),
            (TRANSPORT, self.plan_transport),
        )

    def plan_production(self, neg: StageNegotiation, ctx) -> list[Message]:
        prev = self._prev
        es = self.arrival if prev is None else self._f_prev + self.params.t_transport_min
        windows = StageWindows(es=es, ef=es)
        return self._call(
            neg,
            ctx,
            self.plan[neg.stage_index],
            None if prev is None else prev.location,
            kind=PRODUCTION,
            alternatives=(CfpAlternative(windows=windows),),
        )

    def plan_buffer(self, neg: StageNegotiation, ctx) -> list[Message]:
        prev = self._prev
        if prev is None:
            return []
        alternatives = []
        for p in neg.of_kind(PRODUCTION):
            if p.resource_id == prev.resource_id:
                continue  # stays on the machine, nothing to buffer
            if calculus.needs_buffering(
                self._f_prev, p.slot.start, self.params.t_transport_min, self.params
            ):
                try:
                    windows = calculus.buffer_windows(
                        self._f_prev,
                        SlotCommitment(p.slot.start, p.slot.end, p.slack_after),
                        self.params,
                    )
                except InfeasibleWindow:
                    continue
                alternatives.append(CfpAlternative(windows=windows, realizes=p.proposal_id))
        self._buffered = frozenset(alt.realizes for alt in alternatives)
        if not alternatives:
            return []
        return self._call(
            neg, ctx, BUFFER, prev.location, kind=BUFFER, alternatives=tuple(alternatives)
        )

    def plan_transport(self, neg: StageNegotiation, ctx) -> list[Message]:
        prev = self._prev
        if prev is None:
            return []
        legs: list[TransportLeg] = []
        buffers_by_realizes: dict[str, list[Proposal]] = {}
        for b in neg.of_kind(BUFFER):
            buffers_by_realizes.setdefault(b.realizes, []).append(b)
        for p in neg.of_kind(PRODUCTION):
            if p.resource_id == prev.resource_id:
                continue
            prod_slot = SlotCommitment(p.slot.start, p.slot.end, p.slack_after)
            if p.proposal_id in self._buffered:
                for b in buffers_by_realizes.get(p.proposal_id, []):
                    buf_slot = SlotCommitment(b.slot.start, b.slot.end, b.slack_after)
                    try:
                        w_in = calculus.transport_to_buffer_windows(
                            self._f_prev, self._st_prev, buf_slot, prod_slot, self.params
                        )
                        w_out = calculus.transport_from_buffer_windows(
                            self._f_prev, buf_slot, prod_slot, self.params
                        )
                    except InfeasibleWindow:
                        continue
                    inbound_idx = len(legs)
                    legs.append(_leg(prev, b, w_in))
                    legs.append(_leg(b, p, w_out, via=b.proposal_id, chain_after=inbound_idx))
            else:
                try:
                    w = calculus.transport_direct_windows(
                        self._f_prev, self._st_prev, prod_slot, self.params
                    )
                except InfeasibleWindow:
                    continue
                legs.append(_leg(prev, p, w))
        if not legs:
            return []
        return self._call(neg, ctx, TRANSPORT, prev.location, kind=TRANSPORT, legs=tuple(legs))

    def decide(self, neg: StageNegotiation, ctx):
        conv = neg.conversation
        prev = self._prev
        sctx = StageContext(f_prev=self._f_prev, prev_resource=prev.resource_id if prev else None)
        ocs = build_ocs(
            neg.of_kind(PRODUCTION), neg.of_kind(BUFFER), neg.of_kind(TRANSPORT), sctx
        )
        selection = select(ocs)
        if selection is None:
            return StageFailure("no feasible operation combination")
        p, route = selection.winner.production, selection.route
        legs, arrival = route.legs, route.arrival
        op_start = p.slot.start if arrival is None else max(p.slot.start, arrival)
        op_slot = TimeInterval(op_start, op_start + p.op_duration)

        by_resource: dict[str, list[AcceptProposal]] = {}

        def accept(q: Proposal, slot: TimeInterval, **fields) -> None:
            by_resource.setdefault(q.resource_id, []).append(
                AcceptProposal(q.proposal_id, slot, **fields)
            )

        for leg in legs:
            accept(leg, leg.slot)
        if route.buffer is not None:
            leg_in, leg_out = legs
            accept(
                route.buffer,
                TimeInterval(leg_in.slot.end, leg_out.slot.start),
                actual_unload_time=leg_in.unload_time,
                actual_load_time=leg_out.load_time,
            )
        accept(p, op_slot, actual_unload_time=legs[-1].unload_time if legs else 0)

        out: list[Message] = []
        # departures first: a stay-on-machine accept lands on the same resource
        # and must find the previous tail already closed
        if prev is not None and legs:
            departure = legs[0].slot.start + legs[0].load_time
            out.append(self._depart(prev.resource_id, conv, departure, legs[0].load_time))
        elif prev is not None:
            out.append(self._depart(prev.resource_id, conv, op_start))
        out += [
            _envelope(self.agent_id, rid, conv, parts) for rid, parts in sorted(by_resource.items())
        ]
        accepted = set(selection.accept_ids)
        out += rejects(
            self.agent_id, conv, [q for q in neg.all_proposals() if q.proposal_id not in accepted]
        )
        if neg.stage_index == len(self.plan) - 1:
            # final stage: the workpiece leaves the system at operation end
            out.append(self._depart(p.resource_id, conv, op_slot.end))

        latest = p.slack_after.bound_from(p.slot.start)
        slack_after = Slack.UNBOUNDED if latest is None else Slack(latest - op_start)
        self.committed.append(StageCommit(p.resource_id, p.location, op_slot, slack_after))
        return out
