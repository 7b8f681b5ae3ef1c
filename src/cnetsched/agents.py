"""Agent roles: order, production resource, buffer place, transport, directory.

Each schedule-owning agent keeps its calendar private and talks only through
the protocol vocabulary. Handlers are plain functions from one inbound event
to a list of outbound envelopes, so the same classes run unchanged under the
deterministic and the concurrent kernel.
"""

from __future__ import annotations

import bisect
import functools
import logging
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, NamedTuple, Optional, Sequence

from . import calculus
from .calculus import (
    InfeasibleWindow,
    ScheduleParams,
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
    HORIZON,
    BookingEntry,
    GapRow,
    NoOpenTail,
    OverlapError,
    ResourceSchedule,
    ScheduleError,
    Seconds,
    Slack,
    TimeInterval,
    no_changeover,
    segments,
)

if TYPE_CHECKING:  # scenario imports this module; its records are read by attribute
    from .scenario import BufferSpec, FixedBlock, MachineSpec, OrderSpec, TransportSpec

log = logging.getLogger(__name__)

#: a machine offers one slot per free gap, at most this many per CFP alternative
MAX_SLOTS_PER_CFP = 2
_iv_start = attrgetter("start")
_iv_end = attrgetter("end")
#: the slot and the price among the proposal fields ``_place_leg`` returns
_slot_and_price = itemgetter(1, 6)
#: Proposal's trailing defaults, in field order: ``_offer`` adds those not given
_PROPOSAL_DEFAULTS = tuple(Proposal._field_defaults.values())
#: the fields an ``_offer`` caller must give: all but the three ``_offer``
#: fills in itself and the defaulted ones
_OFFER_REQUIRED = len(Proposal._fields) - 3 - len(_PROPOSAL_DEFAULTS)


class StartOrder(NamedTuple):
    """Kernel-injected event that wakes an order agent."""

    order_id: str


class DirectoryService:
    """In-process capability registry (yellow pages)."""

    def __init__(self) -> None:
        self._by_capability: dict[str, set[str]] = {}
        #: capability -> its agents, sorted; filled by ``search``, dropped by ``register``
        self._sorted: dict[str, tuple[str, ...]] = {}

    def register(self, capability: str, agent_id: str) -> None:
        self._by_capability.setdefault(capability, set()).add(agent_id)
        self._sorted.pop(capability, None)

    def search(self, capability: str) -> tuple[str, ...]:
        found = self._sorted.get(capability)
        if found is None:
            found = tuple(sorted(self._by_capability.get(capability, ())))
            self._sorted[capability] = found
        return found


# ---------------------------------------------------------------------------
# shared helpers


def _failure(sender: str, receiver: str, conv: str, proposal_id: str, reason: str) -> Message:
    return Message(sender, receiver, conv, (InformFailure(proposal_id, reason),))


def _slack_from(gap_end: Seconds, nominal_end: Seconds, cap: Optional[Seconds]) -> Slack:
    """Shift room for a slot ending at ``nominal_end`` in a gap ending at
    ``gap_end``, capped at ``cap`` (None: no cap); a gap reaching the scan
    horizon does not bound it."""
    limit = cap if gap_end >= HORIZON else gap_end if cap is None else min(gap_end, cap)
    return Slack.UNBOUNDED if limit is None else Slack(max(0, limit - nominal_end))


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
    releases them as the order decides. Engagement lives here too: while
    another order could still claim the resource, a CFP waits in
    ``_deferred`` and :meth:`_drain` answers it once a reject or a departure
    resolves the engagement. That is the one rule that keeps other orders off
    a machine holding a workpiece: the calendar reads its open tail as ending
    at the operation end. A kind supplies only how it places proposals
    (``_propose``) and lays out an accepted booking (``_booking``), and where
    it needs one ``_commit``.

    The calendar prices every changeover: a kind hands its
    ``changeover(from_state, to_state)`` to its ``ResourceSchedule``, and
    the placement walk, a booking's own setup and the setup a booking
    imposes on the one after it all read that one rule there.

    A CFP is answered from one gap table (:meth:`_table`). While no other
    conversation holds an offer, that is the table the calendar keeps until
    its next edit (``ResourceSchedule.gap_table``): on a floor of many
    interchangeable machines most of them receive CFP after CFP with nothing
    booked in between.
    """

    kind: str  # PRODUCTION | BUFFER | TRANSPORT
    #: a booking keeps its workpiece here until the order negotiates the
    #: departure, so another order's live offer engages the resource too
    _keeps_workpiece = False
    #: S, the largest setup (plus unload prefix) a gap's predecessor or
    #: successor can impose on this resource; set by each kind
    _setup_bound: Seconds = 0

    def __init__(self, agent_id: str, initial: Any = "", changeover=no_changeover) -> None:
        self.agent_id = agent_id
        # positional: every agent builds one, and keywords cost more
        self.schedule = ResourceSchedule([], initial, changeover)
        self.holds = HoldBook()
        self._seq = 0
        self._deferred: list[Message] = []

    def _book_fixed(self, *blocks: tuple[FixedBlock, str, str, Any]) -> None:
        """Book a scenario's fixed blocks, each ``(block, label, segment kind,
        start state)``, before any negotiation: in start order, so each lands
        with no booking after it, whatever order the scenario lists them in."""
        for block, label, kind, start_state in sorted(blocks, key=lambda b: b[0].start):
            self.schedule.insert_booking(
                BookingEntry(
                    block.order_id, label, [(kind, TimeInterval(block.start, block.end))],
                    end_state=block.state, start_state=start_state,
                )
            )

    def handle(self, event, ctx) -> list[Message]:
        if not isinstance(event, Message):
            return []
        parts = event.parts
        kind = type(parts[0])  # an envelope carries one payload kind
        if kind is RejectProposal:
            release = self.holds.release
            for part in parts:
                release(part.proposal_id)
            return self._drain(ctx)
        out: list[Message] = []
        if kind is Cfp:
            for part in parts:
                out.extend(self._on_cfp(event, part, ctx))
        elif kind is AcceptProposal:
            accept_failed = False
            for part in parts:
                if accept_failed:
                    # accepts after a failed one in the envelope are refused;
                    # those booked before it stay booked
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
                accept_failed = bool(failures)
                out.extend(failures)
        else:
            for part in parts:
                out.extend(self._on_other(part, ctx))
        return out

    def _on_other(self, part, ctx) -> list[Message]:
        if isinstance(part, InformDeparture):
            return self._on_departure(part, ctx)
        log.warning("%s: unexpected %s", self.agent_id, type(part).__name__)
        return []

    # -- engagement -------------------------------------------------------

    def _engaged_elsewhere(self, order_id: str) -> bool:
        """True while another order could still claim this resource: its booked
        workpiece waits here for its departure or, where a booking keeps its
        workpiece, its live offer may yet become such a booking."""
        if self.schedule.has_open_tail and self.schedule.open_tail_for(order_id) is None:
            return True
        holds = self.holds
        if not (self._keeps_workpiece and holds):
            return False
        return any(parse_conversation(h.conversation_id)[0] != order_id for h in holds.values())

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
        """Re-run the queued CFPs in arrival order after a reject (:meth:`handle`)
        or a departure, not when a hold expires; once one of them holds offers,
        the later ones from other orders queue again behind it."""
        if not self._deferred or self.schedule.has_open_tail:
            return []
        pending, self._deferred = self._deferred, []
        out: list[Message] = []
        for queued in pending:  # only CFP envelopes are queued
            for part in queued.parts:
                out.extend(self._on_cfp(queued, part, ctx))
        return out

    # -- offers -----------------------------------------------------------

    def _on_cfp(self, msg: Message, cfp: Cfp, ctx) -> list[Message]:
        now = ctx.now()
        if cfp.deadline and cfp.deadline <= now:
            return []  # answered too late to matter (e.g. drained after blocking)
        holds = self.holds
        if holds:
            holds.purge(now)  # the one purge per CFP: the rest reads live holds only
        order_id = cfp.workpiece.order_id
        if (holds or self.schedule.has_open_tail) and self._engaged_elsewhere(order_id):
            # queue: _drain answers it after the next reject or departure
            self._deferred.append(msg)
            return []
        conv = msg.conversation_id
        _order, stage = parse_conversation(conv)
        proposals = self._propose(msg, cfp, (stage or 0) + 1, now + ctx.hold_deadline)
        if not proposals:
            return []  # absence is refusal; the order's deadline handles it
        return [Message(self.agent_id, msg.sender, conv, tuple(proposals))]

    def _propose(self, msg: Message, cfp: Cfp, step: int, until: Seconds) -> list[Proposal]:
        """Proposals for one CFP of the 1-based plan step ``step``, each held
        by ``_offer`` until ``until``."""
        raise NotImplementedError

    def _table(self, conv: str, base: Seconds) -> list[GapRow]:
        """The CFP's gap table, other conversations' holds counted busy.

        This conversation's holds are ignored, so the offers made for one CFP
        never block each other and the table holds for the whole CFP.
        ``base`` is the earliest start of any slot the CFP asks for; the
        intervals :meth:`_usable` would skip for it are not even looked up,
        and a kept table's extra rows are among those it drops. Machines,
        cranes and buffers all read the rows; a buffer only their ``start``
        and ``end``. An open tail ends at its operation end: only its own
        order gets this far (:meth:`_engaged_elsewhere`).
        """
        busy = self.holds.active_spans(exclude_conversation=conv) if self.holds else ()
        return self.schedule.gap_table(base - self._setup_bound - 1, busy)

    def _usable(self, table: list[GapRow], base: Seconds) -> int:
        """The index of the first row of ``table`` that may host a slot
        starting no earlier than ``base``; every later row may too.

        This is one bisect into the sorted interval ends.

        In an interval with ``iv.end + S < base`` the predecessor's setup
        (at most S) ends before ``base``, so the slot starts at exactly
        ``base``; the gap ends at most the successor's old setup (at most S)
        after the interval, so the slot overruns it. A latest-start or
        latest-finish break such a slot would trigger fires on the first
        interval kept as well, so dropping these intervals changes no offer.
        """
        return bisect.bisect_left(table, base - self._setup_bound, key=_iv_end)

    def _fits(
        self, table: list[GapRow], need: Any, end_state: Any, earliest: Seconds, dur: Seconds,
        windows: StageWindows, limit: int, handling: Seconds = 0, tail: Seconds = 0,
    ) -> list[tuple[Seconds, Seconds, Seconds, Seconds, Slack]]:
        """The first ``limit`` slots of ``dur`` the gaps of ``table`` hold,
        earliest gap first, for a booking that starts in state ``need`` and
        ends in ``end_state``.

        A row's gap is its free interval as such a booking sees it: with a
        successor whose start state is known, it ends where the successor's
        setup, ``changeover(end_state, start state)``, has to begin, and
        ``ti_next`` is the signed change of that setup. Empty gaps are
        skipped. A slot starts no earlier than ``earliest`` and than the
        gap's start plus ``changeover(from_state, need)`` (nothing when
        ``need`` is None) and ``handling``; ``tail`` more must fit behind it.
        The walk stops at the first slot that would start after the latest
        start or end after the latest finish, since every later gap's slot
        would too. Each slot is ``(start, end, setup, ti_next,
        slack_after)``, the slack capped by the windows and by the gap unless
        the gap reaches the scan horizon.
        """
        ls, lf = windows.ls, windows.lf
        changeover = self.schedule.changeover
        # the windows' cap on the slack, the same for every gap
        cap = ls + dur + tail if ls is not None else None
        if lf is not None and (cap is None or lf + tail < cap):
            cap = lf + tail
        slots: list[tuple[Seconds, Seconds, Seconds, Seconds, Slack]] = []
        for i in range(self._usable(table, earliest), len(table)):
            gap_start, gap_end, from_state, succ, core_start, old_setup = table[i]
            ti_next = 0
            if succ is not None and succ.start_state is not None:
                new_setup = changeover(end_state, succ.start_state)
                ti_next = new_setup - old_setup
                gap_end = core_start - new_setup
            if gap_end <= gap_start:
                continue
            setup = 0 if need is None else changeover(from_state, need)
            start = gap_start + setup + handling
            if start < earliest:
                start = earliest
            if ls is not None and start > ls:
                break
            end = start + dur
            if lf is not None and end > lf:
                break
            if end + tail > gap_end:
                continue
            slots.append((start, end, setup, ti_next, _slack_from(gap_end, end + tail, cap)))
            if len(slots) == limit:
                break
        return slots

    def _offer(
        self, until: Seconds, conv: str, step_label: str, span: TimeInterval, end_state,
        fields: tuple,
    ) -> Proposal:
        """Number a proposal and hold ``span`` for it until ``until``, the hold deadline.

        ``fields`` are the proposal's fields after ``resource_id``, as one
        tuple in ``Proposal._fields`` order: location, slot, slack_after,
        op_duration, load_time, unload_time, price, then optionally
        alternative, realizes, via and required_operation. Every offer takes
        this path, so the Proposal, with the defaults of the fields not
        given, and its hold are each built as one tuple and check nothing,
        as their constructors would not either.
        """
        self._seq += 1
        pid = f"{self.agent_id}#p{self._seq}"
        new = tuple.__new__
        defaults = _PROPOSAL_DEFAULTS[len(fields) - _OFFER_REQUIRED:]
        proposal = new(Proposal, (pid, self.kind, self.agent_id) + fields + defaults)
        self.holds.add(new(OfferHold, (pid, span, conv, until, proposal, step_label, end_state)))
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
        self.schedule.insert_booking(entry)
        ctx.record_commit(self.agent_id, entry)


# ---------------------------------------------------------------------------
# production resource agent


class ProductionAgent(_ResourceAgent):
    """Owns one machine calendar; places operation slots and books them with an open tail."""

    kind = PRODUCTION
    _keeps_workpiece = True

    def __init__(self, spec: MachineSpec, unload_estimate: Seconds = 0, load_estimate: Seconds = 0):
        # the spec's lookup, not a method of the agent: the calendar holding it
        # makes no reference cycle back to the agent
        super().__init__(spec.id, spec.initial_state, spec.changeover)
        self.location = spec.location
        self.op_duration = spec.op_duration
        self.setup = spec.setup
        self.unload_estimate = unload_estimate
        self.load_estimate = load_estimate
        if spec.initial_bookings or spec.maintenance:
            # a maintenance window demands its state just like a job does, so
            # finishing in the wrong state in front of one costs a changeover too
            self._book_fixed(
                *((b, "init", "operation", b.state) for b in spec.initial_bookings),
                *((w, "maintenance", "maintenance", w.state) for w in spec.maintenance),
            )

    @functools.cached_property
    def _setup_bound(self) -> Seconds:
        # worked out at the first CFP, not for every machine a run builds
        setups = [d for row in self.setup.values() for d in row.values()]
        return max(setups, default=0) + self.unload_estimate

    def _propose(self, msg: Message, cfp: Cfp, step: int, until: Seconds) -> list[Proposal]:
        order_id = cfp.workpiece.order_id
        product = cfp.workpiece.product
        op_dur = self.op_duration.get(product)
        if op_dur is None:
            return []
        tail = self.schedule.open_tail_for(order_id)
        unload = 0 if cfp.workpiece.location is None or tail is not None else self.unload_estimate
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
        # every alternative reads the same table: the new end state is the product
        table = self._table(conv, min(earliest))
        if tail is not None:
            # the workpiece sits on this machine and can only wait in place:
            # any slot beyond the next booking is unreachable
            table = [row for row in table if row.start == tail.operation_end]
        label = str(step)
        proposals: list[Proposal] = []
        for alt_idx, (alt, es) in enumerate(zip(cfp.alternatives, earliest)):
            for op_start, op_end, setup, ti_next, slack_after in self._fits(
                table, product, product, es, op_dur, alt.windows, MAX_SLOTS_PER_CFP,
                unload, load_est,
            ):
                proposals.append(
                    self._offer(
                        until, conv, label,
                        TimeInterval(op_start - setup - unload, op_end + load_est), product,
                        (self.location, TimeInterval(op_start, op_end), slack_after, op_dur,
                         load_est, unload, proposal_price(op_dur, setup, ti_next), alt_idx),
                    )
                )
        return proposals

    def _booking(self, hold: OfferHold, acc: AcceptProposal, order_id: str) -> BookingEntry:
        p = hold.proposal
        booked = acc.booked_slot
        _check_booked(p, booked, "operation")
        unload = acc.actual_unload_time if p.unload_time else 0
        # a piece staying here departed first (see OrderAgent.decide)
        product = hold.end_state
        setup = self.schedule.setup_before(booked.start, product)
        laid = segments(
            booked.start - unload - setup,
            ("setup", setup), ("unload", unload), ("operation", booked.duration),
        )
        return BookingEntry(
            order_id, hold.step_label, laid, open_tail=True, end_state=product,
            start_state=product,
        )


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

    def _propose(self, msg: Message, cfp: Cfp, step: int, until: Seconds) -> list[Proposal]:
        conv = msg.conversation_id
        u_est, l_est = self.unload_estimate, self.load_estimate
        if not cfp.alternatives:
            return []
        # a stay imposes no setup: the rows are read as plain free intervals
        free = self._table(conv, min(alt.windows.es for alt in cfp.alternatives))
        label = f"B{step}"
        proposals: list[Proposal] = []
        for alt_idx, alt in enumerate(cfp.alternatives):
            w = alt.windows
            for iv in free[self._usable(free, w.es):]:
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
                        until, conv, label, TimeInterval(max(0, start - u_est), end + l_est), "",
                        (self.location, TimeInterval(start, end), slack_after, end - start,
                         l_est, u_est, 0, alt_idx, alt.realizes),
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
        laid = segments(
            resident.start - u, ("unload", u), ("buffer-hold", resident.duration), ("load", l)
        )
        if not laid:
            raise _Refusal("empty buffering interval")
        return BookingEntry(order_id, hold.step_label, laid)


# ---------------------------------------------------------------------------
# transport agent


class TransportAgent(_ResourceAgent):
    """One crane/vehicle on a 1-D segment; prices setup travel explicitly."""

    kind = TRANSPORT

    def __init__(self, spec: TransportSpec):
        geom = spec.geometry()
        # a changeover is empty travel from a drop-off x to a pickup x, always
        # inside the crane's own segment
        super().__init__(spec.id, spec.initial_x, geom.travel_seconds)
        self.geometry = geom
        self._committed_pids: set[str] = set()
        self._setup_bound = geom.travel_seconds(geom.x_min, geom.x_max)
        if spec.initial_bookings:  # a fixed movement's pickup is not known
            self._book_fixed(*((b, "init", "operation", None) for b in spec.initial_bookings))

    def _propose(self, msg: Message, cfp: Cfp, step: int, until: Seconds) -> list[Proposal]:
        """One proposal per leg this crane covers, plus the chained variants.

        A plain placement reads only the CFP's gap table and the leg's
        from-location, drop-off x and windows (duration, approach, successor
        setup and bounds), so legs equal in these share one ``_fits`` walk.
        Each leg still gets its own offer: its own id, hold and ``realizes``
        and ``via`` echo. A chained variant reads its partner too: not shared.
        """
        geom = self.geometry
        x_min, x_max = geom.x_min, geom.x_max
        handling, travel = geom.load_time + geom.unload_time, geom.travel_seconds
        conv = msg.conversation_id
        # a leg that some other leg departs via what it realizes heads into a buffer
        buffered = {leg.via for leg in cfp.legs if leg.via is not None}
        from_buffer, to_buffer, direct = (
            f"T:B{step},{step}", f"T:{step - 1},B{step}", f"T:{step - 1},{step}"
        )
        legs: list[tuple[TransportLeg, str, tuple]] = []
        #: placement key -> the first leg with it and its duration
        distinct: dict[tuple, tuple[TransportLeg, Seconds]] = {}
        for leg in cfp.legs:
            frm, tx = leg.from_location, leg.to_location[0]
            if not (x_min <= frm[0] <= x_max and x_min <= tx <= x_max):
                continue  # the one check that the crane's segment covers the leg
            if leg.via is not None:
                label = from_buffer
            elif leg.realizes in buffered:
                label = to_buffer
            else:
                label = direct
            key = (frm, tx, leg.windows)
            if key not in distinct:
                distinct[key] = leg, handling + travel(frm[0], tx)
            legs.append((leg, label, key))
        if not legs:
            return []  # outside this crane's segment: silent, no calendar walk
        # a chained variant starts after its partner, which is placed no
        # earlier than its own leg's base; the table does not depend on where
        # a leg drops off, so every leg and chained variant reads it
        table = self._table(
            conv, min(max(leg.windows.es, leg.windows.ef - dur) for leg, dur in distinct.values())
        )
        placed = {key: self._place_leg(leg, dur, table) for key, (leg, dur) in distinct.items()}
        proposals: list[Proposal] = []
        #: the proposal a leg realizes -> the leg's plain offer and drop-off x
        offered: dict[str, tuple[Proposal, float]] = {}
        for leg, label, key in legs:
            fx, tx = leg.from_location[0], leg.to_location[0]
            echo = 0, leg.realizes, leg.via  # alternative, realizes, via: the leg's own
            plain = placed[key]
            if plain is not None:
                made = self._offer(until, conv, label, plain[0], tx, plain[1] + echo)
                proposals.append(made)
                offered[leg.realizes] = made, tx
            # chained variant: departing right where the leg into its buffer drops off
            partner, drop_x = offered.get(leg.via, (None, None))
            if partner is None or abs(drop_x - fx) >= 1e-9:
                continue
            chained = self._place_leg(leg, distinct[key][1], table, after=partner)
            # one equal to the plain placement is not offered: no hold, no id
            if chained is not None and (
                plain is None or _slot_and_price(chained[1]) != _slot_and_price(plain[1])
            ):
                fields = chained[1] + echo + (partner.proposal_id,)
                proposals.append(self._offer(until, conv, label, chained[0], tx, fields))
        return proposals

    def _place_leg(
        self,
        leg: TransportLeg,
        dur: Seconds,
        table: list[GapRow],
        after: Optional[Proposal] = None,
    ) -> Optional[tuple[TimeInterval, tuple]]:
        """Where ``leg`` fits first: the span to hold and the proposal's fields
        from location to price, in the order ``_offer`` takes them.

        ``after`` places the chained variant, which loads where and when the
        partner proposal ``after`` unloads. None when the leg fits nowhere.
        Nothing is held here; ``_propose`` decides what becomes an offer.
        """
        geom = self.geometry
        w = leg.windows
        earliest = max(w.es, w.ef - dur)
        pickup: Optional[float] = leg.from_location[0]  # the approach ends here
        if after is not None:
            # a chained leg loads where and when the partner unloads, with no
            # approach; a gap that holds it and starts by the partner's start
            # holds the partner's slot too
            table = table[: bisect.bisect_right(table, after.slot.start, key=_iv_start)]
            earliest = max(earliest, after.slot.end)
            pickup = None
        slots = self._fits(table, pickup, leg.to_location[0], earliest, dur, w, 1)
        if not slots:
            return None
        load_start, end, setup, ti_next, slack_after = slots[0]
        return TimeInterval(load_start - setup, end), (
            leg.from_location, TimeInterval(load_start, end), slack_after, dur,
            geom.load_time, geom.unload_time, proposal_price(dur, setup, ti_next),
        )

    def _booking(self, hold: OfferHold, acc: AcceptProposal, order_id: str) -> BookingEntry:
        p = hold.proposal
        booked = acc.booked_slot
        _check_booked(p, booked, "transport")
        if p.required_operation is not None and p.required_operation not in self._committed_pids:
            raise _Refusal("required preceding movement was not committed")

        geom = self.geometry
        pickup_x, drop_x = p.location[0], hold.end_state
        setup = self.schedule.setup_before(booked.start, pickup_x)
        laid = segments(
            booked.start - setup, ("travel", setup), ("load", geom.load_time),
            ("travel", geom.travel_seconds(pickup_x, drop_x)), ("unload", geom.unload_time),
        )
        return BookingEntry(
            order_id, hold.step_label, laid, end_state=drop_x, start_state=pickup_x
        )

    def _commit(self, hold: OfferHold, entry: BookingEntry, ctx) -> None:
        super()._commit(hold, entry, ctx)
        self._committed_pids.add(hold.proposal_id)


# ---------------------------------------------------------------------------
# order agent


@dataclass
class StageCommit:
    resource_id: str
    location: tuple[float, float]
    op_slot: TimeInterval
    slack_after: Slack


def _leg(frm, to: Proposal, windows: StageWindows, via: Optional[str] = None) -> TransportLeg:
    """The movement from ``frm`` (a commit or a proposal) to the resource of
    ``to``, which it realizes."""
    return TransportLeg(frm.location, to.location, windows, to.proposal_id, via)


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
        if isinstance(event, Message) and self.status != "failed":
            part = event.parts[0]  # an envelope carries one payload kind
            # a done order too: its final stage's accepts went out as it finished
            if isinstance(part, InformFailure):
                _, failed_stage = parse_conversation(event.conversation_id)
                if failed_stage is not None and len(self.committed) > failed_stage:
                    # that stage's decision was recorded before the refusal
                    # came back; drop it (and anything chained on top) so
                    # the abort frees the machine actually holding the piece
                    del self.committed[failed_stage:]
                return self._abort(ctx, f"commit refused by {event.sender}: {part.reason}")
        if self.status in ("done", "failed"):
            return reject_unused(self.agent_id, event)
        if isinstance(event, (Message, DeadlineExpired)):
            return self._drive(event, ctx)
        if isinstance(event, StartOrder):
            self.status = "running"
            self.t_start = ctx.now()
            return self._start_stage(ctx)
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
        neg, self.neg = self.neg, None
        self.status = "failed"
        self.diagnostic = reason
        self.t_end = ctx.now()
        out: list[Message] = []
        if neg is not None and neg.phase not in (DONE, FAILED):  # a refused commit cut it short
            out = rejects(self.agent_id, neg.conversation, neg.all_proposals())
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
        parts = (
            Cfp(
                workpiece=WorkpieceInfo(self.agent_id, self.product, location),
                operation=capability,
                deadline=ctx.now() + ctx.cfp_deadline,
                **cfp_fields,
            ),
        )
        return Message.fanout(
            self.agent_id, ctx.directory.search(capability), neg.conversation, parts
        )

    def _depart(
        self, resource: str, conv: str, departure: Seconds, loading_time: Seconds = 0
    ) -> Message:
        """The InformDeparture that frees ``resource`` from this workpiece."""
        info = InformDeparture(self.agent_id, departure, loading_time)
        return Message(self.agent_id, resource, conv, (info,))

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
        f_prev, params = self._f_prev, self.params
        alternatives = []
        for p in neg.of_kind(PRODUCTION):
            if p.resource_id == prev.resource_id:
                continue  # stays on the machine, nothing to buffer
            if calculus.needs_buffering(f_prev, p.slot.start, params):
                # feasible: needs_buffering leaves EF - ES > t_buffer_min > 0
                windows = calculus.buffer_windows(f_prev, p, params)
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
        f_prev, st_prev, params = self._f_prev, self._st_prev, self.params
        legs: list[TransportLeg] = []
        buffers_by_realizes: dict[str, list[Proposal]] = {}
        for b in neg.of_kind(BUFFER):
            buffers_by_realizes.setdefault(b.realizes, []).append(b)
        for p in neg.of_kind(PRODUCTION):
            if p.resource_id == prev.resource_id:
                continue
            if p.proposal_id in self._buffered:
                for b in buffers_by_realizes.get(p.proposal_id, []):
                    try:
                        w_in = calculus.transport_to_buffer_windows(f_prev, st_prev, b, p, params)
                        w_out = calculus.transport_from_buffer_windows(f_prev, b, p, params)
                    except InfeasibleWindow:
                        continue
                    legs.append(_leg(prev, b, w_in))
                    legs.append(_leg(b, p, w_out, b.proposal_id))
            else:
                try:
                    w = calculus.transport_direct_windows(f_prev, st_prev, p, params)
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
            Message(self.agent_id, rid, conv, tuple(parts))
            for rid, parts in sorted(by_resource.items())
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
