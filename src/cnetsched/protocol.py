"""Extended contract-net vocabulary and the per-stage negotiation state machine.

Six payload kinds travel between agents: Cfp, Proposal, AcceptProposal,
RejectProposal, InformDeparture, InformFailure. An envelope (Message) carries
one or more payloads of one kind to one receiver; aggregation is what keeps
message growth linear in the number of contacted resources. Payloads and
envelopes are immutable tuple records (``typing.NamedTuple``): cheap to build
once per hop, and safe to hand from sender to receiver without a copy. A
record that checks nothing is built as one positional tuple where it is built
most (each resource's ``_offer``, :func:`rejects`); one that checks its fields
checks them at every construction, and :meth:`Message.fanout` checks a CFP
round's shared parts once for all its envelopes.

StageNegotiation is a deterministic state machine: feeding it the same event
sequence always yields the same transitions and the same outgoing envelopes.
The decision logic itself is supplied by a planner object, so the machine
stays independent of agent internals: the stage's CFP rounds as data (which
kind each awaits, which CFPs it sends), and what to select once they close.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional, Protocol, Sequence, Union

from .calculus import StageWindows
from .timebase import Seconds, Slack, TimeInterval

log = logging.getLogger(__name__)

PRODUCTION = "production"
BUFFER = "buffer"
TRANSPORT = "transport"
#: a stage's phase before its first round and after its last; while a round
#: is open, the phase is that round's kind
START = "start"
DONE = "done"
FAILED = "failed"


# ---------------------------------------------------------------------------
# payloads


class WorkpieceInfo(NamedTuple):
    """What the receiver needs to know about the workpiece being negotiated.

    ``location is None`` marks a workpiece entering the system from outside:
    the first operation then has no inbound handling.
    """

    order_id: str
    product: str
    location: Optional[tuple[float, float]] = None


class CfpAlternative(NamedTuple):
    """One requested window set; ``realizes`` ties buffer requests to the
    production proposal they would serve."""

    windows: StageWindows
    realizes: Optional[str] = None


class TransportLeg(NamedTuple):
    """One requested transport movement inside a transport CFP.

    ``realizes`` names the proposal whose arrival this leg enables (a buffer
    proposal for inbound legs, a production proposal otherwise); ``via`` names
    the buffer proposal the workpiece departs from, if any. A crane echoes
    both on its proposal. These two links are the whole chain: a CFP asks
    one inbound leg per buffer stay, so an outbound leg may directly follow,
    on the same crane and at a reduced price, the leg whose ``realizes`` is
    its ``via``. The crane prices each leg's empty travel by its calendar's
    changeover, like every other setup.
    """

    from_location: tuple[float, float]
    to_location: tuple[float, float]
    windows: StageWindows
    realizes: str
    via: Optional[str] = None


class Cfp(NamedTuple):
    kind: str  # PRODUCTION | BUFFER | TRANSPORT
    workpiece: WorkpieceInfo
    operation: str
    alternatives: tuple[CfpAlternative, ...] = ()
    legs: tuple[TransportLeg, ...] = ()
    deadline: Seconds = 0


class Proposal(NamedTuple):
    """One offered slot. ``realizes`` and ``via`` echo the CFP alternative or
    leg it answers: the proposal a buffer stay or a crane movement serves, and
    the buffer proposal a movement departs from. They are the only links
    between a stage's proposals, so a route exists only where the order's
    CFPs asked for one.

    A resource's ``_offer`` builds every offer positionally, as one tuple in
    ``_fields`` order with the trailing defaults from ``_field_defaults``.
    """

    proposal_id: str
    kind: str
    resource_id: str
    location: tuple[float, float]
    slot: TimeInterval
    slack_after: Slack
    op_duration: Seconds
    load_time: Seconds
    unload_time: Seconds
    price: int
    alternative: int = 0
    realizes: Optional[str] = None
    via: Optional[str] = None
    required_operation: Optional[str] = None


class AcceptProposal(NamedTuple):
    """Binding commitment to (a possibly shifted variant of) an offered slot.

    ``actual_unload_time``/``actual_load_time`` replace the estimates used at
    proposal time once the real transport choice is known.
    """

    proposal_id: str
    booked_slot: TimeInterval
    actual_unload_time: Seconds = 0
    actual_load_time: Seconds = 0


class RejectProposal(NamedTuple):
    proposal_id: str


class InformDeparture(NamedTuple):
    order_id: str
    departure: Seconds
    loading_time: Seconds


class InformFailure(NamedTuple):
    proposal_id: str
    reason: str


Payload = Union[Cfp, Proposal, AcceptProposal, RejectProposal, InformDeparture, InformFailure]


class _Message(NamedTuple):
    sender: str
    receiver: str
    conversation_id: str
    parts: tuple[Payload, ...]


class Message(_Message):
    """Envelope: one sender, one receiver, homogeneous payload parts.

    Several CFPs (or proposals, or rejects) to the same receiver ride in one
    envelope and count as one message.
    """

    __slots__ = ()

    def __new__(
        cls, sender: str, receiver: str, conversation_id: str, parts: tuple[Payload, ...]
    ) -> "Message":
        if not parts:
            raise ValueError("empty envelope")
        kind = type(parts[0])
        for p in parts:
            if type(p) is not kind:
                kinds = {type(q).__name__ for q in parts}
                raise ValueError(f"mixed payload kinds in one envelope: {kinds}")
        return tuple.__new__(cls, (sender, receiver, conversation_id, parts))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Message":
        return cls(*iterable)  # ``_replace`` builds through here too: checked

    @classmethod
    def fanout(
        cls, sender: str, receivers: Sequence[str], conversation_id: str,
        parts: tuple[Payload, ...],
    ) -> list["Message"]:
        """One envelope of the shared ``parts`` to each of ``receivers``.

        The first envelope is built through :meth:`__new__`, which checks
        ``parts``; the others carry the very same tuple, so they skip that
        check. No receiver, no envelope.
        """
        if not receivers:
            return []
        first = cls(sender, receivers[0], conversation_id, parts)
        new = tuple.__new__
        return [first] + [new(cls, (sender, r, conversation_id, parts)) for r in receivers[1:]]

    @property
    def variant(self) -> str:
        return type(self.parts[0]).__name__


def conversation_id(order_id: str, stage_index: int) -> str:
    return f"{order_id}/s{stage_index}"


def parse_conversation(conv: str) -> tuple[str, Optional[int]]:
    """(order_id, stage index) from a conversation id; stage None if malformed."""
    head, sep, tail = conv.rpartition("/s")
    if sep and tail.isdigit():
        return head, int(tail)
    return conv, None


# ---------------------------------------------------------------------------
# offer holds


class OfferHold(NamedTuple):
    """A timeslot promised to one order and therefore withheld from others.

    The hold also keeps what the resource needs to book the offer on accept:
    the proposal, the step label of the booking, and the state the booking
    leaves the resource in (a machine's product, a crane's drop-off x). A
    hold is never changed once made; a resource's ``_offer`` builds it as
    one positional tuple.
    """

    proposal_id: str
    span: TimeInterval
    conversation_id: str
    deadline: Seconds
    proposal: Optional[Proposal] = None
    step_label: str = ""
    end_state: Union[str, float] = ""


class HoldBook(dict):
    """Per-resource registry of outstanding offer holds, keyed by proposal id.

    A plain dict underneath: its size, truth test, ``in`` and ``pop`` are the
    dict's own, ``in`` and iteration read proposal ids, and the holds are its
    ``values()``, in the order they were added.
    """

    __slots__ = ()

    def add(self, hold: OfferHold) -> None:
        self[hold.proposal_id] = hold

    def release(self, proposal_id: str) -> Optional[OfferHold]:
        return self.pop(proposal_id, None)

    def take(self, proposal_id: str, now: Seconds) -> Optional[OfferHold]:
        """Pop the hold if it exists and has not expired; expired holds vanish."""
        self.purge(now)
        return self.pop(proposal_id, None)

    def purge(self, now: Seconds) -> None:
        dead = [pid for pid, h in self.items() if h.deadline < now]
        for pid in dead:
            del self[pid]

    def active_spans(self, exclude_conversation: Optional[str] = None) -> list[TimeInterval]:
        """Spans other negotiations must treat as busy; expired holds count until purged.

        Holds of the same conversation are excluded: alternatives offered to
        one order may overlap each other, the indecision problem is about two
        *different* orders claiming one slot.
        """
        return [h.span for h in self.values() if h.conversation_id != exclude_conversation]


# ---------------------------------------------------------------------------
# message accounting


class MessageCounter:
    """Append-only envelope counts keyed by (conversation, variant).

    The kernel bumps ``counts`` for every envelope it posts. Conversation ids
    are parsed into their order only when the counts are read per order.
    """

    def __init__(self) -> None:
        self.counts: dict[tuple[str, str], int] = {}

    def total(self) -> int:
        return sum(self.counts.values())

    def per_order(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (conv, _variant), n in self.counts.items():
            order_id = parse_conversation(conv)[0]
            out[order_id] = out.get(order_id, 0) + n
        return out

    def per_variant(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (_conv, variant), n in self.counts.items():
            out[variant] = out.get(variant, 0) + n
        return out


# ---------------------------------------------------------------------------
# stage negotiation state machine


#: the order a closed round's proposals are used in: by resource, then by offer
_RANK = attrgetter("resource_id", "slot", "price", "alternative", "proposal_id")


@dataclass(frozen=True)
class StartStage:
    pass


class DeadlineExpired(NamedTuple):
    token: int


StageEvent = Union[StartStage, DeadlineExpired, Message]


@dataclass
class StageFailure:
    reason: str


class StagePlanner(Protocol):
    """Decision logic a StageNegotiation delegates to (implemented by the order agent).

    ``rounds`` lists a stage's CFP rounds in the order they open, as
    ``(kind, plan)`` pairs. ``plan(neg, ctx)`` returns the round's CFP
    envelopes; the round awaits their receivers and takes proposals of its
    kind only, and an empty list skips it. ``decide`` returns the stage's
    commit envelopes in the order they are sent, or a StageFailure.
    """

    rounds: tuple[tuple[str, Callable[["StageNegotiation", Any], list[Message]]], ...]

    def decide(self, neg: "StageNegotiation", ctx) -> Union[list[Message], StageFailure]: ...


@dataclass
class StageNegotiation:
    """State of one stage-i negotiation run by one order agent.

    ``phase`` is START, the kind of the open round, DONE or FAILED;
    ``proposals`` holds one list per opened round, in round order.
    ``conversation`` is the stage's conversation id, set at construction.
    """

    order_id: str
    stage_index: int
    conversation: str = field(init=False)
    phase: str = START
    awaiting: set[str] = field(default_factory=set)
    proposals: list[list[Proposal]] = field(default_factory=list)
    deadline_token: Optional[int] = None
    failure_reason: Optional[str] = None
    #: index into the planner's ``rounds`` of the next round to try
    next_round: int = 0

    def __post_init__(self) -> None:
        self.conversation = conversation_id(self.order_id, self.stage_index)

    def all_proposals(self) -> list[Proposal]:
        return [p for round_ in self.proposals for p in round_]

    def of_kind(self, kind: str) -> list[Proposal]:
        """The proposals of ``kind``; a round takes one kind only (:func:`advance_stage`)."""
        return [p for round_ in self.proposals if round_ and round_[0].kind == kind for p in round_]


#: the phases in which no round is open to take proposals
_NO_ROUND = (START, DONE, FAILED)


def advance_stage(
    neg: StageNegotiation, event: StageEvent, planner: StagePlanner, ctx
) -> list[Message]:
    """Feed one event into the stage machine; returns the envelopes to send.

    ``ctx`` must provide ``cfp_deadline`` and ``set_timer(delay) -> token``,
    which arm one round's deadline, plus whatever the planner needs; it is
    passed on to the planner unchanged. Out-of-phase or unknown events are
    dropped with a log line, never an exception: DEBUG for a proposal that
    missed its round, WARNING for a protocol violation; proposals among them
    are rejected (:func:`reject_unused`).

    The common event is tested first: a proposal envelope of the open
    round's conversation and kind.
    """
    phase = neg.phase
    if isinstance(event, Message):
        parts = event.parts
        if event.conversation_id == neg.conversation and phase not in _NO_ROUND:
            for part in parts:  # an envelope carries one payload kind
                if not isinstance(part, Proposal) or part.kind != phase:
                    break
            else:
                neg.proposals[-1].extend(parts)
                neg.awaiting.discard(event.sender)
                if neg.awaiting:
                    return []
                return _advance_round(neg, planner, ctx)
        _log_unused(neg, event)
        return reject_unused(neg.order_id, event)

    if phase in (DONE, FAILED):
        return []

    if isinstance(event, DeadlineExpired):
        if event.token != neg.deadline_token:
            return []  # stale timer from an already-closed round
        neg.awaiting.clear()
        return _advance_round(neg, planner, ctx)

    if isinstance(event, StartStage):
        if phase != START:
            log.warning("protocol violation: StartStage in phase %s", phase)
            return []
        return _advance_round(neg, planner, ctx)

    log.warning("protocol violation: unknown event %r", event)
    return []


def _log_unused(neg: StageNegotiation, msg: Message) -> None:
    """Log why the open round does not take ``msg``; a closed stage logs nothing.

    A proposal that misses its round's deadline is a legal outcome of the
    deadline-driven protocol, not a violation: it lands on a later
    conversation or during a later round.
    """
    phase = neg.phase
    if phase in (DONE, FAILED):
        return
    if msg.conversation_id != neg.conversation:
        log.debug(
            "late reply: stray conversation %s in %s", msg.conversation_id, neg.conversation
        )
    elif phase == START:
        log.warning(
            "protocol violation: %s from %s arrived in phase %s", msg.variant, msg.sender, phase
        )
    elif not isinstance(msg.parts[0], Proposal):
        log.warning("protocol violation: %s inside a proposal round", msg.variant)
    else:
        kind = next(p.kind for p in msg.parts if p.kind != phase)
        log.debug("late reply: %s proposal during %s round", kind, phase)


def reject_unused(order_id: str, event) -> list[Message]:
    """A RejectProposal to the sender for every proposal in ``event``.

    An order answers each proposal it will not use (late, stray or out of
    phase) this way, so the sender frees the held span at once instead of
    withholding it from other orders until the hold deadline.
    """
    if not isinstance(event, Message):
        return []
    parts = tuple(RejectProposal(p.proposal_id) for p in event.parts if isinstance(p, Proposal))
    if not parts:
        return []
    return [
        Message(
            sender=order_id,
            receiver=event.sender,
            conversation_id=event.conversation_id,
            parts=parts,
        )
    ]


def rejects(order_id: str, conv: str, proposals: Iterable[Proposal]) -> list[Message]:
    """One RejectProposal envelope per resource, in resource order.

    A RejectProposal checks nothing, so each is built as its one-field tuple.
    """
    by_resource: dict[str, list[RejectProposal]] = {}
    new = tuple.__new__
    for p in proposals:
        by_resource.setdefault(p.resource_id, []).append(new(RejectProposal, (p.proposal_id,)))
    return [
        Message(order_id, rid, conv, tuple(parts)) for rid, parts in sorted(by_resource.items())
    ]


def _advance_round(neg: StageNegotiation, planner: StagePlanner, ctx) -> list[Message]:
    """Close the open round; open the next one the planner sends CFPs for, or decide.

    The closed round's proposals are ranked by resource first, so the order
    they arrived in changes neither the next round's CFPs nor the decision.
    A stage cannot skip its production round: it fails when that round has
    no receiver or receives no proposal.
    """
    if neg.phase != START:
        neg.deadline_token = None
        neg.proposals[-1].sort(key=_RANK)
        if neg.phase == PRODUCTION and not neg.proposals[-1]:
            return _fail(neg, "no production proposals received")
    for kind, plan in planner.rounds[neg.next_round:]:
        neg.next_round += 1
        msgs = plan(neg, ctx)
        if msgs:  # open the round: await its receivers under one armed deadline
            neg.phase = kind
            neg.proposals.append([])
            neg.awaiting = {m.receiver for m in msgs}
            neg.deadline_token = ctx.set_timer(ctx.cfp_deadline)
            return msgs
        if kind == PRODUCTION:
            return _fail(neg, "no capable production resource registered")
    decision = planner.decide(neg, ctx)
    if isinstance(decision, StageFailure):
        return _fail(neg, decision.reason)
    neg.phase = DONE
    return decision


def _fail(neg: StageNegotiation, reason: str) -> list[Message]:
    """On failure no partial bookings may remain: reject every held offer."""
    neg.failure_reason = reason
    neg.phase = FAILED
    return rejects(neg.order_id, neg.conversation, neg.all_proposals())
