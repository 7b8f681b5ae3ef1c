import pytest

from cnetsched.agents import StartOrder
from cnetsched.calculus import InfeasibleWindow, SlotCommitment, StageWindows
from cnetsched.protocol import (
    BUFFER,
    DONE,
    FAILED,
    PRODUCTION,
    START,
    TRANSPORT,
    AcceptProposal,
    Cfp,
    CfpAlternative,
    DeadlineExpired,
    HoldBook,
    InformDeparture,
    InformFailure,
    Message,
    MessageCounter,
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
)
from cnetsched.selector import RouteCandidate
from cnetsched.timebase import Slack, TimeInterval


def mk_proposal(pid, resource, kind=PRODUCTION, start=100, dur=60):
    return Proposal(
        proposal_id=pid,
        kind=kind,
        resource_id=resource,
        location=(0.0, 0.0),
        slot=TimeInterval(start, start + dur),
        slack_after=Slack.UNBOUNDED,
        op_duration=dur,
        load_time=10,
        unload_time=10,
        price=dur,
    )


def mk_cfp(kind=PRODUCTION):
    return Cfp(
        kind=kind,
        workpiece=WorkpieceInfo(order_id="o1", product="A"),
        operation="cutting",
        deadline=60,
    )


def proposal_msg(resource, conv, *proposals):
    return Message(
        sender=resource, receiver="o1", conversation_id=conv, parts=tuple(proposals)
    )


class FakeCtx:
    cfp_deadline = 60

    def __init__(self):
        self._tokens = 0
        self.timers = []

    def set_timer(self, delay):
        self._tokens += 1
        self.timers.append((self._tokens, delay))
        return self._tokens


def call(kind, *receivers):
    """A round plan that sends one CFP of ``kind`` to each of ``receivers``."""

    def plan(neg, ctx):
        return [Message(neg.order_id, r, neg.conversation, (mk_cfp(kind),)) for r in receivers]

    return plan


class ScriptPlanner:
    """Planner with scripted rounds, by default one production round to the
    responders. The default decision accepts the first proposal and rejects
    everything else; ``seen`` keeps the proposal ids it was given, per round."""

    def __init__(self, responders=("M1", "M2"), fail=False, rounds=None):
        self.rounds = rounds or ((PRODUCTION, call(PRODUCTION, *responders)),)
        self.fail = fail
        self.seen = None

    def decide(self, neg, ctx):
        self.seen = [[p.proposal_id for p in round_] for round_ in neg.proposals]
        if self.fail:
            return StageFailure("scripted failure")
        props = neg.all_proposals()
        winner, losers = props[0], props[1:]
        accepts = [
            Message(
                neg.order_id,
                winner.resource_id,
                neg.conversation,
                (AcceptProposal(winner.proposal_id, winner.slot),),
            )
        ]
        by_resource = {}
        for p in losers:
            by_resource.setdefault(p.resource_id, []).append(
                RejectProposal(p.proposal_id)
            )
        rejects = [
            Message(neg.order_id, rid, neg.conversation, tuple(parts))
            for rid, parts in sorted(by_resource.items())
        ]
        return accepts + rejects


# ---------------------------------------------------------------------------
# envelopes and ids


def test_envelope_rejects_empty_and_mixed_parts():
    with pytest.raises(ValueError):
        Message("a", "b", "o1/s0", ())
    with pytest.raises(ValueError):
        Message(
            "a", "b", "o1/s0", (RejectProposal("p"), AcceptProposal("q", TimeInterval(0, 1)))
        )
    m = Message("a", "b", "o1/s0", (RejectProposal("p"), RejectProposal("q")))
    assert m.variant == "RejectProposal"
    # _make and _replace build without __new__ unless overridden: they check too
    with pytest.raises(ValueError):
        Message._make(("a", "b", "o1/s0", ()))
    with pytest.raises(ValueError):
        m._replace(parts=())
    with pytest.raises(ValueError, match="mixed payload kinds"):
        m._replace(parts=(RejectProposal("p"), InformFailure("q", "gone")))
    assert m._replace(receiver="c").receiver == "c"


def test_message_parts_share_one_type_not_one_shape():
    # a RejectProposal and a DeadlineExpired are both 1-tuples; kinds go by type
    with pytest.raises(ValueError):
        Message("a", "b", "o1/s0", (RejectProposal("p"), DeadlineExpired(1)))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: StageWindows(10, 10, ls=5), InfeasibleWindow),
        (lambda: StageWindows(10, 20, lf=15), InfeasibleWindow),
        (lambda: StageWindows._make((10, 10, 5, None)), InfeasibleWindow),
        (lambda: StageWindows(10, 20)._replace(lf=15), InfeasibleWindow),
        (lambda: SlotCommitment(10, 5), ValueError),
        (lambda: SlotCommitment._make((10, 5, Slack.UNBOUNDED)), ValueError),
        (lambda: SlotCommitment(0, 5)._replace(finish=-1), ValueError),
    ],
)
def test_windows_and_slots_check_every_way_they_are_built(build, error):
    with pytest.raises(error):
        build()


# one of each record a negotiation builds per message, proposal, leg or route
WINDOWS = StageWindows(0, 10, 20, 30)
RECORDS = [
    WorkpieceInfo("o1", "A"),
    CfpAlternative(WINDOWS),
    TransportLeg((0.0, 0.0), (5.0, 0.0), WINDOWS, "p1"),
    mk_cfp(),
    mk_proposal("p1", "M1"),
    AcceptProposal("p1", TimeInterval(0, 1)),
    RejectProposal("p1"),
    InformDeparture("o1", 10, 5),
    InformFailure("p1", "no slot"),
    Message("o1", "M1", "o1/s0", (RejectProposal("p1"),)),
    DeadlineExpired(3),
    StartOrder("o1"),
    WINDOWS,
    SlotCommitment(0, 10),
    RouteCandidate(kind="direct", legs=(mk_proposal("t1", "Crane1"),)),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_and_hash_as_their_fields(record):
    # the kernel hands the receiver the very Message its sender built, and an
    # agent keeps the records it receives: neither side may change the other's
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.note = "no instance dict either"
    assert hash(record) == hash(tuple(record))
    assert type(record)._make(record) == record


def test_conversation_id_round_trip():
    conv = conversation_id("order-7", 3)
    assert conv == "order-7/s3"
    assert parse_conversation(conv) == ("order-7", 3)
    assert parse_conversation("order/with/slashes/s12") == ("order/with/slashes", 12)
    assert parse_conversation("no-stage-here") == ("no-stage-here", None)
    assert parse_conversation("order/sX") == ("order/sX", None)


# ---------------------------------------------------------------------------
# offer holds


def test_holdbook_add_release_take():
    book = HoldBook()
    h = OfferHold("p1", TimeInterval(0, 50), "o1/s0", deadline=100)
    book.add(h)
    assert "p1" in book and len(book) == 1
    assert book.take("p1", now=50) is h
    assert "p1" not in book
    assert book.take("p1", now=50) is None


def test_holdbook_expiry():
    book = HoldBook()
    book.add(OfferHold("p1", TimeInterval(0, 50), "o1/s0", deadline=100))
    assert book.take("p1", now=101) is None  # expired before being taken
    book.add(OfferHold("p2", TimeInterval(0, 50), "o1/s0", deadline=100))
    assert book.take("p2", now=100) is not None  # deadline itself still honors


def test_holdbook_active_spans_ignore_same_conversation():
    book = HoldBook()
    book.add(OfferHold("p1", TimeInterval(0, 50), "o1/s0", deadline=100))
    book.add(OfferHold("p2", TimeInterval(40, 90), "o1/s0", deadline=100))
    book.add(OfferHold("p3", TimeInterval(200, 250), "o2/s1", deadline=100))
    spans = book.active_spans(exclude_conversation="o1/s0")
    assert spans == [TimeInterval(200, 250)]
    assert len(book.active_spans()) == 3
    book.purge(150)
    assert book.active_spans() == []  # all expired


# ---------------------------------------------------------------------------
# message accounting


def test_message_counter_views():
    c = MessageCounter()
    c.count(Message("o1", "M1", "o1/s0", (mk_cfp(),)))
    c.count(Message("o1", "M2", "o1/s0", (mk_cfp(),)))
    c.count(proposal_msg("M1", "o1/s0", mk_proposal("M1#1", "M1")))
    c.count(Message("o2", "M1", "o2/s1", (mk_cfp(),)))
    assert c.total() == 4
    assert c.per_order() == {"o1": 3, "o2": 1}
    assert c.per_variant() == {"Cfp": 3, "Proposal": 1}


# ---------------------------------------------------------------------------
# stage machine: happy path, deadlines, failure


def test_stage_happy_path_and_phase_history():
    neg = StageNegotiation("o1", 0)
    planner, ctx = ScriptPlanner(), FakeCtx()

    out = advance_stage(neg, StartStage(), planner, ctx)
    assert [m.receiver for m in out] == ["M1", "M2"]
    assert neg.phase == PRODUCTION
    assert neg.deadline_token == 1
    assert ctx.timers == [(1, ctx.cfp_deadline)]  # the round's deadline is armed

    assert advance_stage(
        neg, proposal_msg("M1", "o1/s0", mk_proposal("M1#1", "M1")), planner, ctx
    ) == []
    assert neg.awaiting == {"M2"}

    out = advance_stage(
        neg, proposal_msg("M2", "o1/s0", mk_proposal("M2#1", "M2", start=90)), planner, ctx
    )
    assert neg.phase == DONE
    # commit completeness: every received proposal is accepted or rejected
    accepted = [p.proposal_id for m in out if m.variant == "AcceptProposal" for p in m.parts]
    rejected = [p.proposal_id for m in out if m.variant == "RejectProposal" for p in m.parts]
    assert sorted(accepted + rejected) == ["M1#1", "M2#1"]
    assert set(accepted).isdisjoint(rejected)


def test_stage_walks_its_rounds_and_skips_one_that_sends_nothing():
    rounds = (
        (PRODUCTION, call(PRODUCTION, "M1", "M2")),
        (BUFFER, call(BUFFER)),
        (TRANSPORT, call(TRANSPORT, "T1")),
    )
    neg = StageNegotiation("o1", 0)
    planner, ctx = ScriptPlanner(rounds=rounds), FakeCtx()
    advance_stage(neg, StartStage(), planner, ctx)
    advance_stage(neg, proposal_msg("M2", "o1/s0", mk_proposal("M2#1", "M2")), planner, ctx)
    out = advance_stage(
        neg, proposal_msg("M1", "o1/s0", mk_proposal("M1#1", "M1")), planner, ctx
    )
    assert [(m.receiver, m.parts[0].kind) for m in out] == [("T1", TRANSPORT)]
    assert neg.phase == TRANSPORT
    # one deadline per opened round; the skipped buffer round armed none
    assert ctx.timers == [(1, ctx.cfp_deadline), (2, ctx.cfp_deadline)]
    assert neg.deadline_token == 2

    late = proposal_msg("B1", "o1/s0", mk_proposal("B#1", "B1", kind=BUFFER))
    assert advance_stage(neg, late, planner, ctx) == [
        Message("o1", "B1", "o1/s0", (RejectProposal("B#1"),))
    ]
    assert neg.awaiting == {"T1"}

    transport = proposal_msg("T1", "o1/s0", mk_proposal("T#1", "T1", kind=TRANSPORT))
    advance_stage(neg, transport, planner, ctx)
    assert neg.phase == DONE
    # each opened round's proposals, ranked by resource, in round order
    assert planner.seen == [["M1#1", "M2#1"], ["T#1"]]


def test_stage_deadline_closes_round_with_partial_answers():
    neg = StageNegotiation("o1", 0)
    planner, ctx = ScriptPlanner(), FakeCtx()
    advance_stage(neg, StartStage(), planner, ctx)
    advance_stage(neg, proposal_msg("M1", "o1/s0", mk_proposal("M1#1", "M1")), planner, ctx)

    out = advance_stage(neg, DeadlineExpired(token=1), planner, ctx)
    assert neg.phase == DONE  # absence of M2's answer counted as refusal
    assert any(m.variant == "AcceptProposal" for m in out)


def test_stage_stale_deadline_token_ignored():
    neg = StageNegotiation("o1", 0)
    planner, ctx = ScriptPlanner(), FakeCtx()
    advance_stage(neg, StartStage(), planner, ctx)
    assert advance_stage(neg, DeadlineExpired(token=99), planner, ctx) == []
    assert neg.phase == PRODUCTION
    assert neg.awaiting == {"M1", "M2"}


def test_stage_fails_without_any_production_proposal():
    neg = StageNegotiation("o1", 0)
    planner, ctx = ScriptPlanner(), FakeCtx()
    advance_stage(neg, StartStage(), planner, ctx)
    out = advance_stage(neg, DeadlineExpired(token=1), planner, ctx)
    assert neg.phase == FAILED
    assert neg.failure_reason == "no production proposals received"
    assert out == []  # nothing was offered, nothing to reject


def test_stage_failure_rejects_every_held_offer():
    neg = StageNegotiation("o1", 0)
    planner, ctx = ScriptPlanner(fail=True), FakeCtx()
    advance_stage(neg, StartStage(), planner, ctx)
    advance_stage(
        neg,
        proposal_msg("M1", "o1/s0", mk_proposal("M1#1", "M1"), mk_proposal("M1#2", "M1")),
        planner,
        ctx,
    )
    out = advance_stage(
        neg, proposal_msg("M2", "o1/s0", mk_proposal("M2#1", "M2")), planner, ctx
    )
    assert neg.phase == FAILED
    assert neg.failure_reason == "scripted failure"
    assert [m.receiver for m in out] == ["M1", "M2"]  # grouped, sorted
    assert all(m.variant == "RejectProposal" for m in out)
    rejected = sorted(p.proposal_id for m in out for p in m.parts)
    assert rejected == ["M1#1", "M1#2", "M2#1"]


def test_stage_drops_out_of_phase_events():
    neg = StageNegotiation("o1", 0)
    planner, ctx = ScriptPlanner(), FakeCtx()

    def rejected(conv, pid):
        return [Message("o1", "M1", conv, (RejectProposal(pid),))]

    # proposal before the stage started: rejected so M1 frees its hold
    assert advance_stage(
        neg, proposal_msg("M1", "o1/s0", mk_proposal("M1#1", "M1")), planner, ctx
    ) == rejected("o1/s0", "M1#1")
    assert neg.phase == START

    advance_stage(neg, StartStage(), planner, ctx)
    # duplicate StartStage
    assert advance_stage(neg, StartStage(), planner, ctx) == []
    # stray conversation
    assert advance_stage(
        neg, proposal_msg("M1", "o9/s4", mk_proposal("X#1", "M1")), planner, ctx
    ) == rejected("o9/s4", "X#1")
    # wrong proposal kind for the current round: rejected, sender still awaited
    assert advance_stage(
        neg, proposal_msg("M1", "o1/s0", mk_proposal("B#1", "B1", kind=BUFFER)), planner, ctx
    ) == rejected("o1/s0", "B#1")
    assert neg.awaiting == {"M1", "M2"}
    assert neg.proposals == [[]]


def test_terminal_stage_ignores_everything():
    neg = StageNegotiation("o1", 0)
    planner, ctx = ScriptPlanner(responders=("M1",)), FakeCtx()
    advance_stage(neg, StartStage(), planner, ctx)
    advance_stage(neg, proposal_msg("M1", "o1/s0", mk_proposal("M1#1", "M1")), planner, ctx)
    assert neg.is_terminal()
    assert advance_stage(neg, StartStage(), planner, ctx) == []
    assert advance_stage(neg, DeadlineExpired(token=1), planner, ctx) == []
    late = proposal_msg("M2", "o1/s0", mk_proposal("M2#1", "M2"))
    assert advance_stage(neg, late, planner, ctx) == [
        Message("o1", "M2", "o1/s0", (RejectProposal("M2#1"),))
    ]


def test_stage_machine_is_deterministic():
    def run():
        neg = StageNegotiation("o1", 0)
        planner, ctx = ScriptPlanner(), FakeCtx()
        outs = []
        outs += advance_stage(neg, StartStage(), planner, ctx)
        outs += advance_stage(
            neg, proposal_msg("M2", "o1/s0", mk_proposal("M2#1", "M2")), planner, ctx
        )
        outs += advance_stage(
            neg, proposal_msg("M1", "o1/s0", mk_proposal("M1#1", "M1")), planner, ctx
        )
        return neg.phase, [
            (m.sender, m.receiver, m.variant, tuple(p for p in m.parts)) for m in outs
        ]

    assert run() == run()
