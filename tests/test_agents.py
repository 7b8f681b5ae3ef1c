import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cnetsched.agents import (
    _ALL,
    MAX_SLOTS_PER_CFP,
    BufferAgent,
    DirectoryService,
    OrderAgent,
    ProductionAgent,
    StageCommit,
    TransportAgent,
    _slack_from,
)
from cnetsched.calculus import ScheduleParams, proposal_price
from cnetsched.protocol import (
    BUFFER,
    PRODUCTION,
    TRANSPORT,
    AcceptProposal,
    Cfp,
    CfpAlternative,
    InformDeparture,
    InformFailure,
    Message,
    OfferHold,
    Proposal,
    RejectProposal,
    StageWindows,
    TransportLeg,
    WorkpieceInfo,
    conversation_id,
)
from cnetsched.scenario import (
    BufferSpec,
    MachineSpec,
    OrderSpec,
    TransportSpec,
    build_runtime,
    parse_scenario,
)
from cnetsched.timebase import BookingEntry, OverlapError, Slack, TimeInterval, minutes
from conftest import full_gap_walk
from oracle import find_entry

PARAMS = ScheduleParams(t_transport_min=minutes(21), t_buffer_min=minutes(15))


class FakeCtx:
    """Minimal kernel services: clock, timers, directory, commit log."""

    def __init__(self, now=0):
        self._now = now
        self.cfp_deadline = 60
        self.hold_deadline = 100_000
        self.directory = DirectoryService()
        self.commits = []
        self._token = 0

    def now(self):
        return self._now

    def advance(self, dt):
        self._now += dt

    def set_timer(self, delay):
        self._token += 1
        return self._token

    def record_commit(self, resource_id, entry):
        self.commits.append((resource_id, entry))


def machine_spec(op_duration, setup, agent_id="M1", initial_state="A"):
    return MachineSpec(
        id=agent_id,
        operation="cutting",
        location=(5.0, 5.0),
        op_duration=op_duration,
        setup=setup,
        initial_state=initial_state,
    )


def machine(agent_id="M1", op=6000, initial_state="A", unload=600, load=600):
    return ProductionAgent(
        machine_spec(
            {"A": op, "B": op},
            {"A": {"B": 900}, "B": {"A": 1800}},
            agent_id=agent_id,
            initial_state=initial_state,
        ),
        unload_estimate=unload,
        load_estimate=load,
    )


def production_cfp(order="o1", product="A", entry=True, es=0, ls=None, lf=None, deadline=10**7):
    return Cfp(
        kind=PRODUCTION,
        workpiece=WorkpieceInfo(order, product, None if entry else (10.0, 5.0)),
        operation="cutting",
        alternatives=(CfpAlternative(StageWindows(es=es, ef=es, ls=ls, lf=lf)),),
        deadline=deadline,
    )


def envelope(receiver, order="o1", stage=0, *parts):
    return Message(order, receiver, conversation_id(order, stage), tuple(parts))


def closed_block(order, start, end, end_state=""):
    return BookingEntry(
        order, "1", [("operation", TimeInterval(start, end))], end_state=end_state
    )


def proposals_of(out):
    assert len(out) == 1 and out[0].variant == "Proposal"
    return list(out[0].parts)


# ---------------------------------------------------------------------------
# production: proposal generation


def test_machine_offers_up_to_two_slots_across_gaps():
    m, ctx = machine(), FakeCtx()
    m.schedule.insert_booking(closed_block("pre", 10_000, 20_000, end_state="A"))
    m.schedule.insert_booking(closed_block("pre2", 40_000, 50_000, end_state="A"))

    out = m.handle(envelope("M1", "o1", 0, production_cfp()), ctx)
    props = proposals_of(out)
    assert len(props) == 2  # three gaps, capped at two slots per call
    first, second = props
    assert first.slot == TimeInterval(0, 6000)
    assert first.slack_after == Slack(10_000 - 6600)  # room until the booking, load included
    assert second.slot == TimeInterval(20_000, 26_000)
    assert len(m.holds) == 2


def test_machine_prices_changeover_and_shifts_start():
    m = machine(initial_state="B")
    out = m.handle(envelope("M1", "o1", 0, production_cfp(product="A")), FakeCtx())
    (p,) = [x for x in proposals_of(out) if x.slot.start == 1800]
    assert p.price == 6000 + 1800  # operation plus the B->A changeover
    assert p.slot == TimeInterval(1800, 7800)


def test_machine_respects_maintenance_state_demand():
    m, ctx = machine(initial_state="A"), FakeCtx()
    m.schedule.insert_booking(
        BookingEntry(
            "M1-maint-0",
            "maintenance",
            [("maintenance", TimeInterval(20_000, 25_000))],
            end_state="B",
        )
    )
    out = m.handle(envelope("M1", "o1", 0, production_cfp(product="A")), ctx)
    before, after = proposals_of(out)
    # finishing as product A in front of a window that demands state B costs
    # the A->B changeover: it shrinks the gap and is billed as an increment
    assert before.slack_after == Slack((20_000 - 900) - 6600)
    assert before.price == 6000 + 900
    # after the window the machine is left in state B, so A pays B->A setup
    assert after.slot.start == 25_000 + 1800
    assert after.price == 6000 + 1800


def test_machine_ignores_cfp_whose_deadline_passed():
    m, ctx = machine(), FakeCtx(now=100)
    out = m.handle(envelope("M1", "o1", 0, production_cfp(deadline=100)), ctx)
    assert out == []
    assert m._deferred == []


def test_machine_unload_prefix_only_for_moving_workpieces():
    m, ctx = machine(), FakeCtx()
    out = m.handle(envelope("M1", "o1", 0, production_cfp(entry=False, es=5000)), ctx)
    p = proposals_of(out)[0]
    assert p.slot.start == 5000  # es already covers the approach
    assert p.unload_time == 600
    m2 = machine(agent_id="M2")
    out = m2.handle(envelope("M2", "o2", 0, production_cfp(order="o2")), ctx)
    assert proposals_of(out)[0].unload_time == 0


# ---------------------------------------------------------------------------
# production: one order at a time


def test_cfp_deferred_while_another_orders_offer_is_held():
    m, ctx = machine(), FakeCtx()
    first = m.handle(envelope("M1", "o1", 0, production_cfp(order="o1")), ctx)
    pid = proposals_of(first)[0].proposal_id

    queued = m.handle(envelope("M1", "o2", 0, production_cfp(order="o2")), ctx)
    assert queued == []
    assert len(m._deferred) == 1

    # rejection resolves the engagement and drains the queue in the same call
    drained = m.handle(
        envelope("M1", "o1", 0, *[RejectProposal(p.proposal_id) for p in proposals_of(first)]),
        ctx,
    )
    assert drained and drained[0].receiver == "o2"
    assert proposals_of(drained)[0].slot == TimeInterval(0, 6000)
    assert pid not in m.holds


def test_cfp_deferred_while_tail_open_drained_on_departure():
    m, ctx = machine(), FakeCtx()
    offer = proposals_of(m.handle(envelope("M1", "o1", 0, production_cfp(order="o1")), ctx))[0]
    assert m.handle(
        envelope("M1", "o1", 0, AcceptProposal(offer.proposal_id, offer.slot)), ctx
    ) == []
    assert m.blocked

    assert m.handle(envelope("M1", "o2", 0, production_cfp(order="o2")), ctx) == []
    assert len(m._deferred) == 1

    out = m.handle(
        envelope("M1", "o1", 0, InformDeparture("o1", departure=6600, loading_time=600)),
        ctx,
    )
    assert not m.blocked
    assert out[0].receiver == "o2"
    assert proposals_of(out)[0].slot.start >= 6600


def test_own_order_negotiates_past_the_open_tail():
    m, ctx = machine(), FakeCtx()
    offer = proposals_of(m.handle(envelope("M1", "o1", 0, production_cfp(order="o1")), ctx))[0]
    m.handle(envelope("M1", "o1", 0, AcceptProposal(offer.proposal_id, offer.slot)), ctx)
    # a later fixed booking leaves a second gap the waiting workpiece cannot use
    tail = m.schedule.open_tail_for("o1")
    tail.open_tail = False
    m.schedule.insert_booking(closed_block("pre", 30_000, 40_000, end_state="A"))
    tail.open_tail = True
    m.schedule.check_invariants()

    out = m.handle(
        envelope("M1", "o1", 1, production_cfp(order="o1", entry=False, es=0)), ctx
    )
    props = proposals_of(out)
    assert len(props) == 1  # only the gap adjacent to the waiting workpiece
    assert props[0].slot.start == tail.operation_end
    assert props[0].unload_time == 0  # already on the machine


# ---------------------------------------------------------------------------
# production: accept-time re-validation


def test_accept_unknown_offer_fails():
    m, ctx = machine(), FakeCtx()
    out = m.handle(envelope("M1", "o1", 0, AcceptProposal("M1#p99", TimeInterval(0, 6000))), ctx)
    assert out[0].variant == "InformFailure"
    assert "offer unknown or hold expired" in out[0].parts[0].reason


def test_accept_revalidates_duration_start_and_slack():
    def fresh_offer():
        m, ctx = machine(initial_state="B"), FakeCtx()
        m.schedule.insert_booking(closed_block("pre", 30_000, 40_000))
        out = m.handle(envelope("M1", "o1", 0, production_cfp(product="A")), ctx)
        return m, ctx, proposals_of(out)[0]

    m, ctx, p = fresh_offer()
    out = m.handle(
        envelope("M1", "o1", 0, AcceptProposal(p.proposal_id, TimeInterval(p.slot.start, p.slot.start + 5000))),
        ctx,
    )
    assert "duration mismatch" in out[0].parts[0].reason

    m, ctx, p = fresh_offer()
    out = m.handle(
        envelope("M1", "o1", 0, AcceptProposal(p.proposal_id, p.slot.shift(-1800))), ctx
    )
    assert "earlier than offered" in out[0].parts[0].reason

    m, ctx, p = fresh_offer()
    latest = p.slack_after.bound_from(p.slot.start)
    out = m.handle(
        envelope("M1", "o1", 0, AcceptProposal(p.proposal_id, p.slot.shift(latest - p.slot.start + 60))),
        ctx,
    )
    assert "outside the offered slack" in out[0].parts[0].reason
    assert m.schedule.entries[0].order_id == "pre"  # nothing else booked


def test_accept_books_shifted_slot_within_slack_and_records_commit():
    m, ctx = machine(), FakeCtx()
    p = proposals_of(m.handle(envelope("M1", "o1", 0, production_cfp()), ctx))[0]
    booked = p.slot.shift(1200)
    assert m.handle(envelope("M1", "o1", 0, AcceptProposal(p.proposal_id, booked)), ctx) == []
    entry = find_entry(m.schedule, "o1", "1")
    assert entry.segment("operation") == booked
    assert entry.open_tail and entry.end_state == "A"
    assert ctx.commits == [("M1", entry)]


def test_departure_that_collides_is_refused_not_applied():
    m, ctx = machine(), FakeCtx()
    p = proposals_of(m.handle(envelope("M1", "o1", 0, production_cfp()), ctx))[0]
    m.handle(envelope("M1", "o1", 0, AcceptProposal(p.proposal_id, p.slot)), ctx)
    tail = m.schedule.open_tail_for("o1")
    tail.open_tail = False
    m.schedule.insert_booking(closed_block("pre", 6100, 7000))
    tail.open_tail = True
    m.schedule.check_invariants()

    out = m.handle(
        envelope("M1", "o1", 0, InformDeparture("o1", departure=6500, loading_time=300)), ctx
    )
    assert out == []
    assert m.schedule.open_tail_for("o1") is not None  # still waiting for a real one


# ---------------------------------------------------------------------------
# buffer agent


def buffer_place(unload=600, load=600):
    return BufferAgent(
        BufferSpec(id="Buf1", location=(15.0, 15.0)), unload_estimate=unload, load_estimate=load
    )


def buffer_cfp(realizes="P#1", es=1000, ef=2000, ls=5000, lf=6000, order="o1", deadline=10**7):
    return Cfp(
        kind=BUFFER,
        workpiece=WorkpieceInfo(order, "A", (5.0, 5.0)),
        operation="buffer",
        alternatives=(
            CfpAlternative(StageWindows(es=es, ef=ef, ls=ls, lf=lf), realizes=realizes),
        ),
        deadline=deadline,
    )


def test_buffer_offers_earliest_slot_and_echoes_linkage():
    b = buffer_place()
    ctx = FakeCtx()
    p = proposals_of(b.handle(envelope("Buf1", "o1", 1, buffer_cfp()), ctx))[0]
    assert p.kind == BUFFER
    assert p.slot == TimeInterval(1000, 2000)
    assert p.realizes == "P#1"
    assert p.price == 0
    assert p.slack_after == Slack(4000)  # exit may slip to lf

    # the hold protects [entry-unload, exit+load) against other orders
    p2 = proposals_of(
        b.handle(envelope("Buf1", "o2", 1, buffer_cfp(order="o2", es=0, ef=0, ls=None, lf=None)), ctx)
    )[0]
    assert p2.slot.start == 2600 + 600  # first free second after the hold, plus unload


def test_buffer_accept_books_unload_hold_load():
    b = buffer_place()
    ctx = FakeCtx()
    p = proposals_of(b.handle(envelope("Buf1", "o1", 1, buffer_cfp()), ctx))[0]
    resident = TimeInterval(1200, 4800)
    out = b.handle(
        envelope(
            "Buf1", "o1", 1,
            AcceptProposal(p.proposal_id, resident, actual_unload_time=600, actual_load_time=600),
        ),
        ctx,
    )
    assert out == []
    entry = find_entry(b.schedule, "o1", "B2")
    assert [k for k, _ in entry.segments] == ["unload", "buffer-hold", "load"]
    assert entry.segment("buffer-hold") == resident
    assert entry.span == TimeInterval(600, 5400)
    assert not entry.open_tail


def test_buffer_accept_outside_slack_fails():
    b = buffer_place(unload=0, load=0)
    ctx = FakeCtx()
    p = proposals_of(b.handle(envelope("Buf1", "o1", 1, buffer_cfp()), ctx))[0]
    out = b.handle(
        envelope("Buf1", "o1", 1, AcceptProposal(p.proposal_id, TimeInterval(1200, 6060))), ctx
    )
    assert out[0].variant == "InformFailure"
    assert "outside the offered slack" in out[0].parts[0].reason


# ---------------------------------------------------------------------------
# transport agent


def crane(agent_id="Crane1", initial_x=0.0, handling=600):
    # speed is in metres per minute, as in a scenario file: these cranes travel 1 m/s
    return TransportAgent(
        TransportSpec(
            id=agent_id,
            segment=(0.0, 60.0),
            speed=60.0,
            load=handling,
            unload=handling,
            initial_x=initial_x,
        )
    )


def transport_cfp(order="o1", deadline=10**7):
    inbound = TransportLeg(
        from_location=(10.0, 5.0),
        to_location=(20.0, 15.0),
        windows=StageWindows(es=0, ef=1210),
        realizes="B#1",
    )
    outbound = TransportLeg(
        from_location=(20.0, 15.0),
        to_location=(40.0, 5.0),
        windows=StageWindows(es=2000, ef=2000),
        realizes="P#1",
        via="B#1",
        chain_after=0,
    )
    return Cfp(
        kind=TRANSPORT,
        workpiece=WorkpieceInfo(order, "A", (10.0, 5.0)),
        operation="transport",
        legs=(inbound, outbound),
        deadline=deadline,
    )


def test_transport_labels_legs_and_offers_chained_variant():
    t, ctx = crane(), FakeCtx()
    props = proposals_of(t.handle(envelope("Crane1", "o1", 1, transport_cfp()), ctx))
    held = {h.proposal_id: h for h in t.holds}
    by_label = {}
    for p in props:
        by_label.setdefault(held[p.proposal_id].step_label, []).append(p)
    assert set(by_label) == {"T:1,B2", "T:B2,2"}

    (inbound,) = by_label["T:1,B2"]
    assert inbound.realizes == "B#1" and inbound.via is None
    assert inbound.slot == TimeInterval(10, 1220)  # approach 0->10 then the run
    assert inbound.price == 1210 + 10

    plain = [p for p in by_label["T:B2,2"] if p.required_operation is None]
    chained = [p for p in by_label["T:B2,2"] if p.required_operation is not None]
    assert len(plain) == 1 and len(chained) == 1
    assert chained[0].required_operation == inbound.proposal_id
    # the chained variant starts where the partner dropped off: no approach fee
    assert chained[0].price == 1220
    assert plain[0].price == 1220 + 20
    assert chained[0].slot == plain[0].slot  # same placement, cheaper start


def test_transport_drops_a_chained_variant_equal_to_the_plain_one_without_holding_it():
    # parked at the buffer, the plain outbound leg needs no approach either,
    # so its chained variant would be the same offer
    t, ctx = crane(initial_x=20.0), FakeCtx()
    props = proposals_of(t.handle(envelope("Crane1", "o1", 1, transport_cfp()), ctx))
    assert [p.required_operation for p in props] == [None, None]
    assert len(t.holds) == len(props)
    assert [p.proposal_id for p in props] == ["Crane1#p1", "Crane1#p2"]


def test_transport_accept_books_travel_load_travel_unload():
    t, ctx = crane(), FakeCtx()
    props = proposals_of(t.handle(envelope("Crane1", "o1", 1, transport_cfp()), ctx))
    inbound = next(p for p in props if p.via is None)
    assert t.handle(
        envelope("Crane1", "o1", 1, AcceptProposal(inbound.proposal_id, inbound.slot)), ctx
    ) == []
    entry = find_entry(t.schedule, "o1", "T:1,B2")
    kinds = [k for k, _ in entry.segments]
    assert kinds == ["travel", "load", "travel", "unload"]
    assert entry.end_state == 20.0  # parked at the drop position
    assert entry.span_end == inbound.slot.end


def test_crane_charges_the_approach_from_its_exact_drop_off_position():
    # the initial booking leaves the crane at x = 1000.0004, so the approach
    # to 1002.0002 is 1.9998 m: 2 s at 1 m/s (3 s from a position rounded to 1000)
    doc = {
        "format_version": 1,
        "params": {"t_buffer_min": 15},
        "machines": [
            {"id": "M1", "operation": "cutting", "location": [0, 0], "op_duration": {"A": 1}},
            {"id": "M2", "operation": "forging", "location": [1010, 0], "op_duration": {"A": 1}},
        ],
        "transports": [
            {
                "id": "T1", "segment": [0, 2000], "speed": 60, "load": 0, "unload": 0,
                "initial_bookings": [{"start": 0, "end": 1, "end_x": 1000.0004}],
            }
        ],
        "products": [{"id": "A", "steps": ["cutting", "forging"]}],
        "orders": [{"id": "o1", "product": "A"}],
    }
    t = build_runtime(parse_scenario(doc)).agents["T1"]
    leg = TransportLeg((1002.0002, 0.0), (1010.0, 0.0), StageWindows(es=0, ef=0), "P#1")
    cfp = Cfp(
        kind=TRANSPORT,
        workpiece=WorkpieceInfo("o1", "A", (0.0, 0.0)),
        operation="transport",
        legs=(leg,),
        deadline=10**7,
    )
    (offer,) = proposals_of(t.handle(envelope("T1", "o1", 1, cfp), FakeCtx()))
    assert offer.slot == TimeInterval(62, 70)  # 60 s booked, 2 s approach, 8 s run
    assert offer.price == 8 + 2


def test_transport_chained_accept_requires_committed_partner():
    t, ctx = crane(), FakeCtx()
    props = proposals_of(t.handle(envelope("Crane1", "o1", 1, transport_cfp()), ctx))
    chained = next(p for p in props if p.required_operation is not None)
    out = t.handle(
        envelope("Crane1", "o1", 1, AcceptProposal(chained.proposal_id, chained.slot)), ctx
    )
    assert out[0].variant == "InformFailure"
    assert "required preceding movement" in out[0].parts[0].reason


def test_transport_chained_accept_in_one_envelope_with_partner():
    t, ctx = crane(), FakeCtx()
    props = proposals_of(t.handle(envelope("Crane1", "o1", 1, transport_cfp()), ctx))
    inbound = next(p for p in props if p.via is None)
    chained = next(p for p in props if p.required_operation is not None)
    out = t.handle(
        envelope(
            "Crane1", "o1", 1,
            AcceptProposal(inbound.proposal_id, inbound.slot),
            AcceptProposal(chained.proposal_id, chained.slot),
        ),
        ctx,
    )
    assert out == []
    t.schedule.check_invariants()
    assert len(t.schedule.entries) == 2


def test_transport_linked_accepts_fail_as_a_unit():
    t, ctx = crane(), FakeCtx()
    props = proposals_of(t.handle(envelope("Crane1", "o1", 1, transport_cfp()), ctx))
    inbound = next(p for p in props if p.via is None)
    out = t.handle(
        envelope(
            "Crane1", "o1", 1,
            AcceptProposal("Crane1#p99", TimeInterval(0, 1210)),  # unknown -> fails
            AcceptProposal(inbound.proposal_id, inbound.slot),  # dragged down with it
        ),
        ctx,
    )
    assert len(out) == 2
    assert all(m.variant == "InformFailure" for m in out)
    assert "linked movement" in out[1].parts[0].reason
    assert t.schedule.entries == []


# ---------------------------------------------------------------------------
# offer book, shared by every resource kind


RESOURCES = {
    "machine": (machine, lambda order, deadline: production_cfp(order=order, deadline=deadline)),
    "buffer": (buffer_place, lambda order, deadline: buffer_cfp(order=order, deadline=deadline)),
    "crane": (crane, transport_cfp),
}


def ask(kind, agent, ctx, order, deadline=10**7):
    """Send the agent its kind's CFP for ``order`` (stage 1); returns its answer."""
    cfp = RESOURCES[kind][1](order, deadline)
    return agent.handle(envelope(agent.agent_id, order, 1, cfp), ctx)


def resource(kind):
    return RESOURCES[kind][0]()


@pytest.mark.parametrize("kind", RESOURCES)
def test_accept_after_hold_expiry_fails(kind):
    agent, ctx = resource(kind), FakeCtx()
    offer = proposals_of(ask(kind, agent, ctx, "o1"))[0]
    ctx.advance(ctx.hold_deadline + 1)
    out = agent.handle(
        envelope(agent.agent_id, "o1", 1, AcceptProposal(offer.proposal_id, offer.slot)), ctx
    )
    assert [m.variant for m in out] == ["InformFailure"]
    assert out[0].parts[0].reason == "offer unknown or hold expired"
    assert agent.schedule.entries == [] and ctx.commits == []
    assert len(agent.holds) == 0


@pytest.mark.parametrize("kind", RESOURCES)
def test_reject_frees_the_held_span_for_the_next_cfp(kind):
    agent, ctx = resource(kind), FakeCtx()
    first = proposals_of(ask(kind, agent, ctx, "o1"))
    rejects = [RejectProposal(p.proposal_id) for p in first]
    assert agent.handle(envelope(agent.agent_id, "o1", 1, *rejects), ctx) == []
    assert len(agent.holds) == 0
    again = proposals_of(ask(kind, agent, ctx, "o2"))
    assert again[0].slot == first[0].slot

    # without the reject the hold keeps that span from the second order
    held, ctx = resource(kind), FakeCtx()
    first = proposals_of(ask(kind, held, ctx, "o1"))
    out = ask(kind, held, ctx, "o2")
    assert out == [] or proposals_of(out)[0].slot != first[0].slot


@pytest.mark.parametrize("kind", RESOURCES)
def test_cfp_past_its_deadline_gets_no_answer(kind):
    agent, ctx = resource(kind), FakeCtx(now=100)
    assert ask(kind, agent, ctx, "o1", deadline=100) == []
    assert len(agent.holds) == 0
    assert proposals_of(ask(kind, agent, ctx, "o1", deadline=101))  # still open: answered


# ---------------------------------------------------------------------------
# order agent bookkeeping


def order_agent(plan=("cutting", "forging")):
    oa = OrderAgent(OrderSpec(id="o1", product="A"), plan, PARAMS)
    oa.status = "running"
    return oa


def stage_commit(resource, start, end):
    return StageCommit(
        resource_id=resource,
        location=(5.0, 5.0),
        op_slot=TimeInterval(start, end),
        slack_after=Slack.UNBOUNDED,
    )


def test_commit_refusal_rolls_back_phantom_stages():
    oa, ctx = order_agent(), FakeCtx()
    oa.committed = [stage_commit("M1", 0, 6000), stage_commit("M2", 10_000, 16_000)]
    out = oa.handle(
        envelope("o1", "o1", 1, InformFailure("M2#p1", "operation duration mismatch")).__class__(
            sender="M2", receiver="o1", conversation_id="o1/s1",
            parts=(InformFailure("M2#p1", "operation duration mismatch"),),
        ),
        ctx,
    )
    assert oa.status == "failed"
    assert "commit refused by M2" in oa.diagnostic
    assert [c.resource_id for c in oa.committed] == ["M1"]
    # the abort frees the machine that actually holds the workpiece
    assert out[-1].receiver == "M1"
    assert out[-1].conversation_id == "o1/s0"
    departure = out[-1].parts[0]
    assert isinstance(departure, InformDeparture)
    assert departure.departure == 6000 and departure.loading_time == 0


def test_abort_without_commits_sends_nothing():
    oa, ctx = order_agent(), FakeCtx()
    out = oa.handle(
        Message("M1", "o1", "o1/s0", (InformFailure("M1#p1", "hold expired"),)), ctx
    )
    assert oa.status == "failed" and out == []


def test_decide_departs_a_stay_on_machine_piece_before_the_accept_lands():
    # the piece stays on M1: the departure, which closes its tail there, must
    # land before the accept; both kernels deliver to one receiver in post order
    from cnetsched.protocol import StageNegotiation

    oa, ctx = order_agent(plan=("cutting", "cutting", "forging")), FakeCtx()
    oa.committed = [stage_commit("M1", 0, 6000)]
    neg = StageNegotiation("o1", 1)
    neg.proposals = [[offered_operation("M1#p1", "M1", 5.0, 6000)]]
    out = oa.decide(neg, ctx)
    to_m1 = [type(part).__name__ for msg in out if msg.receiver == "M1" for part in msg.parts]
    assert to_m1 == ["InformDeparture", "AcceptProposal"]
    assert out[0].parts[0] == InformDeparture("o1", 6000, 0)


def test_terminal_order_ignores_further_events():
    oa, ctx = order_agent(), FakeCtx()
    oa.status = "done"
    out = oa.handle(
        Message("M1", "o1", "o1/s0", (InformFailure("M1#p1", "late"),)), ctx
    )
    assert out == [] and oa.status == "done"


def test_production_round_windows_follow_previous_commit():
    oa, ctx = order_agent(), FakeCtx()
    ctx.directory.register("cutting", "M1")
    ctx.directory.register("cutting", "M2")

    from cnetsched.protocol import StageNegotiation

    msgs = oa.plan_production(StageNegotiation("o1", 0), ctx)
    assert {m.receiver for m in msgs} == {"M1", "M2"}
    cfp = msgs[0].parts[0]
    assert cfp.workpiece.location is None  # entering the system
    assert cfp.alternatives[0].windows.es == 0
    assert cfp.deadline == ctx.cfp_deadline

    ctx.directory.register("forging", "F1")
    oa.committed = [stage_commit("M0", 0, 6000)]
    msgs = oa.plan_production(StageNegotiation("o1", 1), ctx)
    cfp = msgs[0].parts[0]
    assert cfp.workpiece.location == (5.0, 5.0)
    assert cfp.alternatives[0].windows.es == 6000 + PARAMS.t_transport_min


def offered_operation(pid, resource, x, start):
    return Proposal(
        pid, PRODUCTION, resource, (x, 5.0), TimeInterval(start, start + 600),
        Slack.UNBOUNDED, 600, 600, 600, price=600,
    )


def legs_asked(with_buffer_offers):
    """The legs an order on M1 (finished at 6000) asks for P#1, which needs
    buffering, and P#2, which does not, from a floor of one buffer and one crane."""
    from cnetsched.protocol import StageNegotiation

    oa, ctx = order_agent(), FakeCtx()
    ctx.directory.register(BUFFER, "Buf1")
    ctx.directory.register(TRANSPORT, "Crane1")
    oa.committed = [stage_commit("M1", 0, 6000)]
    neg = StageNegotiation("o1", 1)
    neg.proposals = [
        [offered_operation("P#1", "M2", 30.0, 20_000), offered_operation("P#2", "M3", 40.0, 7260)]
    ]
    (buffer_call,) = oa.plan_buffer(neg, ctx)
    assert [alt.realizes for alt in buffer_call.parts[0].alternatives] == ["P#1"]
    offers = buffer_place().handle(buffer_call, ctx) if with_buffer_offers else []
    neg.proposals.append([p for msg in offers for p in msg.parts])
    (transport_call,) = oa.plan_transport(neg, ctx)
    assert transport_call.receiver == "Crane1"
    return [(leg.via, leg.realizes, leg.chain_after) for leg in transport_call.parts[0].legs]


def test_order_asks_buffer_legs_for_a_buffered_proposal_and_a_direct_leg_otherwise():
    assert legs_asked(with_buffer_offers=True) == [
        (None, "Buf1#p1", None),  # into the buffer
        ("Buf1#p1", "P#1", 0),  # out of it, chained onto the inbound leg
        (None, "P#2", None),  # straight to the machine that needs no buffering
    ]


def test_order_asks_no_leg_for_a_buffered_proposal_without_a_buffer_offer():
    assert legs_asked(with_buffer_offers=False) == [(None, "P#2", None)]


# ---------------------------------------------------------------------------
# placement skip: the same offers as a walk over every free interval
#
# Calendars are grown by ``insert_booking`` with the agent's own successor
# setup, so a later booking may shrink a successor's setup and a gap may end
# after its free interval (``gap.end > iv.end``); holds of other orders and
# open tails sit in between. The references are copies of the walks before
# the skip: every free interval from time 0.


SMALL_SETUP = {"A": {"B": 15, "C": 5}, "B": {"A": 30}, "C": {"B": 25, "A": 10}}


def small_machine():
    return ProductionAgent(
        machine_spec({"A": 20, "B": 35, "C": 10}, SMALL_SETUP), unload_estimate=7, load_estimate=4
    )


def small_crane():
    return crane(initial_x=30.0, handling=5)


other_holds = st.lists(
    st.tuples(st.integers(0, 700), st.integers(1, 40)), max_size=3
)


def hold_others(agent, spans, order="x"):
    for i, (start, dur) in enumerate(spans):
        agent.holds.add(
            OfferHold(f"other#{i}", TimeInterval(start, start + dur), f"{order}/s9", 10**6)
        )


@st.composite
def machine_with_calendar(draw):
    m = small_machine()
    states = ("A", "B", "C")
    for i in range(draw(st.integers(0, 12))):
        start, dur = draw(st.integers(0, 600)), draw(st.integers(1, 50))
        prev, state = draw(st.sampled_from(states)), draw(st.sampled_from(states))
        setup = m._setup(prev, state)
        segments = [("operation", TimeInterval(start + setup, start + setup + dur))]
        if setup:
            segments.insert(0, ("setup", TimeInterval(start, start + setup)))
        entry = BookingEntry(
            f"o{i}", "1", segments, open_tail=draw(st.integers(0, 4)) == 0, end_state=state
        )
        try:
            m.schedule.insert_booking(entry, m._succ_setup)
        except OverlapError:
            pass
    m.schedule.check_invariants()
    return m


def full_walk_machine(m, cfp, conv, ctx):
    """The machine's proposal loop over every free interval (before the skip)."""
    order_id = cfp.workpiece.order_id
    if m._engaged_elsewhere(order_id):
        return []
    product = cfp.workpiece.product
    op_dur = m.op_duration[product]
    tail = m.schedule.open_tail_for(order_id)
    own = tail is not None
    unload = 0 if (cfp.workpiece.location is None or own) else m.unload_estimate
    load_est = m.load_estimate
    free = m.schedule.free_intervals(
        _ALL,
        extra_busy=m.holds.active_spans(exclude_conversation=conv),
        assume_closed=frozenset({order_id}) if own else frozenset(),
    )
    out = []
    for alt_idx, alt in enumerate(cfp.alternatives):
        es = tail.operation_end if own else alt.windows.es
        ls, lf = alt.windows.ls, alt.windows.lf
        emitted = 0
        for gap_start, gap_end, from_state, ti_next in full_gap_walk(
            m.schedule, free, product, m._succ_setup, "A"
        ):
            if own and gap_start != tail.operation_end:
                continue
            setup = m._setup(from_state, product)
            prefix = setup + unload
            op_start = max(es, gap_start + prefix)
            if ls is not None and op_start > ls:
                break
            op_end = op_start + op_dur
            if lf is not None and op_end > lf:
                break
            if op_end + load_est > gap_end:
                continue
            block_start = op_start - prefix
            out.append(
                m._offer(
                    ctx,
                    conv,
                    "1",
                    TimeInterval(block_start, op_end + load_est),
                    product,
                    location=m.location,
                    slot=TimeInterval(op_start, op_end),
                    slack_after=_slack_from(
                        gap_end,
                        op_end + load_est,
                        ls + op_dur + load_est if ls is not None else None,
                        lf + load_est if lf is not None else None,
                    ),
                    op_duration=op_dur,
                    load_time=load_est,
                    unload_time=unload,
                    price=proposal_price(op_dur, setup, ti_next),
                    alternative=alt_idx,
                )
            )
            emitted += 1
            if emitted >= MAX_SLOTS_PER_CFP:
                break
    return out


@st.composite
def machine_cfp(draw, m):
    tails = m.schedule.open_tail_entries()
    order = tails[0].order_id if tails and draw(st.booleans()) else "new"
    alternatives = []
    for _ in range(draw(st.integers(1, 3))):
        es = draw(st.integers(0, 800))
        ls = draw(st.one_of(st.none(), st.integers(es, es + 300)))
        lf = draw(st.one_of(st.none(), st.integers(es, es + 400)))
        alternatives.append(CfpAlternative(StageWindows(es=es, ef=es, ls=ls, lf=lf)))
    return Cfp(
        kind=PRODUCTION,
        workpiece=WorkpieceInfo(order, draw(st.sampled_from("ABC")), draw(
            st.sampled_from((None, (10.0, 5.0)))
        )),
        operation="cutting",
        alternatives=tuple(alternatives),
        deadline=10**7,
    )


@given(st.data())
def test_property_machine_skip_makes_the_full_walks_offers(data):
    m = data.draw(machine_with_calendar())
    cfp = data.draw(machine_cfp(m))
    # another order's hold would make the machine defer; an earlier stage's does not
    hold_others(m, data.draw(other_holds), cfp.workpiece.order_id)
    msg = envelope("M1", cfp.workpiece.order_id, 0, cfp)
    ref, ctx = copy.deepcopy(m), FakeCtx()
    assert m._propose(msg, cfp, 1, ctx) == full_walk_machine(ref, cfp, msg.conversation_id, ctx)
    assert list(m.holds) == list(ref.holds)


@st.composite
def crane_with_calendar(draw):
    t = small_crane()
    xs = (0.0, 12.0, 30.0, 45.0, 60.0)
    for i in range(draw(st.integers(0, 12))):
        start, dur = draw(st.integers(0, 600)), draw(st.integers(10, 70))
        pickup, drop = draw(st.sampled_from(xs)), draw(st.sampled_from(xs))
        setup = t.geometry.travel_seconds(draw(st.sampled_from(xs)), pickup)
        segments = [("load", TimeInterval(start + setup, start + setup + dur))]
        if setup:
            segments.insert(0, ("travel", TimeInterval(start, start + setup)))
        entry = BookingEntry(f"o{i}", "T", segments, end_state=drop)
        try:
            t.schedule.insert_booking(entry, t._succ_setup)
        except OverlapError:
            continue
        if draw(st.booleans()):
            t._pickup_x[(entry.order_id, "T")] = pickup
    hold_others(t, draw(other_holds))
    t.schedule.check_invariants()
    return t


def full_walk_leg(t, leg, dur, free, after=None):
    """The crane's leg placement over every free interval (before the skip)."""
    geom = t.geometry
    w = leg.windows
    fx, tx = leg.from_location[0], leg.to_location[0]
    for gap_start, gap_end, from_state, ti_next in full_gap_walk(
        t.schedule, free, tx, t._succ_setup, t.initial_x
    ):
        if after is not None:
            if not (gap_start <= after.slot.start and after.slot.end <= gap_end):
                continue
            setup = 0
            floor = after.slot.end
        else:
            setup = geom.travel_seconds(from_state, fx)
            floor = gap_start + setup
        load_start = max(w.es, w.ef - dur, floor)
        if w.ls is not None and load_start > w.ls:
            break
        end = load_start + dur
        if w.lf is not None and end > w.lf:
            break
        if end > gap_end:
            continue
        slack_after = _slack_from(gap_end, end, w.ls + dur if w.ls is not None else None, w.lf)
        return (
            TimeInterval(max(0, load_start - setup), end),
            TimeInterval(load_start, end),
            slack_after,
            proposal_price(dur, setup, ti_next),
        )
    return None


def placed(fields):
    if fields is None:
        return None
    keys = ("span", "slot", "slack_after", "price")
    return tuple(fields[k] for k in keys)


@given(
    crane_with_calendar(),
    st.sampled_from((0.0, 12.0, 30.0, 60.0)),
    st.sampled_from((0.0, 20.0, 45.0, 60.0)),
    st.integers(0, 800),
    st.integers(0, 120),
    st.one_of(st.none(), st.integers(0, 300)),
    st.one_of(st.none(), st.integers(0, 400)),
    st.one_of(st.none(), st.tuples(st.integers(0, 800), st.integers(10, 80))),
    st.integers(0, 300),
)
def test_property_crane_skip_places_legs_like_the_full_walk(
    t, fx, tx, es, ef_after, ls_room, lf_room, partner_slot, lower
):
    geom = t.geometry
    dur = geom.load_time + geom.travel_seconds(fx, tx) + geom.unload_time
    ef = es + ef_after
    windows = StageWindows(
        es=es,
        ef=ef,
        ls=None if ls_room is None else es + ls_room,
        lf=None if lf_room is None else ef + lf_room,
    )
    leg = TransportLeg((fx, 5.0), (tx, 5.0), windows, realizes="P#1")
    after = None
    if partner_slot is not None:
        start, length = partner_slot
        after = Proposal(
            "Crane1#p0", TRANSPORT, "Crane1", (0.0, 5.0), TimeInterval(start, start + length),
            Slack(0), length, 5, 5, price=length,
        )
    conv = "o1/s1"
    # another leg of the CFP may start earlier and bound the list lower
    base = after.slot.end if after is not None else max(es, ef - dur)
    bounded = t.schedule.gap_table(t._free(conv, base - lower), t.initial_x)
    full = t.schedule.free_intervals(
        _ALL, extra_busy=t.holds.active_spans(exclude_conversation=conv)
    )
    assert placed(t._place_leg(leg, dur, bounded, after)) == full_walk_leg(
        t, leg, dur, full, after
    )


def test_crane_keeps_an_interval_that_ends_before_the_base_when_the_gap_stretches():
    # the successor's 60-s approach from x=60 shrinks to 0 after a drop at x=0,
    # so the gap reaches 160 although its free interval ends at 100
    t = small_crane()
    t.schedule.insert_booking(
        BookingEntry(
            "s",
            "T",
            [("travel", TimeInterval(100, 160)), ("load", TimeInterval(160, 165))],
            end_state=0.0,
        )
    )
    t._pickup_x[("s", "T")] = 0.0
    t.initial_x = 0.0
    leg = TransportLeg((0.0, 5.0), (0.0, 5.0), StageWindows(es=140, ef=150), "P#1")
    conv = "o1/s1"
    free = t._free(conv, 140)
    assert free[0] == TimeInterval(0, 100)
    fields = t._place_leg(leg, 10, t.schedule.gap_table(free, 0.0))
    assert fields["slot"] == TimeInterval(140, 150)
    assert fields["price"] == 10 + 0 - 60  # the successor's setup shrinks by 60 s
    assert fields["slack_after"] == Slack(10)


def machine_with(setup, unload):
    return ProductionAgent(machine_spec({"A": 5}, setup), unload_estimate=unload)


def test_machine_keeps_an_interval_that_ends_before_es_when_the_gap_stretches():
    # the successor's 60-s changeover from B vanishes after an A job, so the
    # gap reaches 160 although its free interval ends at 100
    m = machine_with({"B": {"A": 60}}, unload=0)
    m.schedule.insert_booking(
        BookingEntry(
            "s",
            "1",
            [("setup", TimeInterval(100, 160)), ("operation", TimeInterval(160, 170))],
            end_state="A",
        )
    )
    out = m.handle(envelope("M1", "o1", 0, production_cfp(es=150)), FakeCtx())
    first = proposals_of(out)[0]
    assert first.slot == TimeInterval(150, 155)
    assert first.price == 5 - 60


def test_machine_keeps_the_interval_whose_latest_start_break_decides():
    # the 2-s interval after a B job needs a 30-s changeover plus the 50-s
    # unload, so its slot could start only at 180 > ls: the walk stops there
    # and offers nothing, even though the A-state interval from 110 would fit
    m = machine_with({"B": {"A": 30}}, unload=50)
    m.schedule.insert_booking(closed_block("x", 0, 100, end_state="B"))
    m.schedule.insert_booking(closed_block("y", 102, 110, end_state="A"))
    cfp = production_cfp(entry=False, es=140, ls=165)
    assert m.handle(envelope("M1", "o1", 0, cfp), FakeCtx()) == []


def test_buffer_offers_a_zero_length_stay_at_the_very_end_of_an_interval():
    # with no handling estimates an interval ending exactly at es still hosts
    # a stay of zero length: the skip drops only iv.end + S < es
    b = buffer_place(unload=0, load=0)
    b.schedule.insert_booking(closed_block("x", 1000, 1500))
    out = b.handle(
        envelope("Buf1", "o1", 1, buffer_cfp(es=1000, ef=1000, ls=5000, lf=6000)), FakeCtx()
    )
    assert proposals_of(out)[0].slot == TimeInterval(1000, 1000)


@pytest.mark.parametrize("n_orders", [60, 120])
def test_crane_legs_walk_a_bounded_number_of_gaps(monkeypatch, n_orders):
    # calendars grow with the order count; the table rows a leg reads must
    # not (a walk from time 0 visits ~53 gaps per leg at 60 orders and ~105
    # at 120)
    from cnetsched import agents
    from cnetsched.harness import build_shop_scenario, run_scenario

    counts = {"legs": 0, "rows": 0}
    gaps, place = agents.gaps_for, TransportAgent._place_leg

    def counted_rows(rows):
        for row in rows:
            counts["rows"] += 1
            yield row

    def counted_gaps(rows, new_end_state, setup_of):
        if isinstance(getattr(setup_of, "__self__", None), TransportAgent):
            rows = counted_rows(rows)
        return gaps(rows, new_end_state, setup_of)

    def counted_place(self, *args, **kwargs):
        counts["legs"] += 1
        return place(self, *args, **kwargs)

    monkeypatch.setattr(agents, "gaps_for", counted_gaps)
    monkeypatch.setattr(TransportAgent, "_place_leg", counted_place)
    report = run_scenario(build_shop_scenario("flow", n_orders, 100), mode="deterministic")
    assert list(report.status.values()).count("done") == n_orders
    assert counts["legs"] > n_orders
    assert counts["rows"] <= 5 * counts["legs"]


def test_a_crane_cfp_looks_up_each_free_interval_once_whatever_its_legs(monkeypatch):
    # k = 32 machines per capability: a transport CFP carries dozens of legs,
    # and each leg reads the CFP's gap table instead of the calendar
    from cnetsched.harness import build_scaling_scenario, run_scenario
    from cnetsched.timebase import ResourceSchedule

    cfps = []  # per crane CFP: [legs, usable free intervals, calendar lookups]
    current = []

    def counted(name):
        lookup = getattr(ResourceSchedule, name)

        def wrapper(self, *args, **kwargs):
            if current:
                current[-1][2] += 1
            return lookup(self, *args, **kwargs)

        monkeypatch.setattr(ResourceSchedule, name, wrapper)

    for name in ("state_before", "entry_at_or_after", "last_ending_by"):
        counted(name)
    propose, free = TransportAgent._propose, TransportAgent._free

    def counted_propose(self, msg, cfp, step, ctx):
        current.append([len(cfp.legs), 0, 0])
        try:
            return propose(self, msg, cfp, step, ctx)
        finally:
            cfps.append(current.pop())

    def counted_free(self, *args, **kwargs):
        intervals = free(self, *args, **kwargs)
        current[-1][1] = len(intervals)
        return intervals

    monkeypatch.setattr(TransportAgent, "_propose", counted_propose)
    monkeypatch.setattr(TransportAgent, "_free", counted_free)
    report = run_scenario(build_scaling_scenario(32), mode="deterministic")
    assert report.all_done
    assert max(legs for legs, _, _ in cfps) >= 40
    assert any(legs > 5 * intervals > 0 for legs, intervals, _ in cfps)
    assert [(legs, intervals, n) for legs, intervals, n in cfps if n > intervals] == []
