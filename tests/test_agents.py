import bisect
import copy
import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cnetsched.agents import (
    MAX_SLOTS_PER_CFP,
    BufferAgent,
    DirectoryService,
    OrderAgent,
    ProductionAgent,
    StageCommit,
    StartOrder,
    TransportAgent,
    _Refusal,
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
    DeadlineExpired,
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
    FixedBlock,
    MachineSpec,
    OrderSpec,
    TransportSpec,
    build_runtime,
    parse_scenario,
)
from cnetsched.timebase import (
    BookingEntry,
    OverlapError,
    ResourceSchedule,
    Slack,
    TimeInterval,
    min_bound,
    minutes,
)
from conftest import full_gap_walk, open_tails
from oracle import check_invariants, find_entry, physics_check

PARAMS = ScheduleParams(t_transport_min=minutes(21), t_buffer_min=minutes(15))


def shifted(iv: TimeInterval, delta) -> TimeInterval:
    return TimeInterval(iv.start + delta, iv.end + delta)


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
    spec = dataclasses.replace(
        machine_spec({"A": 6000, "B": 6000}, {"A": {"B": 900}, "B": {"A": 1800}}),
        maintenance=(FixedBlock("M1-maint-0", 20_000, 25_000, "B"),),
    )
    m, ctx = ProductionAgent(spec, unload_estimate=600, load_estimate=600), FakeCtx()
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
    assert m.schedule.has_open_tail

    assert m.handle(envelope("M1", "o2", 0, production_cfp(order="o2")), ctx) == []
    assert len(m._deferred) == 1

    out = m.handle(
        envelope("M1", "o1", 0, InformDeparture("o1", departure=6600, loading_time=600)),
        ctx,
    )
    assert not m.schedule.has_open_tail
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
    check_invariants(m.schedule)

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
        envelope("M1", "o1", 0, AcceptProposal(p.proposal_id, shifted(p.slot, -1800))), ctx
    )
    assert "earlier than offered" in out[0].parts[0].reason

    m, ctx, p = fresh_offer()
    latest = p.slack_after.bound_from(p.slot.start)
    out = m.handle(
        envelope("M1", "o1", 0, AcceptProposal(p.proposal_id, shifted(p.slot, latest - p.slot.start + 60))),
        ctx,
    )
    assert "outside the offered slack" in out[0].parts[0].reason
    assert m.schedule.entries[0].order_id == "pre"  # nothing else booked


def test_accept_books_shifted_slot_within_slack_and_records_commit():
    m, ctx = machine(), FakeCtx()
    p = proposals_of(m.handle(envelope("M1", "o1", 0, production_cfp()), ctx))[0]
    booked = shifted(p.slot, 1200)
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
    check_invariants(m.schedule)

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
    held = {h.proposal_id: h for h in t.holds.values()}
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


def hold_fields(agent, p):
    (hold,) = [h for h in agent.holds.values() if h.proposal_id == p.proposal_id]
    return hold._asdict()


def test_every_offer_field_lands_in_its_named_place():
    # every number is distinct (load 13 / unload 11 on a machine and a buffer,
    # load 3 / unload 4 on the crane), so two fields swapped on the way from
    # the placement to the Proposal or the OfferHold show up by name
    ctx = FakeCtx(now=5)
    deadline = 5 + ctx.hold_deadline

    m = ProductionAgent(
        machine_spec({"A": 50}, {"B": {"A": 7}}, initial_state="B"),
        unload_estimate=11,
        load_estimate=13,
    )
    cfp = Cfp(
        kind=PRODUCTION,
        workpiece=WorkpieceInfo("o1", "A", (10.0, 5.0)),
        operation="cutting",
        alternatives=(
            CfpAlternative(StageWindows(es=100, ef=100, ls=200, lf=400)),
            CfpAlternative(StageWindows(es=300, ef=300)),
        ),
        deadline=10**7,
    )
    first, second = proposals_of(m.handle(envelope("M1", "o1", 0, cfp), ctx))
    assert first._asdict() == dict(
        proposal_id="M1#p1", kind=PRODUCTION, resource_id="M1", location=(5.0, 5.0),
        slot=TimeInterval(100, 150), slack_after=Slack(100), op_duration=50, load_time=13,
        unload_time=11, price=50 + 7, alternative=0, realizes=None, via=None,
        required_operation=None,
    )
    assert second._asdict() == dict(
        first._asdict(), proposal_id="M1#p2", slot=TimeInterval(300, 350),
        slack_after=Slack.UNBOUNDED, alternative=1,
    )
    assert hold_fields(m, first) == dict(
        proposal_id="M1#p1", span=TimeInterval(100 - 7 - 11, 150 + 13), conversation_id="o1/s0",
        deadline=deadline, proposal=first, step_label="1", end_state="A",
    )
    assert hold_fields(m, second)["span"] == TimeInterval(300 - 7 - 11, 350 + 13)
    offers = [first, second]

    b = BufferAgent(
        BufferSpec(id="Buf1", location=(20.0, 15.0)), unload_estimate=11, load_estimate=13
    )
    cfp = Cfp(
        kind=BUFFER,
        workpiece=WorkpieceInfo("o1", "A", (5.0, 5.0)),
        operation="buffer",
        alternatives=(
            CfpAlternative(StageWindows(es=1000, ef=2000, ls=5000, lf=6000), realizes="P#1"),
            CfpAlternative(StageWindows(es=3000, ef=3500), realizes="P#2"),
        ),
        deadline=10**7,
    )
    first, second = proposals_of(b.handle(envelope("Buf1", "o1", 1, cfp), ctx))
    assert first._asdict() == dict(
        proposal_id="Buf1#p1", kind=BUFFER, resource_id="Buf1", location=(20.0, 15.0),
        slot=TimeInterval(1000, 2000), slack_after=Slack(6013 - 2013), op_duration=1000,
        load_time=13, unload_time=11, price=0, alternative=0, realizes="P#1", via=None,
        required_operation=None,
    )
    assert second._asdict() == dict(
        first._asdict(), proposal_id="Buf1#p2", slot=TimeInterval(3000, 3500),
        slack_after=Slack.UNBOUNDED, op_duration=500, alternative=1, realizes="P#2",
    )
    assert hold_fields(b, first) == dict(
        proposal_id="Buf1#p1", span=TimeInterval(1000 - 11, 2000 + 13), conversation_id="o1/s1",
        deadline=deadline, proposal=first, step_label="B2", end_state="",
    )
    offers += [first, second]

    t = TransportAgent(
        TransportSpec(id="Crane1", segment=(0.0, 60.0), speed=60.0, load=3, unload=4)
    )
    inbound = TransportLeg((10.0, 5.0), (20.0, 15.0), StageWindows(es=0, ef=1210, lf=1300), "B#1")
    outbound = TransportLeg(
        (20.0, 15.0), (40.0, 5.0), StageWindows(es=2000, ef=2000, ls=2100, lf=2200), "P#1",
        via="B#1",
    )
    cfp = Cfp(
        kind=TRANSPORT,
        workpiece=WorkpieceInfo("o1", "A", (10.0, 5.0)),
        operation="transport",
        legs=(inbound, outbound),
        deadline=10**7,
    )
    into, plain, chained = proposals_of(t.handle(envelope("Crane1", "o1", 1, cfp), ctx))
    # 3 s load + 10 s run + 4 s unload, after a 10-s approach from x = 0
    assert into._asdict() == dict(
        proposal_id="Crane1#p1", kind=TRANSPORT, resource_id="Crane1", location=(10.0, 5.0),
        slot=TimeInterval(1193, 1210), slack_after=Slack(1300 - 1210), op_duration=17,
        load_time=3, unload_time=4, price=17 + 10, alternative=0, realizes="B#1", via=None,
        required_operation=None,
    )
    assert hold_fields(t, into) == dict(
        proposal_id="Crane1#p1", span=TimeInterval(1183, 1210), conversation_id="o1/s1",
        deadline=deadline, proposal=into, step_label="T:1,B2", end_state=20.0,
    )
    # 3 s load + 20 s run + 4 s unload; the plain leg approaches 20 s from x = 0
    assert plain._asdict() == dict(
        proposal_id="Crane1#p2", kind=TRANSPORT, resource_id="Crane1", location=(20.0, 15.0),
        slot=TimeInterval(2000, 2027), slack_after=Slack(2127 - 2027), op_duration=27,
        load_time=3, unload_time=4, price=27 + 20, alternative=0, realizes="P#1", via="B#1",
        required_operation=None,
    )
    assert hold_fields(t, plain) == dict(
        proposal_id="Crane1#p2", span=TimeInterval(1980, 2027), conversation_id="o1/s1",
        deadline=deadline, proposal=plain, step_label="T:B2,2", end_state=40.0,
    )
    # the chained variant loads where the inbound leg drops off: no approach
    assert chained._asdict() == dict(
        plain._asdict(), proposal_id="Crane1#p3", price=27,
        required_operation="Crane1#p1",
    )
    assert hold_fields(t, chained) == dict(
        hold_fields(t, plain), proposal_id="Crane1#p3", span=TimeInterval(2000, 2027),
        proposal=chained,
    )
    offers += [into, plain, chained]

    # _offer builds each offer positionally, defaults filled in: it must be
    # the keyword build, with every field, whatever fields Proposal has
    for p in offers:
        assert type(p) is Proposal and len(p) == len(Proposal._fields)
        assert p == Proposal(**p._asdict())


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


def test_a_crane_without_handling_times_books_its_movement_as_travel_alone():
    # zero load and unload times lay out no segment, so the accept books the
    # loaded run instead of failing on an empty load segment
    from cnetsched.harness import gantt_rows, run_scenario

    doc = {
        "format_version": 1,
        "params": {"t_buffer_min": 15},
        "machines": [
            {"id": "M1", "operation": "cutting", "location": [0, 0], "op_duration": {"A": 1}},
            {"id": "M2", "operation": "forging", "location": [1010, 0], "op_duration": {"A": 1}},
        ],
        "transports": [{"id": "T1", "segment": [0, 2000], "speed": 60, "load": 0, "unload": 0}],
        "products": [{"id": "A", "steps": ["cutting", "forging"]}],
        "orders": [{"id": "o1", "product": "A"}],
    }
    report = run_scenario(parse_scenario(doc), mode="deterministic")
    assert report.status == {"o1": "done"}
    assert [row for row in gantt_rows(report) if row[0] == "T1"] == [
        ("T1", "o1", "T:1,2", "travel", 60, 1070)
    ]
    assert physics_check(doc, gantt_rows(report), report.status) == []


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
    check_invariants(t.schedule)
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


def test_transport_accepts_booked_before_a_failure_stay_booked():
    t, ctx = crane(), FakeCtx()
    props = proposals_of(t.handle(envelope("Crane1", "o1", 1, transport_cfp()), ctx))
    inbound = next(p for p in props if p.via is None)
    out = t.handle(
        envelope(
            "Crane1", "o1", 1,
            AcceptProposal(inbound.proposal_id, inbound.slot),  # books
            AcceptProposal("Crane1#p99", TimeInterval(0, 1210)),  # unknown -> fails
        ),
        ctx,
    )
    assert [m.variant for m in out] == ["InformFailure"]
    assert out[0].parts[0].proposal_id == "Crane1#p99"
    assert [e.order_id for e in t.schedule.entries] == ["o1"]


# ---------------------------------------------------------------------------
# offer book, shared by every resource kind


RESOURCES = {
    "machine": (machine, lambda order, deadline: production_cfp(order=order, deadline=deadline)),
    "buffer": (buffer_place, lambda order, deadline: buffer_cfp(order=order, deadline=deadline)),
    "crane": (crane, transport_cfp),
}


def crane_cfp(*legs, order="o1"):
    return Cfp(
        kind=TRANSPORT,
        workpiece=WorkpieceInfo(order, "A", (10.0, 5.0)),
        operation="transport",
        legs=legs,
        deadline=10**7,
    )


def repeated_legs():
    """Three legs alike but for their y and links, one leg apart, two more
    alike, and one that differs from the first three in its windows only."""
    w = StageWindows(es=500, ef=2000)
    return (
        TransportLeg((10.0, 5.0), (40.0, 5.0), w, "P#1"),
        TransportLeg((10.0, 5.0), (40.0, 15.0), w, "P#2"),
        TransportLeg((10.0, 5.0), (50.0, 5.0), w, "P#3"),
        TransportLeg((10.0, 5.0), (40.0, 25.0), w, "P#4"),
        TransportLeg((20.0, 15.0), (40.0, 5.0), StageWindows(es=3000, ef=3000), "P#5", via="B#1"),
        TransportLeg((20.0, 15.0), (40.0, 15.0), StageWindows(es=3000, ef=3000), "P#6", via="B#2"),
        TransportLeg((10.0, 5.0), (40.0, 5.0), StageWindows(es=4000, ef=5000), "P#7"),
    )


def busy_crane():
    t = crane()
    t.schedule.insert_booking(closed_block("x", 100, 900, end_state=30.0))
    hold_others(t, [(2500, 2700)])
    return t


def test_repeated_crane_legs_get_one_shared_placement_and_offers_of_their_own():
    legs = repeated_legs()
    t, ctx = busy_crane(), FakeCtx()
    props = proposals_of(t.handle(envelope("Crane1", "o1", 1, crane_cfp(*legs)), ctx))
    assert [(p.realizes, p.via) for p in props] == [(leg.realizes, leg.via) for leg in legs]
    assert len({p.proposal_id for p in props}) == len(legs)
    holds = {
        h.proposal_id: h
        for h in t.holds.values()
        if h.conversation_id == conversation_id("o1", 1)
    }
    assert set(holds) == {p.proposal_id for p in props}
    assert all(holds[p.proposal_id].proposal is p for p in props)
    # each offer is the one the leg gets when it is asked for alone
    for leg, p in zip(legs, props):
        alone = busy_crane()
        (single,) = proposals_of(alone.handle(envelope("Crane1", "o1", 1, crane_cfp(leg)), ctx))
        assert single._replace(proposal_id=p.proposal_id) == p
    placement = [(p.location, p.slot, p.slack_after, p.price) for p in props]
    assert placement[0] == placement[1] == placement[3] != placement[2]
    assert placement[4] == placement[5]
    assert placement[6] != placement[0]


def test_a_crane_walks_its_table_once_per_distinct_leg(monkeypatch):
    fits, entered = TransportAgent._fits, []

    def counted(self, *args, **kwargs):
        entered.append(args[3])  # the walk's earliest start
        return fits(self, *args, **kwargs)

    monkeypatch.setattr(TransportAgent, "_fits", counted)
    out = busy_crane().handle(envelope("Crane1", "o1", 1, crane_cfp(*repeated_legs())), FakeCtx())
    assert len(proposals_of(out)) == 7
    assert len(entered) == 4  # (10 -> 40) twice, with other windows, (10 -> 50) and (20 -> 40)


def test_a_crane_offers_a_leg_that_lasts_load_travel_and_unload():
    # 5 m/min with 10-min load and unload between positions of the bundled flow shop
    t = TransportAgent(
        TransportSpec(id="Crane1", segment=(0.0, 60.0), speed=5.0, load=minutes(10),
                      unload=minutes(10), initial_x=5.0)
    )
    w = StageWindows(es=0, ef=0)
    legs = (
        TransportLeg((5.0, 5.0), (15.0, 15.0), w, "P#1"),
        TransportLeg((15.0, 15.0), (10.0, 11.0), w, "P#2"),
    )
    props = proposals_of(t.handle(envelope("Crane1", "o1", 1, crane_cfp(*legs)), FakeCtx()))
    assert [p.op_duration for p in props] == [minutes(22), minutes(21)]


def test_a_crane_offers_nothing_for_a_leg_outside_its_segment():
    t = TransportAgent(
        TransportSpec(id="Crane1", segment=(0.0, 10.0), speed=60.0, load=60, unload=60)
    )
    w = StageWindows(es=0, ef=0)
    outside = TransportLeg((5.0, 0.0), (15.0, 0.0), w, "P#1")
    assert t.handle(envelope("Crane1", "o1", 1, crane_cfp(outside)), FakeCtx()) == []
    inside = TransportLeg((5.0, 0.0), (10.0, 0.0), w, "P#2")
    out = t.handle(envelope("Crane1", "o1", 1, crane_cfp(outside, inside)), FakeCtx())
    assert [p.realizes for p in proposals_of(out)] == ["P#2"]


def test_a_chained_variant_is_placed_against_its_own_partner():
    # two outbound legs share a placement key, but each chains onto another
    # inbound leg, and the later partner pushes its variant back
    inbound_a = TransportLeg((10.0, 5.0), (20.0, 15.0), StageWindows(es=0, ef=1210), "B#1")
    inbound_b = TransportLeg((0.0, 5.0), (20.0, 15.0), StageWindows(es=3000, ef=4220), "B#2")
    w_out = StageWindows(es=2000, ef=2000)
    out_a = TransportLeg((20.0, 15.0), (40.0, 5.0), w_out, "P#1", via="B#1")
    out_b = TransportLeg((20.0, 15.0), (40.0, 5.0), w_out, "P#2", via="B#2")
    t, ctx = crane(), FakeCtx()
    cfp = crane_cfp(inbound_a, inbound_b, out_a, out_b)
    props = proposals_of(t.handle(envelope("Crane1", "o1", 1, cfp), ctx))
    partner_a, partner_b = props[0], props[1]
    assert (partner_a.slot, partner_b.slot) == (TimeInterval(10, 1220), TimeInterval(3000, 4220))
    plain = [p for p in props[2:] if p.required_operation is None]
    chained = [p for p in props[2:] if p.required_operation is not None]
    assert [p.realizes for p in plain] == ["P#1", "P#2"]
    assert plain[0].slot == plain[1].slot == TimeInterval(2000, 3220)
    assert [(p.realizes, p.required_operation, p.slot, p.price) for p in chained] == [
        ("P#1", partner_a.proposal_id, TimeInterval(2000, 3220), 1220),
        ("P#2", partner_b.proposal_id, TimeInterval(4220, 5440), 1220),
    ]


def test_directory_search_stays_sorted_when_a_register_follows_a_search():
    d = DirectoryService()
    d.register("cutting", "M2")
    assert d.search("cutting") == ("M2",)
    assert d.search("forging") == ()
    d.register("cutting", "M1")
    d.register("forging", "F1")
    assert d.search("cutting") == ("M1", "M2")
    assert d.search("forging") == ("F1",)


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
def test_only_a_machine_defers_while_another_orders_offer_is_held(kind):
    agent, ctx = resource(kind), FakeCtx()
    assert proposals_of(ask(kind, agent, ctx, "o1"))
    out = ask(kind, agent, ctx, "o2")
    if kind == "machine":
        # the offer may yet become a booking whose workpiece stays on the machine
        assert out == [] and len(agent._deferred) == 1
    else:
        assert proposals_of(out) and agent._deferred == []


def test_drain_answers_one_order_and_requeues_the_ones_it_engages_the_machine_for():
    m, ctx = machine(), FakeCtx()
    first = proposals_of(ask("machine", m, ctx, "o1"))
    assert ask("machine", m, ctx, "o2") == [] and ask("machine", m, ctx, "o3") == []
    assert len(m._deferred) == 2

    out = m.handle(envelope("M1", "o1", 1, *[RejectProposal(p.proposal_id) for p in first]), ctx)
    assert [msg.receiver for msg in out] == ["o2"]
    assert [q.sender for q in m._deferred] == ["o3"]  # queued behind o2's new hold

    second = proposals_of(out)
    out = m.handle(envelope("M1", "o2", 1, *[RejectProposal(p.proposal_id) for p in second]), ctx)
    assert [msg.receiver for msg in out] == ["o3"]
    assert m._deferred == []


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


def test_an_order_aborted_by_a_refused_commit_rejects_the_offers_of_the_open_stage():
    # stage 1 commits on M1 and stage 2 asks M2 and M3 to mill; M2 has
    # answered when M1 refuses stage 1: M2's offer must be freed at once,
    # not held until its hold deadline
    oa = OrderAgent(OrderSpec("o1", "A"), ("cutting", "milling"), PARAMS)
    ctx = FakeCtx()
    mill = machine_spec({"A": 3000}, {})
    resources = {"M1": machine("M1")}
    for rid in ("M2", "M3"):
        resources[rid] = ProductionAgent(dataclasses.replace(mill, id=rid, operation="milling"))
        ctx.directory.register("milling", rid)
    ctx.directory.register("cutting", "M1")
    (cfp,) = oa.handle(StartOrder("o1"), ctx)
    (offer,) = resources["M1"].handle(cfp, ctx)
    sent = oa.handle(offer, ctx)
    assert [(m.receiver, m.conversation_id) for m in sent] == [
        ("M1", "o1/s0"), ("M2", "o1/s1"), ("M3", "o1/s1")
    ]
    (m2_offer,) = resources["M2"].handle(sent[1], ctx)
    assert oa.handle(m2_offer, ctx) == []  # still awaiting M3
    refusal = Message("M1", "o1", "o1/s0", (InformFailure(offer.parts[0].proposal_id, "gone"),))
    out = oa.handle(refusal, ctx)
    assert oa.status == "failed"
    assert out == [
        Message("o1", "M2", "o1/s1", tuple(RejectProposal(p.proposal_id) for p in m2_offer.parts))
    ]
    resources["M2"].handle(out[0], ctx)
    assert len(resources["M2"].holds) == 0


def test_a_commit_refused_in_the_final_stage_fails_the_order(flowshop_scenario, monkeypatch):
    # the order finishes as its last decide sends the accepts, so the
    # refusal reaches an order that already reads done: it still aborts
    from cnetsched.harness import run_scenario

    s = flowshop_scenario
    final = {o.id: str(len(s.product(o.product).steps)) for o in s.orders}
    booking = ProductionAgent._booking

    def refuse_the_final_step(self, hold, acc, order_id):
        if hold.step_label == final[order_id]:
            raise _Refusal("final step refused")
        return booking(self, hold, acc, order_id)

    monkeypatch.setattr(ProductionAgent, "_booking", refuse_the_final_step)
    report = run_scenario(flowshop_scenario, mode="deterministic")
    assert report.status == {"order-A": "failed", "order-B": "failed"}
    for diagnostic in report.diagnostics.values():
        assert diagnostic.startswith("commit refused by Quality: final step refused")


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
    # a failed order stays as it failed, whatever comes in; a done one only
    # answers a stray proposal with a reject (a refused commit aborts it)
    oa, ctx = order_agent(), FakeCtx()
    oa.status, oa.diagnostic = "failed", "stage 1: no offers"
    out = oa.handle(
        Message("M1", "o1", "o1/s0", (InformFailure("M1#p1", "late"),)), ctx
    )
    assert out == [] and oa.status == "failed" and oa.diagnostic == "stage 1: no offers"
    oa.status = "done"
    late = offered_operation("M1#p2", "M1", 5.0, 0)
    out = oa.handle(Message("M1", "o1", "o1/s0", (late,)), ctx)
    assert out == [Message("o1", "M1", "o1/s0", (RejectProposal("M1#p2"),))]
    assert oa.handle(DeadlineExpired(1), ctx) == [] and oa.status == "done"


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
    return [(leg.via, leg.realizes) for leg in transport_call.parts[0].legs]


def test_order_asks_buffer_legs_for_a_buffered_proposal_and_a_direct_leg_otherwise():
    assert legs_asked(with_buffer_offers=True) == [
        (None, "Buf1#p1"),  # into the buffer
        ("Buf1#p1", "P#1"),  # out of it, via the stay the inbound leg realizes
        (None, "P#2"),  # straight to the machine that needs no buffering
    ]


def test_order_asks_no_leg_for_a_buffered_proposal_without_a_buffer_offer():
    assert legs_asked(with_buffer_offers=False) == [(None, "P#2")]


# ---------------------------------------------------------------------------
# placement skip: the same offers as a walk over every free interval
#
# Calendars are grown by ``insert_booking``, which prices the agent's own
# changeover, so a later booking may shrink a successor's setup and a gap may end
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
        setup = m.schedule.changeover(prev, state)
        segments = [("operation", TimeInterval(start + setup, start + setup + dur))]
        if setup:
            segments.insert(0, ("setup", TimeInterval(start, start + setup)))
        entry = BookingEntry(
            f"o{i}", "1", segments, open_tail=draw(st.integers(0, 4)) == 0, end_state=state,
            start_state=state,
        )
        try:
            m.schedule.insert_booking(entry)
        except OverlapError:
            pass
    check_invariants(m.schedule)
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
    free = m.schedule.free_intervals(extra_busy=m.holds.active_spans(exclude_conversation=conv))
    out = []
    for alt_idx, alt in enumerate(cfp.alternatives):
        es = tail.operation_end if own else alt.windows.es
        ls, lf = alt.windows.ls, alt.windows.lf
        emitted = 0
        for gap_start, gap_end, from_state, ti_next in full_gap_walk(m.schedule, free, product):
            if own and gap_start != tail.operation_end:
                continue
            setup = m.schedule.changeover(from_state, product)
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
                    ctx.now() + ctx.hold_deadline,
                    conv,
                    "1",
                    TimeInterval(block_start, op_end + load_est),
                    product,
                    (
                        m.location,
                        TimeInterval(op_start, op_end),
                        _slack_from(
                            gap_end,
                            op_end + load_est,
                            min_bound(
                                ls + op_dur + load_est if ls is not None else None,
                                lf + load_est if lf is not None else None,
                            ),
                        ),
                        op_dur,
                        load_est,
                        unload,
                        proposal_price(op_dur, setup, ti_next),
                        alt_idx,
                    ),
                )
            )
            emitted += 1
            if emitted >= MAX_SLOTS_PER_CFP:
                break
    return out


@st.composite
def machine_cfp(draw, m):
    tails = open_tails(m.schedule)
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
    made = [p for out in m._on_cfp(msg, cfp, ctx) for p in out.parts]
    assert made == full_walk_machine(ref, cfp, msg.conversation_id, ctx)
    assert list(m.holds.values()) == list(ref.holds.values())


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
        # some bookings keep their approach: their pickup is not known, as
        # for a block the scenario fixed
        known = draw(st.booleans())
        entry = BookingEntry(
            f"o{i}", "T", segments, end_state=drop, start_state=pickup if known else None
        )
        try:
            t.schedule.insert_booking(entry)
        except OverlapError:
            continue
    hold_others(t, draw(other_holds))
    check_invariants(t.schedule)
    return t


def full_walk_leg(t, leg, dur, free, after=None):
    """The crane's leg placement over every free interval (before the skip)."""
    geom = t.geometry
    w = leg.windows
    fx, tx = leg.from_location[0], leg.to_location[0]
    for gap_start, gap_end, from_state, ti_next in full_gap_walk(t.schedule, free, tx):
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
        slack_after = _slack_from(
            gap_end, end, min_bound(w.ls + dur if w.ls is not None else None, w.lf)
        )
        return (
            TimeInterval(max(0, load_start - setup), end),
            TimeInterval(load_start, end),
            slack_after,
            proposal_price(dur, setup, ti_next),
        )
    return None


def placed(leg):
    if leg is None:
        return None
    span, fields = leg
    proposal = Proposal("-", TRANSPORT, "-", *fields)
    return span, proposal.slot, proposal.slack_after, proposal.price


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
    bounded = t._table(conv, base - lower)
    full = t.schedule.free_intervals(extra_busy=t.holds.active_spans(exclude_conversation=conv))
    assert placed(t._place_leg(leg, dur, bounded, after)) == full_walk_leg(
        t, leg, dur, full, after
    )


def walked(slots, dur, handling=0, tail=0):
    """``_fits``' slots as (span, slot, slack_after, price), a placement's terms."""
    return [
        (TimeInterval(start - setup - handling, end + tail), TimeInterval(start, end), slack,
         proposal_price(dur, setup, ti_next))
        for start, end, setup, ti_next, slack in slots
    ]


@given(st.data())
def test_property_the_placement_walk_gives_a_machine_the_full_walks_slots(data):
    # up to MAX_SLOTS_PER_CFP slots per alternative, read straight off the walk
    m = data.draw(machine_with_calendar())
    cfp = data.draw(machine_cfp(m))
    order, product = cfp.workpiece.order_id, cfp.workpiece.product
    hold_others(m, data.draw(other_holds), order)
    conv = conversation_id(order, 0)
    ref, ctx = copy.deepcopy(m), FakeCtx()
    offers = full_walk_machine(ref, cfp, conv, ctx)
    spans = {h.proposal_id: h.span for h in ref.holds.values()}
    tail = m.schedule.open_tail_for(order)
    if m._engaged_elsewhere(order):
        assert offers == []
        return
    unload = 0 if (cfp.workpiece.location is None or tail) else m.unload_estimate
    earliest = [tail.operation_end if tail else alt.windows.es for alt in cfp.alternatives]
    table = m._table(conv, min(earliest))
    if tail is not None:
        table = [row for row in table if row.start == tail.operation_end]
    dur = m.op_duration[product]
    for alt_idx, (alt, es) in enumerate(zip(cfp.alternatives, earliest)):
        slots = m._fits(
            table, product, product, es, dur, alt.windows, MAX_SLOTS_PER_CFP, unload,
            m.load_estimate,
        )
        assert walked(slots, dur, unload, m.load_estimate) == [
            (spans[p.proposal_id], p.slot, p.slack_after, p.price)
            for p in offers
            if p.alternative == alt_idx
        ]


@given(
    crane_with_calendar(),
    st.one_of(st.none(), st.tuples(st.integers(0, 700), st.integers(5, 60))),
    st.sampled_from((0.0, 12.0, 30.0, 60.0)),
    st.sampled_from((0.0, 12.0, 30.0, 60.0)),
    st.sampled_from((0.0, 20.0, 45.0, 60.0)),
    st.integers(0, 800),
    st.integers(0, 120),
    st.one_of(st.none(), st.integers(0, 300)),
    st.one_of(st.none(), st.integers(0, 400)),
    st.tuples(st.integers(0, 800), st.integers(10, 80)),
)
def test_property_the_placement_walk_gives_crane_legs_the_full_walks_slots(
    t, init, fx_a, fx_b, tx, es, ef_after, ls_room, lf_room, partner_slot
):
    # two legs that drop off at the same x read one table, one slot each; the
    # chained variant loads at the partner's drop-off with no approach; an
    # initial block, whose pickup the crane does not know, keeps its approach
    if init is not None:
        start, length = init
        try:
            block = FixedBlock("T-init-0", start, start + length, 45.0)
            t._book_fixed((block, "init", "operation", None))
        except OverlapError:
            pass
    geom = t.geometry
    ef = es + ef_after
    windows = StageWindows(
        es=es,
        ef=ef,
        ls=None if ls_room is None else es + ls_room,
        lf=None if lf_room is None else ef + lf_room,
    )
    legs = [TransportLeg((fx, 5.0), (tx, 5.0), windows, realizes="P#1") for fx in (fx_a, fx_b)]
    durs = [geom.load_time + geom.travel_seconds(fx, tx) + geom.unload_time for fx in (fx_a, fx_b)]
    conv = "o1/s1"
    table = t._table(conv, min(max(es, ef - dur) for dur in durs))
    full = t.schedule.free_intervals(extra_busy=t.holds.active_spans(exclude_conversation=conv))
    for leg, dur in zip(legs, durs):
        slots = t._fits(table, leg.from_location[0], tx, max(es, ef - dur), dur, windows, 1)
        expected = full_walk_leg(t, leg, dur, full)
        assert walked(slots, dur) == ([] if expected is None else [expected])
    start, length = partner_slot
    after = Proposal(
        "Crane1#p0", TRANSPORT, "Crane1", (0.0, 5.0), TimeInterval(start, start + length),
        Slack(0), length, 5, 5, price=length,
    )
    reachable = table[: bisect.bisect_right(table, after.slot.start, key=lambda row: row.start)]
    earliest = max(es, ef - durs[0], after.slot.end)
    slots = t._fits(reachable, None, tx, earliest, durs[0], windows, 1)
    expected = full_walk_leg(t, legs[0], durs[0], full, after)
    assert walked(slots, durs[0]) == ([] if expected is None else [expected])


def test_crane_keeps_an_interval_that_ends_before_the_base_when_the_gap_stretches():
    # the successor's 60-s approach from x=60 shrinks to 0 after a drop at x=0,
    # so the gap reaches 160 although its free interval ends at 100
    t = crane(initial_x=0.0, handling=5)
    t.schedule.insert_booking(
        BookingEntry(
            "s",
            "T",
            [("travel", TimeInterval(100, 160)), ("load", TimeInterval(160, 165))],
            end_state=0.0,
            start_state=0.0,  # its pickup
        )
    )
    leg = TransportLeg((0.0, 5.0), (0.0, 5.0), StageWindows(es=140, ef=150), "P#1")
    conv = "o1/s1"
    table = t._table(conv, 140)
    assert table[0][:2] == (0, 100)
    _span, fields = t._place_leg(leg, 10, table)
    proposal = Proposal("-", TRANSPORT, "Crane1", *fields)
    assert proposal.slot == TimeInterval(140, 150)
    assert proposal.price == 10 + 0 - 60  # the successor's setup shrinks by 60 s
    assert proposal.slack_after == Slack(10)


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
            start_state="A",
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
    from cnetsched.harness import build_shop_scenario, run_scenario

    counts = {"legs": 0, "rows": 0}
    walking = []  # non-empty inside the placement walk, but not in its bisect
    table_of, fits, usable = TransportAgent._table, TransportAgent._fits, TransportAgent._usable
    place = TransportAgent._place_leg

    class Rows(list):
        """A gap table that counts the rows the walk reads from it by index."""

        def __getitem__(self, i):
            if isinstance(i, slice):
                return Rows(super().__getitem__(i))
            if walking:
                counts["rows"] += 1
            return super().__getitem__(i)

    def counted_table(self, *args, **kwargs):
        return Rows(table_of(self, *args, **kwargs))

    def counted_fits(self, *args, **kwargs):
        walking.append(True)
        try:
            return fits(self, *args, **kwargs)
        finally:
            walking.pop()

    def counted_usable(self, table, base):
        paused = walking[:]
        walking.clear()  # its bisect probes are not rows the walk reads
        try:
            return usable(self, table, base)
        finally:
            walking.extend(paused)

    def counted_place(self, *args, **kwargs):
        counts["legs"] += 1
        return place(self, *args, **kwargs)

    monkeypatch.setattr(TransportAgent, "_table", counted_table)
    monkeypatch.setattr(TransportAgent, "_fits", counted_fits)
    monkeypatch.setattr(TransportAgent, "_usable", counted_usable)
    monkeypatch.setattr(TransportAgent, "_place_leg", counted_place)
    report = run_scenario(build_shop_scenario("flow", n_orders, 100), mode="deterministic")
    assert list(report.status.values()).count("done") == n_orders
    assert counts["legs"] > n_orders
    assert 0 < counts["rows"] <= 5 * counts["legs"]


def test_a_crane_cfp_looks_up_each_free_interval_once_whatever_its_legs(monkeypatch):
    # k = 32 machines per capability: a transport CFP carries dozens of legs,
    # and each leg reads the CFP's gap table instead of the calendar
    from cnetsched.harness import build_scaling_scenario, run_scenario

    cfps = []  # per crane CFP: [legs, gap table rows, calendar lookups]
    current = []

    def counted(name):
        lookup = getattr(ResourceSchedule, name)

        def wrapper(self, *args, **kwargs):
            if current:
                current[-1][2] += 1
            return lookup(self, *args, **kwargs)

        monkeypatch.setattr(ResourceSchedule, name, wrapper)

    for name in ("state_before", "entry_at_or_after"):
        counted(name)
    propose, table_of = TransportAgent._propose, TransportAgent._table

    def counted_propose(self, msg, cfp, *args):
        current.append([len(cfp.legs), 0, 0])
        try:
            return propose(self, msg, cfp, *args)
        finally:
            cfps.append(current.pop())

    def counted_table(self, *args, **kwargs):
        table = table_of(self, *args, **kwargs)
        current[-1][1] = len(table)
        return table

    monkeypatch.setattr(TransportAgent, "_propose", counted_propose)
    monkeypatch.setattr(TransportAgent, "_table", counted_table)
    report = run_scenario(build_scaling_scenario(32), mode="deterministic")
    assert report.all_done
    assert cfps and all(intervals > 0 for _, intervals, _ in cfps)
    assert max(legs for legs, _, _ in cfps) >= 40
    assert any(legs > 5 * intervals > 0 for legs, intervals, _ in cfps)
    assert [(legs, intervals, n) for legs, intervals, n in cfps if n > intervals] == []


# ---------------------------------------------------------------------------
# the kept gap table

calendar_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("book"),
            st.integers(0, 600),
            st.integers(1, 50),
            st.sampled_from("ABC"),
            st.integers(0, 3).map(lambda n: n == 0),
        ),
        st.tuples(st.just("close"), st.integers(0, 30)),
        st.tuples(st.just("hold"), st.integers(0, 700), st.integers(1, 40)),
        st.tuples(st.just("release")),
    ),
    max_size=14,
)


def fresh_table(m, conv, base):
    """The gap table a CFP of ``conv`` from ``base`` gets when built from scratch:
    on a copy of the calendar, which keeps no table."""
    calendar = ResourceSchedule(list(m.schedule.entries), initial=m.schedule.initial)
    busy = m.holds.active_spans(exclude_conversation=conv)
    return calendar.gap_table(base - m._setup_bound - 1, busy)


#: the bases of the CFPs asked after each step, a later one often on the same calendar
cfp_bases = st.lists(
    st.lists(st.integers(0, 900), min_size=1, max_size=3), min_size=15, max_size=15
)


@given(calendar_steps, cfp_bases)
def test_property_a_kept_table_is_the_fresh_table_with_rows_that_end_early(steps, bases):
    # every step is followed by CFPs; the first ones meet an empty calendar
    m, conv = small_machine(), "o1/s0"
    edits = held = 0
    for step, step_bases in zip([None, *steps], bases):
        if step is None:
            pass
        elif step[0] == "book":
            _, start, dur, state, open_tail = step
            segments = [("operation", TimeInterval(start, start + dur))]
            entry = BookingEntry(
                f"b{edits}", "1", segments, open_tail, end_state=state, start_state=state
            )
            try:
                m.schedule.insert_booking(entry)
                edits += 1
            except OverlapError:
                pass
        elif step[0] == "close":
            tails = open_tails(m.schedule)
            if tails:
                try:
                    m.schedule.close_open_tail(tails[0].order_id, tails[0].span_end + step[1], 4)
                    edits += 1
                except OverlapError:
                    pass
        elif step[0] == "hold":
            _, start, dur = step
            m.holds.add(OfferHold(f"x#{held}", TimeInterval(start, start + dur), "x/s9", 10**6))
            held += 1
        elif held:
            held -= 1
            m.holds.release(f"x#{held}")
        for base in step_bases:
            table = m._table(conv, base)
            fresh = fresh_table(m, conv, base)
            extra = len(table) - len(fresh)
            assert extra >= 0 and table[extra:] == fresh
            after = base - m._setup_bound - 1
            assert all(row.end <= after for row in table[:extra])
            assert table[m._usable(table, base):] == fresh[m._usable(fresh, base):]


def test_a_machine_reuses_its_table_until_the_calendar_changes_or_another_order_holds():
    m = small_machine()
    first = m._table("o1/s0", 100)
    assert m._table("o2/s0", 200) is first  # same calendar, a later base
    earlier = m._table("o2/s0", 50)
    assert earlier is not first  # an earlier base needs rows the table lacks
    assert m._table("o3/s0", 100) is earlier
    m.schedule.insert_booking(closed_block("x", 500, 600, end_state="A"))
    assert m._table("o3/s0", 100) is not earlier
    hold_others(m, [(700, 10)])
    assert m._table("o3/s0", 100) is not m._table("o3/s0", 100)


def test_most_machine_cfps_on_a_wide_floor_reuse_the_kept_table(monkeypatch):
    # k = 32 machines per capability: of the machines a production CFP
    # reaches, all but the one that booked the last stage are unchanged
    from cnetsched.harness import build_scaling_scenario, run_scenario

    counts = {"cfps": 0, "built": 0}
    inside: list[bool] = []
    table_of, free_intervals = ProductionAgent._table, ResourceSchedule.free_intervals

    def counted_table(self, *args, **kwargs):
        counts["cfps"] += 1
        inside.append(True)
        try:
            return table_of(self, *args, **kwargs)
        finally:
            inside.pop()

    def counted_free_intervals(self, *args, **kwargs):
        if inside:  # one call per table built
            counts["built"] += 1
        return free_intervals(self, *args, **kwargs)

    monkeypatch.setattr(ProductionAgent, "_table", counted_table)
    monkeypatch.setattr(ResourceSchedule, "free_intervals", counted_free_intervals)
    report = run_scenario(build_scaling_scenario(32), mode="deterministic")
    assert report.all_done
    assert counts["built"] > 0
    assert counts["cfps"] - counts["built"] >= 0.8 * counts["cfps"]
