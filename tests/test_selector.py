import random

from hypothesis import given
from hypothesis import strategies as st

from cnetsched.agents import OrderAgent, StageCommit
from cnetsched.calculus import ScheduleParams
from cnetsched.protocol import (
    BUFFER,
    PRODUCTION,
    TRANSPORT,
    Proposal,
    StageNegotiation,
)
from cnetsched.scenario import OrderSpec
from cnetsched.selector import (
    OperationCombination,
    RouteCandidate,
    StageContext,
    build_ocs,
    select,
)
from cnetsched.timebase import Slack, TimeInterval


def prod(pid, resource, start, dur=100, price=None, slack=Slack.UNBOUNDED):
    return Proposal(
        proposal_id=pid,
        kind=PRODUCTION,
        resource_id=resource,
        location=(10.0, 5.0),
        slot=TimeInterval(start, start + dur),
        slack_after=slack,
        op_duration=dur,
        load_time=10,
        unload_time=10,
        price=price if price is not None else dur,
    )


def buf(pid, serves, start, end, resource="Buf1", slack=Slack.UNBOUNDED):
    return Proposal(
        proposal_id=pid,
        kind=BUFFER,
        resource_id=resource,
        location=(20.0, 12.0),
        slot=TimeInterval(start, end),
        slack_after=slack,
        op_duration=end - start,
        load_time=10,
        unload_time=10,
        price=0,
        realizes=serves,
    )


def leg(pid, start, end, realizes, via=None, required=None, resource="Crane1", price=30):
    return Proposal(
        proposal_id=pid,
        kind=TRANSPORT,
        resource_id=resource,
        location=(0.0, 0.0),
        slot=TimeInterval(start, end),
        slack_after=Slack.UNBOUNDED,
        op_duration=end - start,
        load_time=10,
        unload_time=10,
        price=price,
        realizes=realizes,
        via=via,
        required_operation=required,
    )


ENTRY = StageContext(f_prev=0, prev_resource=None)


def follow_up(f_prev=1000):
    return StageContext(f_prev=f_prev, prev_resource="M-prev")


def sent_rejects(ctx, production, buffers=(), transports=()):
    """(receiver, proposal id) of each reject ``OrderAgent.decide`` sends on these proposals."""
    params = ScheduleParams(t_transport_min=60, t_buffer_min=60)
    oa = OrderAgent(OrderSpec("o1", "A"), ("cutting", "forging", "milling"), params)
    if ctx.prev_resource is not None:
        oa.committed = [
            StageCommit(ctx.prev_resource, (0.0, 0.0), TimeInterval(0, ctx.f_prev),
                        Slack.UNBOUNDED)
        ]
    # one proposal list per round, as the stage machine fills them
    neg = StageNegotiation("o1", len(oa.committed))
    neg.proposals = [list(production), list(buffers), list(transports)]
    return [
        (msg.receiver, part.proposal_id)
        for msg in oa.decide(neg, None)
        if msg.variant == "RejectProposal"
        for part in msg.parts
    ]


# ---------------------------------------------------------------------------
# route wiring


def test_entry_stage_needs_no_transport():
    production = [prod("P#1", "M1", 100), prod("P#2", "M2", 50)]
    ocs = build_ocs(production, [], [], ENTRY)
    assert all(len(oc.routes) == 1 and oc.routes[0].kind == "entry" for oc in ocs)
    sel = select(ocs)
    assert sel.winner.production.proposal_id == "P#2"  # finishes 150 vs 200
    assert sel.accept_ids == ("P#2",)
    assert sent_rejects(ENTRY, production) == [("M1", "P#1")]


def test_stay_on_machine_route():
    ctx = follow_up()
    ocs = build_ocs([prod("P#1", "M-prev", 1200)], [], [], ctx)
    assert ocs[0].routes[0].kind == "stay-on-machine"
    assert ocs[0].routes[0].arrival is None
    sel = select(ocs)
    assert sel.fulfillment == 1300
    assert sel.accept_ids == ("P#1",)


def test_direct_route_arrival_defers_fulfillment():
    ctx = follow_up()
    p = prod("P#1", "M1", 1200, dur=100)
    late_leg = leg("T#1", 1300, 1350, realizes="P#1")
    ocs = build_ocs([p], [], [late_leg], ctx)
    sel = select(ocs)
    assert sel.fulfillment == 1450  # max(1200, 1350) + 100
    assert sel.accept_ids == ("P#1", "T#1")


def test_direct_leg_may_not_start_before_workpiece_is_free():
    ctx = follow_up(f_prev=1000)
    ocs = build_ocs(
        [prod("P#1", "M1", 1200)], [], [leg("T#1", 900, 1100, realizes="P#1")], ctx
    )
    assert not ocs[0].routes
    assert select(ocs) is None


def test_direct_leg_never_carries_a_dependency():
    ctx = follow_up()
    ocs = build_ocs(
        [prod("P#1", "M1", 1200)],
        [],
        [leg("T#1", 1000, 1100, realizes="P#1", required="T#0")],
        ctx,
    )
    assert not ocs[0].routes


def test_production_latest_start_prunes_late_arrivals():
    ctx = follow_up()
    p = prod("P#1", "M1", 1200, slack=Slack(50))  # latest start 1250
    ok = leg("T#1", 1100, 1240, realizes="P#1")
    late = leg("T#2", 1100, 1300, realizes="P#1")
    ocs = build_ocs([p], [], [ok, late], ctx)
    assert [r.legs[0].proposal_id for r in ocs[0].routes] == ["T#1"]


def test_buffered_route_wiring_and_rules():
    ctx = follow_up()
    p = prod("P#1", "M1", 3000)
    b = buf("B#1", "P#1", start=1100, end=2900, slack=Slack(100))
    ok_in = leg("T#in", 1000, 1200, realizes="B#1")
    early_in = leg("T#early", 900, 1050, realizes="B#1")  # before the slot opens
    ok_out = leg("T#out", 2900, 3000, realizes="P#1", via="B#1")
    too_late_out = leg("T#late", 3100, 3200, realizes="P#1", via="B#1")  # after exit window
    backwards_out = leg("T#back", 1100, 1150, realizes="P#1", via="B#1")  # before arrival
    ocs = build_ocs(
        [p], [b], [ok_in, early_in, ok_out, too_late_out, backwards_out], ctx
    )
    routes = {(r.legs[0].proposal_id, r.legs[1].proposal_id) for r in ocs[0].routes}
    assert routes == {("T#in", "T#out")}
    assert ocs[0].routes[0].buffer is b
    sel = select(ocs)
    assert sel.accept_ids == ("P#1", "T#in", "T#out", "B#1")


def test_a_proposal_handed_both_links_gets_both_routes():
    # which routes exist is the order's CFPs' call: the selector wires every
    # link it is handed, buffered and direct alike
    ctx = follow_up()
    p1, p2 = prod("P#1", "M1", 3000), prod("P#2", "M2", 3000)
    b = buf("B#1", "P#1", 1000, 2950)
    parts = [
        leg("T#1", 1000, 1200, realizes="B#1"),
        leg("T#2", 2900, 3000, realizes="P#1", via="B#1"),
        leg("T#3", 1000, 1200, realizes="P#1"),
        leg("T#4", 1000, 1200, realizes="P#2"),
    ]
    ocs = {oc.production.proposal_id: oc for oc in build_ocs([p1, p2], [b], parts, ctx)}
    assert [(r.kind, r.proposal_ids) for r in ocs["P#1"].routes] == [
        ("buffered", ("T#1", "T#2", "B#1")),
        ("direct", ("T#3",)),
    ]
    assert [r.kind for r in ocs["P#2"].routes] == ["direct"]


def test_outbound_dependency_must_name_the_inbound_leg():
    ctx = follow_up()
    p = prod("P#1", "M1", 3000)
    b = buf("B#1", "P#1", 1000, 2950)
    i1 = leg("T#i1", 1000, 1200, realizes="B#1")
    o_linked = leg("T#o1", 2800, 2950, realizes="P#1", via="B#1", required="T#i1")
    o_foreign = leg("T#o2", 2800, 2950, realizes="P#1", via="B#1", required="T#zz")
    ocs = build_ocs([p], [b], [i1, o_linked, o_foreign], ctx)
    pairs = {(r.legs[0].proposal_id, r.legs[1].proposal_id) for r in ocs[0].routes}
    assert pairs == {("T#i1", "T#o1")}


# ---------------------------------------------------------------------------
# selection order and determinism


def test_selection_prefers_fulfillment_then_price_then_ids():
    # same finish: P#2 cheaper; P#3 same price as P#2 but higher resource id
    ocs = build_ocs(
        [
            prod("P#1", "M1", 100, dur=100, price=90),
            prod("P#2", "M2", 120, dur=80, price=50),
            prod("P#3", "M3", 120, dur=80, price=50),
        ],
        [],
        [],
        ENTRY,
    )
    sel = select(ocs)
    assert sel.fulfillment == 200
    assert sel.winner.production.proposal_id == "P#2"


def test_buffered_selection_accepts_one_pair_per_buffer():
    ctx = follow_up()
    p = prod("P#1", "M1", 4000)
    b = buf("B#1", "P#1", 1000, 3950)
    i_fast = leg("T#i1", 1000, 1100, realizes="B#1", price=10)
    i_slow = leg("T#i2", 1000, 1300, realizes="B#1", price=10)
    o_fast = leg("T#o1", 3800, 3900, realizes="P#1", via="B#1", price=10)
    o_slow = leg("T#o2", 3800, 3950, realizes="P#1", via="B#1", price=10)
    legs = [i_fast, i_slow, o_fast, o_slow]
    ocs = build_ocs([p], [b], legs, ctx)
    assert len(ocs[0].routes) == 4  # all pairs temporally fine
    sel = select(ocs)
    assert sel.route.legs[0].proposal_id == "T#i1"
    assert sel.route.legs[1].proposal_id == "T#o1"
    assert set(sent_rejects(ctx, [p], [b], legs)) == {("Crane1", "T#i2"), ("Crane1", "T#o2")}


def test_selection_ranks_every_feasible_buffered_pair():
    """The earliest-ending legs on their own (i1, o2) are no route, because o2
    is chained to i2; selection still finds the best of the feasible pairs."""
    ctx = follow_up()
    p = prod("P#1", "M1", 4000)
    b = buf("B#1", "P#1", 1000, 3950)
    i1 = leg("T#i1", 1000, 1100, realizes="B#1")
    i2 = leg("T#i2", 1000, 1200, realizes="B#1")
    o1 = leg("T#o1", 3800, 3960, realizes="P#1", via="B#1")
    o2 = leg("T#o2", 3800, 3950, realizes="P#1", via="B#1", required="T#i2")
    ocs = build_ocs([p], [b], [i1, i2, o1, o2], ctx)
    pairs = {(r.legs[0].proposal_id, r.legs[1].proposal_id) for r in ocs[0].routes}
    assert pairs == {("T#i1", "T#o1"), ("T#i2", "T#o1"), ("T#i2", "T#o2")}
    # all three finish at 4100 for the same price: the route ids break the tie
    sel = select(ocs)
    assert sel.fulfillment == 4100
    assert sel.accept_ids == ("P#1", "T#i1", "T#o1", "B#1")


def test_accepts_and_rejects_partition_routed_proposals():
    ctx = follow_up()
    production = [prod("P#1", "M1", 3000), prod("P#2", "M2", 2800)]
    buffers = [buf("B#1", "P#1", 1000, 2950)]
    transports = [
        leg("T#1", 1000, 1200, realizes="B#1"),
        leg("T#2", 2850, 3000, realizes="P#1", via="B#1"),
        leg("T#3", 1100, 1250, realizes="P#2"),
    ]
    ocs = build_ocs(production, buffers, transports, ctx)
    sel = select(ocs)
    mentioned = {"P#1", "P#2"}
    for oc in ocs:
        for r in oc.routes:
            mentioned.update(r.proposal_ids)
    rejected = [pid for _, pid in sent_rejects(ctx, production, buffers, transports)]
    assert set(sel.accept_ids) | set(rejected) == mentioned
    assert set(sel.accept_ids).isdisjoint(rejected)


def test_selection_is_input_order_independent():
    ctx = follow_up()
    production = [prod(f"P#{i}", f"M{i}", 3000 + 10 * i) for i in (1, 2, 3)]
    buffers = [
        buf("B#1", "P#1", 1000, 2950),
        buf("B#2", "P#2", 1000, 2990),
        buf("B#3", "P#2", 1000, 2990, resource="Buf2"),
    ]
    transports = [
        leg("T#1", 1000, 1200, realizes="B#1"),
        leg("T#2", 2850, 3000, realizes="P#1", via="B#1"),
        leg("T#3", 1000, 1210, realizes="B#2"),
        leg("T#4", 2850, 3010, realizes="P#2", via="B#2"),
        leg("T#5", 1000, 1210, realizes="B#3"),
        leg("T#6", 2850, 3010, realizes="P#2", via="B#3"),
        leg("T#7", 1200, 1400, realizes="P#3"),
    ]
    baseline = select(build_ocs(production, buffers, transports, ctx))
    baseline_rejects = sorted(sent_rejects(ctx, production, buffers, transports))
    for seed in range(8):
        rng = random.Random(seed)
        p, b, t = production[:], buffers[:], transports[:]
        rng.shuffle(p)
        rng.shuffle(b)
        rng.shuffle(t)
        sel = select(build_ocs(p, b, t, ctx))
        assert sel.accept_ids == baseline.accept_ids
        assert sorted(sent_rejects(ctx, p, b, t)) == baseline_rejects
        assert sel.fulfillment == baseline.fulfillment


def test_nothing_feasible_returns_none():
    assert select([]) is None
    ctx = follow_up()
    ocs = build_ocs([prod("P#1", "M1", 3000)], [], [], ctx)  # no buffer, no leg
    assert select(ocs) is None


# ---------------------------------------------------------------------------
# the route rule as a test-side reference: each route's check and price
# worked out from its proposals alone, on every candidate a brute-force
# wiring finds


def ref_price(b, legs):
    return sum(q.price for q in legs) + (b.price if b is not None else 0)


def ref_route(kind, b=None, legs=()):
    return RouteCandidate(kind, b, legs, legs[-1].slot.end if legs else None, ref_price(b, legs))


def ref_within_latest_start(p, start):
    latest = p.slack_after.bound_from(p.slot.start)
    return latest is None or start <= latest


def ref_route_ok(production, route, ctx):
    """Temporal consistency of a candidate chain."""
    if route.arrival is None:
        return True
    if not ref_within_latest_start(production, max(production.slot.start, route.arrival)):
        return False
    if route.kind == "buffered":
        leg_in, leg_out = route.legs
        buf = route.buffer
        if leg_out.slot.start < leg_in.slot.end:
            return False  # picked up before it arrived
        if leg_in.slot.end < buf.slot.start:
            return False  # buffer not yet available on arrival
        buf_latest = buf.slack_after.bound_from(buf.slot.end)
        if buf_latest is not None and leg_out.slot.start > buf_latest:
            return False
        if leg_out.required_operation not in (None, leg_in.proposal_id):
            return False
        return leg_in.required_operation is None  # inbound legs never depend on a later one
    (leg,) = route.legs
    return leg.required_operation is None and leg.slot.start >= ctx.f_prev


def ref_routes(p, buffers, transports, ctx):
    """Every route of ``p`` the links wire, in ``build_ocs``'s order, that passes the check."""
    if ctx.prev_resource is None:
        return [ref_route("entry")]
    if p.resource_id == ctx.prev_resource:
        return [ref_route("stay-on-machine")]
    candidates = [
        ref_route("buffered", b, (leg_in, leg_out))
        for b in buffers
        if b.realizes == p.proposal_id
        for leg_in in transports
        if leg_in.via is None and leg_in.realizes == b.proposal_id
        for leg_out in transports
        if leg_out.via == b.proposal_id and leg_out.realizes == p.proposal_id
    ] + [
        ref_route("direct", None, (t,))
        for t in transports
        if t.via is None and t.realizes == p.proposal_id
    ]
    return [r for r in candidates if ref_route_ok(p, r, ctx)]


slacks = st.one_of(st.just(Slack.UNBOUNDED), st.integers(0, 40).map(Slack))


@st.composite
def proposal_sets(draw):
    """Productions, buffer stays and direct, buffered and dependent legs,
    on small times so that every check sits on its boundary now and then."""
    production = [
        prod(f"P#{i}", draw(st.sampled_from(("M1", "M2", "M-prev"))), draw(st.integers(15, 60)),
             dur=draw(st.integers(1, 3)), price=draw(st.integers(0, 3)), slack=draw(slacks))
        for i in range(draw(st.integers(1, 3)))
    ]
    pids = [p.proposal_id for p in production]
    buffers, transports = [], []

    def add_leg(first, realizes, via=None, inbound=()):
        # an outbound leg names one of its stay's inbound legs more often than not
        start = draw(st.integers(first, first + 20))
        earlier = [t.proposal_id for t in transports]
        required = draw(st.one_of(
            st.none(), st.sampled_from(earlier + ["T#other"]), *map(st.just, inbound)
        ))
        transports.append(
            leg(f"T#{len(transports)}", start, start + draw(st.integers(1, 10)), realizes, via,
                required, price=draw(st.integers(0, 3)))
        )

    for i in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, 15))
        b = buf(f"B#{i}", draw(st.sampled_from(pids)), start, start + draw(st.integers(0, 30)),
                slack=draw(slacks))._replace(price=draw(st.integers(0, 2)))
        buffers.append(b)
        for _ in range(draw(st.integers(0, 2))):
            add_leg(0, b.proposal_id)
        inbound = [t.proposal_id for t in transports if t.realizes == b.proposal_id]
        for _ in range(draw(st.integers(0, 2))):
            add_leg(10, b.realizes, b.proposal_id, inbound)
    for _ in range(draw(st.integers(0, 3))):
        add_leg(0, draw(st.sampled_from(pids)))
    ctx = StageContext(
        f_prev=draw(st.integers(0, 15)),
        prev_resource=None if draw(st.integers(0, 4)) == 0 else "M-prev",
    )
    return production, buffers, transports, ctx


@given(proposal_sets(), st.randoms())
def test_property_routes_and_selection_match_the_reference_route_rule(data, rng):
    production, buffers, transports, ctx = data
    expected = [
        (p, ref_routes(p, buffers, transports, ctx))
        for p in sorted(production, key=lambda q: q.proposal_id)
    ]
    ocs = build_ocs(production, buffers, transports, ctx)
    assert [(oc.production, oc.routes) for oc in ocs] == expected
    choices = [(OperationCombination(p, routes), r) for p, routes in expected for r in routes]
    sel = select(ocs)
    if not choices:
        assert sel is None
        return
    best = min(choices, key=ranking_key)
    assert (sel.winner.production, sel.route) == (best[0].production, best[1])
    assert sel.fulfillment == ranking_key(best)[0]
    assert sel.accept_ids == (best[0].production.proposal_id,) + best[1].proposal_ids
    # the same proposals handed over in another order pick the same route
    for group in (production, buffers, transports):
        rng.shuffle(group)
    again = select(build_ocs(production, buffers, transports, ctx))
    assert again.accept_ids == sel.accept_ids


# small value ranges force ties on fulfillment, price, resource and ids
tied_ids = st.sampled_from(("a", "b"))
small = st.integers(0, 1)


@st.composite
def route_sets(draw):
    ocs = []
    for _ in range(draw(st.integers(0, 4))):
        p = prod(
            draw(tied_ids), draw(st.sampled_from(("M1", "M2"))), draw(st.integers(0, 3)),
            dur=draw(st.integers(1, 2)), price=draw(small),
        )
        routes = []
        for _ in range(draw(st.integers(0, 3))):
            n = draw(st.integers(0, 2))
            legs = tuple(
                leg(draw(tied_ids), 0, draw(st.integers(0, 3)), p.proposal_id, price=draw(small))
                for _ in range(n)
            )
            b = None
            if n == 2 and draw(st.booleans()):
                b = buf(draw(tied_ids), p.proposal_id, 0, 1)._replace(price=draw(small))
            kind = "buffered" if b is not None else "direct" if n else "entry"
            routes.append(ref_route(kind, b, legs))
        ocs.append(OperationCombination(p, routes))
    return ocs


def ranking_key(choice):
    """The ranking rule as a 5-tuple, for ``min`` over every (combination, route)."""
    oc, route = choice
    p = oc.production
    start = max(p.slot.start, route.legs[-1].slot.end) if route.legs else p.slot.start
    return (
        start + p.op_duration,
        p.price + ref_price(route.buffer, route.legs),
        p.resource_id,
        p.proposal_id,
        route.proposal_ids,
    )


@given(route_sets())
def test_property_select_picks_the_least_route_by_the_ranking_key(ocs):
    choices = [(oc, route) for oc in ocs for route in oc.routes]
    sel = select(ocs)
    if not choices:
        assert sel is None
        return
    oc, route = min(choices, key=ranking_key)
    assert sel.winner is oc and sel.route is route
    assert sel.fulfillment == ranking_key((oc, route))[0]
    assert sel.accept_ids == (oc.production.proposal_id,) + route.proposal_ids
