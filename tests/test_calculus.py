from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cnetsched.calculus import (
    InfeasibleWindow,
    NoTransport,
    ScheduleParams,
    StageWindows,
    TransportGeometry,
    buffer_windows,
    derive_t_transport_min,
    needs_buffering,
    proposal_price,
    transport_direct_windows,
    transport_from_buffer_windows,
    transport_to_buffer_windows,
)
from cnetsched.protocol import BUFFER, PRODUCTION, Proposal
from cnetsched.timebase import Slack, TimeInterval, hhmm, minutes

PARAMS = ScheduleParams(t_transport_min=minutes(21), t_buffer_min=minutes(15))


class Offer(NamedTuple):
    """Stand-in for an offer: the window functions read only these two fields."""

    slot: TimeInterval
    slack_after: Slack


def offer(start, finish, slack_after=Slack.UNBOUNDED):
    return Offer(TimeInterval(start, finish), slack_after)


CRANE = TransportGeometry(
    speed=5 / 60.0, load_time=minutes(10), unload_time=minutes(10), x_min=0.0, x_max=60.0
)

# machine and buffer positions of the bundled flow shop
FLOOR = [
    (5.0, 5.0),  # cutting
    (10.0, 11.0),  # forging
    (25.0, 15.0),  # roll-forming
    (30.0, 5.0),  # milling (a)
    (30.0, 15.0),  # milling (b)
    (40.0, 5.0),  # quality
    (15.0, 15.0),  # buffer place 1
    (35.0, 10.0),  # buffer place 2
]


# ---------------------------------------------------------------------------
# reference vector: one buffered hop, all nine derived bounds


def test_buffered_hop_reference_vector():
    f_prev = minutes(18 * 60)  # previous step finishes 18:00
    prod = offer(  # next step offered at 19:10 with 100 min slack
        start=minutes(19 * 60 + 10),
        finish=minutes(19 * 60 + 10) + minutes(150),
        slack_after=Slack(minutes(100)),
    )

    w_b = buffer_windows(f_prev, prod, PARAMS)
    assert hhmm(w_b.es) == "18:00"
    assert hhmm(w_b.ef) == "18:49"
    assert hhmm(w_b.ls) == "20:14"
    assert hhmm(w_b.lf) == "20:29"

    # inbound leg measures against the buffer's entry window
    entry = offer(w_b.es, w_b.ef, Slack(w_b.ls - w_b.es))
    w_in = transport_to_buffer_windows(f_prev, Slack.UNBOUNDED, entry, prod, PARAMS)
    assert hhmm(w_in.es) == "18:00"
    assert hhmm(w_in.ls) == "19:53"
    assert hhmm(w_in.lf) == "20:14"

    # outbound leg measures against the buffer's exit window
    exit_c = offer(w_b.es, w_b.ef, Slack(w_b.lf - w_b.ef))
    w_out = transport_from_buffer_windows(f_prev, exit_c, prod, PARAMS)
    assert hhmm(w_out.es) == "18:36"
    assert hhmm(w_out.ef) == "19:10"
    assert hhmm(w_out.ls) == "20:29"
    assert hhmm(w_out.lf) == "20:50"


def test_buffer_windows_unbounded_next_slack():
    w = buffer_windows(0, offer(minutes(30), minutes(60)), PARAMS)
    assert w.es == 0
    assert w.ef == minutes(9)
    assert w.ls is None and w.lf is None


def test_buffer_windows_infeasible_when_next_step_too_close():
    with pytest.raises(InfeasibleWindow):
        buffer_windows(minutes(100), offer(minutes(110), minutes(200)), PARAMS)


def test_direct_windows():
    w = transport_direct_windows(
        minutes(60),
        Slack(minutes(5)),
        offer(minutes(90), minutes(120), Slack(minutes(200))),
        PARAMS,
    )
    assert w.es == minutes(60)
    assert w.ef == minutes(90)
    assert w.ls == minutes(65)  # previous commitment binds first
    assert w.lf == minutes(290)


def test_direct_windows_infeasible():
    with pytest.raises(InfeasibleWindow):
        transport_direct_windows(
            minutes(100),
            Slack(0),
            offer(minutes(300), minutes(400), Slack(0)),
            ScheduleParams(minutes(300), minutes(15)),
        )


def test_from_buffer_windows_infeasible_exit():
    with pytest.raises(InfeasibleWindow):
        transport_from_buffer_windows(
            minutes(100),
            offer(minutes(100), minutes(105), Slack(0)),
            offer(minutes(500), minutes(600), Slack.UNBOUNDED),
            PARAMS,
        )


# ---------------------------------------------------------------------------
# parameter derivation and leg durations


def test_transport_floor_from_floor_layout():
    assert derive_t_transport_min(FLOOR, [CRANE, CRANE]) == minutes(21)


def test_transport_floor_ignores_colocated_pairs():
    geom = TransportGeometry(1.0, 600, 600, 0.0, 100.0)
    assert derive_t_transport_min([(10, 0), (10, 5), (20, 0)], [geom]) == 1200 + 10
    # all locations on one x: handling only
    assert derive_t_transport_min([(10, 0), (10, 5)], [geom]) == 1200


def test_transport_floor_requires_fleet_and_locations():
    with pytest.raises(NoTransport):
        derive_t_transport_min(FLOOR, [])
    with pytest.raises(ValueError):
        derive_t_transport_min([(0, 0)], [CRANE])


def test_travel_rounding_is_exact_on_whole_results():
    assert CRANE.travel_seconds(5, 15) == 120
    assert CRANE.travel_seconds(0, 0) == 0
    assert TransportGeometry(3.0, 0, 0, 0, 100).travel_seconds(0, 10) == 4  # ceil


@given(st.floats(0, 60, allow_nan=False), st.floats(0, 60, allow_nan=False))
def test_property_travel_is_symmetric(xa, xb):
    assert CRANE.travel_seconds(xa, xb) == CRANE.travel_seconds(xb, xa)


# ---------------------------------------------------------------------------
# window monotonicity: loosening an upstream slack never tightens a bound


def _ge(after, before):
    """late bound comparison where None means unbounded."""
    if after is None:
        return True
    return before is not None and after >= before


@given(
    st.integers(0, 500),
    st.integers(36, 1000),
    st.integers(0, 500),
    st.integers(0, 500),
)
def test_property_windows_monotone_in_next_step_slack(f_prev_m, gap_m, slack_m, extra_m):
    f_prev = minutes(f_prev_m)
    start = f_prev + minutes(gap_m)
    tight = offer(start, start + minutes(30), Slack(minutes(slack_m)))
    loose = offer(start, start + minutes(30), Slack(minutes(slack_m + extra_m)))

    derivations = [
        lambda prod: buffer_windows(f_prev, prod, PARAMS),
        lambda prod: transport_direct_windows(f_prev, Slack.UNBOUNDED, prod, PARAMS),
        lambda prod: transport_from_buffer_windows(
            f_prev,
            offer(f_prev, f_prev + minutes(36), Slack.UNBOUNDED),
            prod,
            PARAMS,
        ),
        lambda prod: transport_to_buffer_windows(
            f_prev,
            Slack.UNBOUNDED,
            offer(f_prev, f_prev, Slack.UNBOUNDED),
            prod,
            PARAMS,
        ),
    ]
    for derive in derivations:
        try:
            w_tight = derive(tight)
        except InfeasibleWindow:
            continue  # nothing the looser variant could tighten
        w_loose = derive(loose)
        assert _ge(w_loose.ls, w_tight.ls)
        assert _ge(w_loose.lf, w_tight.lf)
        assert w_loose.es == w_tight.es
        assert w_loose.ef == w_tight.ef


# ---------------------------------------------------------------------------
# the window functions read an offer's slot and slack, nothing else


def _proposal(kind, resource, iv, slack):
    return Proposal(
        f"{resource}#1", kind, resource, (30.0, 5.0), iv, slack,
        iv.duration, minutes(10), minutes(10), iv.duration,
    )


def _windows_or_infeasible(derive, *args):
    try:
        return derive(*args)
    except InfeasibleWindow as exc:
        return str(exc)


slacks = st.one_of(st.just(Slack.UNBOUNDED), st.integers(0, 500).map(minutes).map(Slack))


@given(
    st.integers(0, 500),
    st.integers(0, 1000),
    st.integers(0, 300),
    st.integers(0, 600),
    st.integers(0, 300),
    slacks,
    slacks,
    slacks,
)
def test_property_windows_read_only_an_offers_slot_and_slack(
    f_prev_m, gap_m, dur_m, buf_at_m, buf_dur_m, prod_slack, buf_slack, prev_slack
):
    f_prev = minutes(f_prev_m)
    prod_iv = TimeInterval(f_prev + minutes(gap_m), f_prev + minutes(gap_m + dur_m))
    buf_iv = TimeInterval(minutes(buf_at_m), minutes(buf_at_m + buf_dur_m))
    prod = _proposal(PRODUCTION, "M1", prod_iv, prod_slack)
    buf = _proposal(BUFFER, "B1", buf_iv, buf_slack)
    prod_s, buf_s = Offer(prod_iv, prod_slack), Offer(buf_iv, buf_slack)
    calls = [
        (buffer_windows, (f_prev, prod, PARAMS), (f_prev, prod_s, PARAMS)),
        (
            transport_to_buffer_windows,
            (f_prev, prev_slack, buf, prod, PARAMS),
            (f_prev, prev_slack, buf_s, prod_s, PARAMS),
        ),
        (
            transport_from_buffer_windows,
            (f_prev, buf, prod, PARAMS),
            (f_prev, buf_s, prod_s, PARAMS),
        ),
        (
            transport_direct_windows,
            (f_prev, prev_slack, prod, PARAMS),
            (f_prev, prev_slack, prod_s, PARAMS),
        ),
    ]
    for derive, with_proposals, with_stand_ins in calls:
        assert _windows_or_infeasible(derive, *with_proposals) == _windows_or_infeasible(
            derive, *with_stand_ins
        )


# ---------------------------------------------------------------------------
# decision helpers and validation


def test_needs_buffering_is_strict_at_the_floor():
    f_prev, direct = minutes(60), PARAMS.t_transport_min
    at_floor = f_prev + direct + PARAMS.t_buffer_min
    assert not needs_buffering(f_prev, at_floor, PARAMS)
    assert needs_buffering(f_prev, at_floor + 1, PARAMS)
    assert not needs_buffering(f_prev, f_prev + direct, PARAMS)


@given(
    st.integers(0, 10**5),
    st.integers(0, 10**5),
    st.one_of(st.just(Slack.UNBOUNDED), st.integers(0, 10**5).map(Slack)),
    st.integers(1, 10**4),
    st.integers(1, 10**4),
)
def test_property_buffering_when_needed_is_always_feasible(f_prev, start, slack, t, b):
    """Wherever needs_buffering holds, the buffer's windows exist: the agent
    that asks for buffering relies on it and catches no InfeasibleWindow."""
    params = ScheduleParams(t_transport_min=t, t_buffer_min=b)
    prod = offer(start, start + minutes(30), slack)
    if needs_buffering(f_prev, prod.slot.start, params):
        buffer_windows(f_prev, prod, params)


def test_proposal_price_sums_signed_increment():
    assert proposal_price(minutes(150), minutes(15)) == minutes(165)
    assert proposal_price(minutes(150), 0, ti_next=-minutes(30)) == minutes(120)


def test_stage_windows_validation():
    with pytest.raises(InfeasibleWindow):
        StageWindows(es=100, ef=200, ls=99)
    with pytest.raises(InfeasibleWindow):
        StageWindows(es=100, ef=200, lf=199)


def test_schedule_params_positive():
    with pytest.raises(ValueError):
        ScheduleParams(0, 900)
    with pytest.raises(ValueError):
        ScheduleParams(900, 0)
