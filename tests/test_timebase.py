import pytest
from hypothesis import given
from hypothesis import strategies as st

from cnetsched.timebase import (
    HORIZON,
    BookingEntry,
    NoOpenTail,
    OverlapError,
    ResourceSchedule,
    ScheduleError,
    Slack,
    TimeInterval,
    hhmm,
    min_bound,
    minutes,
)
from conftest import full_gap_walk, open_tails, table_gaps
from oracle import check_invariants


def op_entry(
    order, start, end, step="1", end_state="", open_tail=False, setup=0, start_state=None
):
    segments = []
    if setup:
        segments.append(("setup", TimeInterval(start - setup, start)))
    segments.append(("operation", TimeInterval(start, end)))
    return BookingEntry(
        order, step, segments, open_tail=open_tail, end_state=end_state, start_state=start_state
    )


def spans(rows):
    """The free intervals of gap rows, without their neighbours."""
    return [TimeInterval(row.start, row.end) for row in rows]


# ---------------------------------------------------------------------------
# units


def test_minutes_whole_seconds():
    assert minutes(1) == 60
    assert minutes(2.5) == 150
    assert minutes(0) == 0


def test_minutes_rejects_fractional_seconds():
    with pytest.raises(ValueError):
        minutes(0.0001)


def test_hhmm_rendering():
    assert hhmm(0) == "00:00"
    assert hhmm(64800) == "18:00"
    assert hhmm(64815) == "18:00:15"
    assert hhmm(86400 + 4 * 3600 + 34 * 60) == "1.04:34"


# ---------------------------------------------------------------------------
# intervals


def test_interval_validation():
    with pytest.raises(ValueError):
        TimeInterval(-1, 5)
    with pytest.raises(ValueError):
        TimeInterval(5, 4)
    assert TimeInterval(5, 5).is_empty()


def test_interval_relations():
    a = TimeInterval(10, 20)
    assert a.duration == 10


@pytest.mark.parametrize(
    "build",
    [
        lambda: TimeInterval(-1, 5),
        lambda: TimeInterval._make((-1, 5)),
        lambda: TimeInterval(0, 5)._replace(start=-1),
        lambda: TimeInterval(5, 4),
        lambda: TimeInterval._make((5, 4)),
        lambda: TimeInterval(0, 5)._replace(end=-1),
        lambda: Slack(-1),
        lambda: Slack._make((-1,)),
        lambda: Slack(3)._replace(seconds=-1),
    ],
)
def test_interval_and_slack_check_every_way_they_are_built(build):
    # _make and _replace build a tuple without calling __new__ unless overridden
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("record", [TimeInterval(10, 20), Slack(5), Slack.UNBOUNDED])
def test_interval_and_slack_are_immutable(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.note = "no instance dict either"


def test_interval_hashes_and_orders_as_its_field_tuple():
    # set and dict order, and with them the run digests, rest on this
    for a, b in ((0, 0), (10, 20), (5, 10**9)):
        assert hash(TimeInterval(a, b)) == hash((a, b))
    assert hash(Slack(7)) == hash((7,))
    ivs = [TimeInterval(5, 9), TimeInterval(1, 20), TimeInterval(1, 3), TimeInterval(5, 5)]
    assert sorted(ivs) == [(1, 3), (1, 20), (5, 5), (5, 9)]
    assert TimeInterval(1, 3) < TimeInterval(1, 4) < TimeInterval(2, 2)
    assert TimeInterval(2, 2)._replace(end=6) == TimeInterval(2, 6)


# ---------------------------------------------------------------------------
# slack


def test_slack_semantics():
    assert Slack.UNBOUNDED.seconds is None
    assert Slack.UNBOUNDED.bound_from(100) is None
    assert Slack(50).bound_from(100) == 150
    with pytest.raises(ValueError):
        Slack(-1)


def test_min_bound_drops_unbounded_terms():
    assert min_bound(None, 10, None, 4) == 4
    assert min_bound(None, None) is None
    assert min_bound() is None


# ---------------------------------------------------------------------------
# booking entries


def test_entry_validation_rules():
    with pytest.raises(ValueError):
        BookingEntry("o", "1", []).validate()
    with pytest.raises(ValueError):
        BookingEntry("o", "1", [("sorcery", TimeInterval(0, 5))]).validate()
    with pytest.raises(ValueError):
        BookingEntry("o", "1", [("operation", TimeInterval(5, 5))]).validate()
    with pytest.raises(ValueError):
        BookingEntry(
            "o",
            "1",
            [("setup", TimeInterval(0, 5)), ("operation", TimeInterval(6, 9))],
        ).validate()


def test_entry_geometry():
    e = BookingEntry(
        "o",
        "1",
        [
            ("setup", TimeInterval(0, 5)),
            ("unload", TimeInterval(5, 8)),
            ("operation", TimeInterval(8, 20)),
            ("load", TimeInterval(20, 23)),
        ],
    )
    e.validate()
    assert e.span == TimeInterval(0, 23)
    assert e.setup_interval == TimeInterval(0, 5)
    assert e.core_start == 5
    assert e.segment("unload") == TimeInterval(5, 8)
    assert e.segment("buffer-hold") is None
    assert e.operation_end == 20


def test_entry_without_setup_core_is_span_start():
    e = op_entry("o", 10, 20)
    assert e.core_start == 10
    assert e.operation_end == 20


# ---------------------------------------------------------------------------
# resource schedule mutations


def test_insert_keeps_time_order():
    s = ResourceSchedule()
    s.insert_booking(op_entry("b", 100, 200))
    s.insert_booking(op_entry("a", 0, 50))
    s.insert_booking(op_entry("c", 300, 400))
    assert [e.order_id for e in s.entries] == ["a", "b", "c"]
    check_invariants(s)


def test_insert_rejects_overlap_with_predecessor_and_successor():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 100, 200))
    with pytest.raises(OverlapError):
        s.insert_booking(op_entry("x", 150, 180))
    with pytest.raises(OverlapError):
        s.insert_booking(op_entry("x", 50, 101))
    s.insert_booking(op_entry("x", 50, 100))  # flush fit is fine
    check_invariants(s)


def test_insert_after_open_tail_rejected():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 0, 100, open_tail=True))
    with pytest.raises(OverlapError):
        s.insert_booking(op_entry("b", 500, 600))


def test_second_open_tail_for_same_order_rejected():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 0, 100, open_tail=True))
    with pytest.raises(OverlapError):
        s.insert_booking(op_entry("a", 200, 300, open_tail=True))


def into_p(setup_after):
    """A changeover into state P costing ``setup_after[from_state]``, none into others."""
    return lambda from_state, to_state: setup_after[from_state] if to_state == "P" else 0


def test_successor_setup_reshaped_on_insert():
    s = ResourceSchedule(changeover=into_p({"A": 0, "B": 30}))
    succ = op_entry("later", 200, 300, setup=30, start_state="P")  # setup [170, 200)
    s.insert_booking(succ)

    s.insert_booking(op_entry("now", 0, 170, end_state="A"))
    assert succ.setup_interval is None  # shrank to nothing
    assert succ.segments[0] == ("operation", TimeInterval(200, 300))
    check_invariants(s)


def test_insert_rejected_when_successor_setup_no_longer_fits():
    s = ResourceSchedule(changeover=lambda *_: 50)
    s.insert_booking(op_entry("later", 200, 300, setup=30, start_state="P"))
    with pytest.raises(OverlapError):
        # would end at 160, but the successor setup must now start at 150
        s.insert_booking(op_entry("now", 0, 160, end_state="C"))


def test_insert_accounts_for_unmaterialized_successor_setup():
    s = ResourceSchedule(changeover=into_p({"A": 0, "B": 20}))
    s.insert_booking(op_entry("later", 200, 300, start_state="P"))  # no setup segment recorded
    with pytest.raises(OverlapError):
        s.insert_booking(op_entry("now", 0, 190, end_state="B"))
    s.insert_booking(op_entry("now", 0, 180, end_state="B"))
    check_invariants(s)


def test_a_successor_without_a_start_state_keeps_its_setup_as_booked():
    s = ResourceSchedule(changeover=lambda *_: 50)
    succ = op_entry("later", 200, 300, setup=30)  # setup [170, 200), no known start state
    s.insert_booking(succ)
    with pytest.raises(OverlapError):
        s.insert_booking(op_entry("now", 0, 171, end_state="C"))
    s.insert_booking(op_entry("now", 0, 170, end_state="C"))
    assert succ.setup_interval == TimeInterval(170, 200)
    check_invariants(s)


def test_setup_before_prices_the_state_before_by_the_calendars_changeover():
    s = ResourceSchedule(initial="A", changeover=into_p({"A": 10, "B": 40}))
    s.insert_booking(op_entry("a", 100, 200, end_state="B"))
    assert [s.setup_before(t, "P") for t in (0, 199, 200, 500)] == [10, 10, 40, 40]
    assert s.setup_before(500, "Q") == 0
    assert ResourceSchedule(initial="A").setup_before(0, "P") == 0  # no setups by default


def test_close_open_tail_adds_hold_and_load():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 0, 100, open_tail=True))
    entry = s.close_open_tail("a", departure=160, load_time=10)
    assert not entry.open_tail
    assert entry.segment("buffer-hold") == TimeInterval(100, 150)
    assert entry.segment("load") == TimeInterval(150, 160)
    assert entry.span_end == 160
    assert entry.operation_end == 100
    check_invariants(s)


def test_close_open_tail_immediate_departure_has_no_hold():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 0, 100, open_tail=True))
    entry = s.close_open_tail("a", departure=110, load_time=10)
    assert entry.segment("buffer-hold") is None
    assert entry.segment("load") == TimeInterval(100, 110)


def test_close_open_tail_errors():
    s = ResourceSchedule()
    with pytest.raises(NoOpenTail):
        s.close_open_tail("ghost", 100, 10)
    s.insert_booking(op_entry("a", 0, 100, open_tail=True))
    with pytest.raises(OverlapError):
        s.close_open_tail("a", departure=105, load_time=10)  # load inside operation


def test_close_open_tail_cannot_run_into_successor():
    s = ResourceSchedule()
    tail = op_entry("a", 0, 100, open_tail=True)
    s.insert_booking(tail)
    # a successor placed while the tail's order was assumed closed
    tail.open_tail = False
    s.insert_booking(op_entry("b", 120, 200))
    tail.open_tail = True
    check_invariants(s)  # the flag is back, so the open-tail index holds again
    with pytest.raises(OverlapError):
        s.close_open_tail("a", departure=130, load_time=5)


# ---------------------------------------------------------------------------
# free intervals and gaps


def test_free_intervals_simple():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 100, 200))
    s.insert_booking(op_entry("b", 300, 400))
    assert spans(s.free_intervals()) == [
        TimeInterval(0, 100),
        TimeInterval(200, 300),
        TimeInterval(400, HORIZON),
    ]


def test_free_intervals_read_an_open_tail_as_ending_at_its_operation_end():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 100, 200, open_tail=True))
    # the departure is not negotiated yet; the engagement rule, not the
    # calendar, keeps other orders off the time behind it
    assert spans(s.free_intervals()) == [TimeInterval(0, 100), TimeInterval(200, HORIZON)]


def test_free_intervals_extra_busy():
    s = ResourceSchedule()
    free = s.free_intervals(extra_busy=[TimeInterval(20, 30), TimeInterval(30, 40)])
    assert spans(free) == [TimeInterval(0, 20), TimeInterval(40, HORIZON)]


def test_free_intervals_after_keeps_whole_intervals_ending_later():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 100, 200))
    s.insert_booking(op_entry("b", 300, 400))
    # [200, 300) ends after 250 and keeps its start; [0, 100) ends too early
    assert spans(s.free_intervals(after=250)) == [
        TimeInterval(200, 300), TimeInterval(400, HORIZON)
    ]
    assert s.free_intervals(after=99) == s.free_intervals()
    assert s.free_intervals(after=100) == s.free_intervals()[1:]
    # a hold that starts before the walk's first entry end still counts
    held = s.free_intervals(extra_busy=[TimeInterval(150, 250)], after=260)
    assert spans(held) == [TimeInterval(250, 300), TimeInterval(400, HORIZON)]


def test_free_intervals_after_an_earlier_open_tail_start_at_its_operation_end():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 100, 200, open_tail=True))
    assert spans(s.free_intervals(after=500)) == [TimeInterval(200, HORIZON)]
    # a tail whose operation ends exactly at ``after`` is among the earlier entries
    rows = s.free_intervals(after=200)
    assert spans(rows) == [TimeInterval(200, HORIZON)]
    assert rows[0].from_state == s.entries[0].end_state


def tie_calendar():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 100, 200, end_state="A"))
    s.insert_booking(op_entry("b", 320, 400, end_state="B", setup=20))  # setup [300, 320)
    return s


def test_an_entry_ends_the_interval_before_a_hold_that_starts_with_it():
    s = tie_calendar()
    b = s.entries[1]
    rows = s.gap_table(extra_busy=[TimeInterval(300, 350)])
    assert tuple(rows[1]) == (200, 300, "A", b, 320, 20)


def test_a_hold_that_ends_an_interval_alone_leaves_it_without_successor():
    s = tie_calendar()
    rows = s.gap_table(extra_busy=[TimeInterval(250, 300)])
    assert tuple(rows[1]) == (200, 250, "A", None, 250, 0)
    assert rows[2].start == 400 and rows[2].from_state == "B"


@pytest.mark.parametrize("at, last_end, kept", [
    (HORIZON - 10, HORIZON - 10, True),
    (HORIZON, HORIZON, True),
    (HORIZON + 5, HORIZON, False),
])
def test_the_last_row_ends_at_the_first_of_the_entry_and_the_horizon(at, last_end, kept):
    s = ResourceSchedule([op_entry("a", 100, 200, end_state="A"), op_entry("z", at, at + 20)])
    last = s.gap_table()[-1]
    assert (last.start, last.end, last.from_state) == (200, last_end, "A")
    assert last.succ is (s.entries[1] if kept else None)
    assert last.core_start == last_end and last.setup == 0


def test_placement_gaps_respect_successor_setup():
    changeover = into_p({"A": 10, "B": 40})
    s = ResourceSchedule(initial="A", changeover=changeover)
    s.insert_booking(op_entry("later", 200, 300, setup=20, start_state="P"))  # setup [180, 200)
    table = s.gap_table()
    assert table[0].succ is s.entries[0] and table[0].setup == 20
    # start, end, from_state, ti_next: a 40s setup is now needed before 200
    assert list(table_gaps(table, "B", changeover))[0] == (0, 160, "A", 20)
    # the setup shrinks and the gap stretches
    assert list(table_gaps(table, "A", changeover))[0] == (0, 190, "A", -10)


def test_the_kept_table_is_dropped_at_every_edit_of_the_calendar():
    s = ResourceSchedule([op_entry("init", 0, 10)], changeover=lambda *_: 30)
    kept = s.gap_table()
    assert s.gap_table() is kept

    def rebuilt():
        """A new table after an edit, equal to one built on a copy of the calendar."""
        nonlocal kept
        table = s.gap_table()
        assert table is not kept
        assert table == ResourceSchedule(list(s.entries)).gap_table()
        kept = table

    s.insert_booking(op_entry("a", 100, 200, end_state="A", setup=10, start_state="A"))
    rebuilt()
    # the insert shifts its successor's setup too: the table goes all the same
    s.insert_booking(op_entry("b", 50, 60, end_state="B"))
    assert s.entries[-1].setup_interval == TimeInterval(70, 100)
    rebuilt()
    s.insert_booking(op_entry("c", 300, 400, open_tail=True))
    rebuilt()
    with pytest.raises(OverlapError):
        s.insert_booking(op_entry("d", 150, 160))
    with pytest.raises(NoOpenTail):
        s.close_open_tail("a", 500, 0)
    with pytest.raises(OverlapError):
        s.close_open_tail("c", 390, 0)
    assert s.gap_table() is kept  # a refused edit changes nothing
    s.close_open_tail("c", 500, 10)
    rebuilt()


def test_entry_at_or_after():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 100, 200))
    s.insert_booking(op_entry("b", 300, 400))
    assert s.entry_at_or_after(0).order_id == "a"
    assert s.entry_at_or_after(101).order_id == "b"
    assert s.entry_at_or_after(301) is None


# ---------------------------------------------------------------------------
# properties


attempts = st.lists(
    st.tuples(st.integers(0, 500), st.integers(1, 60), st.integers(0, 20)),
    max_size=12,
)


@given(attempts)
def test_property_entries_stay_pairwise_disjoint(tries):
    s = ResourceSchedule()
    for i, (start, dur, setup) in enumerate(tries):
        e = op_entry(f"o{i}", start + setup, start + setup + dur, setup=setup)
        try:
            s.insert_booking(e)
        except OverlapError:
            continue
    check_invariants(s)
    spans = [e.span for e in s.entries]
    for a, b in zip(spans, spans[1:]):
        assert a.end <= b.start


@given(attempts)
def test_property_booked_cores_never_move(tries):
    s = ResourceSchedule(changeover=lambda *_: 5)
    cores: list[tuple[str, int, int]] = []
    for i, (start, dur, setup) in enumerate(tries):
        e = op_entry(f"o{i}", start + setup, start + setup + dur, setup=setup, start_state="P")
        try:
            s.insert_booking(e)
        except OverlapError:
            continue
        cores.append((f"o{i}", e.core_start, e.operation_end))
        # every previously accepted core must be exactly where it was booked
        for order, core_start, op_end in cores:
            entry = next(x for x in s.entries if x.order_id == order)
            assert entry.core_start == core_start
            assert entry.operation_end == op_end


@st.composite
def prebuilt_schedule(draw):
    """A valid schedule built directly: sorted disjoint entries, maybe one tail."""
    entries = []
    cursor = 0
    n = draw(st.integers(0, 10))
    for i in range(n):
        cursor += draw(st.integers(0, 40))
        dur = draw(st.integers(1, 40))
        entries.append(op_entry(f"o{i}", cursor, cursor + dur))
        cursor += dur
    if entries and draw(st.booleans()):
        entries[-1].open_tail = True
    return ResourceSchedule(entries)


@given(prebuilt_schedule(), st.integers(400, 700))
def test_property_free_intervals_match_per_second_scan(s, scan_end):
    free = s.free_intervals()
    got = set()
    for iv in free:
        got.update(range(iv.start, min(iv.end, scan_end)))
    busy = set()
    for e in s.entries:
        # an open tail ends at its last segment, the operation end
        busy.update(range(e.span_start, min(e.span_end, scan_end)))
    expected = set(range(scan_end)) - busy
    assert got == expected
    # free intervals are maximal: sorted with busy time strictly between them
    for a, b in zip(free, free[1:]):
        assert a.end < b.start
    # the last one reaches the horizon
    assert free[-1].end == HORIZON


@given(prebuilt_schedule(), st.integers(0, 600), st.integers(1, 50))
def test_property_insert_with_zero_ti_only_removes_its_own_span(s, start, dur):
    scan_end = 1000
    before = s.free_intervals()
    entry = op_entry("new", start, start + dur)
    try:
        s.insert_booking(entry)
    except OverlapError:
        return
    after = s.free_intervals()
    before_secs = set()
    for iv in before:
        before_secs.update(range(iv.start, min(iv.end, scan_end)))
    after_secs = set()
    for iv in after:
        after_secs.update(range(iv.start, min(iv.end, scan_end)))
    assert after_secs == before_secs - set(range(start, start + dur))


tail_ops = st.lists(
    st.one_of(
        # insert: order, start, duration, open tail
        st.tuples(
            st.just("insert"),
            st.sampled_from("abcd"),
            st.integers(0, 500),
            st.integers(1, 60),
            st.booleans(),
        ),
        # close: order, wait after the operation, load time
        st.tuples(st.just("close"), st.sampled_from("abcd"), st.integers(0, 40), st.integers(0, 40)),
    ),
    max_size=30,
)


@given(tail_ops)
def test_property_open_tail_index_matches_a_scan(ops):
    s = ResourceSchedule()
    for op in ops:
        if op[0] == "insert":
            _, order, start, dur, tail = op
            try:
                s.insert_booking(op_entry(order, start, start + dur, open_tail=tail))
            except OverlapError:
                pass
        else:
            _, order, wait, load = op
            tail = s.open_tail_for(order)
            departure = (tail.span_end if tail is not None else 0) + wait
            try:
                s.close_open_tail(order, departure, load)
            except (NoOpenTail, OverlapError):
                pass
        check_invariants(s)  # compares the index with a scan
        scan = [e for e in s.entries if e.open_tail]
        assert s.has_open_tail == bool(scan)
        for order in "abcd":
            expected = next((e for e in scan if e.order_id == order), None)
            assert s.open_tail_for(order) is expected


def test_schedule_built_from_entries_indexes_their_open_tails():
    entries = [op_entry("a", 0, 10), op_entry("b", 20, 30, open_tail=True)]
    s = ResourceSchedule(entries)
    check_invariants(s)
    assert s.open_tail_for("b") is entries[1]
    with pytest.raises(OverlapError):
        s.insert_booking(op_entry("b", 5, 8, open_tail=True))


def test_the_calendar_check_finds_an_overlap_a_second_tail_and_a_stale_index():
    overlapping = ResourceSchedule([op_entry("a", 0, 10), op_entry("b", 5, 15)])
    with pytest.raises(ScheduleError, match="overlap"):
        check_invariants(overlapping)
    two_tails = ResourceSchedule(
        [op_entry("a", 0, 10, open_tail=True), op_entry("a", 20, 30, "2", open_tail=True)]
    )
    with pytest.raises(ScheduleError, match="two open tails"):
        check_invariants(two_tails)
    stale = ResourceSchedule([op_entry("a", 0, 10, open_tail=True)])
    stale.entries[0].open_tail = False  # closed behind the index's back
    with pytest.raises(ScheduleError, match="index disagrees"):
        check_invariants(stale)


# ---------------------------------------------------------------------------
# indexed lookups and the gap walk against linear references

MACHINE_STATES = ("A", "B", "C")
MACHINE_SETUP = {("A", "B"): 15, ("B", "A"): 30, ("A", "C"): 5, ("C", "B"): 25}
CRANE_XS = (0.0, 7.0, 12.5, 30.0)


def machine_changeover(from_state, to_state):
    return MACHINE_SETUP.get((from_state, to_state), 0)


def travel(a, b):
    return int(round(abs(a - b) * 2))


holds = st.lists(
    st.tuples(st.integers(0, 700), st.integers(1, 50)).map(
        lambda t: TimeInterval(t[0], t[0] + t[1])
    ),
    max_size=3,
)


@st.composite
def machine_calendar(draw):
    """A machine calendar grown by insert_booking and close_open_tail only."""
    s = ResourceSchedule(changeover=machine_changeover)
    for i in range(draw(st.integers(0, 14))):
        start, dur = draw(st.integers(0, 600)), draw(st.integers(1, 60))
        setup = draw(st.sampled_from((0, 5, 15, 30)))
        state = draw(st.sampled_from(MACHINE_STATES))
        entry = op_entry(
            f"o{i}",
            start + setup,
            start + setup + dur,
            end_state=state,
            open_tail=draw(st.integers(0, 3)) == 0,
            setup=setup,
            start_state=state,
        )
        try:
            s.insert_booking(entry)  # moves successor setups
        except OverlapError:
            pass
    for e in open_tails(s):
        if draw(st.booleans()):
            wait = draw(st.integers(0, 40))
            try:
                s.close_open_tail(e.order_id, e.span_end + wait, draw(st.integers(0, wait)))
            except OverlapError:
                pass
    check_invariants(s)
    return s


@st.composite
def crane_calendar(draw):
    """A crane calendar, its recorded pickups and its initial position."""
    initial_x = draw(st.sampled_from((0.0, 30.0)))
    s = ResourceSchedule(initial=initial_x, changeover=travel)
    pickups: dict[tuple[str, str], float] = {}
    for i in range(draw(st.integers(0, 14))):
        start, dur = draw(st.integers(0, 600)), draw(st.integers(1, 60))
        setup = draw(st.sampled_from((0, 6, 14)))
        segments = [("load", TimeInterval(start + setup, start + setup + dur))]
        if setup:
            segments.insert(0, ("travel", TimeInterval(start, start + setup)))
        # some bookings keep their approach: their pickup is not known
        pickup = draw(st.sampled_from((None, 0.0, 7.0, 20.0, 30.0)))
        entry = BookingEntry(
            f"o{i}", "T", segments, end_state=draw(st.sampled_from(CRANE_XS)), start_state=pickup
        )
        try:
            s.insert_booking(entry)
        except (OverlapError, ValueError):
            continue
        if pickup is not None:
            pickups[(entry.order_id, "T")] = pickup
    check_invariants(s)
    return s, pickups, initial_x


def linear_at_or_after(s, t):
    return next((e for e in s.entries if e.span_start >= t), None)


def linear_state(s, t, initial):
    state = initial
    for e in s.entries:
        if e.span_end <= t:
            state = e.end_state
        else:
            break
    return state


def linear_machine_gaps(s, product, initial, extra):
    """The per-agent machine gap scan the indexed walk replaced."""
    out = []
    for iv in s.free_intervals(extra_busy=extra):
        succ = linear_at_or_after(s, iv.end)
        end, ti = iv.end, 0
        if succ is not None:
            setup_iv = succ.setup_interval
            if setup_iv is not None and setup_iv.start == iv.end:
                new_setup = MACHINE_SETUP.get((product, succ.end_state), 0)
                ti = new_setup - setup_iv.duration
                end = succ.core_start - new_setup
            elif setup_iv is None and succ.span_start == iv.end:
                new_setup = MACHINE_SETUP.get((product, succ.end_state), 0)
                if new_setup:
                    ti = new_setup
                    end = succ.span_start - new_setup
        if end <= iv.start:
            continue
        out.append((iv.start, end, linear_state(s, iv.start, initial), ti))
    return out


def linear_crane_gaps(s, pickups, initial_x, drop_x, extra):
    """The per-agent crane gap scan, with the position lookup it was used with."""
    out = []
    for iv in s.free_intervals(extra_busy=extra):
        succ = linear_at_or_after(s, iv.end)
        end, ti = iv.end, 0
        boundary = succ is not None and (
            succ.span_start == iv.end
            or (succ.setup_interval is not None and succ.setup_interval.start == iv.end)
        )
        if succ is not None and boundary:
            pickup = pickups.get((succ.order_id, succ.step_label))
            if pickup is not None:
                new_setup = travel(drop_x, pickup)
                old = succ.setup_interval.duration if succ.setup_interval else 0
                ti = new_setup - old
                end = succ.core_start - new_setup
        if end <= iv.start:
            continue
        out.append((iv.start, end, linear_state(s, iv.start, initial_x), ti))
    return out


@given(machine_calendar())
def test_property_indexed_lookups_match_linear_scans(s):
    horizon = max((e.span_end for e in s.entries), default=0) + 5
    for t in range(horizon):
        assert s.entry_at_or_after(t) is linear_at_or_after(s, t)
        assert s.state_before(t) == linear_state(s, t, s.initial)


@given(
    machine_calendar(),
    st.sampled_from(MACHINE_STATES),
    st.sampled_from(MACHINE_STATES),
    holds,
)
def test_property_machine_gap_walk_matches_linear_scan(s, product, initial, extra):
    s = ResourceSchedule(s.entries, initial=initial, changeover=machine_changeover)
    free = s.free_intervals(extra_busy=extra)
    linear = linear_machine_gaps(s, product, initial, extra)
    table = s.gap_table(extra_busy=extra)
    assert list(table_gaps(table, product, machine_changeover)) == linear
    assert list(full_gap_walk(s, free, product)) == linear
    horizon = max((e.span_end for e in s.entries), default=0) + 5
    for t in range(horizon):
        assert s.state_before(t) == linear_state(s, t, initial)


@given(crane_calendar(), st.sampled_from((0.0, 12.5, 30.0)), holds)
def test_property_crane_gap_walk_matches_linear_scan(calendar, drop_x, extra):
    s, pickups, initial_x = calendar
    free = s.free_intervals(extra_busy=extra)
    linear = linear_crane_gaps(s, pickups, initial_x, drop_x, extra)
    table = s.gap_table(extra_busy=extra)
    assert list(table_gaps(table, drop_x, travel)) == linear
    walk = full_gap_walk(s, free, drop_x)
    assert list(walk) == linear
    horizon = max((e.span_end for e in s.entries), default=0) + 5
    for t in range(horizon):
        assert s.state_before(t) == linear_state(s, t, initial_x)


@given(machine_calendar(), holds, st.integers(-5, 800))
def test_property_free_intervals_after_is_the_filtered_full_query(s, extra, lo):
    full = s.free_intervals(extra_busy=extra)
    bounded = s.free_intervals(extra_busy=extra, after=lo)
    assert bounded == [iv for iv in full if iv.end > lo]


@given(machine_calendar(), holds, st.integers(-5, 800))
def test_property_gap_table_of_a_bounded_list_is_the_full_tables_tail(s, extra, lo):
    # the cursor starts with one bisect at the first interval it is given
    table = s.gap_table(lo, extra)
    # built on a copy of the calendar, which keeps no table
    full = ResourceSchedule(list(s.entries)).gap_table(-1, extra)
    assert table == [row for row in full if row.end > lo]
    for row in table:
        assert row.from_state == s.state_before(row.start)
        succ = linear_at_or_after(s, row.end)
        assert row.succ is (succ if succ is not None and succ.span_start == row.end else None)
