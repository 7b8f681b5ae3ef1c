import pytest
from hypothesis import given
from hypothesis import strategies as st

from cnetsched.timebase import (
    BookingEntry,
    NoOpenTail,
    OverlapError,
    ResourceSchedule,
    Slack,
    TimeInterval,
    gaps_for,
    hhmm,
    min_bound,
    minutes,
)
from conftest import full_gap_walk


def op_entry(order, start, end, step="1", end_state="", open_tail=False, setup=0):
    segments = []
    if setup:
        segments.append(("setup", TimeInterval(start - setup, start)))
    segments.append(("operation", TimeInterval(start, end)))
    return BookingEntry(order, step, segments, open_tail=open_tail, end_state=end_state)


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
    assert a.shift(5) == TimeInterval(15, 25)


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
    assert Slack.UNBOUNDED.unbounded
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
    s.check_invariants()


def test_insert_rejects_overlap_with_predecessor_and_successor():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 100, 200))
    with pytest.raises(OverlapError):
        s.insert_booking(op_entry("x", 150, 180))
    with pytest.raises(OverlapError):
        s.insert_booking(op_entry("x", 50, 101))
    s.insert_booking(op_entry("x", 50, 100))  # flush fit is fine
    s.check_invariants()


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


def test_successor_setup_reshaped_on_insert():
    setup_table = {"A": 0, "B": 30}

    def setup_of(end_state, succ):
        return setup_table[end_state]

    s = ResourceSchedule()
    succ = op_entry("later", 200, 300, setup=30)  # setup [170, 200)
    s.insert_booking(succ)

    s.insert_booking(op_entry("now", 0, 170, end_state="A"), setup_of)
    assert succ.setup_interval is None  # shrank to nothing
    assert succ.segments[0] == ("operation", TimeInterval(200, 300))
    s.check_invariants()


def test_insert_rejected_when_successor_setup_no_longer_fits():
    def setup_of(end_state, succ):
        return 50

    s = ResourceSchedule()
    s.insert_booking(op_entry("later", 200, 300, setup=30))
    with pytest.raises(OverlapError):
        # would end at 160, but the successor setup must now start at 150
        s.insert_booking(op_entry("now", 0, 160, end_state="C"), setup_of)


def test_insert_accounts_for_unmaterialized_successor_setup():
    def setup_of(end_state, succ):
        return 20 if end_state == "B" else 0

    s = ResourceSchedule()
    s.insert_booking(op_entry("later", 200, 300))  # no setup segment recorded
    with pytest.raises(OverlapError):
        s.insert_booking(op_entry("now", 0, 190, end_state="B"), setup_of)
    s.insert_booking(op_entry("now", 0, 180, end_state="B"), setup_of)
    s.check_invariants()


def test_close_open_tail_adds_hold_and_load():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 0, 100, open_tail=True))
    entry = s.close_open_tail("a", departure=160, load_time=10)
    assert not entry.open_tail
    assert entry.segment("buffer-hold") == TimeInterval(100, 150)
    assert entry.segment("load") == TimeInterval(150, 160)
    assert entry.span_end == 160
    assert entry.operation_end == 100
    s.check_invariants()


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
    s.check_invariants()  # the flag is back, so the open-tail index holds again
    with pytest.raises(OverlapError):
        s.close_open_tail("a", departure=130, load_time=5)


# ---------------------------------------------------------------------------
# free intervals and gaps


def test_free_intervals_simple_and_windowed():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 100, 200))
    s.insert_booking(op_entry("b", 300, 400))
    assert s.free_intervals(TimeInterval(0, 500)) == [
        TimeInterval(0, 100),
        TimeInterval(200, 300),
        TimeInterval(400, 500),
    ]
    assert s.free_intervals(TimeInterval(150, 350)) == [TimeInterval(200, 300)]


def test_free_intervals_open_tail_blocks_suffix():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 100, 200, open_tail=True))
    assert s.free_intervals(TimeInterval(0, 10_000)) == [TimeInterval(0, 100)]
    # ... unless the reasoning assumes that workpiece departs at operation end
    assert s.free_intervals(
        TimeInterval(0, 10_000), assume_closed={"a"}
    ) == [TimeInterval(0, 100), TimeInterval(200, 10_000)]


def test_free_intervals_extra_busy():
    s = ResourceSchedule()
    free = s.free_intervals(
        TimeInterval(0, 100), extra_busy=[TimeInterval(20, 30), TimeInterval(30, 40)]
    )
    assert free == [TimeInterval(0, 20), TimeInterval(40, 100)]


def test_free_intervals_after_keeps_whole_intervals_ending_later():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 100, 200))
    s.insert_booking(op_entry("b", 300, 400))
    window = TimeInterval(0, 500)
    # [200, 300) ends after 250 and keeps its start; [0, 100) ends too early
    assert s.free_intervals(window, after=250) == [TimeInterval(200, 300), TimeInterval(400, 500)]
    assert s.free_intervals(window, after=99) == s.free_intervals(window)
    assert s.free_intervals(window, after=100) == s.free_intervals(window)[1:]
    # a hold that starts before the walk's first entry end still counts
    held = s.free_intervals(window, extra_busy=[TimeInterval(150, 250)], after=260)
    assert held == [TimeInterval(250, 300), TimeInterval(400, 500)]


def test_free_intervals_after_an_earlier_open_tail_is_empty():
    s = ResourceSchedule()
    s.insert_booking(op_entry("a", 100, 200, open_tail=True))
    assert s.free_intervals(TimeInterval(0, 10_000), after=500) == []
    # a tail whose operation ends exactly at ``after`` is among the earlier entries
    assert s.free_intervals(TimeInterval(0, 10_000), after=200) == []
    assert s.free_intervals(TimeInterval(0, 10_000), assume_closed={"a"}, after=500) == [
        TimeInterval(200, 10_000)
    ]


def test_placement_gaps_respect_successor_setup():
    def setup_of(end_state, succ):
        return 40 if end_state == "B" else 10

    s = ResourceSchedule()
    s.insert_booking(op_entry("later", 200, 300, setup=20))  # setup [180, 200)
    table = s.gap_table(s.free_intervals(TimeInterval(0, 1000)), initial="A")
    assert table[0].succ is s.entries[0] and table[0].setup == 20
    # start, end, from_state, ti_next: a 40s setup is now needed before 200
    assert list(gaps_for(table, "B", setup_of))[0] == (0, 160, "A", 20)
    # the setup shrinks and the gap stretches
    assert list(gaps_for(table, "A", setup_of))[0] == (0, 190, "A", -10)


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
    s.check_invariants()
    spans = [e.span for e in s.entries]
    for a, b in zip(spans, spans[1:]):
        assert a.end <= b.start


@given(attempts)
def test_property_booked_cores_never_move(tries):
    def setup_of(end_state, succ):
        return 5

    s = ResourceSchedule()
    cores: list[tuple[str, int, int]] = []
    for i, (start, dur, setup) in enumerate(tries):
        e = op_entry(f"o{i}", start + setup, start + setup + dur, setup=setup)
        try:
            s.insert_booking(e, setup_of)
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


@given(prebuilt_schedule(), st.integers(0, 50), st.integers(400, 700))
def test_property_free_intervals_match_per_second_scan(s, w_start, w_end):
    free = s.free_intervals(TimeInterval(w_start, w_end))
    got = set()
    for iv in free:
        got.update(range(iv.start, iv.end))
    busy = set()
    for e in s.entries:
        busy.update(range(e.span_start, w_end if e.open_tail else min(e.span_end, w_end)))
    expected = set(range(w_start, w_end)) - busy
    assert got == expected
    # free intervals are maximal: sorted with busy time strictly between them
    for a, b in zip(free, free[1:]):
        assert a.end < b.start


@given(prebuilt_schedule(), st.integers(0, 600), st.integers(1, 50))
def test_property_insert_with_zero_ti_only_removes_its_own_span(s, start, dur):
    window = TimeInterval(0, 1000)
    before = s.free_intervals(window)
    entry = op_entry("new", start, start + dur)
    try:
        s.insert_booking(entry)
    except OverlapError:
        return
    after = s.free_intervals(window)
    before_secs = set()
    for iv in before:
        before_secs.update(range(iv.start, iv.end))
    after_secs = set()
    for iv in after:
        after_secs.update(range(iv.start, iv.end))
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
        s.check_invariants()  # compares the index with a scan
        scan = [e for e in s.entries if e.open_tail]
        assert [id(e) for e in s.open_tail_entries()] == [id(e) for e in scan]
        for order in "abcd":
            expected = next((e for e in scan if e.order_id == order), None)
            assert s.open_tail_for(order) is expected


def test_schedule_built_from_entries_indexes_their_open_tails():
    entries = [op_entry("a", 0, 10), op_entry("b", 20, 30, open_tail=True)]
    s = ResourceSchedule(entries)
    s.check_invariants()
    assert s.open_tail_for("b") is entries[1]
    with pytest.raises(OverlapError):
        s.insert_booking(op_entry("b", 5, 8, open_tail=True))


# ---------------------------------------------------------------------------
# indexed lookups and the gap walk against linear references

MACHINE_STATES = ("A", "B", "C")
MACHINE_SETUP = {("A", "B"): 15, ("B", "A"): 30, ("A", "C"): 5, ("C", "B"): 25}
CRANE_XS = (0.0, 7.0, 12.5, 30.0)
SCAN = TimeInterval(0, 10**9)


def machine_succ_setup(new_state, succ):
    return MACHINE_SETUP.get((new_state, succ.end_state), 0)


def travel(a, b):
    return int(round(abs(a - b) * 2))


def crane_succ_setup(pickups):
    def setup_of(new_state, succ):
        pickup = pickups.get((succ.order_id, succ.step_label))
        if pickup is None:
            return succ.setup_interval.duration if succ.setup_interval else 0
        return travel(float(new_state), pickup)

    return setup_of


holds = st.lists(
    st.tuples(st.integers(0, 700), st.integers(1, 50)).map(
        lambda t: TimeInterval(t[0], t[0] + t[1])
    ),
    max_size=3,
)


@st.composite
def machine_calendar(draw):
    """A machine calendar grown by insert_booking and close_open_tail only."""
    s = ResourceSchedule()
    for i in range(draw(st.integers(0, 14))):
        start, dur = draw(st.integers(0, 600)), draw(st.integers(1, 60))
        setup = draw(st.sampled_from((0, 5, 15, 30)))
        entry = op_entry(
            f"o{i}",
            start + setup,
            start + setup + dur,
            end_state=draw(st.sampled_from(MACHINE_STATES)),
            open_tail=draw(st.integers(0, 3)) == 0,
            setup=setup,
        )
        try:
            s.insert_booking(entry, machine_succ_setup)  # moves successor setups
        except OverlapError:
            pass
    for e in s.open_tail_entries():
        if draw(st.booleans()):
            wait = draw(st.integers(0, 40))
            try:
                s.close_open_tail(e.order_id, e.span_end + wait, draw(st.integers(0, wait)))
            except OverlapError:
                pass
    s.check_invariants()
    return s


@st.composite
def crane_calendar(draw):
    """A crane calendar, its recorded pickups and its initial position."""
    s = ResourceSchedule()
    pickups: dict[tuple[str, str], float] = {}
    for i in range(draw(st.integers(0, 14))):
        start, dur = draw(st.integers(0, 600)), draw(st.integers(1, 60))
        setup = draw(st.sampled_from((0, 6, 14)))
        segments = [("load", TimeInterval(start + setup, start + setup + dur))]
        if setup:
            segments.insert(0, ("travel", TimeInterval(start, start + setup)))
        entry = BookingEntry(f"o{i}", "T", segments, end_state=draw(st.sampled_from(CRANE_XS)))
        try:
            s.insert_booking(entry, crane_succ_setup(pickups))
        except (OverlapError, ValueError):
            continue
        if draw(st.booleans()):
            pickups[(entry.order_id, "T")] = draw(st.sampled_from((0.0, 7.0, 20.0, 30.0)))
    s.check_invariants()
    return s, pickups, draw(st.sampled_from((0.0, 30.0)))


def linear_at_or_after(s, t):
    return next((e for e in s.entries if e.span_start >= t), None)


def linear_last_ending_by(s, t):
    return max((i for i, e in enumerate(s.entries) if e.span_end <= t), default=-1)


def linear_machine_state(s, t, initial, assume_closed):
    state = initial
    for e in s.entries:
        if e.open_tail and e.order_id not in assume_closed:
            break
        if e.span_end <= t:
            state = e.end_state
        else:
            break
    return state


def linear_crane_x(s, t, initial):
    x = initial
    for e in s.entries:
        if e.span_end <= t:
            x = e.end_state
        else:
            break
    return x


def linear_machine_gaps(s, product, initial, extra, assume_closed):
    """The per-agent machine gap scan the indexed walk replaced."""
    out = []
    for iv in s.free_intervals(SCAN, extra_busy=extra, assume_closed=assume_closed):
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
        out.append((iv.start, end, linear_machine_state(s, iv.start, initial, assume_closed), ti))
    return out


def linear_crane_gaps(s, pickups, initial_x, drop_x, extra):
    """The per-agent crane gap scan, with the position lookup it was used with."""
    out = []
    for iv in s.free_intervals(SCAN, extra_busy=extra):
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
        out.append((iv.start, end, linear_crane_x(s, iv.start, initial_x), ti))
    return out


@given(machine_calendar())
def test_property_indexed_lookups_match_linear_scans(s):
    horizon = max((e.span_end for e in s.entries), default=0) + 5
    for t in range(horizon):
        assert s.entry_at_or_after(t) is linear_at_or_after(s, t)
        assert s.last_ending_by(t) == linear_last_ending_by(s, t)


@given(
    machine_calendar(),
    st.sampled_from(MACHINE_STATES),
    st.sampled_from(MACHINE_STATES),
    holds,
    st.booleans(),
)
def test_property_machine_gap_walk_matches_linear_scan(s, product, initial, extra, own):
    tails = s.open_tail_entries()
    assume = frozenset({tails[0].order_id}) if own and tails else frozenset()
    free = s.free_intervals(SCAN, extra_busy=extra, assume_closed=assume)
    linear = linear_machine_gaps(s, product, initial, extra, assume)
    table = s.gap_table(free, initial)
    assert list(gaps_for(table, product, machine_succ_setup)) == linear
    assert list(full_gap_walk(s, free, product, machine_succ_setup, initial)) == linear
    horizon = max((e.span_end for e in s.entries), default=0) + 5
    for t in range(horizon):
        assert s.state_before(t, initial, assume_closed=assume) == (
            linear_machine_state(s, t, initial, assume)
        )


@given(crane_calendar(), st.sampled_from((0.0, 12.5, 30.0)), holds)
def test_property_crane_gap_walk_matches_linear_scan(calendar, drop_x, extra):
    s, pickups, initial_x = calendar
    free = s.free_intervals(SCAN, extra_busy=extra)
    linear = linear_crane_gaps(s, pickups, initial_x, drop_x, extra)
    table = s.gap_table(free, initial_x)
    assert list(gaps_for(table, drop_x, crane_succ_setup(pickups))) == linear
    walk = full_gap_walk(s, free, drop_x, crane_succ_setup(pickups), initial_x)
    assert list(walk) == linear
    horizon = max((e.span_end for e in s.entries), default=0) + 5
    for t in range(horizon):
        assert s.state_before(t, initial_x) == linear_crane_x(s, t, initial_x)


@given(
    machine_calendar(),
    holds,
    st.booleans(),
    st.integers(-5, 800),
    st.sampled_from((SCAN, TimeInterval(0, 400), TimeInterval(90, 10**9))),
)
def test_property_free_intervals_after_is_the_filtered_full_query(s, extra, own, lo, window):
    tails = s.open_tail_entries()
    assume = frozenset({tails[0].order_id}) if own and tails else frozenset()
    full = s.free_intervals(window, extra_busy=extra, assume_closed=assume)
    bounded = s.free_intervals(window, extra_busy=extra, assume_closed=assume, after=lo)
    assert bounded == [iv for iv in full if iv.end > lo]


@given(machine_calendar(), holds, st.booleans(), st.integers(-5, 800))
def test_property_gap_table_of_a_bounded_list_is_the_full_tables_tail(s, extra, own, lo):
    # the cursor starts with one bisect at the first interval it is given
    tails = s.open_tail_entries()
    assume = frozenset({tails[0].order_id}) if own and tails else frozenset()
    full = s.free_intervals(SCAN, extra_busy=extra, assume_closed=assume)
    bounded = s.free_intervals(SCAN, extra_busy=extra, assume_closed=assume, after=lo)
    table = s.gap_table(bounded, "A")
    assert table == [row for row in s.gap_table(full, "A") if row.end > lo]
    for row in table:
        assert row.from_state == s.state_before(row.start, "A")
        succ = linear_at_or_after(s, row.end)
        assert row.succ is (succ if succ is not None and succ.span_start == row.end else None)
