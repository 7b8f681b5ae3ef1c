"""Integer-second time primitives and the free/busy booking calendar of a resource.

Everything downstream (window calculus, proposal generation, commit validation)
sits on top of two guarantees made here:

* all intervals are half-open ``[start, end)`` over non-negative integer seconds,
  so adjacent segments never double-count an instant;
* a calendar is a time-sorted list of pairwise disjoint booking entries; an
  entry with an *open tail* (departure not yet negotiated) ends at its
  operation end, and the calendar books nothing after it until it is closed.

A resource answers one CFP from one gap table
(:meth:`ResourceSchedule.gap_table`): its free intervals, each with the state
before it and the booking right after it, all found in one walk of the
calendar (:meth:`ResourceSchedule.free_intervals`). A state is the
``end_state`` of the booking before, as the resource stored it: a machine's
product, a crane's drop-off x as a number; the booking after records the
state it needs at its start. The resource's placement walk reads the gaps a
booking of one end state sees straight off the table, with no further
calendar lookup, however many legs or alternatives the CFP carries.

The calendar prices every changeover by the one rule its resource gave it
(a machine's setup matrix, a crane's empty travel): a booking's own setup
and the one an insert imposes on the booking after it.

Every edit of a calendar goes through :meth:`ResourceSchedule.insert_booking`
or :meth:`ResourceSchedule.close_open_tail`, and each drops the table the
schedule keeps. Until the next edit, a resource that holds no offer for
another conversation answers CFP after CFP from that one kept table.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, ClassVar, Iterable, Iterator, NamedTuple, Optional, Sequence

Seconds = int  # engine-wide unit: integer seconds from the scenario epoch

#: upper edge of every calendar query; a gap reaching it counts as unbounded
HORIZON: Seconds = 10**9

#: segment kinds a booking entry may be composed of
SEGMENT_KINDS = frozenset(
    {"setup", "unload", "operation", "load", "travel", "maintenance", "buffer-hold"}
)


class ScheduleError(Exception):
    """Base class for calendar violations."""


class OverlapError(ScheduleError):
    """A booking (or its induced setup shift) would collide with existing entries."""


class NoOpenTail(ScheduleError):
    """close_open_tail was asked to close a tail that does not exist."""


def minutes(m: float) -> Seconds:
    """Convert scenario minutes to engine seconds (must land on a whole second)."""
    s = m * 60
    out = int(round(s))
    if abs(s - out) > 1e-9:
        raise ValueError(f"{m} minutes is not a whole number of seconds")
    return out


def hhmm(t: Seconds) -> str:
    """Render seconds-from-epoch as d.HH:MM for logs and error messages."""
    m, s = divmod(t, 60)
    h, m = divmod(m, 60)
    d, h = divmod(h, 24)
    base = f"{h:02d}:{m:02d}" + (f":{s:02d}" if s else "")
    return f"{d}.{base}" if d else base


class _TimeInterval(NamedTuple):
    start: Seconds
    end: Seconds


class TimeInterval(_TimeInterval):
    """Half-open interval [start, end) in whole seconds.

    An immutable tuple record: it orders, compares and hashes as
    ``(start, end)``.
    """

    __slots__ = ()

    def __new__(cls, start: Seconds, end: Seconds) -> "TimeInterval":
        if start < 0:
            raise ValueError(f"interval start {start} is negative")
        if end < start:
            raise ValueError(f"interval end {end} precedes start {start}")
        return tuple.__new__(cls, (start, end))

    @classmethod
    def _make(cls, iterable: Iterable[Seconds]) -> "TimeInterval":
        return cls(*iterable)  # ``_replace`` builds through here too: checked

    @property
    def duration(self) -> Seconds:
        return self.end - self.start

    def is_empty(self) -> bool:
        return self.end == self.start

    def __str__(self) -> str:  # pragma: no cover - debugging sugar
        return f"[{hhmm(self.start)}; {hhmm(self.end)})"


class _Slack(NamedTuple):
    seconds: Optional[Seconds] = None


class Slack(_Slack):
    """Shift room after a committed or proposed slot.

    ``seconds=None`` is the explicit unbounded variant ("large number" in
    operator speak); it drops out of any minimum instead of pretending to be a
    big sentinel integer.
    """

    __slots__ = ()

    UNBOUNDED: ClassVar["Slack"]

    def __new__(cls, seconds: Optional[Seconds] = None) -> "Slack":
        if seconds is not None and seconds < 0:
            raise ValueError("slack cannot be negative")
        return tuple.__new__(cls, (seconds,))

    @classmethod
    def _make(cls, iterable: Iterable[Optional[Seconds]]) -> "Slack":
        return cls(*iterable)

    def bound_from(self, point: Seconds) -> Optional[Seconds]:
        """point + slack, or None when the slack is unbounded."""
        return None if self.seconds is None else point + self.seconds

    def __str__(self) -> str:  # pragma: no cover
        return "unbounded" if self.seconds is None else f"{self.seconds}s"


Slack.UNBOUNDED = Slack(None)


def min_bound(*candidates: Optional[Seconds]) -> Optional[Seconds]:
    """Minimum over mixed finite/unbounded bounds; unbounded terms drop out."""
    finite = [c for c in candidates if c is not None]
    return min(finite) if finite else None


@dataclass
class BookingEntry:
    """One committed activity on a resource: an ordered run of contiguous segments.

    ``open_tail=True`` marks a production booking whose workpiece departure is
    still unknown; its segments end at the operation end, and nothing may be
    booked after it until :meth:`ResourceSchedule.close_open_tail` attaches
    the real load segment. ``end_state`` is what the resource is left in: a
    machine's state (a product name) or a crane's drop-off x as a float.
    ``start_state`` is what the booking needs at its start: a machine's
    product, a crane's pickup x. A booking inserted in front of it
    recomputes its setup as the calendar's changeover from its own
    ``end_state`` to that state; with None (a block the scenario fixed
    without a known pickup) the setup stays as booked.
    """

    order_id: str
    step_label: str
    segments: list[tuple[str, TimeInterval]]
    open_tail: bool = False
    end_state: Any = ""
    start_state: Any = None

    def validate(self) -> None:
        if not self.segments:
            raise ValueError("booking entry needs at least one segment")
        prev_end = None
        for kind, iv in self.segments:
            if kind not in SEGMENT_KINDS:
                raise ValueError(f"unknown segment kind {kind!r}")
            if iv.is_empty():
                raise ValueError("zero-length segments must be omitted")
            if prev_end is not None and iv.start != prev_end:
                raise ValueError("segments must be contiguous and time-ordered")
            prev_end = iv.end

    @property
    def span_start(self) -> Seconds:
        return self.segments[0][1].start

    @property
    def span_end(self) -> Seconds:
        return self.segments[-1][1].end

    @property
    def span(self) -> TimeInterval:
        return TimeInterval(self.span_start, self.span_end)

    @property
    def setup_interval(self) -> Optional[TimeInterval]:
        kind, iv = self.segments[0]
        return iv if kind in ("setup", "travel") else None

    @property
    def core_start(self) -> Seconds:
        """Start of the immovable part: everything after the leading setup/travel."""
        setup = self.setup_interval
        return setup.end if setup is not None else self.span_start

    def segment(self, kind: str) -> Optional[TimeInterval]:
        for k, iv in self.segments:
            if k == kind:
                return iv
        return None

    @property
    def operation_end(self) -> Seconds:
        op = self.segment("operation")
        return op.end if op is not None else self.span_end


def segments(t: Seconds, *parts: tuple[str, Seconds]) -> list[tuple[str, TimeInterval]]:
    """The ``(kind, seconds)`` parts laid out back to back from ``t``, the empty ones left out."""
    out: list[tuple[str, TimeInterval]] = []
    for kind, seconds in parts:
        if seconds:
            out.append((kind, TimeInterval(t, t + seconds)))
            t += seconds
    return out


def no_changeover(from_state: Any, to_state: Any) -> Seconds:
    """The changeover of a resource without setups."""
    return 0


_span_start = attrgetter("span_start")
_span_end = attrgetter("span_end")


class GapRow(NamedTuple):
    """One free interval of a gap table, with its neighbours resolved."""

    start: Seconds
    end: Seconds  # end of the free interval
    from_state: Any  # state the predecessor leaves the resource in
    succ: Optional[BookingEntry]  # the entry starting exactly at ``end``, if any
    core_start: Seconds  # the successor's core start; the interval's end without one
    setup: Seconds  # the successor's current setup length


class ResourceSchedule:
    """Time-sorted, pairwise disjoint booking calendar of one resource.

    Every entry ends at or before the next one starts, and no entry is empty,
    so both ``span_start`` and ``span_end`` never decrease along ``entries``.
    The lookups bisect the live list on these keys, so ``entries`` is edited
    only through :meth:`insert_booking` and :meth:`close_open_tail`.
    ``initial`` is the state before the first booking, and
    ``changeover(from_state, to_state)`` is the setup a booking starting in
    ``to_state`` owes one ending in ``from_state`` (none by default). A gap
    table takes one bisect and one walk of the entries after it
    (:meth:`free_intervals`).

    The open tails are also indexed by order (``_tails``), so the checks for
    them cost one lookup instead of a scan. Both edits keep the index; it is
    built from ``entries`` when a schedule is constructed.

    The schedule also keeps the last gap table it built with no extra busy
    span (:meth:`gap_table`). Both edits drop it on success; a refused edit
    changes nothing and keeps it.
    """

    def __init__(
        self, entries: Optional[list[BookingEntry]] = None, initial: Any = "",
        changeover: Callable[[Any, Any], Seconds] = no_changeover,
    ) -> None:
        self.entries: list[BookingEntry] = [] if entries is None else entries
        self.initial = initial
        self.changeover = changeover
        #: (``after``, rows) of the kept gap table; None until built, and after each edit
        self._kept: Optional[tuple[Seconds, list[GapRow]]] = None
        self._tails: dict[str, BookingEntry] = {}
        for e in self.entries:
            if e.open_tail:
                self._tails[e.order_id] = e

    def __repr__(self) -> str:
        return f"ResourceSchedule(entries={self.entries!r})"

    # -- queries ---------------------------------------------------------

    @property
    def has_open_tail(self) -> bool:
        return bool(self._tails)

    def open_tail_for(self, order_id: str) -> Optional[BookingEntry]:
        return self._tails.get(order_id)

    def free_intervals(
        self, extra_busy: Iterable[TimeInterval] = (), after: Seconds = -1
    ) -> list[GapRow]:
        """The maximal free intervals of ``[0, HORIZON)`` as gap rows, sorted.

        Every entry ends at its last segment, an open tail at its operation
        end: nothing is booked after it, and its resource answers only the
        order whose workpiece it holds. The union of the rows' intervals and
        the busy spans partitions ``[0, HORIZON)`` exactly.

        Only the intervals ending after ``after`` are returned (the default
        keeps all), and they are not clipped: each is the same maximal
        interval the full query gives, so its start and everything derived
        from it stay put. The walk starts at the end of the last entry ending
        by ``after``, the instant after which only the later entries and
        ``extra_busy`` can block.

        From there one walk merges the later entries with the sorted held
        spans in start order, an entry first on a tie. A row's
        ``from_state`` is the ``end_state`` of the last entry passed, which
        is :meth:`state_before` of its start: every entry passed ends by the
        interval's start, and every other one starts at or after its end.
        Its successor is the entry whose start ends the interval, so a held
        span ends an interval without one unless an entry starts with it.
        The walk clips at ``HORIZON``, where only an entry starting exactly
        there is a successor.
        """
        entries = self.entries
        first = bisect.bisect_right(entries, after, key=_span_end)
        cursor, state = 0, self.initial
        if first:
            cursor, state = entries[first - 1].span_end, entries[first - 1].end_state
        holds = sorted(iv for iv in extra_busy if not iv.is_empty()) if extra_busy else ()

        def blockers() -> Iterator[tuple[Seconds, Seconds, Optional[BookingEntry]]]:
            # (start, end, entry); a held span and the closing HORIZON have no entry
            h = 0
            for e in entries[first:]:
                segments = e.segments
                start = segments[0][1].start
                while h < len(holds) and holds[h].start < start:
                    yield (*holds[h], None)
                    h += 1
                yield start, segments[-1][1].end, e
            for iv in holds[h:]:
                yield (*iv, None)
            yield HORIZON, HORIZON, None

        rows: list[GapRow] = []
        for start, end, entry in blockers():
            if start > HORIZON:
                start, entry = HORIZON, None  # clipped: no entry starts where the row ends
            if start > cursor and start > after:
                setup = entry.setup_interval if entry is not None else None
                if setup is None:
                    rows.append(GapRow(cursor, start, state, entry, start, 0))
                else:
                    rows.append(GapRow(cursor, start, state, entry, setup.end, setup.duration))
            if entry is not None:
                state = entry.end_state
            cursor = max(cursor, end)
        return rows

    def gap_table(
        self, after: Seconds = -1, extra_busy: Sequence[TimeInterval] = ()
    ) -> list[GapRow]:
        """The rows of :meth:`free_intervals`, kept while they stay exact.

        A row's setup is the one a new booking in front of its successor
        recomputes, so the gap such a booking sees ends where the
        successor's recomputed setup has to begin. A gap therefore ends at
        most the successor's old setup after its interval. When no setup on
        the resource exceeds ``S`` and a slot cannot start before ``base``, a
        gap of an interval with ``iv.end + S < base`` starts its slot at
        exactly ``base`` and cannot hold it, so callers may drop those
        intervals first (and ask only for those ending after
        ``base - S - 1``).

        With no extra busy span, the table is kept, and a later such query
        whose ``after`` is no earlier gets the same list back until an edit
        drops it. Its rows that end after the new ``after`` are exactly the
        ones a fresh table would hold: the calendar is unchanged, so each is
        the same maximal interval with the same neighbours. Its other rows
        all end by the new ``after``, so a caller that drops those rows (as
        the slot search does with ``base``) sees no difference.
        """
        if extra_busy:
            return self.free_intervals(extra_busy, after)
        kept = self._kept
        if kept is None or after < kept[0]:
            kept = self._kept = (after, self.free_intervals((), after))
        return kept[1]

    def entry_at_or_after(self, t: Seconds) -> Optional[BookingEntry]:
        i = bisect.bisect_left(self.entries, t, key=_span_start)
        return self.entries[i] if i < len(self.entries) else None

    def state_before(self, t: Seconds) -> Any:
        """The ``end_state`` of the last entry ending by ``t``, else ``initial``."""
        i = bisect.bisect_right(self.entries, t, key=_span_end)
        return self.entries[i - 1].end_state if i else self.initial

    def setup_before(self, t: Seconds, to_state: Any) -> Seconds:
        """The changeover a booking starting in ``to_state`` at ``t`` owes the
        state before it (:meth:`state_before`)."""
        return self.changeover(self.state_before(t), to_state)

    # -- mutations -------------------------------------------------------

    def insert_booking(self, entry: BookingEntry) -> None:
        """Insert ``entry``, shifting the successor's setup segment if needed.

        The successor's setup becomes ``changeover(entry's end state, its
        start state)``, or stays as booked when that start state is None.
        Raises OverlapError when the entry (or that setup) cannot fit. On
        success only the successor's setup segment may have moved; every
        other previously booked segment is untouched.
        """
        entry.validate()
        if entry.open_tail and entry.order_id in self._tails:
            raise OverlapError(
                f"order {entry.order_id} already has an open tail on this resource"
            )

        idx = bisect.bisect_left(self.entries, entry.span_start, key=_span_start)

        if idx > 0:
            pred = self.entries[idx - 1]
            if pred.open_tail:
                raise OverlapError(
                    f"cannot book after the open tail of order {pred.order_id}"
                )
            if entry.span_start < pred.span_end:
                raise OverlapError(
                    f"booking {entry.order_id}/{entry.step_label} starts inside "
                    f"{pred.order_id}/{pred.step_label}"
                )

        succ: Optional[BookingEntry] = None
        if idx < len(self.entries):
            succ = self.entries[idx]
            if succ.start_state is None:
                new_setup = succ.core_start - succ.span_start  # as booked
            else:
                new_setup = self.changeover(entry.end_state, succ.start_state)
            if entry.span_end > succ.core_start - new_setup:
                raise OverlapError(
                    f"booking {entry.order_id}/{entry.step_label} overlaps "
                    f"{succ.order_id}/{succ.step_label} (or the setup room "
                    f"it now needs)"
                )

        # all checks passed: apply
        if succ is not None and succ.setup_interval is not None:
            kind, old_setup = succ.segments[0]
            if new_setup:
                succ.segments[0] = (kind, TimeInterval(old_setup.end - new_setup, old_setup.end))
            else:
                succ.segments.pop(0)  # setup shrank to zero
        self.entries.insert(idx, entry)
        self._kept = None
        if entry.open_tail:
            self._tails[entry.order_id] = entry

    def close_open_tail(
        self, order_id: str, departure: Seconds, load_time: Seconds
    ) -> BookingEntry:
        """Attach the real departure to an open-tail booking.

        The tail becomes ``[operation end, departure)``: a buffer-hold segment
        if the workpiece waited on the machine, then a load segment of
        ``load_time`` ending exactly at ``departure``. Afterwards the time
        beyond ``departure`` is free again.
        """
        entry = self.open_tail_for(order_id)
        if entry is None:
            raise NoOpenTail(f"no open tail for order {order_id}")
        op_end = entry.span_end
        loading_start = departure - load_time
        if loading_start < op_end:
            raise OverlapError(
                f"loading at {hhmm(loading_start)} would overlap the operation "
                f"ending {hhmm(op_end)}"
            )
        # the successor (if any) must still start after the closed tail
        idx = bisect.bisect_left(self.entries, entry.span_start, key=_span_start)
        if idx + 1 < len(self.entries):
            succ = self.entries[idx + 1]
            bound = succ.span_start
            if departure > bound:
                raise OverlapError(
                    f"departure {hhmm(departure)} runs into "
                    f"{succ.order_id}/{succ.step_label} at {hhmm(bound)}"
                )
        if loading_start > op_end:
            entry.segments.append(
                ("buffer-hold", TimeInterval(op_end, loading_start))
            )
        if load_time > 0:
            entry.segments.append(("load", TimeInterval(loading_start, departure)))
        entry.open_tail = False
        del self._tails[order_id]
        self._kept = None
        return entry
