"""Integer-second time primitives and the free/busy booking calendar of a resource.

Everything downstream (window calculus, proposal generation, commit validation)
sits on top of two guarantees made here:

* all intervals are half-open ``[start, end)`` over non-negative integer seconds,
  so adjacent segments never double-count an instant;
* a calendar is a time-sorted list of pairwise disjoint booking entries, where an
  entry with an *open tail* (departure not yet negotiated) blocks its whole
  suffix to +infinity instead of pretending to know when the workpiece leaves.

A resource answers one CFP from one gap table
(:meth:`ResourceSchedule.gap_table`): its free intervals, each with the state
before it and the booking right after it, looked up once. A state is the
``end_state`` of the booking before, as the resource stored it: a machine's
product, a crane's drop-off x as a number. :func:`gaps_for`
turns the table into the gaps a booking of one end state sees, with no further
calendar lookup, however many legs or alternatives the CFP carries.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, ClassVar, Iterable, Iterator, NamedTuple, Optional

Seconds = int  # engine-wide unit: integer seconds from the scenario epoch

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

    def shift(self, delta: Seconds) -> "TimeInterval":
        return TimeInterval(self.start + delta, self.end + delta)

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

    @property
    def unbounded(self) -> bool:
        return self.seconds is None

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
    still unknown; the resource stays blocked from the entry's start onwards
    until :meth:`ResourceSchedule.close_open_tail` attaches the real load
    segment. ``end_state`` is what the resource is left in: a machine's
    state (a product name) or a crane's drop-off x as a float. It drives
    successor setup recomputation.
    """

    order_id: str
    step_label: str
    segments: list[tuple[str, TimeInterval]]
    open_tail: bool = False
    end_state: Any = ""

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


# callback: (new predecessor end state, successor entry) -> required setup duration
SetupFn = Callable[[Any, BookingEntry], Seconds]

_INF = None  # suffix sentinel of a busy span: (start, None) means [start, +inf)
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


#: a free interval as a booking of a given end state sees it:
#: (start, end where the successor's recomputed setup has to begin,
#: from_state, signed successor setup change a booking there would cause)
PlacementGap = tuple[Seconds, Seconds, Any, Seconds]


def gaps_for(
    rows: Iterable[GapRow], new_end_state: Any, setup_of: SetupFn
) -> Iterator[PlacementGap]:
    """The rows of a gap table as a booking ending in ``new_end_state`` sees them.

    With a successor, the gap ends where the successor's setup, recomputed by
    ``setup_of``, has to begin; that is all the work left per end state, as
    the table already holds every calendar lookup. Empty gaps are skipped.
    """
    for start, end, from_state, succ, core_start, setup in rows:
        ti = 0
        if succ is not None:
            new_setup = setup_of(new_end_state, succ)
            ti = new_setup - setup
            end = core_start - new_setup
        if end > start:
            yield start, end, from_state, ti


class ResourceSchedule:
    """Time-sorted, pairwise disjoint booking calendar of one resource.

    Every entry ends at or before the next one starts, and no entry is empty,
    so both ``span_start`` and ``span_end`` never decrease along ``entries``.
    The lookups bisect the live list on these keys; code that edits
    ``entries`` directly must keep it sorted and disjoint.

    The open tails are also indexed by order (``_tails``), so the checks for
    them cost one lookup instead of a scan. :meth:`insert_booking` and
    :meth:`close_open_tail` keep the index; it is built from ``entries`` when
    a schedule is constructed, and :meth:`check_invariants` compares it with
    a scan.
    """

    def __init__(self, entries: Optional[list[BookingEntry]] = None) -> None:
        self.entries: list[BookingEntry] = [] if entries is None else entries
        self._tails: dict[str, BookingEntry] = {}
        for e in self.entries:
            if e.open_tail:
                self._tails[e.order_id] = e

    def __repr__(self) -> str:
        return f"ResourceSchedule(entries={self.entries!r})"

    # -- queries ---------------------------------------------------------

    def open_tail_entries(self) -> list[BookingEntry]:
        """The open-tail entries in time order."""
        return sorted(self._tails.values(), key=_span_start)

    def open_tail_for(self, order_id: str) -> Optional[BookingEntry]:
        return self._tails.get(order_id)

    def free_intervals(
        self,
        window: TimeInterval,
        extra_busy: Iterable[TimeInterval] = (),
        assume_closed: frozenset[str] | set[str] = frozenset(),
        after: Seconds = -1,
    ) -> list[TimeInterval]:
        """Maximal free intervals intersected with ``window``, sorted.

        Open-tail entries block from their span start to +infinity;
        ``assume_closed`` names orders whose open tail counts as ending at its
        operation end (a resource reasoning about the follow-up operation of
        the workpiece it holds). The union of the result and the busy spans
        partitions the window exactly.

        Only the intervals ending after ``after`` are returned (the default
        keeps all), and they are not clipped: each is the same maximal
        interval the full query gives, so its start and everything derived
        from it stay put. The walk starts at the end of the last entry ending
        by ``after``, the instant after which only the later entries and
        ``extra_busy`` can block, so only those are merged. An open tail among
        the earlier entries (one ending by ``after``) still blocks everything
        after it.
        """
        entries = self.entries
        first = bisect.bisect_right(entries, after, key=_span_end)
        cursor = window.start
        if first:
            for e in self._tails.values():
                if e.span_end <= after and e.order_id not in assume_closed:
                    return []
            cursor = max(cursor, entries[first - 1].span_end)
        blocked: list[tuple[Seconds, Optional[Seconds]]] = [
            (e.span_start, _INF if e.open_tail and e.order_id not in assume_closed else e.span_end)
            for e in entries[first:]
        ]
        blocked.extend((iv.start, iv.end) for iv in extra_busy if not iv.is_empty())
        blocked.sort(key=lambda s: (s[0], s[1] is not None, s[1] or 0))

        free: list[TimeInterval] = []
        for start, end in blocked:
            if end is not None and end <= cursor:
                continue
            if start >= window.end:
                break
            if start > cursor and min(start, window.end) > after:
                free.append(TimeInterval(cursor, min(start, window.end)))
            if end is None:
                return free  # everything after an open tail is blocked
            cursor = max(cursor, end)
            if cursor >= window.end:
                return free
        if cursor < window.end and window.end > after:
            free.append(TimeInterval(cursor, window.end))
        return free

    def gap_table(self, free: Iterable[TimeInterval], initial: Any) -> list[GapRow]:
        """The intervals of ``free`` with their neighbours looked up once.

        ``free`` comes from :meth:`free_intervals`: sorted, free of entries,
        and before any open tail that blocks. So the entries ending by an
        interval's start are exactly those before it, and the next entry
        starts at or after its end. One bisect finds the first interval's
        place; a cursor then walks the entries once for the whole table,
        keeping each row's ``from_state`` equal to :meth:`state_before` of
        its start. A row's successor is the entry that starts where the
        interval ends; its setup is the one a new booking in front of it
        recomputes (see :func:`gaps_for`).

        A gap therefore ends at most the successor's old setup after its
        interval. When no setup on the resource exceeds ``S`` and a slot
        cannot start before ``base``, a gap of an interval with
        ``iv.end + S < base`` starts its slot at exactly ``base`` and cannot
        hold it, so callers may drop those intervals first (and ask
        :meth:`free_intervals` only for those ending after ``base - S - 1``).
        """
        entries = self.entries
        rows: list[GapRow] = []
        i = -1  # cursor: the first entry not ending by the current interval's start
        for iv in free:
            if i < 0:
                i = self.last_ending_by(iv.start) + 1
                state = self._state_below(i, initial)
            while i < len(entries) and entries[i].span_end <= iv.start:
                state = entries[i].end_state
                i += 1
            succ = entries[i] if i < len(entries) else None
            if succ is not None and succ.span_start == iv.end:
                setup_iv = succ.setup_interval
                setup = setup_iv.duration if setup_iv is not None else 0
                rows.append(GapRow(iv.start, iv.end, state, succ, succ.core_start, setup))
            else:
                rows.append(GapRow(iv.start, iv.end, state, None, iv.end, 0))
        return rows

    def entry_at_or_after(self, t: Seconds) -> Optional[BookingEntry]:
        i = bisect.bisect_left(self.entries, t, key=_span_start)
        return self.entries[i] if i < len(self.entries) else None

    def last_ending_by(self, t: Seconds) -> int:
        """Index of the last entry that ends at or before ``t``; -1 when none does."""
        return bisect.bisect_right(self.entries, t, key=_span_end) - 1

    def state_before(
        self,
        t: Seconds,
        initial: Any,
        assume_closed: Optional[frozenset[str] | set[str]] = None,
    ) -> Any:
        """The state the entries ending by ``t`` leave the resource in.

        That is the ``end_state`` of the last of them, else ``initial``. With
        ``assume_closed``, an open tail of any other order hides itself and
        every later entry.
        """
        if assume_closed is not None:
            tails = self._tails.values()
            t = min([t] + [e.span_start for e in tails if e.order_id not in assume_closed])
        return self._state_below(self.last_ending_by(t) + 1, initial)

    def _state_below(self, i: int, initial: Any) -> Any:
        """The ``end_state`` of the entry before index ``i``, else ``initial``."""
        return self.entries[i - 1].end_state if i else initial

    # -- mutations -------------------------------------------------------

    def insert_booking(
        self, entry: BookingEntry, successor_setup: Optional[SetupFn] = None
    ) -> None:
        """Insert ``entry``, shifting the successor's setup segment if needed.

        Raises OverlapError when the entry (or the successor setup it forces)
        cannot fit. On success only the successor's setup segment may have
        moved; every other previously booked segment is untouched.
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
        new_setup = 0
        if idx < len(self.entries):
            succ = self.entries[idx]
            # with a callback the successor's setup is recomputed from the new
            # end state; one with no segment yet must still find room in the gap
            if successor_setup is None:
                new_setup = succ.core_start - succ.span_start  # as booked
            else:
                new_setup = successor_setup(entry.end_state, succ)
                if new_setup < 0:
                    raise ValueError("setup duration cannot be negative")
            if entry.span_end > succ.core_start - new_setup:
                raise OverlapError(
                    f"booking {entry.order_id}/{entry.step_label} overlaps "
                    f"{succ.order_id}/{succ.step_label} (or the setup room "
                    f"it now needs)"
                )

        # all checks passed: apply
        if succ is not None and succ.setup_interval is not None and successor_setup is not None:
            kind, old_setup = succ.segments[0]
            if new_setup:
                succ.segments[0] = (kind, TimeInterval(old_setup.end - new_setup, old_setup.end))
            else:
                succ.segments.pop(0)  # setup shrank to zero
        self.entries.insert(idx, entry)
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
        return entry

    # -- invariant helper (used heavily by tests) -------------------------

    def check_invariants(self) -> None:
        prev: Optional[BookingEntry] = None
        open_orders: set[str] = set()
        for e in self.entries:
            e.validate()
            if prev is not None:
                if e.span_start < prev.span_end:
                    raise ScheduleError(
                        f"entries {prev.order_id}/{prev.step_label} and "
                        f"{e.order_id}/{e.step_label} overlap"
                    )
            if e.open_tail:
                if e.order_id in open_orders:
                    raise ScheduleError(
                        f"two open tails for order {e.order_id}"
                    )
                open_orders.add(e.order_id)
            prev = e
        indexed = {o: id(e) for o, e in self._tails.items()}
        if indexed != {e.order_id: id(e) for e in self.entries if e.open_tail}:
            raise ScheduleError("the open-tail index disagrees with the entries")
