"""Window calculus tying production, buffer, and transport stages together.

Every stage-i negotiation starts from the committed finish of stage i-1 and the
already-proposed slot of stage i+1(-ish) and derives earliest/latest bounds for
the activities in between. All functions here are pure: the order agent feeds
each offer in as it came (any record with a ``slot`` interval and a
``slack_after``, in practice a :class:`~cnetsched.protocol.Proposal`), CFP
window sets come out. Unbounded slack terms simply drop out of minima; an
empty candidate set leaves the bound unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .timebase import Seconds, Slack, min_bound

if TYPE_CHECKING:  # protocol imports this module; an offer is read by attribute
    from .protocol import Proposal


class CalculusError(Exception):
    pass


class InfeasibleWindow(CalculusError):
    """Derived window has its latest bound before its earliest."""


class NoTransport(CalculusError):
    """Parameter derivation needs at least one transport resource."""


@dataclass(frozen=True)
class ScheduleParams:
    """System-wide scheduling floors: minimal transport and buffer durations."""

    t_transport_min: Seconds
    t_buffer_min: Seconds

    def __post_init__(self) -> None:
        if self.t_transport_min <= 0 or self.t_buffer_min <= 0:
            raise ValueError("scheduling floors must be positive")


class _StageWindows(NamedTuple):
    es: Seconds
    ef: Seconds
    ls: Optional[Seconds] = None
    lf: Optional[Seconds] = None


class StageWindows(_StageWindows):
    """ES/EF/LS/LF bounds exchanged in CFPs; None encodes an unbounded bound.

    ``(es, ls)`` bound an activity's start and ``(ef, lf)`` its finish; for a
    buffering activity the two pairs are the entry and exit windows.
    """

    __slots__ = ()

    def __new__(
        cls,
        es: Seconds,
        ef: Seconds,
        ls: Optional[Seconds] = None,
        lf: Optional[Seconds] = None,
    ) -> "StageWindows":
        if ls is not None and ls < es:
            raise InfeasibleWindow(f"LS {ls} before ES {es}")
        if lf is not None and lf < ef:
            raise InfeasibleWindow(f"LF {lf} before EF {ef}")
        return tuple.__new__(cls, (es, ef, ls, lf))

    @classmethod
    def _make(cls, iterable: Iterable[Optional[Seconds]]) -> "StageWindows":
        return cls(*iterable)  # ``_replace`` builds through here too: checked


@dataclass(frozen=True)
class TransportGeometry:
    """Kinematics of one transport: speed, handling times, reachable x-segment."""

    speed: float  # metres per second
    load_time: Seconds
    unload_time: Seconds
    x_min: float
    x_max: float

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError("transport speed must be positive")
        if self.x_max < self.x_min:
            raise ValueError("segment upper bound below lower bound")

    def travel_seconds(self, x_from: float, x_to: float) -> Seconds:
        """Pure x-direction travel time, rounded up to whole seconds."""
        return math.ceil(abs(x_to - x_from) / self.speed - 1e-9)


def derive_t_transport_min(
    locations: Sequence[tuple[float, float]],
    transports: Sequence[TransportGeometry],
) -> Seconds:
    """System-wide floor for a transport operation.

    Best-case handling (min load+unload over the fleet) plus the shortest real
    move: the minimal positive pairwise x-distance among the given locations at
    the fleet's maximum speed. Locations sharing an x-coordinate are one place
    as far as x-travel is concerned, so distances of 1e-9 m or less never
    count; if no two locations differ in x the travel share is zero.

    O(L log L) in the L locations: with the x values sorted, the nearest
    counted distance from each x is to the first later x more than 1e-9
    away, and that x only moves right as the first one does.
    """
    if not transports:
        raise NoTransport("cannot derive a transport floor without transports")
    if len(locations) < 2:
        raise ValueError("need at least two locations")
    handling = min(t.load_time + t.unload_time for t in transports)
    top_speed = max(t.speed for t in transports)
    xs = sorted(loc[0] for loc in locations)
    nearest = math.inf
    j = 0
    for a in xs:
        while j < len(xs) and not xs[j] - a > 1e-9:
            j += 1
        if j == len(xs):
            break
        nearest = min(nearest, xs[j] - a)
    travel = math.ceil(nearest / top_speed - 1e-9) if nearest < math.inf else 0
    return handling + travel


def _before(bound: Optional[Seconds], d: Seconds) -> Optional[Seconds]:
    """``bound - d``, or None when the bound is unbounded."""
    return None if bound is None else bound - d


def buffer_windows(f_prev: Seconds, prod: Proposal, params: ScheduleParams) -> StageWindows:
    """Entry/exit windows for buffering between a finished step and a proposed next step.

    ``prod`` is the next step's machine offer, read for its ``slot.start`` and
    ``slack_after``. Entry may happen in [ES_B, LS_B]; the workpiece must be
    taken for onward transport within [EF_B, LF_B] = [S_next - T_T,min,
    EF_B + ST_next], with LS_B = LF_B - T_B,min. An unbounded next-step slack
    leaves the late bounds unbounded.
    """
    es = f_prev
    ef = prod.slot.start - params.t_transport_min
    if ef < es:
        raise InfeasibleWindow(
            "next operation starts too early to leave room for buffering"
        )
    lf = prod.slack_after.bound_from(ef)
    return StageWindows(es=es, ef=ef, ls=_before(lf, params.t_buffer_min), lf=lf)


def transport_to_buffer_windows(
    f_prev: Seconds,
    prev_slack: Slack,
    buf: Proposal,
    prod: Proposal,
    params: ScheduleParams,
) -> StageWindows:
    """Windows for the leg bringing a workpiece from resource i-1 into a buffer.

    ``buf`` and ``prod`` are the buffer's and the next step's offers; each is
    read for its ``slot.start`` and ``slack_after``. LS is the tightest of:
    the previous commitment's latest finish, the buffer's latest entry, and
    the next operation's latest start minus the two remaining minimal
    transports and the minimal buffering. LF tracks LS by the minimal
    transport duration.
    """
    t = params.t_transport_min
    ls = min_bound(
        prev_slack.bound_from(f_prev),
        _before(buf.slack_after.bound_from(buf.slot.start), t),
        _before(prod.slack_after.bound_from(prod.slot.start), 2 * t + params.t_buffer_min),
    )
    lf = None if ls is None else ls + t
    return StageWindows(es=f_prev, ef=max(f_prev, buf.slot.start), ls=ls, lf=lf)


def _leg_into(
    es: Seconds, free_by: Optional[Seconds], prod: Proposal, params: ScheduleParams
) -> StageWindows:
    """Windows for a leg that delivers a workpiece to the next step's offer ``prod``.

    The leg starts in [ES, min(free_by, latest start of ``prod`` - T_T,min)],
    where ``free_by`` is the latest moment the workpiece may still be picked
    up, and finishes within [S_next, S_next + ST_next].
    """
    lf = prod.slack_after.bound_from(prod.slot.start)
    ls = min_bound(free_by, _before(lf, params.t_transport_min))
    return StageWindows(es=es, ef=prod.slot.start, ls=ls, lf=lf)


def transport_from_buffer_windows(
    f_prev: Seconds,
    buf: Proposal,
    prod: Proposal,
    params: ScheduleParams,
) -> StageWindows:
    """Windows for the leg taking a workpiece out of a buffer to resource i.

    ``buf`` is the buffer's offer, read for its ``slot.end`` and
    ``slack_after``; ``prod`` is the next step's offer, read for its
    ``slot.start`` and ``slack_after``. ES leaves room for the minimal inbound
    transport and minimal buffering after f_prev; the workpiece is free until
    the buffer's latest pickup.
    """
    es = f_prev + params.t_transport_min + params.t_buffer_min
    return _leg_into(es, buf.slack_after.bound_from(buf.slot.end), prod, params)


def transport_direct_windows(
    f_prev: Seconds,
    prev_slack: Slack,
    prod: Proposal,
    params: ScheduleParams,
) -> StageWindows:
    """Windows for a direct resource-to-resource leg (no buffering in between).

    ``prod`` is the next step's offer, read for its ``slot.start`` and
    ``slack_after``; the workpiece is free from f_prev until the previous
    commitment's latest finish.
    """
    return _leg_into(f_prev, prev_slack.bound_from(f_prev), prod, params)


def proposal_price(op_duration: Seconds, setup: Seconds, ti_next: Seconds = 0) -> int:
    """Price of a proposal: operation time + own setup + signed successor increment."""
    return int(op_duration) + int(setup) + int(ti_next)


def needs_buffering(f_prev: Seconds, s_next: Seconds, params: ScheduleParams) -> bool:
    """True when the idle gap after a direct transport would exceed the buffering floor.

    The transport is taken at its floor, ``params.t_transport_min``. Strictly
    greater: a gap of exactly t_buffer_min stays on the machine / transport
    chain rather than paying two extra handling operations.
    """
    return (s_next - (f_prev + params.t_transport_min)) > params.t_buffer_min
