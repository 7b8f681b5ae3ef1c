"""Brute-force validators used by the test suite.

Nothing here reuses the engine's bookkeeping: occupancy is judged by scanning
every second with plain arrays, combination choice by full enumeration, and
tiny scenarios by an exhaustive minute-grid search.  The point is to disagree
with the engine whenever the engine is wrong.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

import numpy as np

from cnetsched.protocol import Proposal
from cnetsched.selector import StageContext
from cnetsched.timebase import BookingEntry, ResourceSchedule, ScheduleError, Seconds

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# occupancy / blocking scan


@dataclass(frozen=True)
class Violation:
    resource_id: str
    at: Seconds
    description: str


def _presence(entry) -> Optional[tuple[Seconds, Seconds]]:
    """[from, to) during which the entry's workpiece physically occupies the resource."""
    if all(kind == "maintenance" for kind, _ in entry.segments):
        return None  # maintenance blocks the resource but holds no workpiece
    return (entry.core_start, entry.span_end)


def occupancy_check(
    schedules: Mapping[str, ResourceSchedule],
    kinds: Optional[Mapping[str, str]] = None,
    horizon: Optional[Seconds] = None,
) -> list[Violation]:
    """Second-by-second scan for capacity, double-booking, and blocking breaches.

    ``kinds`` maps resource id to machine | buffer | transport (anything
    missing is treated as a machine).  Orders' production chains are paired in
    operation-start order for the blocking check: a successor's unload may
    never begin before its predecessor's load has ended.
    """
    kinds = kinds or {}
    if horizon is None:
        horizon = 1
        for sched in schedules.values():
            for e in sched.entries:
                horizon = max(horizon, e.span_end + 1)

    violations: list[Violation] = []

    for rid, sched in sorted(schedules.items()):
        if not sched.entries:
            continue
        busy = np.zeros(horizon, dtype=np.int16)
        holding = np.zeros(horizon, dtype=np.int16)
        for e in sched.entries:
            busy[e.span_start : e.span_end] += 1
            span = _presence(e)
            if span is not None:
                holding[span[0] : span[1]] += 1
        over = np.nonzero(busy > 1)[0]
        if over.size:
            violations.append(
                Violation(rid, int(over[0]), f"double-booked: {int(busy[over[0]])} bookings at once")
            )
        capacity = 1  # machines, capacity-1 buffer places, single-carrier transports
        over = np.nonzero(holding > capacity)[0]
        if over.size:
            violations.append(
                Violation(
                    rid,
                    int(over[0]),
                    f"{kinds.get(rid, 'machine')} holds {int(holding[over[0]])} workpieces",
                )
            )

    # blocking constraint, per order across machine calendars
    by_order: dict[str, list[tuple[Seconds, str, Any]]] = {}
    for rid, sched in schedules.items():
        if kinds.get(rid, "machine") != "machine":
            continue
        for e in sched.entries:
            op = e.segment("operation")
            if op is None or e.segment("maintenance") is not None:
                continue
            if e.step_label == "init":
                continue  # pre-existing load, not part of a negotiated chain
            by_order.setdefault(e.order_id, []).append((op.start, rid, e))

    for order_id, chain in sorted(by_order.items()):
        chain.sort(key=lambda item: item[0])
        for (_, rid_a, prev), (_, rid_b, nxt) in zip(chain, chain[1:]):
            load = prev.segment("load")
            released = load.end if load is not None else prev.span_end
            unload = nxt.segment("unload")
            arrived = unload.start if unload is not None else nxt.core_start
            if arrived < released:
                violations.append(
                    Violation(
                        rid_b,
                        arrived,
                        f"blocking breach for {order_id}: unload on {rid_b} begins at "
                        f"{arrived} before the load on {rid_a} ends at {released}",
                    )
                )

    # custody: the workpiece must be somewhere at every instant of its life
    presence_by_order: dict[str, list[tuple[Seconds, Seconds]]] = {}
    first_last: dict[str, tuple[Seconds, Seconds]] = {}
    for rid, sched in schedules.items():
        for e in sched.entries:
            if e.step_label in ("init", "maintenance"):
                continue
            span = _presence(e)
            if span is None:
                continue
            presence_by_order.setdefault(e.order_id, []).append(span)
            op = e.segment("operation")
            if op is not None:
                lo, hi = first_last.get(e.order_id, (op.start, op.end))
                first_last[e.order_id] = (min(lo, op.start), max(hi, op.end))
    for order_id, spans in sorted(presence_by_order.items()):
        if order_id not in first_last:
            continue
        lo, hi = first_last[order_id]
        covered = np.zeros(hi - lo, dtype=bool)
        for s, e in spans:
            covered[max(s, lo) - lo : max(min(e, hi) - lo, 0)] = True
        gaps = np.nonzero(~covered)[0]
        if gaps.size:
            violations.append(
                Violation(
                    order_id,
                    int(lo + gaps[0]),
                    f"custody gap: {order_id} is nowhere at second {int(lo + gaps[0])}",
                )
            )

    return violations


def find_entry(
    schedule: ResourceSchedule, order_id: str, step_label: str
) -> Optional[BookingEntry]:
    """The first booking of ``order_id`` labelled ``step_label``, by a linear scan."""
    for e in schedule.entries:
        if e.order_id == order_id and e.step_label == step_label:
            return e
    return None


def stability_check(commits: Sequence, schedules: Mapping[str, ResourceSchedule]) -> list[str]:
    """Every committed core must still sit untouched in the final calendars."""
    problems = []
    for rec in commits:
        sched = schedules.get(rec.resource_id)
        entry = find_entry(sched, rec.order_id, rec.step_label) if sched is not None else None
        if entry is None:
            problems.append(
                f"{rec.resource_id}: committed booking {rec.order_id}/{rec.step_label} disappeared"
            )
            continue
        if entry.core_start != rec.start or entry.operation_end != rec.end:
            problems.append(
                f"{rec.resource_id}: core of {rec.order_id}/{rec.step_label} moved from "
                f"[{rec.start}, {rec.end}) to [{entry.core_start}, {entry.operation_end})"
            )
    return problems


# ---------------------------------------------------------------------------
# physics: the bookings against the scenario document


def _bookings_in_time(rows: Iterable[tuple]) -> dict[str, list[tuple[str, str, list]]]:
    """resource -> its bookings in time order, each ``(order, label, segments)``
    with ``segments`` a list of ``(kind, start, end)``. A booking is a run of
    contiguous rows of one order and label."""
    out: dict[str, list[tuple[str, str, list]]] = {}
    for rid, order, label, kind, start, end in sorted(rows, key=lambda r: (r[0], r[4], r[5])):
        bookings = out.setdefault(rid, [])
        last = bookings[-1] if bookings else None
        if last is None or last[:2] != (order, label) or last[2][-1][2] != start:
            bookings.append((order, label, []))
        bookings[-1][2].append((kind, start, end))
    return out


def _seconds(value: float) -> int:
    return int(round(value * 60))


def _fixed_blocks(doc: Mapping) -> dict[str, list[tuple[tuple, Any]]]:
    """resource -> its fixed blocks in the document, each ``(row, state)``:
    the one GANTT row it books and the machine state or crane x it leaves."""
    out: dict[str, list[tuple[tuple, Any]]] = {}

    def add(rid: str, order: str, label: str, kind: str, block: Mapping, state: Any) -> None:
        span = (_seconds(block["start"]), _seconds(block["end"]))
        out.setdefault(rid, []).append(((rid, order, label, kind, *span), state))

    for m in doc["machines"]:
        rid = m["id"]
        for j, b in enumerate(m.get("initial_bookings", [])):
            add(rid, b.get("order_id", f"{rid}-init-{j}"), "init", "operation", b,
                b.get("end_state", ""))
        for j, w in enumerate(m.get("maintenance", [])):
            add(rid, f"{rid}-maint-{j}", "maintenance", "maintenance", w, w.get("state", ""))
    for t in doc.get("transports", []):
        rid, initial_x = t["id"], t.get("initial_x", t["segment"][0])
        for j, b in enumerate(t.get("initial_bookings", [])):
            add(rid, b.get("order_id", f"{rid}-init-{j}"), "init", "operation", b,
                b.get("end_x", initial_x))
    return out


def _state_after_fixed(blocks: list[tuple[tuple, Any]], order: str, label: str,
                       start: int, before: Any) -> Any:
    """The state a fixed row leaves: its block's, found by start, else by
    order id and label; ``before`` when the document has no such block."""
    for row, state in blocks:
        if row[4] == start:
            return state
    return next((state for row, state in blocks if row[1:3] == (order, label)), before)


def physics_check(doc: Mapping, rows: Iterable[tuple], done: Iterable[str] = ()) -> list[str]:
    """Machine stages, setups and operations and crane travel judged against
    the scenario document.

    Reads only ``doc`` (a scenario document, minutes and metres per minute),
    the GANTT rows of ``harness.gantt_rows`` and the ids of the orders that
    finished (``done``). An order's negotiated machine bookings are labelled
    1…k, a prefix of its product's steps, each on a machine whose
    ``operation`` is that step; a done order has them all. On a machine, a
    negotiated booking holds one operation segment, which lasts the
    document's ``op_duration`` of the order's product there, and starts with
    a setup segment exactly when the document's setup from the state before
    it to the order's product is not zero, and that segment lasts that long.
    The state before is the machine's ``initial_state``, the previous
    booking's product, an initial booking's ``end_state`` or a maintenance
    window's ``state``. Every fixed block of the document (a machine's
    initial booking or maintenance window, a crane's initial booking) is one
    row on its resource: its ``order_id``, or ``<id>-init-<j>`` /
    ``<id>-maint-<j>``, labelled ``init`` or ``maintenance``, of kind
    ``operation`` or ``maintenance``, over the block's span. A fixed row
    leaves its block's state, the block found by the row's start, else by
    its order id and label, so one misplaced block is one problem. A crane
    movement's empty travel (before its load) and loaded travel (between
    load and unload) are each present exactly when the document's travel
    time for it is not zero, and last that long: empty from the crane's
    previous drop-off (its ``initial_x``, or an initial booking's ``end_x``)
    to the pickup, loaded from the pickup to the drop-off. A crane whose
    ``load`` and ``unload`` are both zero books a movement as that travel
    alone, the empty run then the loaded one, each present exactly when not
    zero. A movement labelled ``T:a,b`` picks up where the order's booking
    labelled ``a`` sits and drops off where the one labelled ``b`` sits. No
    negotiated machine or buffer booking of an order handles its workpiece
    before the order's ``arrival``: the booking's first segment other than a
    setup starts no earlier (a setup readies the machine, not the workpiece,
    and a crane picks the workpiece up only from such a booking). Returns one
    line per violation; a setup or travel the document asks for and the
    booking lacks reads "... not recorded ...".
    """
    problems: list[str] = []
    rows = list(rows)
    orders = {o.get("id", f"order-{i + 1}"): o for i, o in enumerate(doc["orders"])}
    product_of = {order: o["product"] for order, o in orders.items()}
    bookings = _bookings_in_time(rows)
    cranes = {t["id"]: t for t in doc.get("transports", [])}
    x_of = {r["id"]: r["location"][0] for r in doc["machines"] + doc.get("buffers", [])}
    served = {
        (order, label): (rid, segments)
        for rid, booked in bookings.items()
        if rid not in cranes
        for order, label, segments in booked
    }
    steps_of = {p["id"]: p["steps"] for p in doc["products"]}
    operation_of = {m["id"]: m["operation"] for m in doc["machines"]}
    done = set(done)
    stages: dict[str, list[str]] = {order: [] for order in done}
    for rid, operation in operation_of.items():
        for order, label, _ in bookings.get(rid, []):
            if label in ("init", "maintenance"):
                continue
            stages.setdefault(order, []).append(label)
            steps = steps_of[product_of[order]]
            if not label.isdigit() or not 1 <= int(label) <= len(steps):
                continue  # judged with the order's labels below
            if steps[int(label) - 1] != operation:
                problems.append(
                    f"{rid} {order}/{label}: a {operation!r} machine, the plan's step "
                    f"{label} is {steps[int(label) - 1]!r}"
                )
    for order, labels in sorted(stages.items()):
        n = len(steps_of[product_of[order]])
        k = n if order in done else len(labels)
        if k > n or sorted(labels, key=lambda label: (len(label), label)) != [
            str(i) for i in range(1, k + 1)
        ]:
            problems.append(
                f"{order}: machine stages {sorted(labels)} are not "
                + ("all" if order in done else "a prefix of") + f" the {n} steps of its plan"
            )
    for rid, booked in bookings.items():
        if rid in cranes:
            continue
        for order, label, segments in booked:
            if label in ("init", "maintenance"):
                continue
            arrival = _seconds(orders[order].get("arrival", 0))
            kind, start, _ = next((s for s in segments if s[0] != "setup"), segments[0])
            if start < arrival:
                problems.append(
                    f"{rid} {order}/{label}: {kind} at {start} s, before the order's arrival "
                    f"at {arrival} s"
                )
    found = Counter(row for row in rows if row[2] in ("init", "maintenance"))
    fixed = _fixed_blocks(doc)
    for row, _ in (block for blocks in fixed.values() for block in blocks):
        if found[row]:
            found[row] -= 1
        else:
            rid, order, label, kind, start, end = row
            problems.append(
                f"{rid} {order}/{label}: no {kind} row over [{start}, {end}), the document's "
                "fixed block"
            )
    for machine in doc["machines"]:
        rid, setup, op_duration = machine["id"], machine.get("setup", {}), machine["op_duration"]
        state = machine.get("initial_state", "")
        for order, label, segments in bookings.get(rid, []):
            if label in ("init", "maintenance"):
                state = _state_after_fixed(fixed.get(rid, []), order, label, segments[0][1], state)
                continue
            product = product_of[order]
            operations = [end - start for kind, start, end in segments if kind == "operation"]
            if product not in op_duration or operations != [_seconds(op_duration[product])]:
                problems.append(
                    f"{rid} {order}/{label}: operation segments {operations} for product "
                    f"{product!r}, the document gives {op_duration.get(product)} min"
                )
            want = _seconds(setup.get(state, {}).get(product, 0))
            found = [end - start for kind, start, end in segments if kind == "setup"]
            if want and not found:
                problems.append(
                    f"{rid} {order}/{label}: setup not recorded, the document gives {want} s "
                    f"after state {state!r}"
                )
            elif found != ([want] if want else []) or (want and segments[0][0] != "setup"):
                problems.append(
                    f"{rid} {order}/{label}: setup segments {found} after state {state!r}, "
                    f"the document gives {want} s"
                )
            state = product
    for rid, crane in cranes.items():
        metres_per_s = crane["speed"] / 60

        def travel(a: float, b: float) -> int:
            return math.ceil(abs(b - a) / metres_per_s - 1e-9)

        initial_x = crane.get("initial_x", crane["segment"][0])
        load_s, unload_s = _seconds(crane.get("load", 0)), _seconds(crane.get("unload", 0))
        handles = load_s or unload_s
        x = initial_x
        for order, label, segments in bookings.get(rid, []):
            if label == "init":
                x = _state_after_fixed(fixed.get(rid, []), order, label, segments[0][1], x)
                continue
            ends = label[2:].split(",") if label.startswith("T:") else []
            where = [served.get((order, end)) for end in ends]
            if len(where) != 2 or None in where:
                problems.append(f"{rid} {order}/{label}: cannot find the bookings it serves")
                continue
            (src, src_segments), (dst, dst_segments) = where
            pickup, drop = x_of[src], x_of[dst]
            source = (f"{src}/{ends[0]}", src_segments)
            target = (f"{dst}/{ends[1]}", dst_segments)
            problems.extend(
                f"{rid} {order}/{label}: handover: {problem}"
                for problem in _handovers(
                    segments, source, target, load_s, unload_s, travel(pickup, drop)
                )
            )
            kinds = [kind for kind, _, _ in segments]
            if not handles:
                # no handling segment parts the approach from the loaded run
                got = [e - s for kind, s, e in segments if kind == "travel"]
                want = [t for t in (travel(x, pickup), travel(pickup, drop)) if t]
                if len(got) < len(want):
                    problems.append(
                        f"{rid} {order}/{label}: travel not recorded, the document gives "
                        f"{want} s"
                    )
                elif got != want or set(kinds) != {"travel"}:
                    problems.append(
                        f"{rid} {order}/{label}: segments {kinds} of {got} s travel, the "
                        f"document gives {want} s of travel alone"
                    )
                x = drop
                continue
            if "load" not in kinds or "unload" not in kinds:
                problems.append(f"{rid} {order}/{label}: no load or no unload")
                continue
            loaded_at = kinds.index("load")
            empty = [e - s for kind, s, e in segments[:loaded_at] if kind == "travel"]
            loaded = [e - s for kind, s, e in segments[loaded_at:] if kind == "travel"]
            for what, got, want in (
                ("empty", empty, travel(x, pickup)), ("loaded", loaded, travel(pickup, drop))
            ):
                if want and not got:
                    problems.append(
                        f"{rid} {order}/{label}: {what} travel not recorded, the document "
                        f"gives {want} s"
                    )
                elif got != ([want] if want else []):
                    problems.append(
                        f"{rid} {order}/{label}: {what} travel segments {got}, the document "
                        f"gives {want} s"
                    )
            x = drop
    return problems


def _segment(seg: tuple[str, int, int]) -> str:
    kind, start, end = seg
    return f"{kind} {start}-{end}"


def _handovers(
    segments: list, source: tuple[str, list], target: tuple[str, list],
    load_s: int, unload_s: int, loaded_travel: int,
) -> list[str]:
    """How a crane movement's ``segments`` miss the bookings it serves: its
    load must be the tail of the ``source`` booking it leaves, and its
    unload the head, the first segment other than a setup, of the
    ``target`` booking it reaches; each of ``source`` and ``target`` is
    ``(name, segments)``. A crane that takes no time to load (or to unload)
    books no such segment, so the instants must meet instead: the source
    booking ends at the pickup, ``unload_s`` and ``loaded_travel`` before
    the movement ends, and the target booking's head starts where the
    movement ends. A handling segment the movement lacks is judged by the
    travel rules, not here."""
    (src, src_segments), (dst, dst_segments) = source, target
    tail = src_segments[-1]
    head = next((seg for seg in dst_segments if seg[0] != "setup"), dst_segments[0])
    load = next((seg for seg in segments if seg[0] == "load"), None)
    unload = next((seg for seg in segments if seg[0] == "unload"), None)
    end = segments[-1][2]
    pickup = end - unload_s - loaded_travel
    out = []
    if load_s and load is not None and load != tail:
        out.append(f"{_segment(load)} is not the tail of {src}, its {_segment(tail)}")
    if not load_s and pickup != tail[2]:
        out.append(f"pickup at {pickup} s is not the end of {src}, its {_segment(tail)}")
    if unload_s and unload is not None and unload != head:
        out.append(f"{_segment(unload)} is not the head of {dst}, its {_segment(head)}")
    if not unload_s and end != head[1]:
        out.append(f"drop-off at {end} s is not the start of {dst}, its {_segment(head)}")
    return out


# ---------------------------------------------------------------------------
# the transport floor, pair by pair


def pairwise_t_transport_min(
    locations: Sequence[tuple[float, float]], transports: Sequence[Any]
) -> Seconds:
    """``calculus.derive_t_transport_min`` over every pair of locations:
    fastest handling plus the shortest x-distance above 1e-9 m at top speed."""
    handling = min(t.load_time + t.unload_time for t in transports)
    top_speed = max(t.speed for t in transports)
    xs = [loc[0] for loc in locations]
    deltas = [
        abs(a - b)
        for i, a in enumerate(xs)
        for b in xs[i + 1 :]
        if abs(a - b) > 1e-9
    ]
    travel = math.ceil(min(deltas) / top_speed - 1e-9) if deltas else 0
    return handling + travel


# ---------------------------------------------------------------------------
# calendar invariants


def check_invariants(schedule: ResourceSchedule) -> None:
    """Raise ``ScheduleError`` unless ``schedule`` is a well-formed calendar.

    Read through its public reads only: every entry is valid, the entries are
    time-sorted and pairwise disjoint, an order has at most one open tail,
    and ``open_tail_for`` and ``has_open_tail`` agree with a scan of them.
    """
    prev: Optional[BookingEntry] = None
    tails: dict[str, BookingEntry] = {}
    for e in schedule.entries:
        e.validate()
        if prev is not None and e.span_start < prev.span_end:
            raise ScheduleError(
                f"entries {prev.order_id}/{prev.step_label} and "
                f"{e.order_id}/{e.step_label} overlap"
            )
        if e.open_tail:
            if e.order_id in tails:
                raise ScheduleError(f"two open tails for order {e.order_id}")
            tails[e.order_id] = e
        prev = e
    for order_id in {e.order_id for e in schedule.entries}:
        if schedule.open_tail_for(order_id) is not tails.get(order_id):
            raise ScheduleError(f"the open-tail index disagrees with the entries for {order_id}")
    if schedule.has_open_tail != bool(tails):
        raise ScheduleError("the open-tail index disagrees with the entries")


# ---------------------------------------------------------------------------
# stage-combination enumeration


@dataclass(frozen=True)
class OracleChoice:
    fulfillment: Seconds
    price: int
    kind: str
    production_id: str
    route_ids: tuple[str, ...]

    @property
    def accept_ids(self) -> frozenset[str]:
        return frozenset((self.production_id,) + self.route_ids)


@dataclass
class OracleEnumeration:
    choices: list[OracleChoice] = field(default_factory=list)

    @property
    def best(self) -> Optional[OracleChoice]:
        return self.choices[0] if self.choices else None

    def is_feasible(self, accept_ids: Iterable[str]) -> bool:
        wanted = frozenset(accept_ids)
        return any(c.accept_ids == wanted for c in self.choices)


def enumerate_combinations(
    production: Sequence[Proposal],
    buffers: Sequence[Proposal],
    transports: Sequence[Proposal],
    ctx: StageContext,
) -> OracleEnumeration:
    """Every consistent (production, buffer, legs) tuple, best first.

    The selector's rule, written independently: the same feasibility checks
    over the full cross-product of proposals, ranked by fulfillment, total
    price, production proposal id and route ids. An engine proposal id
    starts with its resource's id, so this is the selector's order, which
    ranks on the production resource id before the proposal id.
    """

    def latest_start(p: Proposal) -> Optional[Seconds]:
        return p.slack_after.bound_from(p.slot.start)

    out = OracleEnumeration()

    def admit(p: Proposal, kind: str, route: tuple[Proposal, ...], arrival: Optional[Seconds]):
        start = p.slot.start if arrival is None else max(p.slot.start, arrival)
        bound = latest_start(p)
        if bound is not None and start > bound:
            return
        out.choices.append(
            OracleChoice(
                fulfillment=start + p.op_duration,
                price=p.price + sum(r.price for r in route),
                kind=kind,
                production_id=p.proposal_id,
                route_ids=tuple(r.proposal_id for r in route),
            )
        )

    for p in production:
        if ctx.prev_resource is None:
            admit(p, "entry", (), None)
            continue
        if p.resource_id == ctx.prev_resource:
            admit(p, "stay-on-machine", (), None)
            continue
        for b in buffers:
            if b.realizes != p.proposal_id:
                continue
            b_latest = b.slack_after.bound_from(b.slot.end)
            for leg_in in transports:
                if leg_in.via is not None or leg_in.realizes != b.proposal_id:
                    continue
                if leg_in.required_operation is not None:
                    continue
                if leg_in.slot.end < b.slot.start:
                    continue
                for leg_out in transports:
                    if leg_out.via != b.proposal_id or leg_out.realizes != p.proposal_id:
                        continue
                    if leg_out.required_operation is not None and (
                        leg_out.required_operation != leg_in.proposal_id
                    ):
                        continue
                    if leg_out.slot.start < leg_in.slot.end:
                        continue
                    if b_latest is not None and leg_out.slot.start > b_latest:
                        continue
                    admit(p, "buffered", (leg_in, leg_out, b), leg_out.slot.end)
        for leg in transports:
            if leg.via is not None or leg.realizes != p.proposal_id:
                continue
            if leg.required_operation is not None:
                continue
            if leg.slot.start < ctx.f_prev:
                continue
            admit(p, "direct", (leg,), leg.slot.end)

    def rank(c: OracleChoice) -> tuple:
        return (c.fulfillment, c.price, c.production_id, c.route_ids)

    out.choices.sort(key=rank)
    return out


# ---------------------------------------------------------------------------
# exhaustive scheduling of tiny scenarios


class OracleBudgetExceeded(RuntimeError):
    pass


class OracleInfeasible(RuntimeError):
    """No feasible schedule exists within the horizon."""


@dataclass
class _Booking:
    resource_id: str
    order_id: str
    start: Seconds  # block start, setup/approach included
    end: Seconds
    core_start: Seconds
    state_after: Any  # a machine state, or a crane's x-position
    pickup_x: Optional[float] = None  # transports: where this leg loads


class _MiniCalendar:
    """Plain sorted interval lists; the oracle's whole notion of a schedule."""

    def __init__(self) -> None:
        self.by_resource: dict[str, list[_Booking]] = {}

    def entries(self, rid: str) -> list[_Booking]:
        return self.by_resource.setdefault(rid, [])

    def add(self, booking: _Booking) -> None:
        lst = self.entries(booking.resource_id)
        lst.append(booking)
        lst.sort(key=lambda b: (b.start, b.end))

    def remove(self, booking: _Booking) -> None:
        self.by_resource[booking.resource_id].remove(booking)

    def fits(self, rid: str, start: Seconds, end: Seconds) -> bool:
        return all(b.end <= start or end <= b.start for b in self.entries(rid))

    def state_before(self, rid: str, t: Seconds, initial: str) -> str:
        state = initial
        for b in self.entries(rid):
            if b.end <= t:
                state = b.state_after
        return state

    def successor(self, rid: str, t: Seconds) -> Optional[_Booking]:
        after = [b for b in self.entries(rid) if b.start >= t]
        return min(after, key=lambda b: b.start) if after else None


def exhaustive_schedule(scenario, max_nodes: int = 200_000) -> dict[str, Any]:
    """Optimal-per-order schedule of a tiny scenario by exhaustive search.

    Orders are planned one after the other (earlier orders stay frozen, which
    is the engine's stability rule); each order's completion time is minimized
    by enumerating machine choices, route modes, and boundary-aligned start
    times on a one-minute grid.  Returns per-order completion times and the
    makespan; raises :class:`OracleInfeasible` when an order cannot be placed
    at all.  Consecutive stages that repeat an operation (and would therefore
    stay on one machine) are out of scope here.
    """
    if len(scenario.orders) > 2:
        raise ValueError("exhaustive oracle handles at most 2 orders")
    if len(scenario.machines) > 3:
        raise ValueError("exhaustive oracle handles at most 3 machines")
    if len(scenario.buffers) > 1 or len(scenario.transports) > 1:
        raise ValueError("exhaustive oracle handles at most 1 buffer and 1 transport")
    for product in scenario.products:
        for a, b in zip(product.steps, product.steps[1:]):
            if a == b:
                raise ValueError("repeated consecutive operations are not supported")

    params = scenario.schedule_params()
    t_t = params.t_transport_min
    t_b = params.t_buffer_min
    transport = scenario.transports[0] if scenario.transports else None
    geometry = transport.geometry() if transport is not None else None
    buffer = scenario.buffers[0] if scenario.buffers else None
    machines = {m.id: m for m in scenario.machines}

    total = 0
    for o in scenario.orders:
        for op in scenario.product(o.product).steps:
            caps = [m for m in scenario.machines if m.operation == op]
            total += max((m.op_duration.get(o.product, 0) for m in caps), default=0)
            total += max(
                (m.setup.get(s, {}).get(o.product, 0) for m in caps for s in m.setup),
                default=0,
            )
            if geometry is not None:
                total += (
                    geometry.load_time
                    + geometry.unload_time
                    + geometry.travel_seconds(geometry.x_min, geometry.x_max)
                )
    horizon = 2 * max(total, 60)

    cal = _MiniCalendar()
    for m in scenario.machines:
        for b in m.initial_bookings + m.maintenance:
            cal.add(_Booking(m.id, b.order_id, b.start, b.end, b.start, b.state))
    if transport is not None:
        for b in transport.initial_bookings:
            cal.add(_Booking(transport.id, b.order_id, b.start, b.end, b.start, b.state))

    nodes = [0]

    def tick() -> None:
        nodes[0] += 1
        if nodes[0] > max_nodes:
            raise OracleBudgetExceeded(f"more than {max_nodes} search nodes")

    def travel(x0: float, x1: float) -> Seconds:
        assert geometry is not None
        return geometry.travel_seconds(x0, x1)

    def crane_x_before(t: Seconds) -> float:
        assert transport is not None
        x = transport.initial_x
        for b in cal.entries(transport.id):
            if b.end <= t:
                x = b.state_after
        return x

    def try_leg(load_start: Seconds, from_x: float, to_x: float, order_id: str) -> Optional[_Booking]:
        """A transport movement loading at load_start, or None if the crane cannot.

        The approach run of the next booked leg is reshaped when its pickup
        point is known, exactly like live bookings behave.
        """
        if geometry is None or not (
            geometry.x_min <= from_x <= geometry.x_max and geometry.x_min <= to_x <= geometry.x_max
        ):
            return None
        approach = travel(crane_x_before(load_start), from_x)
        dur = geometry.load_time + travel(from_x, to_x) + geometry.unload_time
        start, end = load_start - approach, load_start + dur
        if start < 0:
            return None
        for b in cal.entries(transport.id):
            if b.end <= start or end <= b.start:
                continue
            if b.start >= start and b.pickup_x is not None:
                # overlap only into the successor's movable approach run
                if end <= b.core_start - travel(to_x, b.pickup_x):
                    continue
            return None
        return _Booking(transport.id, order_id, start, end, load_start, to_x, pickup_x=from_x)

    def machine_room_after(m, state: str, end: Seconds) -> bool:
        """Is [.., end) compatible with the next booking's changeover demand?"""
        succ = cal.successor(m.id, end)
        if succ is None:
            return True
        need = m.setup.get(state, {}).get(succ.state_after, 0)
        return end <= succ.core_start - need

    def machine_slot(m, product: str, s: Seconds, dur: Seconds, unload: Seconds) -> Optional[_Booking]:
        """Book op start s on machine m if setup/unload fit and states allow."""
        block_core = s - unload
        state = cal.state_before(m.id, block_core, m.initial_state)
        setup = m.setup.get(state, {}).get(product, 0)
        start = block_core - setup
        if start < 0:
            return None
        end = s + dur
        if not cal.fits(m.id, start, end):
            return None
        if not machine_room_after(m, product, end):
            return None
        return _Booking(m.id, "?", start, end, s, product)

    def grow_hold(prev_slot: Optional[_Booking], new_end: Seconds) -> Optional[Seconds]:
        """Keep the piece on the previous machine until pickup; old end or None."""
        if prev_slot is None:
            return None
        old = prev_slot.end
        if new_end <= old:
            return old
        m = machines[prev_slot.resource_id]
        for b in cal.entries(prev_slot.resource_id):
            if b is prev_slot or b.end <= prev_slot.start:
                continue
            need = m.setup.get(prev_slot.state_after, {}).get(b.state_after, 0)
            if new_end > b.core_start - need:
                return None
        prev_slot.end = new_end
        return old

    GRID = 60  # one minute

    def minutes_up(t: Seconds) -> Seconds:
        return ((t + GRID - 1) // GRID) * GRID

    site_xs = sorted(
        {float(m.location[0]) for m in scenario.machines}
        | {float(b.location[0]) for b in scenario.buffers}
        | ({float(transport.initial_x)} if transport is not None else set())
    )

    def candidate_starts(lower: Seconds, m, leg_dur: Optional[Seconds], from_x) -> list[Seconds]:
        """Start candidates at or after lower, aligned to calendar boundaries.

        An optimal start has some constraint tight: a machine edge plus a
        setup/unload run, a leg arriving from a calendar edge, or the crane
        freeing up somewhere and approaching the pickup.  All those offsets
        are enumerated; between them nothing can improve.
        """
        offsets = {0, t_t, t_t + t_b}
        setups = {0} | {v for row in m.setup.values() for v in row.values()}
        unload = geometry.unload_time if geometry is not None else 0
        offsets |= setups | {su + unload for su in setups}
        if leg_dur is not None:
            offsets.add(leg_dur)
            if from_x is not None:
                offsets |= {leg_dur + travel(x, from_x) for x in site_xs}
        edges = {0, lower}
        for rid in list(cal.by_resource):
            for b in cal.entries(rid):
                edges |= {b.start, b.end, b.core_start}
        cands = {
            minutes_up(max(edge + off, lower)) for edge in edges for off in offsets
        }
        return sorted(c for c in cands if lower <= c <= horizon)

    def schedule_order(order, stage: int, f_prev: Optional[Seconds], prev_loc, prev_slot):
        """DFS over the order's remaining stages; returns (completion, bookings)."""
        tick()
        plan = scenario.product(order.product).steps
        if stage == len(plan):
            return f_prev, []
        op = plan[stage]
        best = None

        def recurse(slot: _Booking, extra: list[_Booking], s: Seconds, dur: Seconds, m):
            nonlocal best
            slot.order_id = order.id
            for b in extra:
                cal.add(b)
            cal.add(slot)
            sub = schedule_order(order, stage + 1, s + dur, m.location, slot)
            cal.remove(slot)
            for b in extra:
                cal.remove(b)
            if sub is not None:
                done, rest = sub
                if best is None or done < best[0]:
                    best = (done, [slot] + extra + rest)

        for m in scenario.machines:
            if m.operation != op:
                continue
            dur = m.op_duration.get(order.product)
            if dur is None:
                continue
            if f_prev is None:  # entry stage: no transport at all
                for s in candidate_starts(order.arrival, m, None, None):
                    if best is not None and s + dur >= best[0]:
                        break
                    slot = machine_slot(m, order.product, s, dur, unload=0)
                    if slot is not None:
                        recurse(slot, [], s, dur, m)
                continue
            if geometry is None:
                continue  # a follow-up stage is unreachable without transport
            unload = geometry.unload_time
            leg_dur = geometry.load_time + travel(prev_loc[0], m.location[0]) + unload
            leg2_dur = (
                geometry.load_time + travel(buffer.location[0], m.location[0]) + unload
                if buffer is not None
                else None
            )
            for s in candidate_starts(f_prev + t_t, m, leg_dur, prev_loc[0]):
                if best is not None and s + dur >= best[0]:
                    break
                slot = machine_slot(m, order.product, s, dur, unload=unload)
                if slot is None:
                    continue
                if s - (f_prev + t_t) <= t_b:  # direct: the leg is pinned by the op start
                    leg_load = s - leg_dur
                    if leg_load < f_prev:
                        continue
                    old = grow_hold(prev_slot, leg_load + geometry.load_time)
                    if old is None:
                        continue
                    leg = try_leg(leg_load, prev_loc[0], m.location[0], order.id)
                    if leg is not None:
                        recurse(slot, [leg], s, dur, m)
                    prev_slot.end = old
                elif buffer is not None:  # buffered: sweep departures to the place
                    bx = buffer.location[0]
                    leg2_load = s - leg2_dur
                    leg1_dur = geometry.load_time + travel(prev_loc[0], bx) + geometry.unload_time
                    for l1 in range(minutes_up(f_prev), leg2_load - leg1_dur + 1, GRID):
                        tick()
                        arrive = l1 + leg1_dur
                        old = grow_hold(prev_slot, l1 + geometry.load_time)
                        if old is None:
                            continue
                        leg1 = try_leg(l1, prev_loc[0], bx, order.id)
                        placed = False
                        if leg1 is not None:
                            cal.add(leg1)
                            leg2 = try_leg(leg2_load, bx, m.location[0], order.id)
                            if leg2 is not None and cal.fits(
                                buffer.id,
                                arrive - geometry.unload_time,
                                leg2_load + geometry.load_time,
                            ):
                                hold = _Booking(
                                    buffer.id,
                                    order.id,
                                    arrive - geometry.unload_time,
                                    leg2_load + geometry.load_time,
                                    arrive,
                                    "",
                                )
                                cal.remove(leg1)
                                recurse(slot, [leg1, hold, leg2], s, dur, m)
                                placed = True
                            else:
                                cal.remove(leg1)
                        prev_slot.end = old
                        if placed:
                            break  # the earliest feasible departure dominates
        return best

    completions: dict[str, Seconds] = {}
    for order in sorted(scenario.orders, key=lambda o: (o.release, o.id)):
        result = schedule_order(order, 0, None, None, None)
        if result is None:
            raise OracleInfeasible(f"no feasible schedule for {order.id} within {horizon}s")
        done, bookings = result
        for b in bookings:
            cal.add(b)
        completions[order.id] = done

    return {
        "makespan": max(completions.values()),
        "completions": completions,
        "nodes": nodes[0],
    }
