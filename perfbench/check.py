"""Independent checks on one finished run.

The checks read only the scenario document, the exported GANTT CSV, the
order statuses, the commit log, the trace lines and the message total.  They
share no code with the scheduler, so a fault in its calendars or selector
cannot hide itself here.  Each check returns human-readable problems; an
empty list means the run is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence

HOUSEKEEPING = ("StartOrder", "Deadline")
LEADING_SETUP = ("setup", "travel")


class Row(NamedTuple):
    resource_id: str
    order_id: str
    step_label: str
    kind: str
    start: int
    end: int


def parse_gantt(text: str) -> list[Row]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["resource_id", "order_id", "step_label", "kind", "start_s", "end_s"]:
        raise ValueError(f"unexpected GANTT header {header}")
    return [Row(r[0], r[1], r[2], r[3], int(r[4]), int(r[5])) for r in reader]


def digest(gantt_text: str, trace: Iterable[str]) -> str:
    h = hashlib.sha256(gantt_text.encode())
    for line in trace:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def makespan(rows: Sequence[Row]) -> int:
    return max(r.end for r in rows)


def _bookings(rows: Sequence[Row]) -> dict[tuple[str, str, str], list[Row]]:
    """Rows grouped into booking entries, each in segment order."""
    out: dict[tuple[str, str, str], list[Row]] = defaultdict(list)
    for r in rows:
        out[(r.resource_id, r.order_id, r.step_label)].append(r)
    for segs in out.values():
        segs.sort(key=lambda r: r.start)
    return out


def _core(segs: list[Row]) -> tuple[int, int]:
    """(core start, operation end) of one booking, as the scheduler commits it."""
    start = segs[0].end if segs[0].kind in LEADING_SETUP else segs[0].start
    ops = [r for r in segs if r.kind == "operation"]
    return start, (ops[0].end if ops else segs[-1].end)


def check_statuses(status: dict[str, str]) -> list[str]:
    return [f"{oid}: status {st}" for oid, st in sorted(status.items()) if st != "done"]


def check_no_overlap(rows: Sequence[Row]) -> list[str]:
    problems = []
    by_resource: dict[str, list[Row]] = defaultdict(list)
    for r in rows:
        if r.end <= r.start:
            problems.append(f"{r.resource_id}: empty or reversed segment {r}")
        by_resource[r.resource_id].append(r)
    for rid, segs in by_resource.items():
        segs.sort(key=lambda r: (r.start, r.end))
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end:
                problems.append(f"{rid}: {a.order_id}/{a.step_label} {a.kind} overlaps "
                                f"{b.order_id}/{b.step_label} {b.kind}")
    return problems


def check_process_plans(doc: dict, rows: Sequence[Row]) -> list[str]:
    """Stages follow the product's steps, on capable machines, at full length."""
    problems = []
    machines = {m["id"]: m for m in doc["machines"]}
    steps = {p["id"]: p["steps"] for p in doc["products"]}
    bookings = _bookings(rows)
    for order in doc["orders"]:
        oid, product = order["id"], order["product"]
        plan = steps[product]
        stages = {
            label: (rid, segs)
            for (rid, o, label), segs in bookings.items()
            if o == oid and rid in machines
        }
        if sorted(stages) != sorted(str(i + 1) for i in range(len(plan))):
            problems.append(f"{oid}: production stages {sorted(stages)} for a {len(plan)}-step plan")
            continue
        prev_end = None
        for i, operation in enumerate(plan):
            rid, segs = stages[str(i + 1)]
            machine = machines[rid]
            ops = [r for r in segs if r.kind == "operation"]
            if machine["operation"] != operation:
                problems.append(f"{oid} stage {i + 1}: {rid} offers {machine['operation']}, "
                                f"plan needs {operation}")
            if len(ops) != 1:
                problems.append(f"{oid} stage {i + 1}: {len(ops)} operation segments on {rid}")
                continue
            want = round(machine["op_duration"][product] * 60)
            if ops[0].end - ops[0].start != want:
                problems.append(f"{oid} stage {i + 1}: core {ops[0].end - ops[0].start}s on {rid}, "
                                f"op_duration is {want}s")
            if prev_end is not None and ops[0].start < prev_end:
                problems.append(f"{oid} stage {i + 1}: starts before stage {i} ends")
            prev_end = ops[0].end
    return problems


def check_handovers(doc: dict, rows: Sequence[Row]) -> list[str]:
    """A crane's load/unload coincides with the tail/head of the booking it serves."""
    problems = []
    cranes = {t["id"] for t in doc["transports"]}
    bookings = _bookings(rows)
    served: dict[tuple[str, str], list[Row]] = {}
    for (rid, oid, label), segs in bookings.items():
        if rid not in cranes:
            served[(oid, label)] = segs
    for (rid, oid, label), segs in bookings.items():
        if rid not in cranes:
            continue
        if not label.startswith("T:") or label.count(",") != 1:
            problems.append(f"{rid}: unexpected transport label {label!r}")
            continue
        src_label, dst_label = label[2:].split(",")
        load = [r for r in segs if r.kind == "load"]
        unload = [r for r in segs if r.kind == "unload"]
        src, dst = served.get((oid, src_label)), served.get((oid, dst_label))
        if len(load) != 1 or len(unload) != 1 or src is None or dst is None:
            problems.append(f"{rid} {oid}/{label}: cannot pair the movement with its bookings")
            continue
        tail = src[-1]
        if tail.kind != "load" or (tail.start, tail.end) != (load[0].start, load[0].end):
            problems.append(f"{rid} {oid}/{label}: load {load[0].start}-{load[0].end} is not the "
                            f"tail of {tail.resource_id}/{src_label}")
        heads = [r for r in dst if r.kind == "unload"]
        if not heads or (heads[0].start, heads[0].end) != (unload[0].start, unload[0].end):
            problems.append(f"{rid} {oid}/{label}: unload {unload[0].start}-{unload[0].end} is not "
                            f"the head of {dst[0].resource_id}/{dst_label}")
    return problems


def check_crane_travel(doc: dict, rows: Sequence[Row]) -> list[str]:
    """Between two movements a crane has time to travel from drop-off to pick-up."""
    problems = []
    x_of = {r["id"]: r["location"][0] for r in doc["machines"] + doc["buffers"]}
    cranes = {t["id"]: t for t in doc["transports"]}
    bookings = _bookings(rows)
    where = {(oid, label): rid for (rid, oid, label) in bookings if rid not in cranes}
    moves: dict[str, list[tuple[int, int, float, float, str]]] = defaultdict(list)
    for (rid, oid, label), segs in bookings.items():
        if rid not in cranes or label.count(",") != 1:
            continue
        src, dst = (where.get((oid, end)) for end in label[2:].split(","))
        load = [r for r in segs if r.kind == "load"]
        if src is None or dst is None or not load:
            continue  # reported by check_handovers
        moves[rid].append((load[0].start, segs[-1].end, x_of[src], x_of[dst], f"{oid}/{label}"))
    for rid, legs in moves.items():
        metres_per_s = cranes[rid]["speed"] / 60
        legs.sort()
        for (_, end, _, drop_x, a), (load, _, pick_x, _, b) in zip(legs, legs[1:]):
            if load - end < abs(pick_x - drop_x) / metres_per_s - 1e-6:
                problems.append(f"{rid}: {load - end}s from {a} to {b} is too short to travel "
                                f"{abs(pick_x - drop_x):g} m")
    return problems


def check_commits_stable(commits: Sequence, rows: Sequence[Row]) -> list[str]:
    """Committed booking cores are exactly where the final calendar has them."""
    problems = []
    bookings = _bookings(rows)
    for c in commits:
        segs = bookings.get((c.resource_id, c.order_id, c.step_label))
        if segs is None:
            problems.append(f"{c.resource_id} {c.order_id}/{c.step_label}: committed, not in GANTT")
        elif _core(segs) != (c.start, c.end):
            problems.append(f"{c.resource_id} {c.order_id}/{c.step_label}: committed core "
                            f"{c.start}-{c.end}, final {_core(segs)}")
    return problems


def makespan_floor(doc: dict) -> float:
    """Bottleneck capability: total work on it over its machine count."""
    by_operation: dict[str, list[dict]] = defaultdict(list)
    for m in doc["machines"]:
        by_operation[m["operation"]].append(m)
    steps = {p["id"]: p["steps"] for p in doc["products"]}
    work: dict[str, float] = defaultdict(float)
    for order in doc["orders"]:
        product = order["product"]
        for operation in steps[product]:
            work[operation] += min(m["op_duration"][product] for m in by_operation[operation]) * 60
    return max(w / len(by_operation[op]) for op, w in work.items())


def check_makespan(doc: dict, rows: Sequence[Row]) -> list[str]:
    floor = makespan_floor(doc)
    span = makespan(rows)
    return [] if span >= floor else [f"makespan {span}s below the bottleneck floor {floor:.0f}s"]


def check_envelopes(trace: Sequence[str], messages: int) -> list[str]:
    envelopes = sum(1 for line in trace if line.split(" ", 3)[2] not in HOUSEKEEPING)
    if envelopes != messages:
        return [f"{envelopes} envelope trace lines, message counter says {messages}"]
    return []


def check_run(doc: dict, rows: Sequence[Row], status: dict[str, str], commits: Sequence,
              trace: Sequence[str], messages: int) -> list[str]:
    return (
        check_statuses(status)
        + check_no_overlap(rows)
        + check_process_plans(doc, rows)
        + check_handovers(doc, rows)
        + check_crane_travel(doc, rows)
        + check_commits_stable(commits, rows)
        + check_makespan(doc, rows)
        + check_envelopes(trace, messages)
    )
