"""Golden gate: the deterministic schedule and trace must not change.

Each digest is the sha256 of ``render_gantt(r) + render_trace(r)`` of one
deterministic run. A refactor or speed-up of the engine must leave every one
of them as it is; a change that moves schedules on purpose updates them and
says why. The brute-force oracles judge the same runs, so a schedule that
moves on purpose must still be a valid one.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from cnetsched import runtime
from cnetsched.agents import OrderAgent
from cnetsched.harness import (
    build_scaling_scenario,
    build_shop_scenario,
    gantt_rows,
    kernel_config,
    render_gantt,
    render_trace,
    run_scenario,
    scaling_document,
    shop_document,
)
from cnetsched.scenario import load_scenario, parse_scenario

from conftest import FLOWSHOP, JOBSHOP, agent_kinds, hold_check
from oracle import occupancy_check, physics_check, stability_check

GOLDEN = [
    pytest.param(
        lambda: load_scenario(FLOWSHOP),
        "926a931ca92deba9393a846e6d75003912de66578b4780d758d9a5d1475663c8",
        (2, 0),
        id="section6_flowshop",
    ),
    pytest.param(
        lambda: load_scenario(JOBSHOP),
        "cb75e928ad4d57f953bc9354353cb35bec211f5a24d72f3bc9c9c6b2bc8fc3b8",
        (3, 0),
        id="tableV_jobshop",
    ),
    pytest.param(
        lambda: build_shop_scenario("flow", 15, 100),
        "58a357352480690b94887c872625e73c134bc9b22eaed75f14edfdd85f6352ba",
        (15, 0),
        id="flow-15x100",
    ),
    pytest.param(
        lambda: build_shop_scenario("job", 15, 100),
        "41013fe7d479318171871fe52feb125b649cffeac277f5325aaf94d305eeba04",
        (10, 5),
        id="job-15x100",
    ),
    pytest.param(
        lambda: build_scaling_scenario(32),
        "b9b4377e56a2fa763a5f4220b5cba0cde992905be26bb61a55ad3975c3e15f32",
        (6, 0),
        id="scaling-k32",
    ),
]


@pytest.mark.parametrize("make, digest, counts", GOLDEN)
def test_deterministic_schedule_is_unchanged(make, digest, counts):
    r = run_scenario(make(), mode="deterministic")
    statuses = list(r.status.values())
    assert (statuses.count("done"), statuses.count("failed")) == counts
    text = render_gantt(r) + render_trace(r)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


#: the scenario document of each golden run, by its id
DOCUMENTS = {
    "section6_flowshop": lambda: json.loads(FLOWSHOP.read_text(encoding="utf-8")),
    "tableV_jobshop": lambda: json.loads(JOBSHOP.read_text(encoding="utf-8")),
    "flow-15x100": lambda: shop_document("flow", 15, 100),
    "job-15x100": lambda: shop_document("job", 15, 100),
    "scaling-k32": lambda: scaling_document(32),
}

#: setups and empty travels the physics asks for and the GANTT lacks, by
#: run: a booking inserted in front of one booked with no setup leaves room
#: for the setup that one now needs, but no segment for it (a known fault,
#: pinned here until the calendar records it)
UNRECORDED = {"tableV_jobshop": 2, "flow-15x100": 18, "job-15x100": 12}


@pytest.mark.parametrize("make, digest, counts", GOLDEN)
def test_golden_runs_pass_the_oracles(make, digest, counts, request):
    run_id = request.node.callspec.id
    doc = DOCUMENTS[run_id]()
    scenario = make()
    assert parse_scenario(doc) == scenario  # the document the run was built from
    r = run_scenario(scenario, mode="deterministic")
    schedules = r.schedules()
    assert occupancy_check(schedules, kinds=agent_kinds(r)) == []
    assert stability_check(r.commits, schedules) == []
    assert hold_check(r) == []
    done = [o for o, status in r.status.items() if status == "done"]
    physics = physics_check(doc, gantt_rows(r), done)
    assert [p for p in physics if "not recorded" not in p] == []
    assert len(physics) == UNRECORDED.get(run_id, 0)


def test_physics_check_judges_each_operation_by_the_document():
    # the flow shop's GANTT against a document whose Cutting takes twice as
    # long: each of Cutting's negotiated operations is flagged, nothing else
    doc = DOCUMENTS["section6_flowshop"]()
    rows = gantt_rows(run_scenario(parse_scenario(doc), mode="deterministic"))
    (cutting,) = [m for m in doc["machines"] if m["id"] == "Cutting"]
    cutting["op_duration"] = {p: 2 * d for p, d in cutting["op_duration"].items()}
    operations = {
        (order, label) for rid, order, label, kind, *_ in rows
        if rid == "Cutting" and kind == "operation" and label not in ("init", "maintenance")
    }
    flagged = physics_check(doc, rows)
    assert len(operations) == len(flagged) == 2
    assert all(p.startswith("Cutting ") and "operation segments" in p for p in flagged)


def test_physics_check_judges_each_orders_machine_stages_by_its_plan():
    # the flow shop's GANTT against a document whose product A mills before
    # it forges and ends with a fifth step
    doc = DOCUMENTS["section6_flowshop"]()
    report = run_scenario(parse_scenario(doc), mode="deterministic")
    rows, done = gantt_rows(report), sorted(report.status)
    assert report.all_done and physics_check(doc, rows, done) == []
    (steps,) = [p["steps"] for p in doc["products"] if p["id"] == "A"]
    steps[1], steps[2] = steps[2], steps[1]
    steps.append("cutting")
    misplaced = [
        "Forging order-A/2: a 'forging' machine, the plan's step 2 is 'milling'",
        "Milling1 order-A/3: a 'milling' machine, the plan's step 3 is 'forging'",
    ]
    assert physics_check(doc, rows, done) == misplaced + [
        "order-A: machine stages ['1', '2', '3', '4'] are not all the 5 steps of its plan"
    ]
    # an order that did not finish is held to a prefix only
    assert physics_check(doc, rows) == misplaced


@pytest.mark.parametrize("order", ["warmup-C", "warmup-F", "Forging-maint-0", "warmup-T"])
def test_physics_check_finds_each_fixed_block_where_the_document_puts_it(order):
    # the flow shop's GANTT with one fixed block's row a minute late: that
    # block is flagged, and nothing else
    doc = DOCUMENTS["section6_flowshop"]()
    report = run_scenario(parse_scenario(doc), mode="deterministic")
    rows, done = gantt_rows(report), sorted(report.status)
    assert physics_check(doc, rows, done) == []
    (at,) = [i for i, row in enumerate(rows) if row[1] == order]
    rid, _, label, kind, start, end = rows[at]
    rows[at] = (rid, order, label, kind, start + 60, end + 60)
    assert physics_check(doc, rows, done) == [
        f"{rid} {order}/{label}: no {kind} row over [{start}, {end}), the document's fixed block"
    ]


class VirtualTime:
    """The ``time`` functions the concurrent kernel reads; ``sleep`` advances the clock."""

    def __init__(self) -> None:
        self.t = 0.0

    def monotonic(self) -> float:
        return self.t

    perf_counter = monotonic

    def sleep(self, seconds: float) -> None:
        self.t += seconds


@pytest.mark.parametrize("make, digest, counts", GOLDEN)
def test_concurrent_kernel_on_a_virtual_clock_gives_the_deterministic_run(
    make, digest, counts, monkeypatch
):
    # one tick per hop and det's deadlines on a clock that only sleeping
    # advances: both kernels pop the same heap in the same order, so they book
    # the same schedule and write the same trace up to the concurrent stop;
    # after it only messages land, where det also delivers stale deadlines
    scenario = make()
    det = run_scenario(scenario, mode="deterministic")
    monkeypatch.setattr(runtime, "time", VirtualTime())
    stops = []
    handle = OrderAgent.handle

    def recorded_handle(self, event, ctx):
        out = handle(self, event, ctx)
        orders = [a for a in ctx.agents.values() if isinstance(a, OrderAgent)]
        if not stops and all(a.status in ("done", "failed") for a in orders):
            stops.append(len(ctx.trace) + len(out))  # out's lines follow
        return out

    monkeypatch.setattr(OrderAgent, "handle", recorded_handle)
    config = replace(kernel_config(scenario, "deterministic"), message_latency=1, wall_limit=1e9)
    conc = run_scenario(scenario, mode="concurrent", config=config)
    assert conc.status == det.status
    assert render_gantt(conc) == render_gantt(det)

    def unstamped(lines):
        return [line.split(" ", 1)[1] for line in lines]

    (k,) = stops
    assert unstamped(conc.trace[:k]) == unstamped(det.trace[:k])
    assert unstamped(conc.trace[k:]) == [
        line for line in unstamped(det.trace[k:]) if not line.endswith(" Deadline")
    ]
    assert hold_check(conc) == []
