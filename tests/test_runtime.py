import threading
import time
from dataclasses import replace

import pytest

from cnetsched.harness import render_gantt, render_trace, run_scenario
from cnetsched.runtime import KernelConfig, RunTimeout, run_kernel
from cnetsched.scenario import build_runtime, parse_scenario
from cnetsched.timebase import hhmm

from conftest import hold_check


# ---------------------------------------------------------------------------
# reference runs: the two bundled scenarios


def test_flowshop_reference_run(flowshop_report):
    r = flowshop_report
    assert r.mode == "deterministic"
    assert r.all_done
    assert {oid: a.status for oid, a in r.agents.items() if hasattr(a, "status")} == {
        "order-A": "done",
        "order-B": "done",
    }
    assert r.counter.total() == 108
    assert r.events == 130

    a = r.agents["order-A"]
    # second production step buffers: two crane movements bracket the stay
    spans = {c.step_label: (c.start, c.end) for c in r.commits if c.order_id == "order-A"}
    assert spans["T:1,B2"] == (64_800, 66_120)
    assert spans["T:B2,2"] == (102_840, 104_100)
    assert spans["B2"] == (65_520, 103_440)
    assert hhmm(spans["T:1,B2"][0]) == "18:00"
    assert hhmm(spans["T:B2,2"][0]) == "1.04:34"
    assert a.committed[-1].op_slot.end == 130_860  # 1.12:21
    assert r.agents["order-B"].committed[-1].op_slot.end == 113_160  # 1.07:26


def test_jobshop_reference_run(jobshop_report):
    r = jobshop_report
    assert r.all_done
    assert r.counter.total() == 158
    assert r.events == 189
    ends = {
        oid: a.committed[-1].op_slot.end
        for oid, a in r.agents.items()
        if hasattr(a, "committed") and a.committed
    }
    assert ends == {"job-A": 45_120, "job-C": 55_200, "job-B": 76_080}
    finals = {
        oid: a.committed[-1].resource_id
        for oid, a in r.agents.items()
        if hasattr(a, "committed") and a.committed
    }
    assert finals == {"job-A": "Forging", "job-C": "Milling2", "job-B": "Quality"}


def test_deterministic_runs_are_byte_identical(flowshop_scenario):
    a = run_scenario(flowshop_scenario, "deterministic")
    b = run_scenario(flowshop_scenario, "deterministic")
    assert render_trace(a) == render_trace(b)
    assert render_gantt(a) == render_gantt(b)


# ---------------------------------------------------------------------------
# kernel mechanics


def single_responder_doc():
    """One resource per role so arrival order cannot change the outcome."""
    return {
        "format_version": 1,
        "name": "single-responder",
        "params": {"t_buffer_min": 15},
        "machines": [
            {"id": "M1", "operation": "cutting", "location": [10, 5], "op_duration": {"A": 60}},
            {"id": "M2", "operation": "forging", "location": [40, 5], "op_duration": {"A": 90}},
        ],
        "buffers": [{"id": "Buf1", "location": [25, 15]}],
        "transports": [
            {"id": "Crane1", "segment": [0, 60], "speed": 5, "load": 10, "unload": 10}
        ],
        "products": [{"id": "A", "steps": ["cutting", "forging"]}],
        "orders": [{"id": "o1", "product": "A"}],
    }


def test_concurrent_mode_matches_deterministic_schedule():
    from cnetsched.harness import gantt_rows

    s = parse_scenario(single_responder_doc(), source="t")
    det = run_scenario(s, "deterministic")
    conc = run_scenario(s, "concurrent")
    assert det.all_done and conc.all_done
    assert gantt_rows(det) == gantt_rows(conc)


@pytest.mark.parametrize(
    "steps, stage",
    [(["drilling", "forging"], 1), (["cutting", "drilling"], 2)],
    ids=["stage-1", "stage-2"],
)
def test_an_operation_no_machine_offers_fails_the_order_not_the_load(steps, stage):
    doc = single_responder_doc()
    doc["products"][0]["steps"] = steps  # no machine offers drilling
    r = run_scenario(parse_scenario(doc, source="t"), "deterministic")
    assert r.status == {"o1": "failed"}
    assert r.diagnostics["o1"] == f"stage {stage}: no capable production resource registered"
    assert len(r.agents["o1"].committed) == stage - 1
    # the abort closes the tail of the machine that still held the piece
    assert {rid: s.open_tail_entries() for rid, s in r.schedules().items()} == {
        rid: [] for rid in ("M1", "M2", "Buf1", "Crane1")
    }
    assert hold_check(r) == []


def test_event_cap_raises_run_timeout(flowshop_scenario):
    b = build_runtime(flowshop_scenario)
    with pytest.raises(RunTimeout):
        run_kernel("deterministic", b.directory, b.agents, b.releases, KernelConfig(max_events=10))


def test_unknown_mode_rejected(flowshop_scenario):
    b = build_runtime(flowshop_scenario)
    with pytest.raises(ValueError):
        run_kernel("async", b.directory, b.agents, b.releases)


@pytest.mark.parametrize("mode", ["deterministic", "concurrent"])
def test_release_for_an_unknown_agent_is_rejected(mode, flowshop_scenario):
    b = build_runtime(flowshop_scenario)
    with pytest.raises(ValueError, match="order-Z"):
        run_kernel(mode, b.directory, b.agents, b.releases + [(0, "order-Z")])


def test_concurrent_kernel_with_latency_completes():
    s = parse_scenario(single_responder_doc(), source="t")
    b = build_runtime(s)
    cfg = KernelConfig.concurrent(message_latency=0.002)
    report = run_kernel("concurrent", b.directory, b.agents, b.releases, cfg)
    assert report.all_done
    assert report.agents["o1"].committed[-1].resource_id == "M2"
    assert report.wall_seconds > 0


def staggered(scenario, seconds=0.3):
    """The scenario with its order releases ``seconds`` apart.

    Releases are wall-clock seconds under the concurrent kernel, so the
    bundled floors' tick offsets (1500 for the flow shop) would idle the run.
    """
    return replace(
        scenario,
        orders=tuple(replace(o, release=seconds * i) for i, o in enumerate(scenario.orders)),
    )


@pytest.mark.parametrize("mode", ["deterministic", "concurrent"])
def test_trace_records_every_event(mode, flowshop_report, flowshop_scenario):
    # one line per delivered event; protocol envelopes carry a conversation,
    # kernel housekeeping is written as StartOrder / Deadline (docs/formats.md)
    if mode == "deterministic":
        r = flowshop_report
    else:
        # order-A's 0.25-s round deadlines fire while order-B (0.3 s) runs
        r = run_scenario(staggered(flowshop_scenario), mode)
    assert len(r.trace) == r.events
    kinds = [ln.split()[2] for ln in r.trace]
    housekeeping = ("StartOrder", "Deadline")
    # a misnamed kind would leak its lines into the envelope count unnoticed
    assert all(kind in kinds for kind in housekeeping)
    envelopes = [k for k in kinds if k not in housekeeping]
    assert len(envelopes) == r.counter.total()
    orders = len(r.status)
    assert kinds.count("StartOrder") == orders
    assert kinds.count("Deadline") == r.events - r.counter.total() - orders
    assert all(line.split()[1].count(">") == 1 for line in r.trace)


def test_lead_time_and_schedules_views(flowshop_report):
    r = flowshop_report
    lead = r.lead_time("order-A")
    assert lead == r.agents["order-A"].t_end - r.agents["order-A"].t_start
    scheds = r.schedules()
    assert set(scheds) >= {"Cutting", "Forging", "Buffer1", "Crane1"}
    for sched in scheds.values():
        sched.check_invariants()


def test_commit_log_matches_final_calendars(flowshop_report):
    # every commit the kernel observed still sits in the owner's calendar
    from oracle import stability_check

    assert stability_check(flowshop_report.commits, flowshop_report.schedules()) == []


def test_releases_stagger_start_times():
    doc = single_responder_doc()
    doc["orders"] = [
        {"id": "o1", "product": "A", "release": 0},
        {"id": "o2", "product": "A", "release": 500},
    ]
    s = parse_scenario(doc, source="t")
    r = run_scenario(s, "deterministic")
    assert r.all_done
    assert r.agents["o1"].t_start < r.agents["o2"].t_start
    assert r.agents["o2"].t_start >= 500


def test_concurrent_latency_delivers_the_last_orders_bookings(flowshop_scenario):
    # the run ends once every order is done, while its final accepts and
    # departures are still waiting out their latency; they must still land
    from cnetsched.harness import kernel_config

    # order-B is released after order-A is done: A takes up to 0.82 s beside
    # one busy-loop process, and a B that overlaps it can find Forging
    # deferring its CFP past the 0.25-s round deadline on a loaded host
    s = staggered(flowshop_scenario, seconds=1.0)
    cfg = replace(kernel_config(s, "concurrent"), message_latency=0.002)
    r = run_scenario(s, "concurrent", config=cfg)
    machines = {m.id for m in s.machines}
    steps = {p.id: p.steps for p in s.products}

    def outcome() -> str:
        # each order's status and diagnostic, and the steps with no machine commit
        lines = []
        for order in s.orders:
            labels = {c.step_label for c in r.commits
                      if c.order_id == order.id and c.resource_id in machines}
            lacking = [
                f"step {i} ({op}): none of {sorted(m.id for m in s.machines if m.operation == op)}"
                for i, op in enumerate(steps[order.product], 1)
                if str(i) not in labels
            ]
            lines.append(f"{order.id} {r.status[order.id]} ({r.diagnostics[order.id]}); "
                         f"machines lacking a commit: {lacking or 'none'}")
        return "\n".join(lines)

    assert r.all_done, outcome()
    for order in s.orders:
        booked = [c for c in r.commits if c.order_id == order.id and c.resource_id in machines]
        assert len(booked) == len(steps[order.product]), outcome()


class Crash(Exception):
    pass


@pytest.mark.parametrize("mode", ["deterministic", "concurrent"])
def test_agent_exception_surfaces_from_run(mode, monkeypatch):
    # a crashed handler must not turn into orders reported as merely stuck:
    # either kernel lets the exception propagate from run()
    s = parse_scenario(single_responder_doc(), source="t")
    b = build_runtime(s)

    def handle(event, ctx):
        raise Crash(f"M1 on {type(event).__name__}")

    monkeypatch.setattr(b.agents["M1"], "handle", handle)
    config = KernelConfig() if mode == "deterministic" else None
    with pytest.raises(Crash, match="M1 on Message"):
        run_kernel(mode, b.directory, b.agents, b.releases, config)


def test_concurrent_run_ends_after_a_handler_that_overruns_the_wall_limit(
    monkeypatch, flowshop_scenario
):
    # order-A's first handler runs past the wall limit: the run stops when it
    # returns, so order-B is never released and order-A's round never closes
    overrun, limit = 0.5, 0.3
    s = staggered(flowshop_scenario, seconds=0.0)
    b = build_runtime(s)
    handle = b.agents["order-A"].handle

    def slow(event, ctx):
        time.sleep(overrun)
        return handle(event, ctx)

    monkeypatch.setattr(b.agents["order-A"], "handle", slow)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread.name))
    t0 = time.perf_counter()
    r = run_kernel(
        "concurrent", b.directory, b.agents, b.releases, KernelConfig.concurrent(wall_limit=limit)
    )
    assert overrun <= time.perf_counter() - t0 < overrun + 1.0
    assert r.status == {"order-A": "stuck", "order-B": "stuck"}
    assert started == []


@pytest.mark.parametrize("floor", ["flowshop", "scaling-k32"])
def test_concurrent_kernel_runs_every_handler_on_the_calling_thread(
    floor, monkeypatch, flowshop_scenario
):
    # order-A's round deadlines are armed while order-B negotiates, and the
    # scaling floor has over 100 agents; neither may cost a thread
    from cnetsched.harness import build_scaling_scenario, kernel_config

    s = flowshop_scenario if floor == "flowshop" else build_scaling_scenario(32, n_orders=2)
    s = staggered(s)
    b = build_runtime(s)
    handlers = set()

    def on_this_thread(handle):
        def wrapper(event, ctx):
            handlers.add(threading.get_ident())
            return handle(event, ctx)

        return wrapper

    for agent in b.agents.values():
        agent.handle = on_this_thread(agent.handle)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread.name))
    r = run_kernel("concurrent", b.directory, b.agents, b.releases, kernel_config(s, "concurrent"))
    assert r.all_done
    assert len(r.agents) == {"flowshop": 12, "scaling-k32": 102}[floor]
    assert sum(" Deadline" in line for line in r.trace) >= 2
    assert started == []
    assert handlers == {threading.get_ident()}


def test_concurrent_bookkeeping_holds_when_two_orders_interleave_with_a_1ms_hop(flowshop_scenario):
    # two orders interleave on the wall clock with a 1-ms hop: every envelope
    # counted has one trace line, and every commit still sits in its calendar
    from cnetsched.harness import kernel_config
    from oracle import stability_check

    s = staggered(flowshop_scenario)
    cfg = replace(kernel_config(s, "concurrent"), message_latency=0.001, wall_limit=60)
    r = run_scenario(s, "concurrent", config=cfg)
    assert r.all_done
    kinds = [ln.split()[2] for ln in r.trace]
    assert kinds.count("StartOrder") == len(r.status)
    assert len(kinds) - kinds.count("StartOrder") - kinds.count("Deadline") == r.counter.total()
    assert stability_check(r.commits, r.schedules()) == []


@pytest.mark.parametrize(
    "cfp_deadline, latency",
    [
        (0.005, 0.003),  # two hops take 6 ms: every reply misses its 5-ms round
        (0.01, 0.004),  # replies land around the deadline: some make it, some do not
    ],
)
def test_concurrent_late_replies_leave_no_holds(cfp_deadline, latency, flowshop_scenario):
    # offer conservation under the concurrent kernel: a proposal that reaches
    # its order after the round (or the whole order) closed is rejected, and
    # the reject lands even when the run has already stopped
    from cnetsched.harness import kernel_config
    from conftest import hold_check

    s = flowshop_scenario
    orders = tuple(
        replace(o, id=f"{o.id}{k}", release=0.02 * (2 * k + i))
        for k in range(3)
        for i, o in enumerate(s.orders)
    )
    s = replace(s, orders=orders)
    cfg = replace(
        kernel_config(s, "concurrent"),
        cfp_deadline=cfp_deadline,
        message_latency=latency,
        wall_limit=60,
    )
    for _ in range(3):
        r = run_scenario(s, "concurrent", config=cfg)
        assert hold_check(r) == []
        assert all(n == 0 for n in r.leftover_holds.values())
        if latency * 2 > cfp_deadline:
            assert set(r.diagnostics.values()) == {
                "stage 1: no production proposals received"
            }


def test_concurrent_wall_limit_ends_open_negotiations(flowshop_scenario):
    # at the wall limit only the messages already in flight land: what their
    # handlers send is written but not delivered, so no open order negotiates
    # on, and run() returns about one hop after the limit
    from cnetsched.harness import kernel_config

    s = flowshop_scenario
    s = replace(s, orders=tuple(replace(o, release=0.0) for o in s.orders))
    hop, limit = 0.1, 0.25
    cfg = replace(
        kernel_config(s, "concurrent"), cfp_deadline=5, message_latency=hop, wall_limit=limit
    )
    r = run_scenario(s, "concurrent", config=cfg)
    assert set(r.status.values()) == {"stuck"}
    assert r.wall_seconds < limit + hop + 0.2
    assert max(float(line.split()[0]) for line in r.trace) < limit + hop + 0.2
