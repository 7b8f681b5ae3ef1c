import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cnetsched import runtime
from cnetsched.agents import StartOrder
from cnetsched.harness import render_gantt, render_trace, run_scenario
from cnetsched.protocol import DeadlineExpired, Message, RejectProposal
from cnetsched.runtime import (
    ConcurrentKernel,
    DeterministicKernel,
    KernelConfig,
    RunTimeout,
    run_kernel,
)
from cnetsched.scenario import build_runtime, parse_scenario
from cnetsched.timebase import hhmm

from conftest import hold_check
from oracle import check_invariants


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


#: one handler's work: the delays of the deadlines it arms, in arming order,
#: then the receivers of the envelopes it sends, in sending order
Step = tuple[tuple[int, ...], tuple[str, ...]]
NAMES = ("a", "b", "c")


class ScriptedAgent:
    """Logs each event it is given as ``(tick, name, label)`` and runs the next
    step of a script that all agents share.

    Deadlines and envelopes are labelled ``t<n>`` and ``m<n>`` in the order
    they are made, so a run that delivered in another order would make and
    log other labels.
    """

    def __init__(self, name: str, script: list[Step], log: list, made: itertools.count):
        self.name, self.script, self.log, self.made = name, script, log, made
        self.tokens: dict[int, str] = {}

    def handle(self, event, ctx) -> list[Message]:
        if isinstance(event, StartOrder):
            label = "start"
        elif isinstance(event, DeadlineExpired):
            label = self.tokens[event.token]
        else:
            label = event.parts[0].proposal_id
        self.log.append((ctx.now(), self.name, label))
        delays, receivers = self.script.pop(0) if self.script else ((), ())
        for delay in delays:
            self.tokens[ctx.set_timer(delay)] = f"t{next(self.made)}"
        return [
            Message(self.name, receiver, "c/s0", (RejectProposal(f"m{next(self.made)}"),))
            for receiver in receivers
        ]


def kernel_order(releases, script) -> list[tuple]:
    """What the deterministic kernel delivers, in delivery order."""
    log, made, script = [], itertools.count(1), list(script)
    agents = {name: ScriptedAgent(name, script, log, made) for name in NAMES}
    DeterministicKernel(None, agents, releases, KernelConfig()).run()
    return log


def heap_order(releases, script) -> list[tuple]:
    """The same script delivered from one heap ordered by ``(at, seq)``."""
    heap, log, script = [], [], list(script)
    seq, made = itertools.count(1), itertools.count(1)
    for at, name in sorted(releases):
        heapq.heappush(heap, (at, next(seq), name, "start"))
    while heap:
        now, _seq, name, label = heapq.heappop(heap)
        log.append((now, name, label))
        delays, receivers = script.pop(0) if script else ((), ())
        for delay in delays:
            heapq.heappush(heap, (now + delay, next(seq), name, f"t{next(made)}"))
        for receiver in receivers:
            heapq.heappush(heap, (now + 1, next(seq), receiver, f"m{next(made)}"))
    return log


steps = st.tuples(
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    st.lists(st.sampled_from(NAMES), max_size=3).map(tuple),
)


@given(
    st.lists(st.tuples(st.integers(0, 4), st.sampled_from(NAMES)), min_size=1, max_size=4),
    st.lists(steps, max_size=25),
)
def test_kernel_delivers_in_the_order_of_one_heap_over_at_and_seq(releases, script):
    # envelopes, deadlines (delay 0 and deadlines due on an envelope's tick
    # among them) and releases on equal ticks: the kernel's delivery order is
    # that of a single heap keyed by when each event falls due, then by when
    # it was made
    assert kernel_order(releases, script) == heap_order(releases, script)


def test_a_deadline_and_an_envelope_due_on_the_same_tick_go_in_the_order_they_were_made():
    # a's handler arms a 1-tick deadline, then sends to b: both fall due on
    # tick 1 and the deadline, made first, goes first; c, released after a
    # on tick 0, does the same, so a's envelope goes before c's deadline
    releases = [(0, "a"), (0, "c")]
    script = [((1,), ("b",)), ((1,), ("b",))]
    expected = [
        (0, "a", "start"),
        (0, "c", "start"),
        (1, "a", "t1"),
        (1, "b", "m2"),
        (1, "c", "t3"),
        (1, "b", "m4"),
    ]
    assert kernel_order(releases, script) == expected
    assert heap_order(releases, script) == expected


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
    assert {rid: s.has_open_tail for rid, s in r.schedules().items()} == {
        rid: False for rid in ("M1", "M2", "Buf1", "Crane1")
    }
    assert hold_check(r) == []


def test_event_cap_raises_run_timeout(flowshop_scenario, monkeypatch):
    b = build_runtime(flowshop_scenario)
    monkeypatch.setattr(runtime, "MAX_EVENTS", 10)
    with pytest.raises(RunTimeout):
        run_kernel("deterministic", b.directory, b.agents, b.releases, KernelConfig())


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


class TickingClock:
    """The ``time`` functions the concurrent kernel reads; every clock read
    advances the clock by a millisecond, ``sleep`` by what it is asked."""

    def __init__(self) -> None:
        self.t = 0.0

    def monotonic(self) -> float:
        self.t += 0.001
        return self.t

    perf_counter = monotonic

    def sleep(self, seconds: float) -> None:
        self.t += max(0.0, seconds)


def test_concurrent_envelopes_of_one_handler_share_its_stamp_and_due_time(monkeypatch):
    # o1's release handler returns three envelopes: posted at the instant the
    # handler returned, they get one stamp and one due time, even on a clock
    # that moves at every read, and land in the order they were posted
    b = build_runtime(parse_scenario(single_responder_doc(), source="t"))
    order, delivered = b.agents["o1"], []

    def send_three(event, ctx):
        order.status = "done"
        return [
            Message("o1", receiver, "o1/s0", (RejectProposal(f"m{i}"),))
            for i, receiver in enumerate(("M1", "M2", "M1"))
        ]

    def recorder(name):
        def handle(event, ctx):
            delivered.append((name, event.parts[0].proposal_id))
            return []

        return handle

    monkeypatch.setattr(order, "handle", send_three)
    for name in ("M1", "M2"):
        monkeypatch.setattr(b.agents[name], "handle", recorder(name))
    monkeypatch.setattr(runtime, "time", TickingClock())
    kernel = ConcurrentKernel(
        b.directory, b.agents, b.releases, KernelConfig.concurrent(message_latency=0.005)
    )
    posted = []

    class LoggedFifo(deque):
        def append(self, entry):
            posted.append(entry)
            super().append(entry)

    kernel._fifo = LoggedFifo()
    report = kernel.run()
    stamps = {line.split(" ", 1)[0] for line in report.trace if "RejectProposal" in line}
    assert len(stamps) == 1
    assert len({at for at, _seq, _receiver, _msg in posted}) == 1
    assert [receiver for _at, _seq, receiver, _msg in posted] == ["M1", "M2", "M1"]
    assert delivered == [("M1", "m0"), ("M2", "m1"), ("M1", "m2")]


@pytest.mark.parametrize("mode", ["deterministic", "concurrent"])
def test_one_handlers_envelopes_are_posted_as_one_batch(mode, monkeypatch, caplog):
    # o1's release handler returns three envelopes, the second to an agent
    # nobody registered: the other two get their trace lines in order under
    # one stamp (on a wall clock that moves at every read too), one count
    # each and consecutive seqs; the stray one is dropped with an error line
    b = build_runtime(parse_scenario(single_responder_doc(), source="t"))
    order, delivered = b.agents["o1"], []

    def send_three(event, ctx):
        order.status = "done"
        return [
            Message("o1", receiver, "o1/s0", (RejectProposal(f"m{i}"),))
            for i, receiver in enumerate(("M1", "nobody", "M2"))
        ]

    def recorder(event, ctx):
        delivered.append((event.receiver, event.parts[0].proposal_id))
        return []

    monkeypatch.setattr(order, "handle", send_three)
    for name in ("M1", "M2"):
        monkeypatch.setattr(b.agents[name], "handle", recorder)
    monkeypatch.setattr(runtime, "time", TickingClock())
    kernel = runtime._KERNELS[mode](b.directory, b.agents, b.releases)
    posted = []

    class LoggedFifo(deque):
        def append(self, entry):
            posted.append(entry)
            super().append(entry)

    kernel._fifo = LoggedFifo()
    with caplog.at_level("ERROR", logger=runtime.__name__):
        report = kernel.run()
    lines = [line.split(" ", 1) for line in report.trace[1:]]  # after o1's StartOrder
    assert [line for _stamp, line in lines] == [
        "o1>M1 RejectProposal n=1 o1/s0", "o1>M2 RejectProposal n=1 o1/s0"
    ]
    assert len({stamp for stamp, _line in lines}) == 1
    assert report.counter.counts == {("o1/s0", "RejectProposal"): 2}
    seqs = [seq for _at, seq, _receiver, _msg in posted]
    assert seqs == [seqs[0], seqs[0] + 1]
    assert [receiver for _at, _seq, receiver, _msg in posted] == ["M1", "M2"]
    assert delivered == [("M1", "m0"), ("M2", "m2")]
    assert [r.getMessage() for r in caplog.records] == ["message to unknown agent nobody dropped"]


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
        check_invariants(sched)


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


@pytest.mark.parametrize("mode", ["deterministic", "concurrent"])
def test_a_run_with_nothing_left_to_deliver_ends_at_once(mode, monkeypatch):
    # o1 starts, then arms no deadline and sends nothing: no event can fall
    # due again, so either clock ends the run at once, the wall clock long
    # before its 5-s limit, and reports the order stuck
    b = build_runtime(parse_scenario(single_responder_doc(), source="t"))
    order, handled = b.agents["o1"], []

    def start_and_go_quiet(event, ctx):
        handled.append(event)
        order.status = "running"
        return []

    monkeypatch.setattr(order, "handle", start_and_go_quiet)
    config = KernelConfig() if mode == "deterministic" else KernelConfig.concurrent(wall_limit=5)
    t0 = time.perf_counter()
    r = run_kernel(mode, b.directory, b.agents, b.releases, config)
    assert time.perf_counter() - t0 < 1.0
    assert handled == [StartOrder("o1")]
    assert r.status == {"o1": "stuck"}
    assert [line.split(" ", 1)[1] for line in r.trace] == ["kernel>o1 StartOrder"]
    assert r.counter.total() == 0 and r.commits == []


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
    assert r.all_done, (r.status, r.diagnostics)
    kinds = [ln.split()[2] for ln in r.trace]
    assert kinds.count("StartOrder") == len(r.status)
    envelope_lines = len(kinds) - kinds.count("StartOrder") - kinds.count("Deadline")
    assert envelope_lines == r.counter.total(), (envelope_lines, r.counter.total())
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
