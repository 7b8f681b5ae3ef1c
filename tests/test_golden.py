"""Golden gate: the deterministic schedule and trace must not change.

Each digest is the sha256 of ``render_gantt(r) + render_trace(r)`` of one
deterministic run. A refactor or speed-up of the engine must leave every one
of them as it is; a change that moves schedules on purpose updates them and
says why. The brute-force oracles judge the same runs, so a schedule that
moves on purpose must still be a valid one.
"""

import hashlib
from dataclasses import replace

import pytest

from cnetsched import runtime
from cnetsched.agents import OrderAgent
from cnetsched.harness import (
    build_shop_scenario,
    kernel_config,
    render_gantt,
    render_trace,
    run_scenario,
)
from cnetsched.scenario import load_scenario

from conftest import FLOWSHOP, JOBSHOP, agent_kinds, hold_check
from oracle import occupancy_check, stability_check

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
]


@pytest.mark.parametrize("make, digest, counts", GOLDEN)
def test_deterministic_schedule_is_unchanged(make, digest, counts):
    r = run_scenario(make(), mode="deterministic")
    statuses = list(r.status.values())
    assert (statuses.count("done"), statuses.count("failed")) == counts
    text = render_gantt(r) + render_trace(r)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("make, digest, counts", GOLDEN)
def test_golden_runs_pass_the_oracles(make, digest, counts):
    r = run_scenario(make(), mode="deterministic")
    schedules = r.schedules()
    assert occupancy_check(schedules, kinds=agent_kinds(r)) == []
    assert stability_check(r.commits, schedules) == []
    assert hold_check(r) == []


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
        orders = [a for a in ctx.kernel.agents.values() if isinstance(a, OrderAgent)]
        if not stops and all(a.status in ("done", "failed") for a in orders):
            stops.append(len(ctx.kernel.trace) + len(out))  # out's lines follow
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
