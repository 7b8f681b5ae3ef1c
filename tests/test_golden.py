"""Golden gate: the deterministic schedule and trace must not change.

Each digest is the sha256 of ``render_gantt(r) + render_trace(r)`` of one
deterministic run. A refactor or speed-up of the engine must leave every one
of them as it is; a change that moves schedules on purpose updates them and
says why. The brute-force oracles judge the same runs, so a schedule that
moves on purpose must still be a valid one.
"""

import hashlib

import pytest

from cnetsched.harness import build_shop_scenario, render_gantt, render_trace, run_scenario
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
