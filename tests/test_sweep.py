"""Random whole scenarios judged by the oracles.

``conftest.random_scenario`` builds small, rough floors: machines that
cannot make some products, colliding releases, pre-booked machines and
maintenance. Failed orders are a legal outcome; a double-booked resource, a
moved commitment or an offer still held after every order finished is not.
The same runs widen the golden gate: one sha256 over every seed's
deterministic GANTT and trace, and a tally of the failed orders' diagnostics.
"""

import hashlib
import logging
import re
from collections import Counter
from dataclasses import replace

from cnetsched.agents import DirectoryService
from cnetsched.harness import build_shop_scenario, render_gantt, render_trace, run_scenario
from cnetsched.scenario import load_scenario

from conftest import FLOWSHOP, JOBSHOP, agent_kinds, hold_check, random_scenario
from oracle import OracleInfeasible, exhaustive_schedule, occupancy_check, stability_check


SWEEP_DIGEST = "12d67d8dbf1db39f05eb7b913709e5df099c9827e4027e4d2a55fe66c826d883"


def test_random_scenarios_pass_the_oracles():
    problems = []
    digest = hashlib.sha256()
    failures = Counter()
    for seed in range(200):
        r = run_scenario(random_scenario(seed), mode="deterministic")
        digest.update((render_gantt(r) + render_trace(r)).encode("utf-8"))
        failures.update(
            re.sub(r"^stage \d+: ", "", r.diagnostics[o])
            for o, status in r.status.items()
            if status == "failed"
        )
        schedules = r.schedules()
        found = (
            occupancy_check(schedules, kinds=agent_kinds(r))
            + stability_check(r.commits, schedules)
            + hold_check(r)
        )
        problems.extend(f"seed {seed}: {p}" for p in found)
    assert problems == []
    # a refactor leaves every schedule and trace of the sweep as it is, and
    # every failed order's diagnostic, which neither of them shows
    assert digest.hexdigest() == SWEEP_DIGEST
    assert failures == {
        "no production proposals received": 112,
        "no feasible operation combination": 9,
    }


# order -> completion (s) of the exhaustive per-order search, for every sweep
# floor within its input limits; None where it finds no feasible schedule
EXHAUSTIVE_COMPLETIONS = {
    14: {"o01": 3780},
    94: {"o01": 30540, "o02": 39360},
    161: {"o01": 29220, "o02": 37380},
    179: None,
}


def test_exhaustive_schedule_of_the_sweep_floors_it_accepts():
    # the oracle reads the scenario records directly, not through the agents
    completions = {}
    for seed in range(200):
        try:
            completions[seed] = exhaustive_schedule(random_scenario(seed))["completions"]
        except ValueError:
            continue  # beyond the oracle's input limits
        except OracleInfeasible:
            completions[seed] = None
    assert completions == EXHAUSTIVE_COMPLETIONS


def test_no_negotiated_first_order_beats_the_exhaustive_one():
    # the oracle plans o01 first on the floor as given and minimises its
    # completion, so no negotiated schedule may finish it earlier
    for seed, completions in EXHAUSTIVE_COMPLETIONS.items():
        if completions is None:
            continue
        r = run_scenario(random_scenario(seed), mode="deterministic")
        finish = max(c.end for c in r.commits if c.order_id == "o01")
        assert finish >= completions["o01"], seed


def test_a_proposal_reaching_a_failed_order_is_rejected():
    # under det, M1's proposal reaches o05 on the tick its deadline failed it
    r = run_scenario(random_scenario(89), mode="deterministic")
    assert r.status["o05"] == "failed"
    held = [
        (rid, h.proposal_id)
        for rid in agent_kinds(r)
        for h in r.agents[rid].holds
        if h.conversation_id.startswith("o05/")
    ]
    assert held == []


def test_late_proposals_are_not_logged_as_protocol_violations(caplog):
    # seed 96 has proposals land on a later conversation and during a later
    # round: legal outcomes of a deadline-driven protocol, logged at DEBUG
    with caplog.at_level(logging.DEBUG, logger="cnetsched.protocol"):
        run_scenario(random_scenario(96), mode="deterministic")
    protocol = [rec for rec in caplog.records if rec.name == "cnetsched.protocol"]
    late = [rec.getMessage() for rec in protocol if rec.levelno == logging.DEBUG]
    assert any("stray conversation" in msg for msg in late)
    assert any("proposal during" in msg for msg in late)
    assert [rec.getMessage() for rec in protocol if rec.levelno >= logging.WARNING] == []


def arrival_order_scenarios():
    yield "section6_flowshop", load_scenario(FLOWSHOP)
    yield "tableV_jobshop", load_scenario(JOBSHOP)
    for kind in ("flow", "job"):
        yield f"{kind}-15x100", build_shop_scenario(kind, 15, 100)
    flow = build_shop_scenario("flow", 8, 1000)
    yield "flow-8x1000-one-crane", replace(flow, transports=flow.transports[:1])
    for seed in range(200):
        yield f"random-{seed}", random_scenario(seed)


def test_schedule_is_independent_of_proposal_arrival_order(monkeypatch):
    # the deterministic kernel delivers in send order, so CFPs sent to the
    # responders in reverse come back as proposals in reverse order
    scenarios = list(arrival_order_scenarios())
    as_is = {name: render_gantt(run_scenario(s, mode="deterministic")) for name, s in scenarios}
    search = DirectoryService.search
    monkeypatch.setattr(
        DirectoryService, "search", lambda self, capability: search(self, capability)[::-1]
    )
    moved = [
        name
        for name, s in scenarios
        if render_gantt(run_scenario(s, mode="deterministic")) != as_is[name]
    ]
    assert moved == []
