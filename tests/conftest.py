"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from cnetsched.agents import BufferAgent, ProductionAgent, TransportAgent
from cnetsched.harness import run_scenario
from cnetsched.scenario import Scenario, load_scenario, parse_scenario

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
FLOWSHOP = SCENARIOS / "section6_flowshop.json"
JOBSHOP = SCENARIOS / "tableV_jobshop.json"


@pytest.fixture(scope="session")
def flowshop_scenario():
    return load_scenario(FLOWSHOP)


@pytest.fixture(scope="session")
def flowshop_report(flowshop_scenario):
    """One deterministic run of the bundled flow-shop scenario, reused read-only."""
    return run_scenario(flowshop_scenario, mode="deterministic")


@pytest.fixture(scope="session")
def jobshop_report():
    return run_scenario(load_scenario(JOBSHOP), mode="deterministic")


def agent_kinds(report) -> dict[str, str]:
    """resource id -> machine | buffer | transport, from the live agents."""
    kinds = {}
    for aid, agent in report.agents.items():
        if isinstance(agent, ProductionAgent):
            kinds[aid] = "machine"
        elif isinstance(agent, BufferAgent):
            kinds[aid] = "buffer"
        elif isinstance(agent, TransportAgent):
            kinds[aid] = "transport"
    return kinds


def hold_check(report) -> list[str]:
    """Offer conservation: once every order is terminal, no resource holds an offer.

    An offered span is withheld from other orders until it is accepted,
    rejected or expires; a hold that outlives every order is one that was
    never answered. Reads ``report.leftover_holds``; returns one line per
    violation.
    """
    running = sorted(o for o, s in report.status.items() if s not in ("done", "failed"))
    if running:
        return [f"orders still running: {', '.join(running)}"]
    return [
        f"{rid} still holds {n}: "
        + ", ".join(
            f"{h.proposal_id} for {h.conversation_id}"
            for h in report.agents[rid].holds.values()
        )
        for rid, n in sorted(report.leftover_holds.items())
        if n
    ]


def open_tails(schedule):
    """The open-tail entries of ``schedule`` in time order, found by a scan."""
    return [e for e in schedule.entries if e.open_tail]


def table_gaps(rows, new_end_state, changeover):
    """The rows of a gap table as a booking ending in ``new_end_state`` sees them.

    The rule ``agents._ResourceAgent._fits`` applies to each row before it
    places a slot: with a successor whose start state is known, the gap ends
    where the successor's setup, recomputed by ``changeover``, has to begin.
    Yields ``(start, end, from_state, ti_next)`` and skips empty gaps.
    """
    for start, end, from_state, succ, core_start, setup in rows:
        ti = 0
        if succ is not None and succ.start_state is not None:
            new_setup = changeover(new_end_state, succ.start_state)
            ti = new_setup - setup
            end = core_start - new_setup
        if end > start:
            yield start, end, from_state, ti


def full_gap_walk(schedule, free, new_end_state):
    """The successor-aware gap walk that asks the calendar afresh for every interval.

    The reference for ``ResourceSchedule.gap_table`` read through
    :func:`table_gaps`: for each interval of ``free`` one successor bisect
    and one ``state_before`` walk, each time it is called. Yields
    ``(start, end, from_state, ti_next)`` and skips empty gaps.
    """
    for iv in free:
        end, ti = iv.end, 0
        succ = schedule.entry_at_or_after(iv.end)
        if succ is not None and succ.span_start == iv.end and succ.start_state is not None:
            setup_iv = succ.setup_interval
            new_setup = schedule.changeover(new_end_state, succ.start_state)
            ti = new_setup - (setup_iv.duration if setup_iv is not None else 0)
            end = succ.core_start - new_setup
        if end > iv.start:
            yield iv.start, end, schedule.state_before(iv.start), ti


# ---------------------------------------------------------------------------
# randomized whole scenarios (invariant sweeps)


def random_scenario(seed: int) -> Scenario:
    return parse_scenario(random_document(seed), source=f"fuzz-{seed}")


def random_document(seed: int) -> dict:
    """A small random floor: <= 8 resources, <= 6 orders, whole-minute data.

    Deliberately rough around the edges — some machines cannot make some
    products, so a stage whose machines all lack the order's product fails
    with "no production proposals received"; releases may all collide at
    tick zero.  Every operation a plan names is offered by some machine
    (machine i offers ``ops[i % len(ops)]``, and there are no more
    operations than machines).  Failed orders are a legal outcome; the
    invariants must hold regardless.  ``random_scenario`` passes the document through
    the validator like any scenario file.
    """
    rng = random.Random(seed)
    n_transports = rng.randint(1, 2)
    n_buffers = rng.randint(1, 2)
    n_machines = rng.randint(1, 8 - n_transports - n_buffers)
    ops = [f"op{i + 1}" for i in range(rng.randint(1, min(3, n_machines)))]
    product_ids = ["A", "B", "C"][: rng.randint(1, 3)]
    xs = [float(x) for x in range(5, 50, 5)]

    machines = []
    for i in range(n_machines):
        durations = {
            p: rng.randrange(30, 151)
            for p in product_ids
            if len(product_ids) == 1 or rng.random() > 0.1
        } or {product_ids[0]: rng.randrange(30, 151)}
        setup: dict[str, dict[str, int]] = {}
        for a in product_ids:
            for b in product_ids:
                if a != b and rng.random() < 0.8:
                    setup.setdefault(a, {})[b] = rng.randrange(0, 31)
        bookings, windows = [], []
        t = 0
        for _ in range(rng.randint(0, 2)):
            t += rng.randrange(10, 180)
            end = t + rng.randrange(30, 120)
            if rng.random() < 0.5:
                bookings.append(
                    {"order_id": f"pre-{i}", "start": t, "end": end,
                     "end_state": rng.choice(product_ids)}
                )
            else:
                windows.append({"start": t, "end": end, "state": rng.choice(product_ids)})
            t = end
        machines.append(
            {
                "id": f"M{i + 1}",
                "operation": ops[i % len(ops)],
                "location": [rng.choice(xs), float(rng.randrange(0, 20))],
                "op_duration": durations,
                "setup": setup,
                "initial_state": rng.choice(product_ids),
                "initial_bookings": bookings,
                "maintenance": windows,
            }
        )

    buffers = [
        {"id": f"Buf{j + 1}", "location": [rng.choice(xs), 12.0]} for j in range(n_buffers)
    ]
    transports = [
        {
            "id": f"T{j + 1}",
            "segment": [0.0, 50.0],
            "speed": 5.0,
            "load": rng.randrange(5, 11),
            "unload": rng.randrange(5, 11),
            "initial_x": rng.choice(xs),
        }
        for j in range(n_transports)
    ]
    products = [
        {"id": p, "steps": [rng.choice(ops) for _ in range(rng.randint(1, 4))]}
        for p in product_ids
    ]
    gap = rng.choice([0.0, 3.0, 25.0, 400.0])
    orders = [
        {"id": f"o{k + 1:02d}", "product": rng.choice(product_ids), "release": k * gap}
        for k in range(rng.randint(1, 6))
    ]
    return {
        "format_version": 1,
        "name": f"fuzz-{seed}",
        "params": {"t_buffer_min": 15},
        "machines": machines,
        "buffers": buffers,
        "transports": transports,
        "products": products,
        "orders": orders,
    }
