"""Seeded scenario documents for the three benchmark workloads.

Each workload is a scenario *document* (the JSON form ``parse_scenario``
reads) plus the kernel it runs under.  The seed perturbs the floor inside
ranges chosen so that every order stays feasible:

* operation durations move by at most +-3 minutes;
* machine, buffer and crane x-positions move by at most +-1 metre, and never
  across a crane-segment boundary, so the crane that serves a leg does not
  change with the seed.

The same seed always gives the same document.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FLOW_ORDERS = 60
WIDE_K = 32
WIDE_ORDERS = 15
HOSTING_ORDERS = 7
HOSTING_INTERVAL_S = 1.25
HOSTING_CFP_DEADLINE_S = 0.25

# Releases far enough apart that each order negotiates alone: an order's
# negotiation takes tens of ticks under the deterministic kernel.
FLOW_RELEASE_GAP_TICKS = 1000
WIDE_RELEASE_GAP_TICKS = 5000

# Fixed rather than derived: the derived value follows the smallest x-distance
# between two places, which the position jitter would move from seed to seed.
# 21 minutes is what the unperturbed floors derive (20 minutes of handling
# plus 5 metres at 5 m/min).
T_TRANSPORT_MIN = 21


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "deterministic" | "concurrent"
    doc: dict


def _jitter(rng: random.Random, x: float) -> float:
    return round(x + rng.uniform(-1.0, 1.0), 1)


def _machine(rng: random.Random, mid: str, operation: str, x: float, y: float, minutes: int,
             fixed_x: bool = False):
    return {
        "id": mid,
        "operation": operation,
        "location": [x if fixed_x else _jitter(rng, x), y],
        "op_duration": {"B": minutes + rng.randint(-3, 3)},
        "setup": {"A": {"B": 15}, "B": {"A": 30}},
        "initial_state": "B",
    }


def _crane(rng: random.Random, cid: str, lo: float, hi: float, x: float):
    return {
        "id": cid,
        "segment": [lo, hi],
        "speed": 5,
        "load": 10,
        "unload": 10,
        "initial_x": _jitter(rng, x),
    }


def _flow_floor(rng: random.Random) -> dict:
    """The experiment presets' seven-machine, four-buffer flow floor.

    Two cranes split the floor as on the paper's Section 6 floor: Crane1
    covers [0, 30] and Crane2 [30, 60].  Both milling stations sit on x=30 and
    every other place keeps clear of it, so each leg is served by exactly one
    crane.  Buffer4 sits at x=28 rather than the presets' x=30 for that
    reason.
    """
    machines = [
        _machine(rng, "Cutting", "cutting", 5, 5, 80),
        _machine(rng, "Forging1", "forging", 10, 11, 150),
        _machine(rng, "Forging2", "forging", 10, 19, 150),
        _machine(rng, "Rollforming", "roll-forming", 25, 15, 150),
        _machine(rng, "Milling1", "milling", 30, 5, 100, fixed_x=True),
        _machine(rng, "Milling2", "milling", 30, 15, 100, fixed_x=True),
        _machine(rng, "Quality", "quality", 40, 5, 150),
    ]
    buffers = [
        {"id": bid, "location": [_jitter(rng, x), y]}
        for bid, x, y in (
            ("Buffer1", 15, 15),
            ("Buffer2", 35, 10),
            ("Buffer3", 20, 12),
            ("Buffer4", 28, 12),
        )
    ]
    cranes = [_crane(rng, "Crane1", 0, 30, 5), _crane(rng, "Crane2", 30, 60, 45)]
    return {
        "format_version": 1,
        "params": {
            "t_buffer_min": 15,
            "t_transport_min": T_TRANSPORT_MIN,
            "cfp_deadline": 5.0,
            "hold_deadline": 600.0,
        },
        "machines": machines,
        "buffers": buffers,
        "transports": cranes,
        "products": [
            {"id": "B", "steps": ["cutting", "forging", "roll-forming", "milling", "quality"]}
        ],
    }


def _orders(n: int, gap: float) -> list[dict]:
    return [
        {"id": f"order-{i + 1:03d}", "product": "B", "arrival": 0, "release": round(i * gap, 9)}
        for i in range(n)
    ]


def flow_line(seed: int) -> Workload:
    doc = _flow_floor(random.Random(seed))
    doc["name"] = f"flow-line-{seed}"
    doc["orders"] = _orders(FLOW_ORDERS, FLOW_RELEASE_GAP_TICKS)
    return Workload("flow-line", "deterministic", doc)


def wide_floor(seed: int) -> Workload:
    """``WIDE_K`` machines per capability, one crane over the whole floor."""
    rng = random.Random(seed)
    operations = ("cutting", "forging", "milling")
    machines = [
        _machine(rng, f"{op}-{i + 1:02d}", op, 10 * col + 5, 5 + 5 * i, 60)
        for col, op in enumerate(operations)
        for i in range(WIDE_K)
    ]
    doc = {
        "format_version": 1,
        "name": f"wide-floor-{seed}",
        "params": {"t_buffer_min": 15, "t_transport_min": T_TRANSPORT_MIN},
        "machines": machines,
        "buffers": [
            {"id": "Buffer1", "location": [_jitter(rng, 15), 15]},
            {"id": "Buffer2", "location": [_jitter(rng, 21), 15]},
        ],
        "transports": [_crane(rng, "Crane1", 0, 40, 5)],
        "products": [{"id": "B", "steps": list(operations)}],
        "orders": _orders(WIDE_ORDERS, WIDE_RELEASE_GAP_TICKS),
    }
    return Workload("wide-floor", "deterministic", doc)


def hosting(seed: int) -> Workload:
    """The flow-line floor on the concurrent kernel, released open-loop.

    The crane whose segment misses a leg stays silent, so every transport
    round closes at the CFP deadline, as rounds on the paper's split-crane
    floor do under a deadline-driven protocol.  Four such rounds of 250 ms
    take an order about 1.0 s, inside the 1.25 s release interval, so orders
    do not pile up behind each other's holds.

    The deadline is far above the time a reply takes: a proposal that arrives
    after its round has closed is dropped and the order fails.  At a 50 ms
    deadline, with 20 orders every 0.4 s, crane replies took up to 57 ms and
    an order failed now and then; here replies take a few ms.

    Without these fixed waits an order's coordination time is made of thread
    hand-offs under the interpreter lock; on one crane over the whole floor its
    median spread by 13-23 % between runs of identical code.  Per-hop message
    latency, as in the hosting-sweep preset, would swamp that jitter too, but
    the kernel then drops the last order's final accepts (see README.md).
    """
    doc = _flow_floor(random.Random(seed))
    doc["name"] = f"hosting-{seed}"
    doc["params"]["cfp_deadline"] = HOSTING_CFP_DEADLINE_S
    doc["orders"] = _orders(HOSTING_ORDERS, HOSTING_INTERVAL_S)
    return Workload("hosting", "concurrent", doc)


WORKLOADS = {"flow-line": flow_line, "wide-floor": wide_floor, "hosting": hosting}
