import functools
import json

import pytest

from cnetsched.agents import BufferAgent, OrderAgent, ProductionAgent, TransportAgent
from cnetsched.harness import scaling_document, shop_document
from cnetsched.scenario import ValidationError, build_runtime, load_scenario, parse_scenario
from cnetsched.timebase import minutes

from conftest import FLOWSHOP, JOBSHOP, random_document
from oracle import find_entry


def minimal_doc():
    return {
        "format_version": 1,
        "name": "mini",
        "params": {"t_buffer_min": 15},
        "machines": [
            {
                "id": "M1",
                "operation": "cutting",
                "location": [10, 5],
                "op_duration": {"A": 100},
                "setup": {"A": {"B": 10}},
                "initial_state": "A",
            },
            {
                "id": "M2",
                "operation": "forging",
                "location": [40, 5],
                "op_duration": {"A": 150},
            },
        ],
        "buffers": [{"id": "Buf1", "location": [25, 15]}],
        "transports": [
            {"id": "Crane1", "segment": [0, 60], "speed": 5, "load": 10, "unload": 10}
        ],
        "products": [{"id": "A", "steps": ["cutting", "forging"]}],
        "orders": [{"id": "o1", "product": "A"}],
    }


def problems_of(doc):
    with pytest.raises(ValidationError) as err:
        parse_scenario(doc, source="t")
    return err.value.problems


# ---------------------------------------------------------------------------
# parsing and round trips through JSON text


def test_minimal_document_parses():
    s = parse_scenario(minimal_doc(), source="t")
    assert s.name == "mini"
    assert s.params.t_buffer_min == minutes(15)
    assert s.machines[0].op_duration == {"A": minutes(100)}
    assert s.machines[0].setup == {"A": {"B": minutes(10)}}
    assert s.transports[0].geometry().speed == pytest.approx(5 / 60)
    assert s.product("A").steps == ("cutting", "forging")


def test_transport_floor_derived_from_distinct_locations():
    s = parse_scenario(minimal_doc(), source="t")
    # nearest distinct pair is M1->Buf1 at |25-10| = 15 m: 15/5 = 3 min travel
    assert s.t_transport_min == minutes(10) + minutes(3) + minutes(10)


def no_transports(doc):
    del doc["transports"]


def one_location(doc):
    doc["machines"], doc["buffers"] = doc["machines"][:1], []


def zero_floor(doc):
    doc["params"]["t_transport_min"] = 0


def co_located_without_handling(doc):
    for place in doc["machines"] + doc["buffers"]:
        place["location"][0] = 10
    doc["transports"][0].update(load=0, unload=0)


@pytest.mark.parametrize(
    "edit, problem",
    [
        (no_transports,
         "absent and cannot be derived: cannot derive a transport floor without transports"),
        (one_location, "absent and cannot be derived: need at least two locations"),
        (zero_floor, "must be positive, given as 0 s"),
        (co_located_without_handling, "must be positive, derived as 0 s"),
    ],
)
def test_a_transport_floor_that_is_not_positive_is_a_problem(edit, problem):
    doc = minimal_doc()
    edit(doc)
    assert problems_of(doc) == (f"t.params.t_transport_min: {problem}",)


@pytest.mark.parametrize("key", ["cfp_deadline", "hold_deadline"])
@pytest.mark.parametrize("value", ["soon", [], {}, True, 0])
def test_a_deadline_that_is_not_a_positive_number_is_a_problem(key, value):
    doc = minimal_doc()
    doc["params"][key] = value
    assert problems_of(doc) == (f"t.params.{key}: must be a positive number when given",)


def test_a_document_with_problems_is_not_checked_for_a_transport_floor():
    # the machine list fails to parse, so no floor is derived from its locations
    doc = minimal_doc()
    doc["machines"] = "M1"
    assert not any("t_transport_min" in p for p in problems_of(doc))


def test_explicit_transport_floor_wins():
    doc = minimal_doc()
    doc["params"]["t_transport_min"] = 21
    assert parse_scenario(doc, source="t").t_transport_min == minutes(21)


ROUND_TRIP = [
    pytest.param(lambda: json.loads(FLOWSHOP.read_text()), id="section6_flowshop"),
    pytest.param(lambda: json.loads(JOBSHOP.read_text()), id="tableV_jobshop"),
    pytest.param(lambda: shop_document("flow", 15, 100), id="flow-15x100"),
    pytest.param(lambda: shop_document("job", 15, 100), id="job-15x100"),
    pytest.param(lambda: scaling_document(2), id="scaling-2"),
    pytest.param(lambda: scaling_document(32), id="scaling-32"),
    *(
        pytest.param(functools.partial(random_document, seed), id=f"random-{seed}")
        for seed in range(200)
    ),
]


@pytest.mark.parametrize("make", ROUND_TRIP)
def test_round_trip_is_identity(make):
    # bundled files and every generated floor are documents the validator
    # takes, and written out as JSON text they read back as the same floor
    doc = make()
    assert parse_scenario(json.loads(json.dumps(doc)), source="rt") == parse_scenario(doc)


def test_bundled_reference_scenario_shape():
    s = load_scenario("scenarios/section6_flowshop.json")
    assert len(s.machines) == 6
    assert len(s.buffers) == 2
    assert len(s.transports) == 2
    assert [o.id for o in s.orders] == ["order-A", "order-B"]
    assert s.t_transport_min == minutes(21)


# ---------------------------------------------------------------------------
# validation


def test_bad_json_file_reports_path(tmp_path):
    target = tmp_path / "broken.json"
    target.write_text("{not json")
    with pytest.raises(ValidationError) as err:
        load_scenario(target)
    assert "not valid JSON" in err.value.problems[0]


def test_wrong_format_version_rejected():
    doc = minimal_doc()
    doc["format_version"] = 99
    assert any("format_version" in p for p in problems_of(doc))


def test_duplicate_ids_rejected_across_kinds():
    doc = minimal_doc()
    doc["buffers"][0]["id"] = "M1"
    probs = problems_of(doc)
    assert any("already used by machine" in p for p in probs)


def test_nonpositive_durations_rejected():
    doc = minimal_doc()
    doc["machines"][0]["op_duration"]["A"] = 0
    assert any("must be positive" in p for p in problems_of(doc))
    doc = minimal_doc()
    doc["machines"][0]["op_duration"]["A"] = -5
    assert problems_of(doc)


def test_unknown_product_rejected():
    doc = minimal_doc()
    doc["orders"][0]["product"] = "Z"
    assert any("unknown product" in p for p in problems_of(doc))


def test_buffer_capacity_above_one_rejected():
    doc = minimal_doc()
    doc["buffers"][0]["capacity"] = 2
    assert any("capacity 1" in p for p in problems_of(doc))


def test_bad_segment_and_speed_rejected():
    doc = minimal_doc()
    doc["transports"][0]["segment"] = [60, 0]
    doc["transports"][0]["speed"] = 0
    probs = problems_of(doc)
    assert any("segment" in p for p in probs)
    assert any("speed" in p for p in probs)


def test_initial_x_outside_segment_rejected():
    doc = minimal_doc()
    doc["transports"][0]["initial_x"] = 99
    assert any("outside segment" in p for p in problems_of(doc))


def test_shared_resource_demands_rejected():
    doc = minimal_doc()
    doc["machines"][0]["shared_resources"] = ["tool-7"]
    assert any("not supported" in p for p in problems_of(doc))


def test_overlapping_initial_bookings_rejected():
    doc = minimal_doc()
    doc["machines"][0]["initial_bookings"] = [
        {"start": 0, "end": 30},
        {"start": 20, "end": 50},
    ]
    assert any("overlaps" in p for p in problems_of(doc))


M1_BOOKINGS = "t.machines[0].initial_bookings"
M1_MAINT = "t.machines[0].maintenance"
CRANE_BOOKINGS = "t.transports[0].initial_bookings"
BLOCK_LISTS = {M1_BOOKINGS: ("machines", "initial_bookings"),
               M1_MAINT: ("machines", "maintenance"),
               CRANE_BOOKINGS: ("transports", "initial_bookings")}
BLOCK_IDS = ((M1_BOOKINGS, "booking"), (M1_MAINT, "maintenance"), (CRANE_BOOKINGS, "crane"))


@pytest.mark.parametrize(
    "blocks,problem",
    [
        *(
            pytest.param({path: [{"start": 30, "end": 30}]},
                         f"{path}[0]: end (1800s) must be after start (1800s)", id=f"{key}-empty")
            for path, key in BLOCK_IDS
        ),
        *(
            pytest.param({path: [{"start": 0, "end": 30}, {"start": 20, "end": 50}]},
                         f"{path}[1]: overlaps {path}[0]", id=f"{key}-overlap")
            for path, key in BLOCK_IDS
        ),
        pytest.param({M1_BOOKINGS: [{"start": 0, "end": 30}],
                      M1_MAINT: [{"start": 10, "end": 40}]},
                     f"{M1_MAINT}[0]: overlaps {M1_BOOKINGS}[0]", id="maintenance-over-booking"),
        pytest.param({CRANE_BOOKINGS: [{"start": 0, "end": 5, "end_x": 99}]},
                     f"{CRANE_BOOKINGS}[0].end_x: 99 lies outside segment", id="crane-end-x"),
    ],
)
def test_fixed_blocks_are_validated(blocks, problem):
    # every block list reports its own field path
    doc = minimal_doc()
    for path, blocks_at in blocks.items():
        kind, key = BLOCK_LISTS[path]
        doc[kind][0][key] = blocks_at
    assert any(p.startswith(problem) for p in problems_of(doc)), problems_of(doc)


def test_all_problems_collected_not_just_first():
    doc = minimal_doc()
    doc["machines"][0]["op_duration"]["A"] = 0
    doc["buffers"][0]["capacity"] = 3
    doc["orders"][0]["product"] = "Z"
    assert len(problems_of(doc)) >= 3


def test_empty_product_plan_rejected():
    doc = minimal_doc()
    doc["products"][0]["steps"] = []
    assert any("at least one step" in p for p in problems_of(doc))


# ---------------------------------------------------------------------------
# runtime assembly


def test_build_runtime_registers_every_agent():
    s = parse_scenario(minimal_doc(), source="t")
    rt = build_runtime(s)
    assert set(rt.agents) == {"M1", "M2", "Buf1", "Crane1", "o1"}
    assert isinstance(rt.agents["M1"], ProductionAgent)
    assert isinstance(rt.agents["Buf1"], BufferAgent)
    assert isinstance(rt.agents["Crane1"], TransportAgent)
    assert isinstance(rt.agents["o1"], OrderAgent)
    assert rt.directory.search("cutting") == ("M1",)
    assert rt.directory.search("forging") == ("M2",)
    # transport handling estimates flow into the machines' proposal prefixes
    assert rt.agents["M1"].unload_estimate == minutes(10)
    assert rt.agents["M1"].load_estimate == minutes(10)


def test_build_runtime_materialises_calendars():
    doc = minimal_doc()
    doc["machines"][0]["initial_bookings"] = [
        {"order_id": "pre", "start": 100, "end": 200, "end_state": "B"}
    ]
    doc["machines"][0]["maintenance"] = [{"start": 300, "end": 360, "state": "A"}]
    doc["transports"][0]["initial_bookings"] = [
        {"start": 0, "end": 5, "end_x": 30}
    ]
    rt = build_runtime(parse_scenario(doc, source="t"))

    m1 = rt.agents["M1"].schedule
    pre = find_entry(m1, "pre", "init")
    assert pre.span.start == minutes(100) and pre.end_state == "B"
    maint = m1.entries[-1]
    assert maint.step_label == "maintenance" and maint.end_state == "A"

    crane = rt.agents["Crane1"]
    assert crane.schedule.entries[0].end_state == 30.0
    assert float(crane.schedule.state_before(minutes(10), crane.initial_x)) == 30.0


def test_build_runtime_sorts_releases():
    doc = minimal_doc()
    doc["orders"] = [
        {"id": "late", "product": "A", "release": 9},
        {"id": "early", "product": "A", "release": 1},
        {"id": "tied", "product": "A", "release": 1},
    ]
    rt = build_runtime(parse_scenario(doc, source="t"))
    assert rt.releases == [(1, "early"), (1, "tied"), (9, "late")]
