"""The transport floor T_T,min: derived in O(L log L), and once per scenario."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cnetsched import scenario as scenario_module
from cnetsched.calculus import TransportGeometry, derive_t_transport_min
from cnetsched.harness import run_scenario, scaling_document
from cnetsched.scenario import build_runtime, parse_scenario

from oracle import pairwise_t_transport_min

# x values packed within 2e-9 m of each other, so pairs fall on both sides of
# the 1e-9 m below which two places count as one; offsets on a 0.25e-9 grid
# tie the threshold exactly where the float arithmetic allows, as at base 0
OFFSET = st.one_of(st.floats(0, 2e-9), st.integers(0, 8).map(lambda k: k * 0.25e-9))


@given(
    base=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
    offsets=st.lists(OFFSET, min_size=2, max_size=12),
    speeds=st.lists(st.floats(1e-12, 1.0), min_size=1, max_size=3),
)
def test_floor_matches_the_pairwise_reference_on_close_places(base, offsets, speeds):
    # tiny speeds turn a nanometre of difference in the nearest distance into seconds
    locations = [(base + off, 0.0) for off in offsets]
    fleet = [TransportGeometry(v, 10, 20, -2e3, 2e3) for v in speeds]
    assert derive_t_transport_min(locations, fleet) == pairwise_t_transport_min(locations, fleet)


def test_a_scenario_derives_its_floor_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return derive_t_transport_min(*args)

    monkeypatch.setattr(scenario_module, "derive_t_transport_min", counted)
    scenario = parse_scenario(scaling_document(32))
    build_runtime(scenario)
    assert run_scenario(scenario, mode="deterministic").all_done
    assert len(calls) == 1
    assert scenario.t_transport_min == pairwise_t_transport_min(*calls[0])


@pytest.mark.parametrize("given_min", [None, 21])
def test_a_replaced_scenario_derives_its_own_floor(given_min):
    # a frozen Scenario keeps its floor; one built by dataclasses.replace
    # with other params reads those params, not the original's floor
    scenario = parse_scenario(scaling_document(2))
    derived = scenario.t_transport_min
    params = dataclasses.replace(scenario.params, t_transport_min=given_min)
    replaced = dataclasses.replace(scenario, params=params)
    assert replaced.t_transport_min == (derived if given_min is None else given_min)
