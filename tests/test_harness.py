from dataclasses import replace

import pytest

from cnetsched import harness
from cnetsched.harness import build_scaling_scenario, run_scenario, scaling_sweep
from cnetsched.scenario import parse_scenario, scenario_to_dict


def test_scaling_scenario_is_valid_and_every_order_finishes():
    s = build_scaling_scenario(2)
    parse_scenario(scenario_to_dict(s), source="scaling-k2")  # raises when invalid
    r = run_scenario(s, mode="deterministic")
    assert r.status and set(r.status.values()) == {"done"}


def test_scaling_sweep_refuses_to_fit_over_failed_orders(monkeypatch):
    def no_cutting(k, n_orders):
        s = build_scaling_scenario(k, n_orders=n_orders)
        return replace(s, machines=tuple(m for m in s.machines if m.operation != "cutting"))

    monkeypatch.setattr(harness, "build_scaling_scenario", no_cutting)
    with pytest.raises(RuntimeError, match="failed"):
        scaling_sweep(ks=(2, 3), n_orders=1)
