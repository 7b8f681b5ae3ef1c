from dataclasses import replace

import pytest

from cnetsched import harness
from cnetsched.harness import (
    build_scaling_scenario,
    build_shop_scenario,
    run_scenario,
    scaling_sweep,
)
from cnetsched.protocol import HoldBook
from conftest import agent_kinds, hold_check


def test_scaling_scenario_is_valid_and_every_order_finishes():
    s = build_scaling_scenario(2)  # raises ValidationError when invalid
    r = run_scenario(s, mode="deterministic")
    assert r.status and set(r.status.values()) == {"done"}


HOSTING_INTERVALS = (0, 5, 10, 20, 40, 60, 100, 200, 1000)  # ticks between releases


@pytest.mark.parametrize("kind,n_orders", [("flow", 20), ("flow", 40), ("job", 20)])
def test_done_orders_do_not_fall_as_the_hosting_interval_grows(kind, n_orders):
    """The paper's hosting-interval effect, under the deterministic kernel.

    Orders released together crowd each other out; releasing them further
    apart never finishes fewer, and the flow line finishes every order from
    20 ticks on. Job 40 is a counterexample and is not asserted: it finishes
    29 orders at 20 ticks and 27 at 40.
    """
    done = []
    for interval in HOSTING_INTERVALS:
        report = run_scenario(build_shop_scenario(kind, n_orders, interval), "deterministic")
        done.append(sum(status == "done" for status in report.status.values()))
    assert done == sorted(done) and done[0] < done[-1], done
    if kind == "flow":
        assert all(d == n_orders for iv, d in zip(HOSTING_INTERVALS, done) if iv >= 20), done


def test_scaling_sweep_refuses_to_fit_over_failed_orders(monkeypatch):
    def no_cutting(k, n_orders):
        s = build_scaling_scenario(k, n_orders=n_orders)
        return replace(s, machines=tuple(m for m in s.machines if m.operation != "cutting"))

    monkeypatch.setattr(harness, "build_scaling_scenario", no_cutting)
    with pytest.raises(RuntimeError, match="failed"):
        scaling_sweep(ks=(2, 3), n_orders=1)


def test_scaling_sweep_fits_match_the_published_values():
    # the values the numpy polyfit gave; the stdlib fits must agree to 4 digits
    fit = scaling_sweep()

    def approx(v):
        return pytest.approx(v, rel=5e-5)

    assert fit["linear_fit"]["slope"] == approx(9.084005)
    assert fit["linear_fit"]["intercept"] == approx(24.958333)
    assert fit["linear_fit"]["r2"] == approx(0.9998412)
    assert fit["quadratic_fit"]["coefficients"] == [
        approx(-0.0103574), approx(9.441335), approx(23.35294)
    ]
    assert fit["quadratic_fit"]["share_at_k_max"] == approx(0.0336836)


def test_quadratic_fit_recovers_an_exact_parabola():
    xs = [2.0, 4.0, 8.0, 16.0, 32.0]
    ys = [-0.5 * x * x + 3 * x + 7 for x in xs]
    assert harness._quadratic_fit(xs, ys) == [
        pytest.approx(-0.5), pytest.approx(3.0), pytest.approx(7.0)
    ]


def test_leftover_holds_count_the_offers_nobody_answered(flowshop_scenario, monkeypatch):
    clean = run_scenario(flowshop_scenario, mode="deterministic")
    assert set(clean.leftover_holds) == set(agent_kinds(clean))
    assert set(clean.leftover_holds.values()) == {0} and hold_check(clean) == []
    assert harness.build_metrics(clean)["leftover_holds"] == clean.leftover_holds
    # a resource that forgets every reject keeps the offers it lost
    monkeypatch.setattr(HoldBook, "release", lambda self, proposal_id: None)
    leaky = run_scenario(flowshop_scenario, mode="deterministic")
    left = {rid: n for rid, n in leaky.leftover_holds.items() if n}
    assert left and left == {rid: len(leaky.agents[rid].holds) for rid in left}
    assert len(hold_check(leaky)) == len(left)
