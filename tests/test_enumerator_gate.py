"""The selector against the brute-force enumerator, stage by stage.

Every deterministic stage decision of a scenario set is re-judged by
``oracle.enumerate_combinations`` on the same proposals: the selector must
find a route exactly when the enumerator does, and then accept the
enumerator's best choice. The set covers the bundled files, both shop
presets at several sizes and release intervals, the scaling floor and the
200-seed random sweep.
"""

from cnetsched import agents
from cnetsched.harness import build_scaling_scenario, build_shop_scenario, run_scenario
from cnetsched.scenario import load_scenario

from conftest import FLOWSHOP, JOBSHOP, random_scenario
from oracle import enumerate_combinations


def gate_scenarios():
    yield "section6_flowshop", load_scenario(FLOWSHOP)
    yield "tableV_jobshop", load_scenario(JOBSHOP)
    for kind in ("flow", "job"):
        for n, interval in ((15, 100), (30, 100), (20, 0), (8, 1000)):
            yield f"{kind}-{n}x{interval}", build_shop_scenario(kind, n, interval)
    for k in (2, 8):
        yield f"scaling-{k}", build_scaling_scenario(k)
    for seed in range(200):
        yield f"random-{seed}", random_scenario(seed)


def test_selector_picks_the_enumerators_best_route(monkeypatch):
    stages = []
    build_ocs, select = agents.build_ocs, agents.select

    def recording_build_ocs(production, buffers, transports, ctx):
        stages.append([production, buffers, transports, ctx, None])
        return build_ocs(production, buffers, transports, ctx)

    def recording_select(*args):
        selection = select(*args)
        stages[-1][-1] = selection
        return selection

    monkeypatch.setattr(agents, "build_ocs", recording_build_ocs)
    monkeypatch.setattr(agents, "select", recording_select)

    gaps = []
    n_stages = 0
    for name, scenario in gate_scenarios():
        stages.clear()
        run_scenario(scenario, mode="deterministic")
        n_stages += len(stages)
        for i, (production, buffers, transports, ctx, selection) in enumerate(stages):
            best = enumerate_combinations(production, buffers, transports, ctx).best
            if best is None:
                if selection is not None:
                    gaps.append(f"{name} #{i}: selected {selection.accept_ids}, enumerator none")
            elif selection is None:
                gaps.append(f"{name} #{i}: selected none, enumerator {sorted(best.accept_ids)}")
            elif frozenset(selection.accept_ids) != best.accept_ids:
                gaps.append(
                    f"{name} #{i}: selected {sorted(selection.accept_ids)}, "
                    f"enumerator {sorted(best.accept_ids)}"
                )
    assert n_stages > 1000
    assert gaps == []
