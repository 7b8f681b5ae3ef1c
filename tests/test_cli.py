"""The command-line contract: exit codes and the files ``run`` writes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cnetsched.cli import main

from conftest import FLOWSHOP, JOBSHOP


def test_run_writes_gantt_metrics_and_trace(tmp_path, capsys):
    gantt, metrics, trace = tmp_path / "g.csv", tmp_path / "m.json", tmp_path / "t.txt"
    code = main(
        ["run", str(FLOWSHOP), "--gantt", str(gantt), "--metrics", str(metrics),
         "--trace", str(trace)]
    )
    assert code == 0
    assert "order-A: done" in capsys.readouterr().out
    assert gantt.read_text().count("\n") > 1
    assert json.loads(metrics.read_text())
    assert "StartOrder" in trace.read_text()


def test_validate_accepts_both_bundled_scenarios(capsys):
    assert main(["validate", str(FLOWSHOP)]) == 0
    assert main(["validate", str(JOBSHOP)]) == 0
    assert capsys.readouterr().out.count("OK") == 2


def test_malformed_scenario_exits_1(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"format_version": 1, "machines": [')
    # valid JSON, but no transport to derive the transport floor from
    craneless = tmp_path / "craneless.json"
    doc = json.loads(FLOWSHOP.read_text())
    del doc["transports"]
    doc["params"].pop("t_transport_min", None)
    craneless.write_text(json.dumps(doc))
    # valid JSON, but a deadline that is not a number
    undated = tmp_path / "undated.json"
    doc = json.loads(FLOWSHOP.read_text())
    doc["params"]["cfp_deadline"] = "soon"
    undated.write_text(json.dumps(doc))
    for path in (broken, craneless, undated):
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path)]) == 1
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "craneless.json.params.t_transport_min: absent and cannot be derived" in err
    assert "undated.json.params.cfp_deadline: must be a positive number when given" in err


def test_order_no_machine_serves_exits_2(tmp_path, capsys):
    doc = json.loads(FLOWSHOP.read_text())
    doc["products"].append({"id": "C", "steps": ["cutting"]})  # no machine makes C
    doc["orders"] = [{"id": "order-C", "product": "C", "arrival": 0, "release": 0}]
    path = tmp_path / "unserved.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path)]) == 2
    assert "order-C: failed" in capsys.readouterr().out


@pytest.mark.parametrize("preset", ["hosting-sweep", "shop-compare"])
def test_concurrent_experiment_writes_what_it_prints(tmp_path, capsys, preset):
    # concurrent timing decides how many orders finish, so only the shape
    # of the result is pinned, not its done counts
    out = tmp_path / "result.json"
    assert main(["experiment", preset, "--orders", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    result = json.loads(printed)
    if preset == "hosting-sweep":
        runs = result["runs"]
        assert [run["interval_ms"] for run in runs] == [75, 150, 300, 600]
    else:
        runs = [result["flow"], result["job"]]
    assert [sum(run["status_counts"].values()) for run in runs] == [2] * len(runs)


def test_the_package_imports_the_standard_library_only():
    # -S keeps site-packages, and with it numpy, pytest and hypothesis, off the path
    probe = (
        "import sys\n"
        "start = set(sys.modules)\n"
        "import cnetsched, cnetsched.cli, cnetsched.harness\n"
        "loaded = {m.partition('.')[0] for m in set(sys.modules) - start}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "['cnetsched']"
