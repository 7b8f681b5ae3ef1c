"""The command-line contract: exit codes and the files ``run`` writes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cnetsched.cli import main
from cnetsched.scenario import ValidationError, load_scenario

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


def test_run_takes_no_seed_and_its_metrics_carry_none(tmp_path, capsys):
    # the deterministic kernel draws no random numbers, so there is no seed to record
    metrics = tmp_path / "m.json"
    assert main(["run", str(FLOWSHOP), "--metrics", str(metrics)]) == 0
    assert "seed" not in json.loads(metrics.read_text())
    with pytest.raises(SystemExit) as caught:
        main(["run", str(FLOWSHOP), "--seed", "0"])
    assert caught.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


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


@pytest.mark.parametrize("path, value", [
    (("orders", 0, "release"), float("inf")),
    (("orders", 0, "release"), float("nan")),
    (("params", "cfp_deadline"), float("nan")),
    (("params", "hold_deadline"), float("inf")),
    (("machines", 0, "location"), [float("nan"), 1]),
    (("transports", 0, "speed"), float("inf")),
    (("transports", 0, "segment"), [0, float("inf")]),
    (("machines", 0, "op_duration", "A"), 1e307),
], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v))
def test_a_number_json_reads_but_cannot_count_is_a_problem_at_its_path(
    tmp_path, capsys, path, value
):
    # json reads NaN and Infinity although JSON has neither
    doc = json.loads(FLOWSHOP.read_text())
    *parents, key = path
    owner = doc
    for step in parents:
        owner = owner[step]
    owner[key] = value
    scenario = tmp_path / "unbounded.json"
    scenario.write_text(json.dumps(doc))
    assert main(["validate", str(scenario)]) == 1
    assert main(["run", str(scenario)]) == 1
    out, err = capsys.readouterr()
    field = "unbounded.json." + "".join(
        f"[{step}]" if isinstance(step, int) else f".{step}" for step in path
    ).lstrip(".")
    assert f"  {field}: " in err
    assert "OK" not in out and "Traceback" not in err


def test_load_scenario_reports_a_file_that_is_not_utf8_as_invalid(tmp_path):
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"name": "Fräse"}'.encode("latin-1"))
    with pytest.raises(ValidationError) as caught:
        load_scenario(latin)
    assert caught.value.problems[0].startswith(f"{latin}: not valid JSON (")


def test_an_unreadable_scenario_is_one_error_line_and_exit_1(tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{}")
    for command in ("validate", "run"):
        assert main([command, str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"
        assert main([command, str(latin)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {latin} is not a valid scenario:\n")
        assert "'utf-8' codec can't decode" in err


@pytest.mark.parametrize("flag", ["--gantt", "--metrics", "--trace"])
def test_run_into_a_missing_directory_is_one_error_line_and_exit_1(tmp_path, capsys, flag):
    target = tmp_path / "absent" / "out"
    assert main(["run", str(FLOWSHOP), flag, str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"
    assert "order-A: done" in captured.out  # the run itself finished
    assert not target.parent.exists()


def test_experiment_into_a_missing_directory_is_one_error_line_and_exit_1(tmp_path, capsys):
    target = tmp_path / "absent" / "result.json"
    assert main(["experiment", "scaling-sweep", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {target}: No such file or directory\n"


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
