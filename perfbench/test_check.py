"""The output checker accepts a real run and rejects corrupted ones.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from cnetsched.harness import kernel_config, render_gantt  # noqa: E402
from cnetsched.runtime import run_kernel  # noqa: E402
from cnetsched.scenario import build_runtime, parse_scenario  # noqa: E402


@pytest.fixture(scope="module")
def run():
    workload = workloads.flow_line(0)
    doc = dict(workload.doc, orders=workload.doc["orders"][:4])
    scenario = parse_scenario(doc)
    bundle = build_runtime(scenario)
    report = run_kernel("deterministic", bundle.directory, bundle.agents, bundle.releases,
                        kernel_config(scenario, "deterministic"))
    return doc, report, check.parse_gantt(render_gantt(report))


def problems(run, rows=None, trace=None, status=None):
    doc, report, good_rows = run
    return check.check_run(
        doc,
        good_rows if rows is None else rows,
        report.status if status is None else status,
        report.commits,
        report.trace if trace is None else trace,
        report.counter.total(),
    )


def replaced(rows, pick, **changes):
    i = next(i for i, r in enumerate(rows) if pick(r))
    return rows[:i] + [rows[i]._replace(**changes)] + rows[i + 1:]


def test_real_run_passes(run):
    assert problems(run) == []


def _stage_two(r):
    return r.kind == "operation" and r.step_label == "2"


def test_moved_operation_is_rejected(run):
    op = next(r for r in run[2] if _stage_two(r))
    found = problems(run, rows=replaced(run[2], _stage_two, start=op.start + 60, end=op.end + 60))
    assert any("committed core" in p for p in found)
    assert any("overlaps" in p for p in found)


def test_shortened_operation_is_rejected(run):
    op = next(r for r in run[2] if _stage_two(r))
    found = problems(run, rows=replaced(run[2], _stage_two, end=op.end - 60))
    assert any("op_duration" in p for p in found)
    assert any("committed core" in p for p in found)


def test_overlapping_segments_are_rejected(run):
    rows = run[2]
    first, second = [r for r in rows if r.resource_id == "Cutting"][:2]
    rows = rows + [second._replace(start=first.start, end=first.end, kind="setup")]
    assert any("overlaps" in p for p in problems(run, rows=rows))


def test_missing_stage_is_rejected(run):
    rows = [r for r in run[2] if not (r.order_id == "order-002" and r.step_label == "5")]
    assert any("for a 5-step plan" in p for p in problems(run, rows=rows))


def test_wrong_machine_is_rejected(run):
    rows = [r._replace(resource_id="Quality") if r.resource_id == "Cutting" else r
            for r in run[2]]
    assert any("plan needs cutting" in p for p in problems(run, rows=rows))


def test_moved_crane_unload_is_rejected(run):
    def crane_unload(r):
        return r.resource_id.startswith("Crane") and r.kind == "unload"

    unload = next(r for r in run[2] if crane_unload(r))
    rows = replaced(run[2], crane_unload, end=unload.end + 1)
    assert any("is not the head" in p for p in problems(run, rows=rows))


def test_teleporting_crane_is_rejected(run):
    doc, report, rows = run
    far = dict(doc, machines=[dict(m, location=[500.0, 5.0]) if m["id"] == "Cutting" else m
                              for m in doc["machines"]])
    found = check.check_run(far, rows, report.status, report.commits, report.trace,
                            report.counter.total())
    assert any("too short to travel" in p for p in found)


def test_makespan_below_floor_is_rejected(run):
    rows = [r._replace(start=r.start // 10, end=r.end // 10) for r in run[2]]
    assert any("below the bottleneck floor" in p for p in problems(run, rows=rows))


def test_lost_trace_line_is_rejected(run):
    trace = [line for line in run[1].trace if " Proposal " not in line]
    assert any("envelope trace lines" in p for p in problems(run, trace=trace))


def test_failed_order_is_rejected(run):
    status = dict(run[1].status, **{"order-003": "failed"})
    assert problems(run, status=status) == ["order-003: status failed"]
