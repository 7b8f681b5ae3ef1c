"""Run orchestration and artifact export.

Everything the CLI and the experiment presets need: running a scenario through
a kernel, writing GANTT/metrics/trace files, and the three canned experiments
(hosting-sweep, scaling-sweep, shop-compare).  Experiment scenarios are written
here as documents rather than shipped as files, because their size is a sweep
parameter; they pass the same validator as a file.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import statistics
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from .runtime import KernelConfig, RunReport, run_kernel
from .scenario import FORMAT_VERSION, Scenario, build_runtime, parse_scenario

log = logging.getLogger(__name__)

MODE_NAMES = {"det": "deterministic", "conc": "concurrent"}


def kernel_config(scenario: Scenario, mode: str) -> KernelConfig:
    """Kernel defaults for the mode, with the scenario's overrides applied."""
    cfg = KernelConfig() if mode == "deterministic" else KernelConfig.concurrent()
    p = scenario.params
    if p.cfp_deadline is not None:
        cfg = replace(cfg, cfp_deadline=p.cfp_deadline)
    if p.hold_deadline is not None:
        cfg = replace(cfg, hold_deadline=p.hold_deadline)
    return cfg


def run_scenario(
    scenario: Scenario, mode: str = "deterministic", config: Optional[KernelConfig] = None
) -> RunReport:
    mode = MODE_NAMES.get(mode, mode)
    bundle = build_runtime(scenario)
    if config is None:
        config = kernel_config(scenario, mode)
    return run_kernel(mode, bundle.directory, bundle.agents, bundle.releases, config)


# ---------------------------------------------------------------------------
# artifact export

GANTT_HEADER = ("resource_id", "order_id", "step_label", "kind", "start_s", "end_s")


def gantt_rows(report: RunReport) -> list[tuple[str, str, str, str, int, int]]:
    rows = []
    for resource_id, schedule in report.schedules().items():
        for entry in schedule.entries:
            for kind, iv in entry.segments:
                rows.append(
                    (resource_id, entry.order_id, entry.step_label, kind, iv.start, iv.end)
                )
    rows.sort(key=lambda r: (r[0], r[4], r[5], r[1], r[2], r[3]))
    return rows


def render_gantt(report: RunReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(GANTT_HEADER)
    writer.writerows(gantt_rows(report))
    return out.getvalue()


def export_gantt(report: RunReport, path: Union[str, Path]) -> None:
    Path(path).write_text(render_gantt(report), encoding="utf-8")


def render_trace(report: RunReport) -> str:
    return "".join(line + "\n" for line in report.trace)


def export_trace(report: RunReport, path: Union[str, Path]) -> None:
    Path(path).write_text(render_trace(report), encoding="utf-8")


def build_metrics(report: RunReport, scenario: Optional[Scenario] = None) -> dict[str, Any]:
    orders = {}
    for order_id, status in sorted(report.status.items()):
        orders[order_id] = {
            "status": status,
            "t_start": report.t_start.get(order_id),
            "t_end": report.t_end.get(order_id),
            "coordination_duration": report.lead_time(order_id),
            "diagnostic": report.diagnostics.get(order_id),
        }
    doc: dict[str, Any] = {
        "format_version": 1,
        "mode": report.mode,
        "orders": orders,
        "messages": {
            "total": report.counter.total(),
            "per_order": report.counter.per_order(),
            "per_variant": report.counter.per_variant(),
        },
        "commits": len(report.commits),
        "leftover_holds": dict(report.leftover_holds),
        "events": report.events,
        "wall_seconds": report.wall_seconds,
    }
    if scenario is not None:
        doc["scenario"] = scenario.name
        doc["t_transport_min_s"] = scenario.t_transport_min
        doc["t_buffer_min_s"] = scenario.params.t_buffer_min
    return doc


def export_metrics(
    report: RunReport, path: Union[str, Path], scenario: Optional[Scenario] = None
) -> None:
    doc = build_metrics(report, scenario=scenario)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# scenario builders for the experiment presets


def _machine(mid, operation, x, y, duration_min, products=("A", "B", "C")) -> dict:
    return {
        "id": mid,
        "operation": operation,
        "location": [x, y],
        "op_duration": {p: duration_min for p in products},
        "setup": {"A": {"B": 15}, "B": {"A": 30}},
        "initial_state": "B",
    }


def _shop_machines() -> list[dict]:
    """The experiment floor: the bundled flow-shop line plus a second forge.

    Forging is the bottleneck once follow-up operations may claim a machine
    back to back, so the sweeps run with two interchangeable forges; every
    other capability keeps its single station (milling already has two).
    """
    return [
        _machine("Cutting", "cutting", 5, 5, 80),
        _machine("Forging1", "forging", 10, 11, 150),
        _machine("Forging2", "forging", 10, 19, 150),
        _machine("Rollforming", "roll-forming", 25, 15, 150),
        _machine("Milling1", "milling", 30, 5, 100),
        _machine("Milling2", "milling", 30, 15, 100),
        _machine("Quality", "quality", 40, 5, 150),
    ]


def _full_coverage_cranes(x_max: float = 60.0) -> list[dict]:
    # both cranes span the whole floor so every CFP gets an answer and round
    # completion is event-driven rather than deadline-driven
    return [
        {"id": crane, "segment": [0.0, x_max], "speed": 5.0, "load": 10, "unload": 10,
         "initial_x": x}
        for crane, x in (("Crane1", 5.0), ("Crane2", min(45.0, x_max)))
    ]


def _buffers(*locations: tuple[float, float]) -> list[dict]:
    return [{"id": f"Buffer{i + 1}", "location": list(xy)} for i, xy in enumerate(locations)]


FLOW_PRODUCTS = {"B": ("cutting", "forging", "roll-forming", "milling", "quality")}

JOB_PRODUCTS = {
    "A": ("milling", "forging", "cutting", "roll-forming", "forging"),
    "B": ("cutting", "quality", "forging", "forging", "quality"),
    "C": ("milling", "forging", "milling", "roll-forming", "milling"),
}


def build_shop_scenario(
    kind: str, n_orders: int, interval_s: float, name: Optional[str] = None
) -> Scenario:
    """``shop_document``'s floor, validated."""
    doc = shop_document(kind, n_orders, interval_s, name)
    return parse_scenario(doc, source=doc["name"])


def shop_document(kind: str, n_orders: int, interval_s: float, name: Optional[str] = None) -> dict:
    """A flow- or job-shop run on the shared seven-machine floor.

    ``interval_s`` is the hosting interval: consecutive orders are released
    that many negotiation-clock units apart.  The floor carries four buffer
    places: with every order available from the start, mid-plan queues grow
    with the order index, and each long wait claims a capacity-one place for
    its whole span.  Two places saturate quickly and orders start aborting
    with no feasible route; four keep the flow line loss-free at fifteen
    orders while the job mix still sheds a few orders under overload.
    """
    products = {"flow": FLOW_PRODUCTS, "job": JOB_PRODUCTS}.get(kind)
    if products is None:
        raise ValueError(f"unknown shop kind {kind!r}")
    return {
        "format_version": FORMAT_VERSION,
        "name": name or f"{kind}-shop-{n_orders}x{interval_s:g}",
        "params": {"t_buffer_min": 15, "cfp_deadline": 5.0, "hold_deadline": 600.0},
        "machines": _shop_machines(),
        "buffers": _buffers((15.0, 15.0), (35.0, 10.0), (20.0, 12.0), (30.0, 12.0)),
        "transports": _full_coverage_cranes(),
        "products": [{"id": pid, "steps": list(steps)} for pid, steps in products.items()],
        "orders": [
            {"id": f"order-{i + 1:02d}", "product": list(products)[i % len(products)],
             "release": round(i * interval_s, 9)}
            for i in range(n_orders)
        ],
    }


def build_scaling_scenario(k: int, n_orders: int = 6, release_gap: float = 5000.0) -> Scenario:
    """``scaling_document``'s floor, validated."""
    return parse_scenario(scaling_document(k, n_orders, release_gap), source=f"scaling-k{k}")


def scaling_document(k: int, n_orders: int = 6, release_gap: float = 5000.0) -> dict:
    """``k`` machines per capability, one three-step product, sequential orders."""
    operations = ["cutting", "forging", "milling"]
    return {
        "format_version": FORMAT_VERSION,
        "name": f"scaling-k{k}",
        "params": {"t_buffer_min": 15},
        "machines": [
            _machine(f"{op}-{i + 1:02d}", op, x=10 * col + 5, y=5 + 5 * i, duration_min=60,
                     products=("P",))
            for col, op in enumerate(operations)
            for i in range(k)
        ],
        "buffers": _buffers((15.0, 15.0), (21.0, 15.0)),
        "transports": _full_coverage_cranes(x_max=40.0),
        "products": [{"id": "P", "steps": operations}],
        "orders": [
            {"id": f"order-{i + 1:02d}", "product": "P", "release": i * release_gap}
            for i in range(n_orders)
        ],
    }


# ---------------------------------------------------------------------------
# experiment presets


def _spacings(values: Sequence[float]) -> list[float]:
    ordered = sorted(values)
    return [b - a for a, b in zip(ordered, ordered[1:])]


def hosting_sweep(
    intervals_ms: Sequence[int] = (75, 150, 300, 600),
    n_orders: int = 15,
    kind: str = "flow",
    message_latency_ms: float = 2.0,
) -> dict[str, Any]:
    """Concurrent-mode sensitivity to the order release ("hosting") interval.

    Reports, per interval, the spacing distributions of order starts and order
    completions plus every completed order's coordination duration
    (t_end - t_start, negotiation-clock seconds).  Orders that abort free
    their resources early, so spacing and duration statistics are computed
    over completed orders only; the per-run status counts make any losses
    visible.

    ``message_latency_ms`` emulates middleware cost per hop.  In-process
    hand-off is otherwise so fast that coordination durations sink below the
    host's timing jitter and the per-order statistics become noise; a couple
    of milliseconds per message restores the regime the interval sweep is
    about, where coordination time is comparable to the hosting interval.
    """
    runs = []
    for interval_ms in intervals_ms:
        scenario = build_shop_scenario(kind, n_orders, interval_ms / 1000.0)
        config = replace(
            kernel_config(scenario, "concurrent"),
            message_latency=message_latency_ms / 1000.0,
        )
        report = run_scenario(scenario, mode="concurrent", config=config)
        done = sorted(oid for oid, st in report.status.items() if st == "done")
        ends = [report.t_end[oid] for oid in done if report.t_end.get(oid) is not None]
        starts = [t for t in report.t_start.values() if t is not None]
        durations = {
            oid: report.lead_time(oid) for oid in done if report.lead_time(oid) is not None
        }
        dt_end = _spacings(ends)
        runs.append(
            {
                "interval_ms": interval_ms,
                "orders": n_orders,
                "all_done": report.all_done,
                "status_counts": dict(Counter(report.status.values())),
                "dt_start_ms": [round(v * 1000, 3) for v in _spacings(starts)],
                "dt_end_ms": [round(v * 1000, 3) for v in dt_end],
                "coordination_ms": {k: round(v * 1000, 3) for k, v in durations.items()},
                "mean_dt_end_ms": round(statistics.fmean(dt_end) * 1000, 3) if dt_end else None,
                "mean_ratio_dt_end": (
                    round(statistics.fmean(dt_end) * 1000 / interval_ms, 4) if dt_end else None
                ),
            }
        )
    return {"preset": "hosting-sweep", "kind": kind, "runs": runs}


def _det3(m: Sequence[Sequence[float]]) -> float:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _quadratic_fit(xs: Sequence[float], ys: Sequence[float]) -> list[float]:
    """Least-squares ``[a, b, c]`` of ``a*x^2 + b*x + c``: Cramer's rule, normal equations."""
    s = [sum(x**p for x in xs) for p in range(5)]
    m = [[s[4 - i - j] for j in range(3)] for i in range(3)]
    rhs = [sum(x ** (2 - i) * y for x, y in zip(xs, ys)) for i in range(3)]
    d = _det3(m)
    return [_det3([row[:j] + [r] + row[j + 1:] for row, r in zip(m, rhs)]) / d for j in range(3)]


def scaling_sweep(
    ks: Sequence[int] = (2, 4, 8, 16, 32), n_orders: int = 6
) -> dict[str, Any]:
    """Deterministic-mode message growth in the number of resources per capability.

    Raises ``RuntimeError`` when any order fails: a failed negotiation's
    messages say nothing about how the protocol scales.
    """
    points = []
    for k in ks:
        scenario = build_scaling_scenario(k, n_orders=n_orders)
        report = run_scenario(scenario, mode="deterministic")
        points.append(
            {
                "k": k,
                "all_done": report.all_done,
                "messages_total": report.counter.total(),
                "messages_per_order": report.counter.total() / n_orders,
            }
        )
    failed = [p["k"] for p in points if not p["all_done"]]
    if failed:
        raise RuntimeError(f"scaling-sweep: orders failed at k={failed}; no fit over such runs")

    xs = [float(p["k"]) for p in points]
    ys = [float(p["messages_per_order"]) for p in points]
    slope, intercept = statistics.linear_regression(xs, ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    mean_y = statistics.fmean(ys)
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot

    quad = _quadratic_fit(xs, ys)
    k_max = xs[-1]
    value_at_max = quad[0] * k_max**2 + quad[1] * k_max + quad[2]
    quad_share = abs(quad[0] * k_max**2) / abs(value_at_max) if value_at_max else 0.0

    return {
        "preset": "scaling-sweep",
        "orders": n_orders,
        "points": points,
        "linear_fit": {
            "slope": slope,
            "intercept": intercept,
            "r2": r2,
            "residual_ss": ss_res,
        },
        "quadratic_fit": {
            "coefficients": quad,
            "share_at_k_max": quad_share,
        },
    }


def shop_compare(
    n_orders: int = 15, interval_ms: int = 300, message_latency_ms: float = 2.0
) -> dict[str, Any]:
    """Flow shop vs job shop: mean coordination duration on matched runs.

    Each kind is one single-interval :func:`hosting_sweep` run, so the two
    share the floor, the hosting interval and the emulated per-hop message
    latency, and the product mix is the only variable. Means are taken over
    the completed orders' rounded durations: aborted orders terminate early
    and would drag the average down without representing a finished
    coordination.
    """
    out: dict[str, Any] = {"preset": "shop-compare", "interval_ms": interval_ms, "orders": n_orders}
    means = {}
    for kind in ("flow", "job"):
        (run,) = hosting_sweep((interval_ms,), n_orders, kind, message_latency_ms)["runs"]
        durations = sorted(run["coordination_ms"].values())
        means[kind] = statistics.fmean(durations) if durations else None
        out[kind] = {
            "all_done": run["all_done"],
            "status_counts": run["status_counts"],
            "coordination_ms": durations,
            "mean_coordination_ms": round(means[kind], 3) if durations else None,
        }
    if None not in means.values():
        out["job_ge_flow"] = means["job"] >= means["flow"]
    return out


PRESETS = {
    "hosting-sweep": hosting_sweep,
    "scaling-sweep": scaling_sweep,
    "shop-compare": shop_compare,
}
