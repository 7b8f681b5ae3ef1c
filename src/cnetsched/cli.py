"""Command-line surface: ``run``, ``experiment``, ``validate``.

Exit codes: 0 every order finished, 2 some order failed, 1 usage or load
error (bad scenario, unknown preset, I/O trouble).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .harness import MODE_NAMES, PRESETS, export_gantt, export_metrics, export_trace, run_scenario
from .runtime import RunTimeout
from .scenario import ValidationError, load_scenario
from .timebase import hhmm

log = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnetsched",
        description="Decentralized integrated production/transport/buffer scheduling.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="negotiate all orders of a scenario")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--mode", choices=("det", "conc"), default="det",
                       help="deterministic tick clock or concurrent wall clock (default: det)")
    run_p.add_argument("--gantt", metavar="PATH", help="write booking segments as CSV")
    run_p.add_argument("--metrics", metavar="PATH", help="write run metrics as JSON")
    run_p.add_argument("--trace", metavar="PATH", help="write the message trace")

    exp_p = sub.add_parser("experiment", help="run a canned experiment preset")
    exp_p.add_argument("preset", choices=sorted(PRESETS))
    exp_p.add_argument("--orders", type=int, default=None, help="override the order count")
    exp_p.add_argument("--out", metavar="PATH", help="also write the result JSON to a file")

    val_p = sub.add_parser("validate", help="check a scenario file and print its summary")
    val_p.add_argument("scenario", help="path to a scenario JSON file")
    return parser


def _os_error(verb: str, path: str, exc: OSError) -> int:
    """Report I/O trouble as one line; the exit code is 1."""
    print(f"error: cannot {verb} {path}: {exc.strerror or exc}", file=sys.stderr)
    return 1


def _load(path: str) -> "object | None":
    try:
        return load_scenario(path)
    except OSError as exc:  # missing, a directory, unreadable
        _os_error("read", path, exc)
    except ValidationError as exc:
        print(f"error: {path} is not a valid scenario:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  {problem}", file=sys.stderr)
    return None


def _print_header(scenario) -> None:
    print(f"scenario {scenario.name}: "
          f"{len(scenario.machines)} machines, {len(scenario.buffers)} buffers, "
          f"{len(scenario.transports)} transports, {len(scenario.orders)} orders")
    print(f"T_T,min = {scenario.t_transport_min // 60} min, "
          f"T_B,min = {scenario.params.t_buffer_min // 60} min")


def _cmd_run(args) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 1
    _print_header(scenario)
    mode = MODE_NAMES[args.mode]
    try:
        report = run_scenario(scenario, mode=mode)
    except RunTimeout as exc:
        print(f"error: run aborted: {exc}", file=sys.stderr)
        return 1

    for order_id in sorted(report.status):
        status = report.status[order_id]
        line = f"{order_id}: {status}"
        agent = report.agents.get(order_id)
        if status == "done" and agent is not None and agent.committed:
            last = agent.committed[-1]
            line += f" (completes {hhmm(last.op_slot.end)} on {last.resource_id})"
        elif report.diagnostics.get(order_id):
            line += f" ({report.diagnostics[order_id]})"
        print(line)
    print(f"messages: {report.counter.total()}, events: {report.events}, "
          f"wall: {report.wall_seconds:.3f}s")

    try:
        if args.gantt:
            export_gantt(report, args.gantt)
            print(f"gantt -> {args.gantt}")
        if args.metrics:
            export_metrics(report, args.metrics, scenario=scenario)
            print(f"metrics -> {args.metrics}")
        if args.trace:
            export_trace(report, args.trace)
            print(f"trace -> {args.trace}")
    except OSError as exc:
        return _os_error("write", exc.filename, exc)

    if report.all_done:
        return 0
    return 2


def _cmd_experiment(args) -> int:
    preset = PRESETS[args.preset]
    kwargs = {}
    if args.orders is not None:
        kwargs["n_orders"] = args.orders
    try:
        result = preset(**kwargs)
    except RuntimeError as exc:  # a preset that refuses to summarise failed orders
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            return _os_error("write", args.out, exc)
        print(f"result -> {args.out}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 1
    _print_header(scenario)
    print("OK")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        return _cmd_validate(args)
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
