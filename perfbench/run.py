"""Benchmark of the contract-net scheduler, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload flow-line --seed 0 --seconds 30 --trace 0

Each pass turns the seeded scenario document into a runtime bundle
(``parse_scenario`` -> ``build_runtime``), runs it with ``run_kernel`` and
checks the result with ``check.py``.  Passes repeat until ``--seconds`` have
gone by.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends
half the time untraced and half traced and prints the per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import speed
import workloads

# share of a run spent timing set-ups; at least one set-up is timed per pass
SETUP_SHARE = 0.05
# set-ups are timed in chunks of this length, each followed by a calibration
# of the same length, so that the correction follows the machine's speed
SETUP_CHUNK_S = 0.01
# the machine's speed is measured on each side of a pass for this share of
# the pass's length, and for at least CALIBRATION_MIN_S
CALIBRATION_SHARE = 0.05
CALIBRATION_MIN_S = 0.02


@dataclass
class Pass:
    orders: int
    done: int
    seconds: float
    messages: int
    events: int
    trace_lines: int
    makespan: int
    lead_times: list
    release_lags: list
    peak_threads: int
    threads_started: int
    digest: str
    problems: list
    slowdown: float = 1.0  # speed.scale() around this pass

    @property
    def orders_per_s(self) -> float:
        return self.done / self.seconds


def _use_checkout_src() -> bool:
    """Put the checkout's ``src`` first on the import path, if it is there."""
    src = Path.cwd() / "src"
    if not (src / "cnetsched" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def time_setup(doc: dict) -> tuple[float, float]:
    """Seconds to parse and validate the document, then to build the runtime bundle."""
    from cnetsched.scenario import build_runtime, parse_scenario

    t0 = time.perf_counter()
    scenario = parse_scenario(doc)
    t1 = time.perf_counter()
    build_runtime(scenario)
    return t1 - t0, time.perf_counter() - t1


def time_setup_chunk(doc: dict) -> list[tuple[float, float]]:
    """Raw set-up timings for about ``SETUP_CHUNK_S``, at least one."""
    samples = []
    t_end = time.perf_counter() + SETUP_CHUNK_S
    while not samples or time.perf_counter() < t_end:
        samples.append(time_setup(doc))
    return samples


def run_pass(workload) -> Pass:
    from cnetsched.harness import kernel_config, render_gantt
    from cnetsched.runtime import run_kernel
    from cnetsched.scenario import build_runtime, parse_scenario
    from layers import ThreadWatch

    scenario = parse_scenario(workload.doc)
    bundle = build_runtime(scenario)
    config = kernel_config(scenario, workload.mode)
    gc.collect()
    watch = ThreadWatch()
    with watch.installed():
        t0 = time.perf_counter()
        report = run_kernel(
            workload.mode, bundle.directory, bundle.agents, bundle.releases, config
        )
        seconds = time.perf_counter() - t0

    gantt = render_gantt(report)
    rows = check.parse_gantt(gantt)
    messages = report.counter.total()
    done = [oid for oid, st in report.status.items() if st == "done"]
    return Pass(
        orders=len(report.status),
        done=len(done),
        seconds=seconds,
        messages=messages,
        events=report.events,
        trace_lines=len(report.trace),
        makespan=check.makespan(rows),
        lead_times=[report.lead_time(oid) for oid in done],
        release_lags=[report.t_start[oid] - due for due, oid in bundle.releases
                      if report.t_start.get(oid) is not None],
        peak_threads=watch.peak,
        threads_started=watch.started,
        digest=check.digest(gantt, report.trace),
        problems=check.check_run(workload.doc, rows, report.status, report.commits,
                                 report.trace, messages),
    )


def run_passes(workload, seconds: float, min_passes: int, setups=None) -> list[Pass]:
    """Whole passes until ``seconds`` are up.

    The machine's speed is measured before and after every pass.  With a
    ``setups`` list, set-ups are timed between the passes, so that they sample
    the whole run rather than one moment of it: each gap tops the set-up
    timing up to ``SETUP_SHARE`` of the time gone by.  Set-ups alternate with
    calibrations in chunks of ``SETUP_CHUNK_S``, and a chunk's samples are
    stored as reference-machine seconds by the mean slowdown on its two
    sides: with one calibration per gap, the median set-up of hosting runs
    spread by 17 % over five seeds, with chunks by 3-5 %.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    setup_spent = 0.0
    before = speed.scale(CALIBRATION_MIN_S)
    while len(passes) < min_passes or time.perf_counter() < start + seconds:
        left = before
        while setups is not None:
            chunk = time_setup_chunk(workload.doc)
            right = speed.scale(SETUP_CHUNK_S)
            slowdown = (left + right) / 2
            setups.extend((parse / slowdown, build / slowdown) for parse, build in chunk)
            setup_spent += sum(parse + build for parse, build in chunk)
            left = right
            if setup_spent >= SETUP_SHARE * (time.perf_counter() - start):
                break
        p = run_pass(workload)
        after = speed.scale(max(CALIBRATION_MIN_S, CALIBRATION_SHARE * p.seconds))
        p.slowdown = (before + after) / 2
        before = after
        passes.append(p)
    return passes


def orders_per_s(workload, p: Pass) -> float:
    """A deterministic run is all computation, so it is put on the reference
    machine; a concurrent run's length is set by its release schedule."""
    return p.orders_per_s * (p.slowdown if workload.mode == "deterministic" else 1.0)


def end_to_end(workload, passes: list[Pass], setups: list[tuple[float, float]]) -> dict:
    med = statistics.median
    return {
        "orders_per_s": (med(orders_per_s(workload, p) for p in passes), "orders/s"),
        "setup_s": (med(parse + build for parse, build in setups), "s"),
        "messages_per_order": (med(p.messages / p.orders for p in passes), "msgs/order"),
        "makespan_s": (med(p.makespan for p in passes), "s"),
        "coordination_p50": (med(t for p in passes for t in p.lead_times), "neg-clock"),
        "peak_threads": (med(p.peak_threads for p in passes), "threads"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, traced: list[Pass], untraced: list[Pass], tracer,
              setups: list[tuple[float, float]]) -> dict:
    self_s, counts, entries_max = tracer.totals()
    done = sum(p.done for p in traced)

    def per_order(x):
        return x / done

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "runtime.events": (per_order(sum(p.events for p in traced)), "events/order"),
        "runtime.dispatch_self_s": (per_order(self_s["runtime.dispatch"]), "s/order"),
        "runtime.trace_lines": (per_order(sum(p.trace_lines for p in traced)), "lines/order"),
        "runtime.timers_armed": (per_order(counts["runtime.set_timer"]), "timers/order"),
        "runtime.timers_stale": (per_order(counts["runtime.timers_stale"]), "timers/order"),
        "runtime.threads_started": (per_order(sum(p.threads_started for p in traced)),
                                    "threads/order"),
        "runtime.release_lag_s": (statistics.median(t for p in traced for t in p.release_lags),
                                  "neg-clock"),
        "scenario.parse_s": (statistics.median(parse for parse, _ in setups), "s"),
        "scenario.build_runtime_s": (statistics.median(build for _, build in setups), "s"),
    }
    for kind in ("order", "production", "buffer", "transport"):
        out[f"agents.{kind}.self_s"] = (per_order(self_s[f"agents.{kind}"]), "s/order")
        out[f"agents.{kind}.calls"] = (per_order(counts[f"agents.{kind}"]), "calls/order")
    for kind in ("production", "buffer", "transport"):
        offered = counts[f"agents.{kind}.proposals"]
        out[f"agents.{kind}.proposals"] = (per_order(offered), "proposals/order")
        out[f"agents.{kind}.accept_ratio"] = (ratio(counts[f"agents.{kind}.accepted"], offered),
                                              "ratio")
    out["agents.transport.legs_per_cfp"] = (
        ratio(counts["agents.transport.legs"], counts["agents.transport.cfps"]), "legs/cfp")
    out.update({
        "protocol.advance_stage.self_s": (per_order(self_s["protocol.advance_stage"]), "s/order"),
        "protocol.rounds_closed_by_deadline": (
            per_order(counts["protocol.rounds_closed_by_deadline"]), "rounds/order"),
        "protocol.holdbook_s": (per_order(self_s["protocol.holdbook"]), "s/order"),
        "selector.build_ocs_s": (per_order(self_s["selector.build_ocs"]), "s/order"),
        "selector.select_s": (per_order(self_s["selector.select"]), "s/order"),
        "selector.routes_per_stage": (
            ratio(counts["selector.routes"], counts["selector.build_ocs"]), "routes/stage"),
        "calculus.windows_s": (per_order(self_s["calculus.windows"]), "s/order"),
        "calculus.calls": (per_order(counts["calculus.windows"]), "calls/order"),
    })
    for fn in ("free_intervals", "entry_at_or_after", "insert_booking"):
        out[f"timebase.{fn}_s"] = (per_order(self_s[f"timebase.{fn}"]), "s/order")
    for fn in ("free_intervals", "entry_at_or_after"):
        out[f"timebase.{fn}.calls"] = (per_order(counts[f"timebase.{fn}"]), "calls/order")
    out["timebase.calendar_entries_max"] = (entries_max, "entries")
    untraced_rate = statistics.median(orders_per_s(workload, p) for p in untraced)
    traced_rate = statistics.median(orders_per_s(workload, p) for p in traced)
    out["trace.overhead"] = (untraced_rate / traced_rate - 1, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _use_checkout_src():
        print("perfbench: src/cnetsched not found; run from the repository root",
              file=sys.stderr)
        return 2
    from layers import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    # a deterministic run is checked against its repeat, so it needs two passes
    min_passes = 2 if workload.mode == "deterministic" else 1

    setups: list[tuple[float, float]] = []
    if args.trace:
        untraced = run_passes(workload, args.seconds / 2, min_passes, setups)
        tracer = Tracer()
        with tracer.installed():
            traced = run_passes(workload, args.seconds / 2, 1)
        passes = untraced + traced
        metrics = per_layer(workload, traced, untraced, tracer, setups)
    else:
        passes = run_passes(workload, args.seconds, min_passes, setups)
        metrics = end_to_end(workload, passes, setups)

    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p.problems]
    if workload.mode == "deterministic" and len({p.digest for p in passes}) != 1:
        problems.append("deterministic passes disagree on their GANTT or trace")
    for msg in problems[:20]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)

    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"orders/pass={passes[0].orders} trace={args.trace} "
          f"raw orders/s={statistics.median(p.orders_per_s for p in passes):.6g} "
          f"slowdown={statistics.median(p.slowdown for p in passes):.4g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": sum(p.orders for p in passes),
        "failed": sum(p.orders - p.done for p in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
