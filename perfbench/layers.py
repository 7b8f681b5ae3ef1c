"""Per-layer attribution from outside the program.

``Tracer.installed()`` wraps the public entry points of each layer in spans
and counters for the duration of a ``with`` block, and puts the originals
back afterwards.  Each thread keeps its own span stack, so a span's self time
excludes the time of the spans it encloses, also under the concurrent
kernel.  Nothing here changes arguments or results: a traced deterministic
run must give the same GANTT and trace as an untraced one.

``ThreadWatch`` is the one hook the untraced runs keep: it sees every thread
start, which is the only moment the thread count can rise.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

from cnetsched import agents, calculus, protocol, runtime, timebase
from cnetsched.protocol import AcceptProposal, Cfp, DeadlineExpired, Message, Proposal

RESOURCE_KINDS = {
    agents.ProductionAgent: "production",
    agents.BufferAgent: "buffer",
    agents.TransportAgent: "transport",
}
WINDOW_FUNCTIONS = (
    "needs_buffering",
    "buffer_windows",
    "transport_to_buffer_windows",
    "transport_from_buffer_windows",
    "transport_direct_windows",
)
HOLDBOOK_METHODS = ("add", "release", "take", "purge", "active_spans")


class ThreadWatch:
    """Counts thread starts and the largest ``threading.active_count()`` after one."""

    def __init__(self) -> None:
        self.started = 0
        self.peak = threading.active_count()
        self._lock = threading.Lock()

    @contextmanager
    def installed(self) -> Iterator["ThreadWatch"]:
        original = threading.Thread.start
        watch = self

        def start(thread, *args, **kwargs):
            original(thread, *args, **kwargs)
            active = threading.active_count()
            with watch._lock:
                watch.started += 1
                watch.peak = max(watch.peak, active)

        threading.Thread.start = start
        try:
            yield self
        finally:
            threading.Thread.start = original


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[float] = []  # child time accumulated per open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.entries_max = 0


class Tracer:
    """Span self times and boundary counts, summed over every thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def count(self, name: str, n: int = 1) -> None:
        self._state().counts[name] += n

    def span(self, name: str, fn: Callable, before: Callable = None, after: Callable = None):
        """Wrap ``fn``; ``before(args)`` and ``after(args, result)`` run outside the span."""

        def wrapper(*args, **kwargs):
            st = self._state()
            if before is not None:
                before(args)
            st.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = st.stack.pop()
                if st.stack:
                    st.stack[-1] += dt
                st.self_s[name] += dt - child
                st.counts[name] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def totals(self) -> tuple[dict[str, float], Counter, int]:
        """Self seconds and counts by name, and the longest calendar seen."""
        self_s: dict[str, float] = defaultdict(float)
        counts: Counter = Counter()
        with self._lock:
            for st in self._states:
                for k, v in st.self_s.items():
                    self_s[k] += v
                counts.update(st.counts)
            entries_max = max((st.entries_max for st in self._states), default=0)
        return self_s, counts, entries_max

    # -- the layer boundaries ---------------------------------------------

    def _patches(self) -> list[tuple[object, str, Callable]]:
        patches = []

        def wrap(owner, attr, name, before=None, after=None):
            patches.append((owner, attr, self.span(name, getattr(owner, attr), before, after)))

        # runtime: the deterministic loop's own work, and the concurrent
        # kernel's posting from agent threads (its main thread only waits)
        wrap(runtime.DeterministicKernel, "run", "runtime.dispatch")
        wrap(runtime.ConcurrentKernel, "_post", "runtime.dispatch")
        for kernel in (runtime.DeterministicKernel, runtime.ConcurrentKernel):
            wrap(kernel, "set_timer", "runtime.set_timer")

        def order_before(args):
            agent, event = args[0], args[1]
            if isinstance(event, DeadlineExpired):
                neg = agent.neg
                live = agent.status not in ("done", "failed") and neg is not None \
                    and neg.deadline_token == event.token
                self.count("protocol.rounds_closed_by_deadline" if live else "runtime.timers_stale")

        wrap(agents.OrderAgent, "handle", "agents.order", before=order_before)
        for cls, kind in RESOURCE_KINDS.items():
            wrap(cls, "handle", f"agents.{kind}",
                 before=self._resource_before(kind), after=self._resource_after(kind))

        wrap(agents, "advance_stage", "protocol.advance_stage")
        for method in HOLDBOOK_METHODS:
            wrap(protocol.HoldBook, method, "protocol.holdbook")

        def routes(args, ocs):
            self.count("selector.routes", sum(len(oc.routes) for oc in ocs))

        wrap(agents, "build_ocs", "selector.build_ocs", after=routes)
        wrap(agents, "select", "selector.select")
        for fn in WINDOW_FUNCTIONS:
            wrap(calculus, fn, "calculus.windows")

        def entries(args, _result):
            st = self._state()
            st.entries_max = max(st.entries_max, len(args[0].entries))

        wrap(timebase.ResourceSchedule, "free_intervals", "timebase.free_intervals")
        wrap(timebase.ResourceSchedule, "entry_at_or_after", "timebase.entry_at_or_after")
        wrap(timebase.ResourceSchedule, "insert_booking", "timebase.insert_booking", after=entries)
        return patches

    def _resource_before(self, kind: str):
        def before(args):
            event = args[1]
            if not isinstance(event, Message):
                return
            for part in event.parts:
                if isinstance(part, AcceptProposal):
                    self.count(f"agents.{kind}.accepted")
                elif kind == "transport" and isinstance(part, Cfp):
                    self.count("agents.transport.cfps")
                    self.count("agents.transport.legs", len(part.legs))
        return before

    def _resource_after(self, kind: str):
        def after(_args, out):
            n = sum(1 for msg in out for part in msg.parts if isinstance(part, Proposal))
            self.count(f"agents.{kind}.proposals", n)
        return after

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        patches = self._patches()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)
