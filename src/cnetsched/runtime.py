"""Event kernels that drive the agents: deterministic replay and free threads.

The same agent objects run under either kernel. The deterministic kernel is a
single-threaded discrete-event loop over a logical tick clock — equal inputs
give byte-identical traces. The concurrent kernel gives every agent its own
thread and mailbox and uses the monotonic wall clock, which is what the
order-release (hosting interval) experiments measure against.
"""

from __future__ import annotations

import heapq
import logging
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from .agents import OrderAgent, StartOrder
from .protocol import DeadlineExpired, Message, MessageCounter

log = logging.getLogger(__name__)

_STOP = object()


class RunTimeout(RuntimeError):
    """The concurrent kernel hit its wall-clock safety limit before all orders finished."""


@dataclass(frozen=True)
class KernelConfig:
    """Timing knobs, in the kernel's own clock units (ticks or seconds)."""

    cfp_deadline: float = 60
    hold_deadline: float = 100_000
    max_events: int = 2_000_000
    wall_limit: Optional[float] = None
    # concurrent only: wall-clock delay between sending and delivering a
    # message, emulating middleware/network cost; the deterministic kernel
    # already charges one tick per hop and ignores this
    message_latency: float = 0.0

    @classmethod
    def deterministic(cls, **kw) -> "KernelConfig":
        return cls(**kw)

    @classmethod
    def concurrent(
        cls, cfp_deadline: float = 0.25, hold_deadline: float = 120.0, **kw
    ) -> "KernelConfig":
        return cls(cfp_deadline=cfp_deadline, hold_deadline=hold_deadline, **kw)


@dataclass(frozen=True)
class CommitRecord:
    """One booking as it became binding, in commit order."""

    at: float
    resource_id: str
    order_id: str
    step_label: str
    start: int
    end: int


@dataclass
class RunReport:
    mode: str
    status: dict[str, str]
    t_start: dict[str, Optional[float]]
    t_end: dict[str, Optional[float]]
    diagnostics: dict[str, Optional[str]]
    commits: list[CommitRecord]
    counter: MessageCounter
    trace: list[str]
    events: int
    wall_seconds: float
    agents: dict[str, object] = field(default_factory=dict)

    @property
    def all_done(self) -> bool:
        return all(s == "done" for s in self.status.values())

    def lead_time(self, order_id: str) -> Optional[float]:
        a, b = self.t_start.get(order_id), self.t_end.get(order_id)
        return None if a is None or b is None else b - a

    def schedules(self) -> dict[str, object]:
        return {
            aid: agent.schedule
            for aid, agent in self.agents.items()
            if hasattr(agent, "schedule")
        }


Event = Union[Message, StartOrder, DeadlineExpired]

#: trace line kind of each event the kernel itself injects (docs/formats.md)
_KERNEL_LINES = {StartOrder: "StartOrder", DeadlineExpired: "Deadline"}


class _Ctx:
    """What an agent may ask of the kernel while handling one event."""

    __slots__ = ("kernel", "agent_id")

    def __init__(self, kernel, agent_id: str):
        self.kernel = kernel
        self.agent_id = agent_id

    @property
    def directory(self):
        return self.kernel.directory

    @property
    def cfp_deadline(self):
        return self.kernel.config.cfp_deadline

    @property
    def hold_deadline(self):
        return self.kernel.config.hold_deadline

    def now(self):
        return self.kernel.now()

    def set_timer(self, delay) -> int:
        return self.kernel.set_timer(self.agent_id, delay)

    def record_commit(self, resource_id: str, entry) -> None:
        self.kernel.record_commit(resource_id, entry)


def _trace_line(t, kind: str, sender: str, receiver: str, detail: str) -> str:
    if isinstance(t, float):
        stamp = f"{t:012.6f}"
    else:
        stamp = f"{t:08d}"
    return f"{stamp} {sender}>{receiver} {kind}{detail}"


class _Kernel:
    """What both kernels keep: the run's inputs, message counts, trace and commit log."""

    mode: str

    def __init__(
        self,
        directory,
        agents: dict[str, object],
        releases: list[tuple[float, str]],
        config: KernelConfig,
    ):
        self.directory = directory
        self.agents = agents
        self.config = config
        self._releases = sorted(releases)
        self.counter = MessageCounter()
        self.trace: list[str] = []
        self.commits: list[CommitRecord] = []

    def record_commit(self, resource_id: str, entry) -> None:
        # the booked *core* is what stability protects: leading setup/travel may
        # be reshaped by later insertions, and open tails grow a load segment
        self.commits.append(
            CommitRecord(
                at=self.now(),
                resource_id=resource_id,
                order_id=entry.order_id,
                step_label=entry.step_label,
                start=entry.core_start,
                end=entry.operation_end,
            )
        )

    def _report(self, events: int, wall: float) -> RunReport:
        status, t_start, t_end, diag = {}, {}, {}, {}
        for aid, agent in self.agents.items():
            if isinstance(agent, OrderAgent):
                status[aid] = agent.status if agent.status in ("done", "failed") else "stuck"
                t_start[aid] = agent.t_start
                t_end[aid] = agent.t_end
                diag[aid] = agent.diagnostic
        return RunReport(
            mode=self.mode,
            status=status,
            t_start=t_start,
            t_end=t_end,
            diagnostics=diag,
            commits=list(self.commits),
            counter=self.counter,
            trace=list(self.trace),
            events=events,
            wall_seconds=wall,
            agents=self.agents,
        )


class DeterministicKernel(_Kernel):
    """Single-threaded replayable event loop over a logical tick clock.

    Message delivery costs one tick; timers jump the clock forward for free,
    so protocol deadlines are cheap in logical time.
    """

    mode = "deterministic"

    def __init__(
        self,
        directory,
        agents: dict[str, object],
        releases: list[tuple[float, str]],
        config: Optional[KernelConfig] = None,
    ):
        super().__init__(directory, agents, releases, config or KernelConfig.deterministic())
        self._queue: list[tuple[float, int, str, Event]] = []
        self._seq = 0
        self._now: float = 0

    def now(self):
        return self._now

    def set_timer(self, agent_id: str, delay) -> int:
        self._seq += 1
        token = self._seq
        heapq.heappush(
            self._queue, (self._now + delay, self._next_seq(), agent_id, DeadlineExpired(token))
        )
        return token

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _post(self, msg: Message) -> None:
        if msg.receiver not in self.agents:
            log.error("message to unknown agent %s dropped", msg.receiver)
            return
        self.counter.count(msg)
        self.trace.append(
            _trace_line(
                int(self._now),
                msg.variant,
                msg.sender,
                msg.receiver,
                f" n={len(msg.parts)} {msg.conversation_id}",
            )
        )
        heapq.heappush(self._queue, (self._now + 1, self._next_seq(), msg.receiver, msg))

    def run(self) -> RunReport:
        t0 = time.perf_counter()
        for release, order_id in self._releases:
            heapq.heappush(
                self._queue, (release, self._next_seq(), order_id, StartOrder(order_id))
            )
        events = 0
        while self._queue:
            events += 1
            if events > self.config.max_events:
                raise RunTimeout(f"event cap {self.config.max_events} exceeded")
            t, _seq, receiver, event = heapq.heappop(self._queue)
            self._now = t
            agent = self.agents.get(receiver)
            if agent is None:
                continue
            kind = _KERNEL_LINES.get(type(event))
            if kind is not None:
                self.trace.append(_trace_line(int(t), kind, "kernel", receiver, ""))
            ctx = _Ctx(self, receiver)
            for msg in agent.handle(event, ctx):
                self._post(msg)
        wall = time.perf_counter() - t0
        return self._report(events, wall)


class ConcurrentKernel(_Kernel):
    """Thread-per-agent kernel on the monotonic clock.

    Each agent owns a mailbox thread, so its handlers stay single-threaded;
    only the kernel bookkeeping (counter, trace, commit log) is locked.
    Order releases are injected by a separate thread at their configured
    wall-clock offsets — the hosting-interval experiments feed on this.
    """

    mode = "concurrent"

    def __init__(
        self,
        directory,
        agents: dict[str, object],
        releases: list[tuple[float, str]],
        config: Optional[KernelConfig] = None,
    ):
        super().__init__(directory, agents, releases, config or KernelConfig.concurrent())
        self._queues: dict[str, queue.Queue] = {aid: queue.Queue() for aid in agents}
        self._lock = threading.Lock()
        self._timers: set[threading.Timer] = set()
        self._token_lock = threading.Lock()
        self._token = 0
        self._t0 = 0.0
        self._stop = threading.Event()
        self._all_finished = threading.Event()
        self._finished: set[str] = set()
        self._order_ids = {
            aid for aid, agent in agents.items() if isinstance(agent, OrderAgent)
        }
        self._events = 0

    def now(self) -> float:
        return time.monotonic() - self._t0

    def set_timer(self, agent_id: str, delay) -> int:
        with self._token_lock:
            self._token += 1
            token = self._token
        timer = threading.Timer(
            max(0.0, float(delay)), self._fire_timer, args=(agent_id, token)
        )
        timer.daemon = True
        with self._lock:
            self._timers.add(timer)
        timer.start()
        return token

    def _fire_timer(self, agent_id: str, token: int) -> None:
        if self._stop.is_set():
            return
        self._deliver(agent_id, DeadlineExpired(token))

    def record_commit(self, resource_id: str, entry) -> None:
        with self._lock:
            super().record_commit(resource_id, entry)

    def _deliver(self, agent_id: str, event: Event, delay: float = 0.0) -> None:
        q = self._queues.get(agent_id)
        if q is None:
            log.error("event to unknown agent %s dropped", agent_id)
            return
        q.put((time.monotonic() + delay, event))

    def _post(self, msg: Message) -> None:
        with self._lock:
            self.counter.count(msg)
            self.trace.append(
                _trace_line(
                    self.now(),
                    msg.variant,
                    msg.sender,
                    msg.receiver,
                    f" n={len(msg.parts)} {msg.conversation_id}",
                )
            )
            self._events += 1
        self._deliver(msg.receiver, msg, delay=self.config.message_latency)

    def _agent_loop(self, agent_id: str, agent) -> None:
        ctx = _Ctx(self, agent_id)
        q = self._queues[agent_id]
        while True:
            visible_at, event = q.get()
            if event is _STOP:
                return
            wait = visible_at - time.monotonic()
            if wait > 0:
                # only messages wait: a uniform per-hop latency keeps each
                # mailbox FIFO, so waiting for this one never delays an
                # earlier one. Teardown does not cut the wait short: the last
                # order's final accepts and departures are still in flight
                # when it finishes, and the calendars must receive them.
                time.sleep(wait)
            kind = _KERNEL_LINES.get(type(event))
            if kind is not None:
                with self._lock:
                    self.trace.append(_trace_line(self.now(), kind, "kernel", agent_id, ""))
                    self._events += 1
            try:
                out = agent.handle(event, ctx)
            except Exception:  # noqa: BLE001 - one bad event must not kill the thread
                log.exception("agent %s crashed on %r", agent_id, event)
                out = []
            for msg in out:
                self._post(msg)
            if (
                agent_id in self._order_ids
                and agent.status in ("done", "failed")
                and agent_id not in self._finished
            ):
                with self._lock:
                    self._finished.add(agent_id)
                    done = len(self._finished) == len(self._order_ids)
                if done:
                    self._all_finished.set()

    def _injector(self) -> None:
        for release, order_id in self._releases:
            wait = self._t0 + release - time.monotonic()
            if wait > 0 and self._stop.wait(wait):
                return
            if self._stop.is_set():
                return
            self._deliver(order_id, StartOrder(order_id))

    def run(self) -> RunReport:
        t_wall = time.perf_counter()
        self._t0 = time.monotonic()
        threads = [
            threading.Thread(
                target=self._agent_loop, args=(aid, agent), name=f"agent-{aid}", daemon=True
            )
            for aid, agent in self.agents.items()
        ]
        for t in threads:
            t.start()
        injector = threading.Thread(target=self._injector, name="order-release", daemon=True)
        injector.start()

        last_release = self._releases[-1][0] if self._releases else 0.0
        limit = self.config.wall_limit
        if limit is None:
            # generous safety net: every stage can burn a full CFP deadline
            limit = last_release + 60.0 + 20 * self.config.cfp_deadline * max(
                1, len(self._order_ids)
            )
        finished = self._all_finished.wait(timeout=limit)
        self._stop.set()
        with self._lock:
            for timer in self._timers:
                timer.cancel()
            self._timers.clear()
        for aid in self._queues:
            self._queues[aid].put((0.0, _STOP))
        injector.join(timeout=5)
        for t in threads:
            t.join(timeout=5)
        wall = time.perf_counter() - t_wall
        if not finished:
            log.error("concurrent run hit the wall limit of %.1fs", limit)
        with self._lock:
            return self._report(self._events, wall)


def run_kernel(
    mode: str,
    directory,
    agents: dict[str, object],
    releases: list[tuple[float, str]],
    config: Optional[KernelConfig] = None,
) -> RunReport:
    """Run one scheduling session under the named kernel ("deterministic"/"concurrent")."""
    if mode == "deterministic":
        kernel = DeterministicKernel(directory, agents, releases, config)
    elif mode == "concurrent":
        kernel = ConcurrentKernel(directory, agents, releases, config)
    else:
        raise ValueError(f"unknown kernel mode {mode!r}")
    return kernel.run()
