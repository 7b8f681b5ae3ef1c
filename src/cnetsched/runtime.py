"""Event kernels that drive the agents: deterministic replay and a wall clock.

The same agent objects run under either kernel, fed from one event heap that
the caller's thread pops, one event at a time. The deterministic kernel pops
it over a logical tick clock — equal inputs give byte-identical traces. The
concurrent kernel pops it on the monotonic wall clock, sleeping until the
head falls due, which the order-release (hosting interval) experiments
measure: many orders negotiate at once, interleaved by when their messages
and deadlines fall due.
"""

from __future__ import annotations

import heapq
import logging
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from .agents import OrderAgent, StartOrder
from .protocol import DeadlineExpired, Message, MessageCounter

log = logging.getLogger(__name__)


class RunTimeout(RuntimeError):
    """The deterministic kernel popped more than ``max_events`` events."""


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
    #: resource id -> offers still in its hold book when the run ends
    leftover_holds: dict[str, int] = field(default_factory=dict)

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
    """What an agent may ask of the kernel while handling an event; one per agent."""

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


class _Kernel:
    """What both kernels share: one event heap, message counts, trace and commit log.

    Every delivery — a message, a round deadline, an order release — is one
    heap entry ``(at, seq, receiver, event)``; the kernels differ only in
    their clock and in when they stop popping it.
    """

    mode: str
    _hop: float = 1  # delay between sending a message and its delivery

    def __init__(
        self,
        directory,
        agents: dict[str, object],
        releases: list[tuple[float, str]],
        config: Optional[KernelConfig] = None,
    ):
        unknown = sorted({oid for _, oid in releases} - agents.keys())
        if unknown:
            raise ValueError(f"releases for unknown agents {unknown}")
        self.directory = directory
        self.agents = agents
        self._ctx = {aid: _Ctx(self, aid) for aid in agents}
        self.config = config or KernelConfig()
        self.counter = MessageCounter()
        self.trace: list[str] = []
        self.commits: list[CommitRecord] = []
        self._heap: list[tuple[float, int, str, Event]] = []
        self._seq = 0
        for release, order_id in sorted(releases):
            self._schedule(release, order_id, StartOrder(order_id))

    def _schedule(self, at, receiver: str, event: Event) -> None:
        """Deliver ``event`` to ``receiver`` at clock time ``at``."""
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, receiver, event))

    def set_timer(self, agent_id: str, delay) -> int:
        self._seq += 1
        token = self._seq
        self._schedule(self.now() + delay, agent_id, DeadlineExpired(token))
        return token

    def _line(self, t, kind: str, sender: str, receiver: str, detail: str) -> None:
        self.trace.append(f"{self._stamp(t)} {sender}>{receiver} {kind}{detail}")

    def _post(self, msg: Message) -> None:
        if msg.receiver not in self.agents:
            log.error("message to unknown agent %s dropped", msg.receiver)
            return
        now = self.now()
        self.counter.count(msg)
        self._line(now, msg.variant, msg.sender, msg.receiver,
                   f" n={len(msg.parts)} {msg.conversation_id}")
        self._schedule(now + self._hop, msg.receiver, msg)

    def _dispatch(self, receiver: str, event: Event) -> None:
        kind = _KERNEL_LINES.get(type(event))
        if kind is not None:
            self._line(self.now(), kind, "kernel", receiver, "")
        for msg in self.agents[receiver].handle(event, self._ctx[receiver]):
            self._post(msg)

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

    def _report(self, wall: float) -> RunReport:
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
            events=len(self.trace),
            wall_seconds=wall,
            agents=self.agents,
            leftover_holds={
                aid: len(agent.holds)
                for aid, agent in self.agents.items()
                if hasattr(agent, "holds")
            },
        )


class DeterministicKernel(_Kernel):
    """Single-threaded replayable event loop over a logical tick clock.

    Message delivery costs one tick; timers jump the clock forward for free,
    so protocol deadlines are cheap in logical time.
    """

    mode = "deterministic"
    _now: float = 0

    def now(self):
        return self._now

    @staticmethod
    def _stamp(t) -> str:
        return f"{int(t):08d}"

    def run(self) -> RunReport:
        t0 = time.perf_counter()
        heap, cap, popped = self._heap, self.config.max_events, 0
        while heap:
            popped += 1
            if popped > cap:
                raise RunTimeout(f"event cap {cap} exceeded")
            self._now, _seq, receiver, event = heapq.heappop(heap)
            self._dispatch(receiver, event)
        return self._report(time.perf_counter() - t0)


class ConcurrentKernel(_Kernel):
    """Actor kernel on the monotonic clock, run on the caller's thread.

    ``run()`` pops the heap in ``(at, seq)`` order, sleeping until the head
    falls due, and runs the receiver's handler to completion before the next
    event: an agent's handlers never overlap and see its events in heap
    order, and a run starts no thread whatever the floor's size and however
    many deadlines are armed. Order releases are heap entries at their
    configured wall-clock offsets — the hosting-interval experiments feed on
    this — and ``config.message_latency`` is the per-hop delivery delay.
    The run stops at one heap cutoff, the newest entry that may still land.
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
        self._hop = self.config.message_latency
        self._last_release = max((at for at, _ in releases), default=0.0)
        self._t0 = 0.0
        self._open = {aid for aid, agent in agents.items() if isinstance(agent, OrderAgent)}

    def now(self) -> float:
        return time.monotonic() - self._t0

    @staticmethod
    def _stamp(t) -> str:
        return f"{t:012.6f}"

    def run(self) -> RunReport:
        """Deliver every event as it falls due until the run stops and the heap is empty.

        The run stops once every order has finished or the wall limit has
        passed. From then on ``last`` is the newest heap entry that may still
        land, and pending deadlines and releases are dropped unseen. Once
        every order has finished it is unbounded: the last order's final
        accepts and departures reach their calendars, and the rejects it
        sends for late proposals free the holds they answer. At the wall
        limit it is the newest entry already queued, so only the messages in
        flight land and open negotiations cannot go on. A handler runs to
        completion: one that overruns the wall limit ends the run when it
        returns, and one that never returns holds it, as under the
        deterministic kernel. An agent's exception propagates from here.
        """
        t_wall = time.perf_counter()
        limit = self.config.wall_limit
        if limit is None:
            # generous safety net: every stage can burn a full CFP deadline
            stages = 20 * max(1, len(self._open))
            limit = self._last_release + 60.0 + stages * self.config.cfp_deadline
        heap, agents, open_orders = self._heap, self.agents, self._open
        last = None  # the run is open
        self._t0 = time.monotonic()
        while True:
            now = self.now()
            if last is None and (not open_orders or now >= limit):
                if open_orders:
                    log.error("concurrent run hit the wall limit of %.1fs", limit)
                last = self._seq if open_orders else float("inf")
            if last is not None and heap and (
                heap[0][1] > last or not isinstance(heap[0][3], Message)
            ):
                heapq.heappop(heap)
            elif heap and heap[0][0] <= now:
                _at, _seq, receiver, event = heapq.heappop(heap)
                self._dispatch(receiver, event)
                if receiver in open_orders and agents[receiver].status in ("done", "failed"):
                    open_orders.discard(receiver)
            elif last is not None and not heap:
                break
            else:
                due = heap[0][0] if heap else limit
                time.sleep((due if last is not None else min(due, limit)) - now)
        return self._report(time.perf_counter() - t_wall)


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
