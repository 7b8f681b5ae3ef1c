"""Event kernels that drive the agents: deterministic replay and a wall clock.

The same agent objects run under either kernel, fed one event at a time on
the caller's thread from two queues: envelopes wait in a FIFO, round
deadlines and order releases in a heap, and the earlier head by ``(at,
seq)`` goes first. The deterministic kernel delivers over a logical tick
clock — equal inputs give byte-identical traces. The concurrent kernel
delivers on the monotonic wall clock, sleeping until the next event falls
due, which the order-release (hosting interval) experiments measure: many
orders negotiate at once, interleaved by when their messages and deadlines
fall due. Either kernel is itself the context its handlers are given
(:class:`_Kernel`).
"""

from __future__ import annotations

import heapq
import logging
import time
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

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


class CommitRecord(NamedTuple):
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


class _Kernel:
    """What both kernels share: the event queues, message counts, trace and commit log.

    Every delivery — a message, a round deadline, an order release — is one
    entry ``(at, seq, receiver, event)``, numbered in the order it is made,
    and the run delivers them in ``(at, seq)`` order. Envelopes go into a
    FIFO, deadlines and releases into a heap. A FIFO is enough because
    posting order is delivery order: the clock never runs backwards (no
    deadline is armed in the past), every envelope is due one constant hop
    after it was posted, and ``seq`` only grows, so each envelope sorts
    after every one posted before it. Delivery takes whichever head is
    earlier. The kernels differ only in their clock and in when they stop
    delivering.

    A deadline or release popped from the heap goes through
    :meth:`_dispatch`, which writes its kernel trace line first; an envelope
    popped from the FIFO goes to :meth:`_deliver` directly. ``_deliver``
    runs the receiver's handler, then reads the clock and formats its stamp
    once for every envelope the handler returned: they are all posted at the
    instant the handler returned. Under the deterministic kernel the clock
    stands still during a handler, so this is the instant it was called.

    The kernel is also the context each handler is given: an agent reads
    ``directory``, ``cfp_deadline``, ``hold_deadline`` and ``now()``, arms
    a deadline for itself with ``set_timer(delay)`` and logs a booking with
    ``record_commit``. One handler runs at a time, so ``set_timer`` arms
    the deadline for the receiver :meth:`_deliver` is running.
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
        self.config = config or KernelConfig()
        self.cfp_deadline = self.config.cfp_deadline
        self.hold_deadline = self.config.hold_deadline
        self._receiver = ""  # the agent whose handler runs
        self.counter = MessageCounter()
        self.trace: list[str] = []
        self.commits: list[CommitRecord] = []
        self._fifo: deque[tuple[float, int, str, Message]] = deque()  # envelopes
        self._heap: list[tuple[float, int, str, Event]] = []  # deadlines and releases
        self._seq = 0
        self._stamped: tuple = (None, "")  # the clock time last stamped, and its stamp
        for release, order_id in sorted(releases):
            self._schedule(release, order_id, StartOrder(order_id))

    def _schedule(self, at, receiver: str, event: Event) -> None:
        """Deliver the deadline or release ``event`` to ``receiver`` at clock time ``at``."""
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, receiver, event))

    def set_timer(self, delay) -> int:
        """Arm a deadline ``delay >= 0`` from now for the running handler's agent; its token."""
        self._seq += 1
        token = self._seq
        self._schedule(self.now() + delay, self._receiver, DeadlineExpired(token))
        return token

    def _post(self, msg: Message, now, stamp: str) -> None:
        """Count ``msg``, write its trace line stamped ``stamp`` and queue its
        delivery one hop after ``now``."""
        sender, receiver, conv, parts = msg
        if receiver not in self.agents:
            log.error("message to unknown agent %s dropped", receiver)
            return
        variant = type(parts[0]).__name__  # Message.variant, without the property call
        counts, key = self.counter.counts, (conv, variant)
        counts[key] = counts.get(key, 0) + 1
        self.trace.append(f"{stamp} {sender}>{receiver} {variant} n={len(parts)} {conv}")
        self._seq += 1
        self._fifo.append((now + self._hop, self._seq, receiver, msg))

    def _stamp_of(self, now) -> str:
        """``_stamp(now)``, formatted once per tick: a tick's trace lines share it."""
        if now != self._stamped[0]:
            self._stamped = (now, self._stamp(now))
        return self._stamped[1]

    def _dispatch(self, receiver: str, event: Union[StartOrder, DeadlineExpired]) -> None:
        """Write the kernel line of a deadline or release, then deliver it."""
        kind = _KERNEL_LINES[type(event)]
        self.trace.append(f"{self._stamp_of(self.now())} kernel>{receiver} {kind}")
        self._deliver(receiver, event)

    def _deliver(self, receiver: str, event: Event) -> None:
        """Run the receiver's handler and post what it returns, stamped once."""
        self._receiver = receiver
        out = self.agents[receiver].handle(event, self)
        if out:
            now = self.now()
            stamp = self._stamp_of(now)
            for msg in out:
                self._post(msg, now, stamp)

    def record_commit(self, resource_id: str, entry) -> None:
        # the booked *core* is what stability protects: leading setup/travel may
        # be reshaped by later insertions, and open tails grow a load segment
        self.commits.append(
            CommitRecord(
                self.now(), resource_id, entry.order_id, entry.step_label, entry.core_start,
                entry.operation_end,
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
        fifo, heap, cap, popped = self._fifo, self._heap, self.config.max_events, 0
        while fifo or heap:
            popped += 1
            if popped > cap:
                raise RunTimeout(f"event cap {cap} exceeded")
            if heap and (not fifo or heap[0] < fifo[0]):
                self._now, _seq, receiver, event = heapq.heappop(heap)
                self._dispatch(receiver, event)
            else:
                self._now, _seq, receiver, event = fifo.popleft()
                self._deliver(receiver, event)
        return self._report(time.perf_counter() - t0)


class ConcurrentKernel(_Kernel):
    """Actor kernel on the monotonic clock, run on the caller's thread.

    ``run()`` delivers events in ``(at, seq)`` order, sleeping until the
    next one falls due, and runs the receiver's handler to completion before
    the next event: an agent's handlers never overlap and see its events in
    that order, and a run starts no thread whatever the floor's size and
    however many deadlines are armed. Order releases are heap entries at
    their configured wall-clock offsets — the hosting-interval experiments
    feed on this — and ``config.message_latency`` is the per-hop delivery
    delay. The run stops at one cutoff, the newest envelope that may still
    land.
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
        """Deliver every event as it falls due until the run stops and its envelopes are in.

        The run stops once every order has finished or the wall limit has
        passed. From then on ``last`` is the newest envelope that may still
        land: the heap is dropped, so pending deadlines and releases go
        unseen, and the FIFO is delivered up to ``last``. Once every order
        has finished it is unbounded: the last order's final accepts and
        departures reach their calendars, and the rejects it sends for late
        proposals free the holds they answer. At the wall limit it is the
        newest envelope already posted, so only the messages in flight land
        and open negotiations cannot go on. A handler runs to
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
        fifo, heap, agents, open_orders = self._fifo, self._heap, self.agents, self._open
        last = None  # the run is open
        self._t0 = time.monotonic()
        while True:
            now = self.now()
            if last is None and (not open_orders or now >= limit):
                if open_orders:
                    log.error("concurrent run hit the wall limit of %.1fs", limit)
                last = self._seq if open_orders else float("inf")
                heap.clear()  # deadlines and releases: those armed from now on go unread too
            if last is not None:
                if not fifo or fifo[0][1] > last:
                    break
                queue = fifo
            elif heap and (not fifo or heap[0] < fifo[0]):
                queue = heap
            else:
                queue = fifo
            if queue and queue[0][0] <= now:
                if queue is fifo:
                    _at, _seq, receiver, event = fifo.popleft()
                    self._deliver(receiver, event)
                else:
                    _at, _seq, receiver, event = heapq.heappop(heap)
                    self._dispatch(receiver, event)
                if receiver in open_orders and agents[receiver].status in ("done", "failed"):
                    open_orders.discard(receiver)
            else:
                due = queue[0][0] if queue else limit
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
