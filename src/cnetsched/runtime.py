"""Event kernels that drive the agents: deterministic replay and a wall clock.

The same agent objects run under either kernel, fed one event at a time on
the caller's thread by one loop (:meth:`_Kernel.run`) from two queues:
envelopes wait in a FIFO, round deadlines and order releases in a heap, and
the earlier head by ``(at, seq)`` goes first. The kernels differ only in how
they read the time, wait and stop. The deterministic kernel's logical tick
clock jumps to each event — equal inputs give byte-identical traces. The
concurrent kernel sleeps on the monotonic wall clock until the next event
falls due, which the order-release (hosting interval) experiments measure:
many orders negotiate at once, interleaved by when their messages and
deadlines fall due. Either kernel is itself the context its handlers are
given (:class:`_Kernel`), and posts what one handler returns as one batch
(:meth:`_Kernel._post`): one clock read and one stamp for all of it.
"""

from __future__ import annotations

import heapq
import logging
import time
from collections import deque
from dataclasses import dataclass, field
from math import inf
from typing import NamedTuple, Optional, Union

from .agents import OrderAgent, StartOrder
from .protocol import DeadlineExpired, Message, MessageCounter

log = logging.getLogger(__name__)


#: the most events one run delivers, under either kernel
MAX_EVENTS = 2_000_000


class RunTimeout(RuntimeError):
    """A run popped more than ``MAX_EVENTS`` events."""


@dataclass(frozen=True)
class KernelConfig:
    """Timing knobs, in the kernel's own clock units (ticks or seconds)."""

    cfp_deadline: float = 60
    hold_deadline: float = 100_000
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
    """What both kernels share: the one delivery loop, the event queues,
    message counts, trace and commit log.

    Every delivery — a message, a round deadline, an order release — is one
    entry ``(at, seq, receiver, event)``, numbered in the order it is made,
    and :meth:`run` delivers them in ``(at, seq)`` order from two queues,
    taking whichever head is earlier. Envelopes go into a FIFO, deadlines
    and releases into a heap. A FIFO is enough because posting order is
    delivery order: the clock never runs backwards (no deadline is armed in
    the past), every envelope is due one constant hop after it was posted,
    and ``seq`` only grows. A kernel supplies only its clock: ``now()``,
    ``_wait(t)``, ``_stamp``, ``_hop``, ``_start`` (zero the clock and give
    the limit) and ``_stop_drops_deadlines``.

    :meth:`run` pops each event and calls its receiver's ``handle``; a
    deadline or release first gets its kernel trace line. What the handler
    returns goes to :meth:`_post` as one batch, which reads the clock and
    formats its stamp once for all of it: the envelopes are all posted at
    the instant the handler returned (on the tick clock, which stands still
    during a handler, the instant it was called).

    The kernel is also the context each handler is given: an agent reads
    ``directory``, ``cfp_deadline``, ``hold_deadline`` and ``now()``, arms
    a deadline for itself with ``set_timer(delay)`` and logs a booking with
    ``record_commit``. One handler runs at a time, so ``set_timer`` arms
    the deadline for the receiver whose handler :meth:`run` is running.
    """

    mode: str
    _default_config = KernelConfig
    _hop: float  # delay between sending a message and its delivery
    #: whether the deadlines and releases still armed at the stop go unread
    _stop_drops_deadlines: bool

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
        self.config = config or self._default_config()
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

    def _post(self, out: list[Message]) -> None:
        """Post the envelopes one handler returned: count each, write its
        trace line and queue its delivery one hop from now, under one stamp.
        An envelope to an unknown agent is dropped with an error line."""
        now = self.now()
        stamp, due = self._stamp_of(now), now + self._hop
        agents, counts = self.agents, self.counter.counts
        trace, fifo, seq = self.trace, self._fifo, self._seq
        for msg in out:
            sender, receiver, conv, parts = msg
            if receiver not in agents:
                log.error("message to unknown agent %s dropped", receiver)
                continue
            variant = type(parts[0]).__name__  # Message.variant, without the property call
            key = (conv, variant)
            counts[key] = counts.get(key, 0) + 1
            trace.append(f"{stamp} {sender}>{receiver} {variant} n={len(parts)} {conv}")
            seq += 1
            fifo.append((due, seq, receiver, msg))
        self._seq = seq

    def _stamp_of(self, now) -> str:
        """``_stamp(now)``, formatted once per tick: a tick's trace lines share it."""
        if now != self._stamped[0]:
            self._stamped = (now, self._stamp(now))
        return self._stamped[1]

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

    def run(self) -> RunReport:
        """Deliver every event as it falls due until none may still land.

        The run stops once every order has finished or the clock reaches the
        limit ``_start`` gives. Once every order has finished, every envelope
        still lands, also those sent after the stop, so the last order's
        final accepts, departures and rejects land. At the limit the run
        reads on from a copy of the FIFO, so only the messages in flight land
        and open negotiations cannot go on. With ``_stop_drops_deadlines``
        no deadline or release is read after the stop. Stopped or not, the
        run ends when neither queue holds an event: one thread with nothing
        to deliver never goes on. A handler runs to completion, so one that
        overruns the limit ends the run when it returns. An agent's exception
        propagates from here, and popping more than ``MAX_EVENTS`` events
        raises ``RunTimeout``.
        """
        t_wall = time.perf_counter()
        fifo, heap, agents = self._fifo, self._heap, self.agents
        open_orders = {aid for aid, agent in agents.items() if isinstance(agent, OrderAgent)}
        limit = self._start(len(open_orders)) if open_orders else -inf  # -inf: stop now
        now, popped = self.now(), 0
        while True:
            if now >= limit:  # the run stops
                if open_orders:  # at the limit: only the envelopes in flight land
                    log.error("%s run hit the wall limit of %.1fs", self.mode, limit)
                    fifo = deque(fifo)  # envelopes posted from now on stay in self._fifo
                limit = inf
                if self._stop_drops_deadlines:
                    heap = []  # deadlines armed from now on stay in self._heap
            if heap and (not fifo or heap[0] < fifo[0]):
                queue = heap
            elif fifo:
                queue = fifo
            else:
                break
            if queue[0][0] > now:
                self._wait(min(queue[0][0], limit))
                now = self.now()
                continue
            popped += 1
            if popped > MAX_EVENTS:
                raise RunTimeout(f"event cap {MAX_EVENTS} exceeded")
            if queue is fifo:
                _at, _seq, receiver, event = fifo.popleft()
            else:
                _at, _seq, receiver, event = heapq.heappop(heap)
                kind = _KERNEL_LINES[type(event)]  # a deadline or release: its kernel line first
                self.trace.append(f"{self._stamp_of(self.now())} kernel>{receiver} {kind}")
            self._receiver = receiver
            out = agents[receiver].handle(event, self)
            if out:
                self._post(out)
            if receiver in open_orders and agents[receiver].status in ("done", "failed"):
                open_orders.discard(receiver)
                if not open_orders:
                    limit = -inf
            if limit < inf:  # a clock with a limit ran on during the handler
                now = self.now()
        return self._report(time.perf_counter() - t_wall)


class DeterministicKernel(_Kernel):
    """Single-threaded replayable event loop over a logical tick clock.

    Message delivery costs one tick; waiting jumps the clock to the next
    event for free, so deadlines are cheap in logical time. The clock never
    runs out and the stop drops nothing, so every armed deadline fires.
    """

    mode = "deterministic"
    _hop = 1
    _stop_drops_deadlines = False
    _now: float = 0

    def now(self):
        return self._now

    def _wait(self, t) -> None:
        self._now = t

    @staticmethod
    def _stamp(t) -> str:
        return f"{int(t):08d}"

    def _start(self, orders: int) -> float:
        return inf


class ConcurrentKernel(_Kernel):
    """Actor kernel on the monotonic clock, run on the caller's thread.

    ``run()`` sleeps until the next event falls due: an agent's handlers
    never overlap and see its events in ``(at, seq)`` order, and a run
    starts no thread whatever the floor's size and however many deadlines
    are armed. Order releases fall due at their wall-clock offsets — the
    hosting-interval experiments feed on this — ``config.message_latency``
    is the hop, and the stop drops the deadlines and releases still pending.
    """

    mode = "concurrent"
    _default_config = KernelConfig.concurrent
    _hop = property(lambda self: self.config.message_latency)
    _stop_drops_deadlines = True
    _t0 = 0.0  # the monotonic time the run started at

    def now(self) -> float:
        return time.monotonic() - self._t0

    def _wait(self, t) -> None:
        time.sleep(max(0.0, t - self.now()))

    @staticmethod
    def _stamp(t) -> str:
        return f"{t:012.6f}"

    def _start(self, orders: int) -> float:
        """Zero the clock; the wall limit, or a generous safety net after the
        last release (the heap holds only releases yet) in which every stage
        can burn a full CFP deadline."""
        self._t0 = time.monotonic()
        if self.config.wall_limit is not None:
            return self.config.wall_limit
        last_release = max(self._heap, default=(0.0,))[0]
        return last_release + 60.0 + 20 * orders * self.config.cfp_deadline


_KERNELS = {kernel.mode: kernel for kernel in (DeterministicKernel, ConcurrentKernel)}


def run_kernel(
    mode: str,
    directory,
    agents: dict[str, object],
    releases: list[tuple[float, str]],
    config: Optional[KernelConfig] = None,
) -> RunReport:
    """Run one scheduling session under the named kernel ("deterministic"/"concurrent")."""
    if mode not in _KERNELS:
        raise ValueError(f"unknown kernel mode {mode!r}")
    return _KERNELS[mode](directory, agents, releases, config).run()
