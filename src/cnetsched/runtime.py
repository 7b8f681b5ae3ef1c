"""Event kernels that drive the agents: deterministic replay and a worker pool.

The same agent objects run under either kernel, fed from one event heap. The
deterministic kernel pops it in a single-threaded loop over a logical tick
clock — equal inputs give byte-identical traces. The concurrent kernel pops it
on the monotonic wall clock, which the order-release (hosting interval)
experiments measure: the caller's thread hands each due event to its
receiver's deque, and two worker threads run the agents that have mail, one
event at a time and never one agent on both.
"""

from __future__ import annotations

import heapq
import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Union

from .agents import OrderAgent, StartOrder
from .protocol import DeadlineExpired, Message, MessageCounter

log = logging.getLogger(__name__)

#: worker threads of the concurrent kernel: under the interpreter lock only one
#: handler runs at a time, and a second takes the next ready agent while the
#: first is switched out
WORKERS = 2
#: seconds the concurrent kernel waits, after the stop, for the messages in
#: flight and the handlers still running, and then for each worker to exit
DRAIN_LIMIT = 5.0


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
    their clock and in who pops the heap. ``_lock`` guards the heap and the
    bookkeeping: a plain lock under the deterministic kernel's one thread, a
    Condition the concurrent kernel's clock waits on.
    """

    mode: str
    _hop: float = 1  # delay between sending a message and its delivery
    _new_lock = threading.Lock
    _clocked = False  # a clock waits on ``_lock`` for the heap's head

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
        self._lock = self._new_lock()
        self._heap: list[tuple[float, int, str, Event]] = []
        self._seq = 0
        with self._lock:
            for release, order_id in sorted(releases):
                self._schedule(release, order_id, StartOrder(order_id))

    def _schedule(self, at, receiver: str, event: Event) -> None:
        """Deliver ``event`` to ``receiver`` at clock time ``at``; call under ``_lock``."""
        self._seq += 1
        entry = (at, self._seq, receiver, event)
        heapq.heappush(self._heap, entry)
        if self._clocked and self._heap[0] is entry:
            self._lock.notify()  # the clock waits for the old head

    def set_timer(self, agent_id: str, delay) -> int:
        with self._lock:
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
        with self._lock:
            now = self.now()
            self.counter.count(msg)
            self._line(now, msg.variant, msg.sender, msg.receiver,
                       f" n={len(msg.parts)} {msg.conversation_id}")
            self._schedule(now + self._hop, msg.receiver, msg)

    def _dispatch(self, receiver: str, event: Event) -> None:
        kind = _KERNEL_LINES.get(type(event))
        if kind is not None:
            with self._lock:
                self._line(self.now(), kind, "kernel", receiver, "")
        for msg in self.agents[receiver].handle(event, self._ctx[receiver]):
            self._post(msg)

    def record_commit(self, resource_id: str, entry) -> None:
        # the booked *core* is what stability protects: leading setup/travel may
        # be reshaped by later insertions, and open tails grow a load segment
        with self._lock:
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
    """Actor kernel on the monotonic clock: a small worker pool runs the agents.

    The caller's thread is the clock: it moves each heap entry onto its
    receiver's deque once it falls due, and puts an agent with new mail on the
    ready queue unless it is already scheduled. ``WORKERS`` threads take a
    ready agent, run its oldest event and queue it again while it has mail, so
    no agent runs on two workers at once: its handlers stay single-threaded
    and see its events in heap-pop order. A run starts ``WORKERS`` threads
    whatever the floor's size and however many deadlines are armed. Order
    releases are heap entries at their configured wall-clock offsets — the
    hosting-interval experiments feed on this — and
    ``config.message_latency`` is the per-hop delivery delay.
    """

    mode = "concurrent"
    _new_lock = threading.Condition
    _clocked = True
    _stopped = False
    _sealed = False  # stopped with orders still open: nothing new is delivered
    _closed = False  # the clock has returned: workers take nothing more

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
        self._mail: dict[str, deque] = {aid: deque() for aid in agents}
        self._ready: deque[str] = deque()  # agents with mail and on no worker
        self._scheduled: set[str] = set()  # agents on the ready queue or on a worker
        # the workers wait on this one for the ready queue, the clock on _lock
        self._wake = threading.Condition(self._lock)
        self._t0 = 0.0
        # events handed to a deque whose handler has not returned yet
        self._busy = 0
        self._error: Optional[Exception] = None
        self._open = {aid for aid, agent in agents.items() if isinstance(agent, OrderAgent)}

    def now(self) -> float:
        return time.monotonic() - self._t0

    @staticmethod
    def _stamp(t) -> str:
        return f"{t:012.6f}"

    def _schedule(self, at, receiver: str, event: Event) -> None:
        # once the run stops, only the messages of a finished run still land
        if self._stopped and (self._sealed or not isinstance(event, Message)):
            return
        super()._schedule(at, receiver, event)

    def _stop(self) -> None:
        """End the run: keep only the messages in flight; call under ``_lock``.

        Pending deadlines and releases are dropped. If every order has
        finished, messages sent from now on still land, because the rejects a
        finished order sends for proposals that reached it late are among
        them and free the holds they answer (resources answer none of them).
        If orders are still open (the wall limit, or an agent error), nothing
        sent from now on is delivered, so their negotiations cannot go on.
        """
        self._stopped = True
        self._sealed = bool(self._open)
        heap = self._heap
        heap[:] = [e for e in heap if isinstance(e[3], Message)]
        heapq.heapify(heap)
        self._lock.notify()

    def _clock(self, limit: float) -> None:
        """Hand each heap entry to its receiver once it falls due; stop the run.

        It calls ``_stop`` once every order has finished or ``limit`` seconds
        have passed, then goes on until the heap is empty and every handler
        has returned, so the last order's final accepts and departures reach
        their calendars, but for no more than ``DRAIN_LIMIT`` seconds: a
        handler that never returns cannot hold the run. After an agent error
        it returns at once.
        """
        heap, mail, ready = self._heap, self._mail, self._ready
        with self._lock:
            while self._error is None:
                now = self.now()
                if not self._stopped and (not self._open or now >= limit):
                    if self._open:
                        log.error("concurrent run hit the wall limit of %.1fs", limit)
                    self._stop()
                    limit = now + DRAIN_LIMIT
                if heap and heap[0][0] <= now:
                    _at, _seq, receiver, event = heapq.heappop(heap)
                    self._busy += 1
                    mail[receiver].append(event)
                    if receiver not in self._scheduled:
                        self._scheduled.add(receiver)
                        ready.append(receiver)
                        self._wake.notify()
                elif self._stopped and not heap and not self._busy:
                    break
                elif now >= limit:  # stopped: the stop moved limit on by DRAIN_LIMIT
                    log.error("%d events still undelivered or in a handler %.1fs after the stop",
                              self._busy + len(heap), DRAIN_LIMIT)
                    break
                else:
                    self._lock.wait(min(heap[0][0], limit) - now if heap else limit - now)

    def _work(self) -> None:
        """Run ready agents one event at a time until the clock closes the pool."""
        mail, ready = self._mail, self._ready
        while True:
            with self._lock:
                while not ready and not self._closed:
                    self._wake.wait()
                if self._closed:
                    return
                agent_id = ready.popleft()
                event = mail[agent_id].popleft()
            try:
                self._dispatch(agent_id, event)
            except Exception as exc:  # re-raised by run() after teardown
                with self._lock:
                    self._error = self._error or exc
                    self._lock.notify()
                return
            with self._lock:
                self._busy -= 1
                if mail[agent_id]:
                    ready.append(agent_id)
                else:
                    self._scheduled.discard(agent_id)
                if agent_id in self._open and self.agents[agent_id].status in ("done", "failed"):
                    self._open.discard(agent_id)
                    if not self._open:
                        self._lock.notify()  # the clock stops the run
                if self._stopped and not self._busy:
                    self._lock.notify()  # the stopped clock may wait for this

    def run(self) -> RunReport:
        t_wall = time.perf_counter()
        limit = self.config.wall_limit
        if limit is None:
            # generous safety net: every stage can burn a full CFP deadline
            stages = 20 * max(1, len(self._open))
            limit = self._last_release + 60.0 + stages * self.config.cfp_deadline
        workers = [
            threading.Thread(target=self._work, name=f"agent-worker-{i}", daemon=True)
            for i in range(WORKERS)
        ]
        self._t0 = time.monotonic()
        for t in workers:
            t.start()
        try:
            self._clock(limit)
        finally:
            with self._lock:
                self._closed = True
                self._wake.notify_all()
            for t in workers:
                t.join(timeout=DRAIN_LIMIT)
        if self._error is not None:
            raise self._error
        with self._lock:
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
