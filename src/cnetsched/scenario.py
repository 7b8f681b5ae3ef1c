"""Scenario documents: schema, validation, runtime assembly.

A scenario is a JSON document describing one shop floor: machines, buffer
places, transports, the product process plans, and the orders to run.  All
durations and calendar instants in the file are **minutes**; the engine works
in whole seconds, so every minute value must land on a whole second.  The
normative field reference lives in ``docs/formats.md``.

``parse_scenario`` is the only way in: bundled files, the experiment presets
and generated floors are all documents it validates.  It reports *every*
violation with its field path, because scenario files are written by hand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from .agents import BufferAgent, DirectoryService, OrderAgent, ProductionAgent, TransportAgent
from .calculus import NoTransport, ScheduleParams, TransportGeometry, derive_t_transport_min
from .protocol import BUFFER, TRANSPORT
from .timebase import Seconds, minutes

FORMAT_VERSION = 1


class ValidationError(ValueError):
    """The scenario document violates the schema; one line per field path."""

    def __init__(self, problems: Sequence[str]):
        self.problems = tuple(problems)
        super().__init__("\n".join(self.problems))


# ---------------------------------------------------------------------------
# scenario model


@dataclass(frozen=True)
class FixedBlock:
    """A busy block booked before any negotiation (seconds, half-open).

    Machines hold initial bookings and maintenance windows, cranes hold
    initial bookings; ``state`` is what the resource is left in: a machine
    state, or a crane's x-position as a float.
    """

    order_id: str
    start: Seconds
    end: Seconds
    state: Any


@dataclass(frozen=True)
class MachineSpec:
    id: str
    operation: str
    location: tuple[float, float]
    op_duration: dict[str, Seconds]  # product -> seconds
    setup: dict[str, dict[str, Seconds]]  # from state -> to state -> seconds
    initial_state: str = ""
    initial_bookings: tuple[FixedBlock, ...] = ()
    maintenance: tuple[FixedBlock, ...] = ()


@dataclass(frozen=True)
class BufferSpec:
    id: str
    location: tuple[float, float]


@dataclass(frozen=True)
class TransportSpec:
    id: str
    segment: tuple[float, float]
    speed: float  # metres per minute, as written in the file
    load: Seconds
    unload: Seconds
    initial_x: float = 0.0
    initial_bookings: tuple[FixedBlock, ...] = ()

    def geometry(self) -> TransportGeometry:
        return TransportGeometry(
            speed=self.speed / 60.0,  # the engine computes in metres per second
            load_time=self.load,
            unload_time=self.unload,
            x_min=self.segment[0],
            x_max=self.segment[1],
        )


@dataclass(frozen=True)
class ProductSpec:
    id: str
    steps: tuple[str, ...]  # operation names, in process-plan order


@dataclass(frozen=True)
class OrderSpec:
    id: str
    product: str
    arrival: Seconds = 0  # calendar instant the workpiece is available
    release: float = 0.0  # negotiation-clock instant the order agent starts


@dataclass(frozen=True)
class ScenarioParams:
    t_buffer_min: Seconds
    t_transport_min: Optional[Seconds] = None  # override; derived when None
    cfp_deadline: Optional[float] = None
    hold_deadline: Optional[float] = None


@dataclass(frozen=True)
class Scenario:
    name: str
    params: ScenarioParams
    machines: tuple[MachineSpec, ...]
    buffers: tuple[BufferSpec, ...]
    transports: tuple[TransportSpec, ...]
    products: tuple[ProductSpec, ...]
    orders: tuple[OrderSpec, ...]

    def product(self, product_id: str) -> ProductSpec:
        for p in self.products:
            if p.id == product_id:
                return p
        raise KeyError(product_id)

    @property
    def t_transport_min(self) -> Seconds:
        if self.params.t_transport_min is not None:
            return self.params.t_transport_min
        locations = [m.location for m in self.machines] + [
            b.location for b in self.buffers
        ]
        return derive_t_transport_min(locations, [t.geometry() for t in self.transports])

    def schedule_params(self) -> ScheduleParams:
        return ScheduleParams(
            t_transport_min=self.t_transport_min,
            t_buffer_min=self.params.t_buffer_min,
        )


# ---------------------------------------------------------------------------
# parsing / validation

_MISSING = object()


class _Reader:
    """Walks a parsed JSON tree collecting problems instead of failing fast."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def obj(self, value: Any, path: str) -> dict:
        if not isinstance(value, dict):
            self.fail(path, f"expected an object, got {type(value).__name__}")
            return {}
        return value

    def array(self, value: Any, path: str) -> list:
        if not isinstance(value, list):
            self.fail(path, f"expected an array, got {type(value).__name__}")
            return []
        return value

    def string(self, parent: Mapping, key: str, path: str, default: Any = _MISSING) -> str:
        value = parent.get(key, _MISSING)
        if value is _MISSING:
            if default is not _MISSING:
                return default
            self.fail(f"{path}.{key}", "required field is missing")
            return ""
        if not isinstance(value, str):
            self.fail(f"{path}.{key}", "expected a string")
            return ""
        return value

    def number(
        self,
        parent: Mapping,
        key: str,
        path: str,
        default: Any = _MISSING,
        minimum: Optional[float] = None,
    ) -> float:
        value = parent.get(key, _MISSING)
        if value is _MISSING:
            if default is not _MISSING:
                return default
            self.fail(f"{path}.{key}", "required field is missing")
            return 0.0
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(f"{path}.{key}", "expected a number")
            return 0.0
        if minimum is not None and value < minimum:
            self.fail(f"{path}.{key}", f"must be >= {minimum}, got {value}")
            return minimum
        return value

    def duration(self, parent: Mapping, key: str, path: str, default: Any = _MISSING,
                 minimum: float = 0) -> Seconds:
        """A minutes field converted to engine seconds."""
        raw = self.number(parent, key, path, default=default, minimum=minimum)
        try:
            return minutes(raw)
        except ValueError as exc:
            self.fail(f"{path}.{key}", str(exc))
            return 0

    def xy(self, parent: Mapping, key: str, path: str) -> tuple[float, float]:
        value = parent.get(key, _MISSING)
        if value is _MISSING:
            self.fail(f"{path}.{key}", "required field is missing")
            return (0.0, 0.0)
        if (
            not isinstance(value, list)
            or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        ):
            self.fail(f"{path}.{key}", "expected [x, y] numbers")
            return (0.0, 0.0)
        return (float(value[0]), float(value[1]))

    def blocks(
        self,
        owner: Mapping,
        key: str,
        path: str,
        spans: list[tuple[Seconds, Seconds, str]],
        state: Callable[[Mapping, str], Any],
        id_prefix: str,
        named: bool = True,
    ) -> tuple[FixedBlock, ...]:
        """``owner[key]`` as fixed blocks; each block's span joins ``spans``.

        ``state(block, path)`` reads what the block leaves the resource in.
        A named block takes its ``order_id`` field, ``<id_prefix>-<j>`` by
        default; an unnamed one is always ``<id_prefix>-<j>``.
        """
        out = []
        for j, raw in enumerate(self.array(owner.get(key, []), f"{path}.{key}")):
            bpath = f"{path}.{key}[{j}]"
            bdoc = self.obj(raw, bpath)
            start = self.duration(bdoc, "start", bpath, minimum=0)
            end = self.duration(bdoc, "end", bpath, minimum=0)
            if end <= start:
                self.fail(bpath, f"end ({end}s) must be after start ({start}s)")
            order_id = f"{id_prefix}-{j}"
            if named:
                order_id = self.string(bdoc, "order_id", bpath, default=order_id)
            out.append(FixedBlock(order_id, start, end, state(bdoc, bpath)))
            spans.append((start, end, bpath))
        return tuple(out)

    def no_shared_resources(self, parent: Mapping, path: str) -> None:
        for key in ("shared_resources", "sr_demands", "tools"):
            if parent.get(key):
                self.fail(
                    f"{path}.{key}",
                    "shared-resource demands are not supported by this engine",
                )


def _check_disjoint(spans: list[tuple[Seconds, Seconds, str]], r: _Reader) -> None:
    spans = sorted(spans)
    for (s0, e0, p0), (s1, _e1, p1) in zip(spans, spans[1:]):
        if s1 < e0:
            r.fail(p1, f"overlaps {p0} ([{s0}, {e0}) vs start {s1})")


def parse_scenario(doc: Any, source: str = "<scenario>") -> Scenario:
    r = _Reader()
    root = r.obj(doc, source)

    version = root.get("format_version")
    if version != FORMAT_VERSION:
        r.fail(f"{source}.format_version", f"expected {FORMAT_VERSION}, got {version!r}")

    name = r.string(root, "name", source, default="unnamed")

    pdoc = r.obj(root.get("params", {}), f"{source}.params")
    t_buffer = r.duration(pdoc, "t_buffer_min", f"{source}.params", minimum=0)
    if t_buffer <= 0:
        r.fail(f"{source}.params.t_buffer_min", "must be a positive number of minutes")
    t_transport: Optional[Seconds] = None
    if pdoc.get("t_transport_min") is not None:
        t_transport = r.duration(pdoc, "t_transport_min", f"{source}.params", minimum=0)
    cfp_deadline = pdoc.get("cfp_deadline")
    hold_deadline = pdoc.get("hold_deadline")
    for key, value in (("cfp_deadline", cfp_deadline), ("hold_deadline", hold_deadline)):
        if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0):
            r.fail(f"{source}.params.{key}", "must be a positive number when given")

    seen_ids: dict[str, str] = {}

    def claim_id(kind: str, agent_id: str, path: str) -> None:
        if not agent_id:
            return
        if agent_id in seen_ids:
            r.fail(path, f"id {agent_id!r} already used by {seen_ids[agent_id]}")
        else:
            seen_ids[agent_id] = kind

    machines: list[MachineSpec] = []
    for i, mdoc_raw in enumerate(r.array(root.get("machines", []), f"{source}.machines")):
        path = f"{source}.machines[{i}]"
        mdoc = r.obj(mdoc_raw, path)
        mid = r.string(mdoc, "id", path)
        claim_id("machine", mid, f"{path}.id")
        operation = r.string(mdoc, "operation", path)
        r.no_shared_resources(mdoc, path)
        location = r.xy(mdoc, "location", path)

        durations: dict[str, Seconds] = {}
        ddoc = r.obj(mdoc.get("op_duration", {}), f"{path}.op_duration")
        if not ddoc:
            r.fail(f"{path}.op_duration", "must map at least one product to a duration")
        for product in sorted(ddoc):
            dur = r.duration(ddoc, product, f"{path}.op_duration", minimum=0)
            if dur <= 0:
                r.fail(f"{path}.op_duration.{product}", "operation duration must be positive")
            durations[product] = dur

        setups: dict[str, dict[str, Seconds]] = {}
        sdoc = r.obj(mdoc.get("setup", {}), f"{path}.setup")
        for frm in sorted(sdoc):
            row = r.obj(sdoc[frm], f"{path}.setup.{frm}")
            setups[frm] = {
                to: r.duration(row, to, f"{path}.setup.{frm}", minimum=0) for to in sorted(row)
            }

        spans: list[tuple[Seconds, Seconds, str]] = []
        bookings = r.blocks(
            mdoc, "initial_bookings", path, spans,
            lambda b, bpath: r.string(b, "end_state", bpath, default=""), f"{mid}-init",
        )
        windows = r.blocks(
            mdoc, "maintenance", path, spans,
            lambda b, bpath: r.string(b, "state", bpath, default=""), f"{mid}-maint",
            named=False,
        )
        _check_disjoint(spans, r)
        machines.append(
            MachineSpec(
                id=mid,
                operation=operation,
                location=location,
                op_duration=durations,
                setup=setups,
                initial_state=r.string(mdoc, "initial_state", path, default=""),
                initial_bookings=bookings,
                maintenance=windows,
            )
        )

    buffers: list[BufferSpec] = []
    for i, bdoc_raw in enumerate(r.array(root.get("buffers", []), f"{source}.buffers")):
        path = f"{source}.buffers[{i}]"
        bdoc = r.obj(bdoc_raw, path)
        bid = r.string(bdoc, "id", path)
        claim_id("buffer", bid, f"{path}.id")
        capacity = r.number(bdoc, "capacity", path, default=1, minimum=1)
        if capacity != 1:
            r.fail(f"{path}.capacity", "buffer places have capacity 1; model more places instead")
        buffers.append(BufferSpec(id=bid, location=r.xy(bdoc, "location", path)))

    transports: list[TransportSpec] = []
    for i, tdoc_raw in enumerate(r.array(root.get("transports", []), f"{source}.transports")):
        path = f"{source}.transports[{i}]"
        tdoc = r.obj(tdoc_raw, path)
        tid = r.string(tdoc, "id", path)
        claim_id("transport", tid, f"{path}.id")
        seg = tdoc.get("segment")
        if (
            not isinstance(seg, list)
            or len(seg) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seg)
            or seg[1] < seg[0]
        ):
            r.fail(f"{path}.segment", "expected [lo, hi] with lo <= hi")
            seg = [0.0, 0.0]
        speed = r.number(tdoc, "speed", path)
        if speed <= 0:
            r.fail(f"{path}.speed", "must be positive (metres per minute)")
            speed = 1.0
        initial_x = r.number(tdoc, "initial_x", path, default=float(seg[0]))
        if not seg[0] <= initial_x <= seg[1]:
            r.fail(f"{path}.initial_x", f"{initial_x} lies outside segment {seg}")

        def crane_state(bdoc: Mapping, bpath: str) -> float:
            end_x = r.number(bdoc, "end_x", bpath, default=initial_x)
            if not seg[0] <= end_x <= seg[1]:
                r.fail(f"{bpath}.end_x", f"{end_x} lies outside segment {seg}")
            return float(end_x)

        spans = []
        crane_bookings = r.blocks(tdoc, "initial_bookings", path, spans, crane_state, f"{tid}-init")
        _check_disjoint(spans, r)

        transports.append(
            TransportSpec(
                id=tid,
                segment=(float(seg[0]), float(seg[1])),
                speed=float(speed),
                load=r.duration(tdoc, "load", path, minimum=0),
                unload=r.duration(tdoc, "unload", path, minimum=0),
                initial_x=float(initial_x),
                initial_bookings=crane_bookings,
            )
        )

    products: list[ProductSpec] = []
    product_ids: set[str] = set()
    for i, pdoc_raw in enumerate(r.array(root.get("products", []), f"{source}.products")):
        path = f"{source}.products[{i}]"
        pdoc2 = r.obj(pdoc_raw, path)
        pid = r.string(pdoc2, "id", path)
        if pid in product_ids:
            r.fail(f"{path}.id", f"duplicate product id {pid!r}")
        product_ids.add(pid)
        steps: list[str] = []
        raw_steps = r.array(pdoc2.get("steps", []), f"{path}.steps")
        if not raw_steps:
            r.fail(f"{path}.steps", "a product needs at least one step")
        for j, step in enumerate(raw_steps):
            spath = f"{path}.steps[{j}]"
            if isinstance(step, str):
                steps.append(step)
            elif isinstance(step, dict):
                r.no_shared_resources(step, spath)
                steps.append(r.string(step, "operation", spath))
            else:
                r.fail(spath, "expected an operation name or an object with one")
        products.append(ProductSpec(id=pid, steps=tuple(steps)))

    orders: list[OrderSpec] = []
    for i, odoc_raw in enumerate(r.array(root.get("orders", []), f"{source}.orders")):
        path = f"{source}.orders[{i}]"
        odoc = r.obj(odoc_raw, path)
        oid = r.string(odoc, "id", path, default=f"order-{i + 1}")
        claim_id("order", oid, f"{path}.id")
        product = r.string(odoc, "product", path)
        if product and product_ids and product not in product_ids:
            r.fail(f"{path}.product", f"unknown product {product!r}")
        orders.append(
            OrderSpec(
                id=oid,
                product=product,
                arrival=r.duration(odoc, "arrival", path, default=0, minimum=0),
                release=r.number(odoc, "release", path, default=0.0, minimum=0),
            )
        )

    if r.problems:
        raise ValidationError(r.problems)

    scenario = Scenario(
        name=name,
        params=ScenarioParams(
            t_buffer_min=t_buffer,
            t_transport_min=t_transport,
            cfp_deadline=float(cfp_deadline) if cfp_deadline is not None else None,
            hold_deadline=float(hold_deadline) if hold_deadline is not None else None,
        ),
        machines=tuple(machines),
        buffers=tuple(buffers),
        transports=tuple(transports),
        products=tuple(products),
        orders=tuple(orders),
    )
    # every window derivation needs a positive T_T,min, given or derived
    try:
        floor = scenario.t_transport_min
    except (NoTransport, ValueError) as exc:
        r.fail(f"{source}.params.t_transport_min", f"absent and cannot be derived: {exc}")
    else:
        if floor <= 0:
            how = "given" if t_transport is not None else "derived"
            r.fail(f"{source}.params.t_transport_min", f"must be positive, {how} as {floor} s")
    if r.problems:
        raise ValidationError(r.problems)
    return scenario


def load_scenario(path: Union[str, Path]) -> Scenario:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError([f"{path}: not valid JSON ({exc})"]) from exc
    return parse_scenario(doc, source=path.name)


# ---------------------------------------------------------------------------
# agent instantiation


@dataclass
class RuntimeBundle:
    """Everything the kernel needs, built from one scenario."""

    directory: DirectoryService
    agents: dict[str, Any]
    releases: list[tuple[float, str]]


def build_runtime(scenario: Scenario) -> RuntimeBundle:
    """Instantiate and register all agents; each books its own initial calendar."""
    params = scenario.schedule_params()
    directory = DirectoryService()
    agents: dict[str, Any] = {}

    max_unload = max((t.unload for t in scenario.transports), default=0)
    max_load = max((t.load for t in scenario.transports), default=0)

    for m in scenario.machines:
        agents[m.id] = ProductionAgent(m, max_unload, max_load)
        directory.register(m.operation, m.id)
    for b in scenario.buffers:
        agents[b.id] = BufferAgent(b, max_unload, max_load)
        directory.register(BUFFER, b.id)
    for t in scenario.transports:
        agents[t.id] = TransportAgent(t)
        directory.register(TRANSPORT, t.id)

    releases: list[tuple[float, str]] = []
    for o in scenario.orders:
        agents[o.id] = OrderAgent(o, scenario.product(o.product).steps, params)
        releases.append((o.release, o.id))

    releases.sort(key=lambda pair: (pair[0], pair[1]))
    return RuntimeBundle(directory=directory, agents=agents, releases=releases)
