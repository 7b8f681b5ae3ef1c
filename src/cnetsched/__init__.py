"""Decentralized production/buffer/transport scheduling by contract-net negotiation.

Resource agents keep second-precise calendars and answer calls for proposals;
order agents walk their process plans stage by stage, bundle machine, buffer,
and crane offers into integrated route decisions, and commit bookings that
later negotiations may surround but never move.
"""

from .calculus import (
    InfeasibleWindow,
    ScheduleParams,
    StageWindows,
    TransportGeometry,
    buffer_windows,
    derive_t_transport_min,
    needs_buffering,
    proposal_price,
    transport_direct_windows,
    transport_from_buffer_windows,
    transport_to_buffer_windows,
)
from .protocol import (
    AcceptProposal,
    Cfp,
    InformDeparture,
    InformFailure,
    Message,
    MessageCounter,
    Proposal,
    RejectProposal,
)
from .runtime import KernelConfig, RunReport, RunTimeout, run_kernel
from .scenario import (
    Scenario,
    ValidationError,
    build_runtime,
    load_scenario,
    parse_scenario,
)
from .selector import StageContext, select
from .timebase import (
    BookingEntry,
    OverlapError,
    ResourceSchedule,
    Slack,
    TimeInterval,
    hhmm,
    minutes,
)

__version__ = "0.1.0"

__all__ = [
    "AcceptProposal",
    "BookingEntry",
    "Cfp",
    "InfeasibleWindow",
    "InformDeparture",
    "InformFailure",
    "KernelConfig",
    "Message",
    "MessageCounter",
    "OverlapError",
    "Proposal",
    "RejectProposal",
    "ResourceSchedule",
    "RunReport",
    "RunTimeout",
    "Scenario",
    "ScheduleParams",
    "Slack",
    "StageContext",
    "StageWindows",
    "TimeInterval",
    "TransportGeometry",
    "ValidationError",
    "buffer_windows",
    "build_runtime",
    "derive_t_transport_min",
    "hhmm",
    "load_scenario",
    "minutes",
    "needs_buffering",
    "parse_scenario",
    "proposal_price",
    "run_kernel",
    "select",
    "transport_direct_windows",
    "transport_from_buffer_windows",
    "transport_to_buffer_windows",
    "__version__",
]
