"""``repro.simnet`` — the deterministic "physical testbed" substrate.

This package plays the role of the hardware in the original paper: hosts,
links with real serialisation and propagation behaviour, queues that drop,
and a single physical clock driving everything. The time-dilation layer
(:mod:`repro.core`) sits on top and only ever changes how *guests perceive*
this substrate, never the substrate itself.
"""

from .clock import Clock, PhysicalClock
from .engine import Event, Simulator
from .errors import (
    AddressError,
    ConfigurationError,
    ConnectionReset,
    ProtocolError,
    RoutingError,
    SchedulingError,
    SimulationError,
)
from .impairments import (
    BernoulliLoss,
    Corrupt,
    Duplicate,
    GilbertElliott,
    Handover,
    ImpairmentChain,
    ImpairmentSpec,
    LinkFlap,
    Reorder,
)
from .link import Link
from .schedule import LinkSchedule, ScheduleEntry, ScheduleSpec
from .nic import Interface
from .node import Node
from .packet import Packet
from .queues import DropTailQueue, REDQueue
from .shaper import ShapedInterface, TokenBucket
from .topology import Network, build_chain, build_dumbbell, build_star

__all__ = [
    "Clock",
    "PhysicalClock",
    "Event",
    "Simulator",
    "SimulationError",
    "SchedulingError",
    "ConfigurationError",
    "RoutingError",
    "AddressError",
    "ProtocolError",
    "ConnectionReset",
    "BernoulliLoss",
    "GilbertElliott",
    "Reorder",
    "Duplicate",
    "Corrupt",
    "LinkFlap",
    "Handover",
    "ImpairmentChain",
    "ImpairmentSpec",
    "Link",
    "LinkSchedule",
    "ScheduleEntry",
    "ScheduleSpec",
    "Interface",
    "Node",
    "Packet",
    "DropTailQueue",
    "REDQueue",
    "TokenBucket",
    "ShapedInterface",
    "Network",
    "build_dumbbell",
    "build_star",
    "build_chain",
]
