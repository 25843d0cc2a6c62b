"""Flight recorder: unified trace subsystem.

One recorder object (:class:`FlightRecorder`) observes every layer —
packet events on interfaces, TCP state/retransmit/cwnd changes on
sockets, timer fires on the engine, TDF epoch changes on dilated clocks
— into a bounded ring of typed :class:`TraceEvent` records. Recordings
can be saved as JSONL, exported as pcap (:mod:`.pcap`) with timestamps
in physical or any clock's virtual time, and diffed pairwise
(:mod:`.diff`) to locate the first divergent event between two runs.

Recording is default-off: every hook site is a single ``is None`` check.
"""

from .diff import (
    DEFAULT_TIME_TOLERANCE,
    Divergence,
    TraceDiffResult,
    diff_traces,
    summarize_events,
)
from .events import (
    PACKET_KINDS,
    TraceEvent,
    event_from_dict,
    event_to_dict,
    load_jsonl,
    save_jsonl,
)
from .pcap import export_pcap, pcap_timestamp, read_pcap
from .recorder import DEFAULT_CAPACITY, FlightRecorder
from .spec import TRACE_POINTS, TraceSpec

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_TIME_TOLERANCE",
    "Divergence",
    "FlightRecorder",
    "PACKET_KINDS",
    "TRACE_POINTS",
    "TraceDiffResult",
    "TraceEvent",
    "TraceSpec",
    "diff_traces",
    "event_from_dict",
    "event_to_dict",
    "export_pcap",
    "load_jsonl",
    "pcap_timestamp",
    "read_pcap",
    "save_jsonl",
    "summarize_events",
]
