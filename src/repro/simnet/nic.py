"""Network interfaces: serialisation, egress queueing, and delivery.

An :class:`Interface` is one direction-capable attachment point of a node.
Its transmit path models exactly what a physical NIC plus its drop-tail (or
RED) buffer does:

1. an arriving packet is appended to the egress queue (or dropped by the
   discipline);
2. when the transmitter is idle it dequeues the head packet and holds the
   wire for ``size_bits / bandwidth`` seconds (serialisation);
3. the packet then propagates for ``delay`` seconds and is delivered to the
   peer interface's node.

Serialisation and propagation always happen in **physical time** — that is
the point of the reproduction: the wire does not know about dilation; only
the guests' perception of it changes.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from .engine import Simulator
from .errors import ConfigurationError
from .packet import Packet
from .queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .impairments import ImpairmentChain
    from .node import Node

__all__ = ["Interface", "TapFn"]

#: Signature of a trace tap: (event kind, physical time, packet).
TapFn = Callable[[str, float, Packet], None]


class Interface:
    """One endpoint of a point-to-point link."""

    def __init__(
        self,
        sim: Simulator,
        node: "Node",
        bandwidth_bps: float,
        delay_s: float,
        queue: Optional[DropTailQueue] = None,
        name: str = "",
        jitter_s: float = 0.0,
        jitter_rng: Optional["random.Random"] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ConfigurationError(f"bandwidth must be positive: {bandwidth_bps}")
        if delay_s < 0:
            raise ConfigurationError(f"delay must be non-negative: {delay_s}")
        if jitter_s < 0:
            raise ConfigurationError(f"jitter must be non-negative: {jitter_s}")
        if jitter_s > delay_s:
            raise ConfigurationError(
                "jitter may not exceed the base delay (it would need "
                "negative propagation)"
            )
        self.sim = sim
        self.node = node
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        #: netem-style delay variation: each packet's propagation is
        #: ``delay ± U(0, jitter)``. Deterministic via the injected RNG.
        #: Note packets may be reordered when jitter exceeds the packet
        #: spacing, exactly as with netem.
        self.jitter_s = jitter_s
        self._jitter_rng = jitter_rng
        self.queue = queue if queue is not None else DropTailQueue()
        self.name = name or f"{node.name}-if"
        self.peer: Optional["Interface"] = None
        self._busy = False
        self._taps: List[TapFn] = []
        #: Optional :class:`repro.trace.recorder.FlightRecorder`. Default
        #: off; each packet-event site pays one is-None check and nothing
        #: else, so determinism pins and engine benchmarks are unchanged.
        self.recorder = None
        #: Optional impairment pipeline (loss models, reordering,
        #: duplication, corruption, flaps); ``None`` costs one attribute
        #: check per packet and schedules no events.
        self._impairments: Optional["ImpairmentChain"] = None
        #: Administrative state: a downed interface drops everything
        #: (set via Network.fail_link / restore_link).
        self.up = True
        #: Unified drop taxonomy: reason -> count. Every egress drop on
        #: this interface lands here under exactly one reason — "down"
        #: (administratively down), "injected" (a ``FunctionLoss`` predicate),
        #: "queue" (discipline rejected it), "shaper" (a wrapping
        #: ShapedInterface's backlog overflowed), or an impairment-stage
        #: reason ("loss", "reorder"…, "flap"). Mirrored into
        #: ``sim.counters["drop.<reason>"]`` for engine-wide summaries.
        self.drops: Dict[str, int] = {}
        #: Bytes successfully put on the wire (serialised), for utilisation.
        self.tx_bytes = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.rx_packets = 0
        #: Cross-shard egress: when the peer interface lives in another
        #: worker process, the sharded runner installs a
        #: :class:`repro.parallel.shard.ShardChannel` here and finished
        #: transmissions are handed to it (with the propagation delay
        #: already applied) instead of being scheduled on the local engine.
        #: ``None`` — the only state in a single-process run — costs one
        #: attribute check per transmitted packet.
        self.egress_channel = None
        #: Optional :class:`repro.simnet.schedule.LinkSchedule` driving this
        #: interface's delay/bandwidth/liveness as a function of time (set
        #: by the schedule on attach). Consulted by
        #: :meth:`fluid_transparent` and :meth:`min_delay_s`.
        self.schedule = None
        #: FIFO horizon: the latest arrival instant this direction has
        #: handed to the propagation pipe. A mid-run *decrease* of
        #: ``delay_s`` (schedule step, handover re-acquisition) must not
        #: let a later packet overtake one already in flight — dummynet
        #: clamps each arrival to the previous packet's, and so do we.
        #: Jittered interfaces are exempt: netem-style jitter reorders by
        #: design (pinned by test_jitter_can_reorder_packets).
        self._fifo_horizon_s = 0.0

    def connect(self, peer: "Interface") -> None:
        """Bind the remote endpoint; both directions are bound symmetrically."""
        self.peer = peer
        peer.peer = self

    def add_tap(self, tap: TapFn) -> None:
        """Attach a trace tap; called on 'enqueue', 'tx', 'rx' and 'drop'."""
        self._taps.append(tap)

    def _notify(self, kind: str, packet: Packet) -> None:
        for tap in self._taps:
            tap(kind, self.sim.now, packet)

    def set_impairments(self, chain: Optional["ImpairmentChain"]) -> None:
        """Attach (or clear) an impairment pipeline on this egress.

        Stages get lifecycle callbacks: the outgoing chain's stages are
        detached first (cancelling any engine timers they armed — see
        :class:`~repro.simnet.impairments.LinkFlap`), then the incoming
        chain's stages are attached. A chain that is built but never
        attached therefore schedules nothing.
        """
        old = self._impairments
        if old is not None:
            old.detach(self)
        self._impairments = chain
        if chain is not None:
            chain.attach(self)

    def fluid_transparent(self) -> bool:
        """True when this egress is a pure delay+bandwidth+droptail pipe.

        The fluid fast path (:mod:`repro.simnet.fluid`) may only model a
        hop it can express in closed form: no impairment chain, tap,
        recorder or jitter (all per-packet decisions), no
        cross-shard egress channel (those packets must really cross the
        boundary inside the lookahead window), no schedule change still
        pending (a closed-form hold would integrate straight across the
        discontinuity), and a drop-tail queue. Re-checked every fluid
        step, so installing any of these mid-run demotes the flows riding
        this hop back to packet level.
        """
        return (
            self.up
            and self.egress_channel is None
            and self._impairments is None
            and not self._taps
            and self.recorder is None
            and self.jitter_s == 0
            and (self.schedule is None or not self.schedule.change_pending)
            and getattr(self.queue, "fluid_transparent", False)
        )

    def min_delay_s(self) -> float:
        """Conservative minimum propagation delay this egress can exhibit.

        Static interfaces: the base delay minus the worst-case jitter
        excursion. Scheduled interfaces additionally take the minimum over
        every delay the schedule will ever apply — a partition's lookahead
        must hold for the entire run, not just the initial configuration,
        so :func:`~repro.simnet.topology.partition_network` derives cut
        lookahead from this, not from ``delay_s``.
        """
        delay = self.delay_s
        if self.schedule is not None:
            delay = min(delay, self.schedule.min_delay_s)
        return delay - self.jitter_s

    @property
    def down_drops(self) -> int:
        """Packets dropped because the interface was administratively down."""
        return self.drops.get("down", 0)

    @property
    def injected_losses(self) -> int:
        """Packets dropped by a :class:`~repro.simnet.impairments.FunctionLoss`
        predicate."""
        return self.drops.get("injected", 0)

    @property
    def total_drops(self) -> int:
        """All egress drops on this interface, every reason included."""
        return sum(self.drops.values())

    def _drop(self, packet: Packet, reason: str) -> None:
        """Charge one drop to the taxonomy and the engine-wide counters."""
        self.drops[reason] = self.drops.get(reason, 0) + 1
        counters = self.sim.counters
        key = "drop." + reason
        counters[key] = counters.get(key, 0) + 1
        if self.recorder is not None:
            # Unlike taps, the recorder gets the taxonomy reason.
            self.recorder.record_packet("drop", self, packet, reason)
        self._notify("drop", packet)

    def send(self, packet: Packet) -> None:
        """Entry point for the node: queue the packet and kick the transmitter."""
        if self.peer is None:
            raise ConfigurationError(f"interface {self.name} is not connected")
        if not self.up:
            self._drop(packet, "down")
            return
        chain = self._impairments
        if chain is not None:
            chain.send_through(self, packet)
            return
        self._enqueue(packet)

    def _enqueue(self, packet: Packet) -> None:
        """Post-impairment path: offer to the discipline, kick the wire.

        Held (reordered) packets re-enter here directly so a packet passes
        the impairment chain exactly once.
        """
        if not self.queue.offer(packet):
            self._drop(packet, "queue")
            return
        if self.recorder is not None:
            self.recorder.record_packet("enqueue", self, packet)
        if self._taps:
            self._notify("enqueue", packet)
        if not self._busy:
            self._transmit_next()

    def _transmit_next(self) -> None:
        packet = self.queue.poll()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        # Serialisation completion time is computable up front; a pooled
        # transient event (bound method + argument, no closure, recycled
        # Event object) carries the packet to the end of the wire hold.
        self.sim.schedule_transient(
            packet.size_bytes * 8.0 / self.bandwidth_bps,
            self._finish_transmit,
            packet,
        )

    def _finish_transmit(self, packet: Packet) -> None:
        self.tx_bytes += packet.size_bytes
        self.tx_packets += 1
        if self.recorder is not None:
            self.recorder.record_packet("tx", self, packet)
        if self._taps:
            self._notify("tx", packet)
        peer = self.peer
        assert peer is not None  # checked in send()
        delay = self.delay_s
        if self.jitter_s > 0 and self._jitter_rng is not None:
            # Jitter reorders by design (netem semantics) — no clamp.
            delay += self._jitter_rng.uniform(-self.jitter_s, self.jitter_s)
            arrival = self.sim.now + delay
        else:
            # FIFO per direction: clamp the arrival to the previous
            # packet's so a mid-run delay decrease cannot let this packet
            # overtake one still propagating (dummynet does the same).
            # Under a constant delay the clamp never binds, keeping the
            # static-path schedule bit-identical.
            arrival = self.sim.now + delay
            if arrival < self._fifo_horizon_s:
                arrival = self._fifo_horizon_s
            self._fifo_horizon_s = arrival
        channel = self.egress_channel
        if channel is not None:
            # The peer lives in another shard: ship (arrival time, packet)
            # to its engine. Jitter/clamping happened above, sender-side,
            # so the arrival time is final and deterministic.
            channel.send(arrival, packet)
        else:
            self.sim.schedule_transient_at(arrival, peer._deliver, packet)
        self._transmit_next()

    def _deliver(self, packet: Packet) -> None:
        self.rx_bytes += packet.size_bytes
        self.rx_packets += 1
        if self.recorder is not None:
            self.recorder.record_packet("rx", self, packet)
        if self._taps:
            self._notify("rx", packet)
        self.node.receive(packet, self)

    def utilisation(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` spent serialising (approximate)."""
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, (self.tx_bytes * 8.0) / (self.bandwidth_bps * elapsed_s))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interface({self.name}, {self.bandwidth_bps:.0f}bps, {self.delay_s}s)"
