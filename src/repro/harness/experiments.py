"""Experiment runners: the reusable machinery behind every figure.

Each runner takes a **perceived** (target) network profile and a TDF,
derives the physical configuration via
:func:`repro.core.dilation.physical_for`, boots the guests under a
:class:`~repro.core.vmm.Hypervisor`, drives a workload for a fixed span of
*virtual* time, and reports metrics in virtual units. Running the same
function with ``tdf=1`` produces the scaled baseline the paper validates
against, with identical RNG streams, so results are comparable point by
point. Execution modes (fidelity, schedule, shards, trace, real-time
pacing) are applied beneath the runners by :mod:`repro.harness.modes`;
a runner takes a mode when its signature names it.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..apps.bittorrent import PeerConfig, TorrentMeta, build_swarm
from ..apps.bittorrent.swarm import salt_fraction
from ..apps.crosstraffic import CbrSource, UdpSink
from ..apps.httpclient import OpenLoopHttpLoad
from ..apps.httpd import WebServer
from ..apps.iperf import IperfClient, IperfServer
from ..apps.streaming import JitterBufferSink, MediaSource
from ..core.dilation import NetworkProfile, physical_for
from ..core.tdf import TdfLike, as_tdf
from ..core.vmm import Hypervisor
from ..simnet.errors import ConfigurationError
from ..simnet.impairments import ImpairmentSpec
from ..simnet.queues import DropTailQueue
from ..simnet.schedule import ScheduleSpec
from ..simnet.topology import Network, build_dumbbell
from ..trace.recorder import FlightRecorder
from ..trace.spec import TraceSpec
from ..tcp.options import TcpOptions
from ..tcp.stack import TcpStack
from ..udp.socket import UdpStack
from ..workloads.specweb import SpecWebMix
from .modes import RunContext, scenario

__all__ = [
    "BulkFlowResult",
    "WebResult",
    "BitTorrentResult",
    "StreamingResult",
    "CpuResult",
    "CrossTrafficResult",
    "ConsolidationResult",
    "DynamicTdfResult",
    "run_bulk",
    "run_web",
    "run_bittorrent",
    "run_starlink",
    "run_cpu_task",
    "run_bulk_with_cross_traffic",
    "run_consolidated",
    "run_dynamic_tdf",
    "default_queue_packets",
    "relative_error",
    "RUNNERS",
    "RUNNER_PARAMETERS",
]

#: Frame size used for queue-sizing arithmetic (MSS + headers).
FRAME_BYTES = 1500


def relative_error(measured: float, reference: float) -> float:
    """|measured - reference| / |reference| (0 when both are 0)."""
    if reference == 0:
        return 0.0 if measured == 0 else float("inf")
    return abs(measured - reference) / abs(reference)


def default_queue_packets(profile: NetworkProfile,
                          frame_bytes: int = FRAME_BYTES) -> int:
    """Queue sized at one bandwidth-delay product (standard provisioning).

    Note the BDP in *packets* is dilation-invariant: physical bandwidth
    shrinks by k while physical RTT grows by k, so the same queue depth is
    correct for a dilated run and its baseline — exactly as the paper kept
    one dummynet queue configuration across TDFs. ``frame_bytes`` must
    match the flow's actual frame size or the buffer is mis-provisioned
    (a 1500-byte sizing under 9000-byte jumbo frames yields a 6x-BDP
    bufferbloat queue whose delay trips spurious RTOs).

    Size from the **perceived** profile, not the physical one: the
    invariance above holds exactly in real arithmetic but not in floats —
    dividing bandwidth by an awkward TDF (e.g. 7) can land the product one
    ulp below an integer packet count, which truncation then turns into a
    whole-packet difference between a dilated run and its baseline (the
    seed-era 60 Mbps / 30 ms / TDF 7 equivalence outlier). The near-integer
    snap below guards direct callers that only have the physical profile.
    """
    bdp_bytes = profile.bandwidth_bps * profile.rtt_s / 8
    packets = bdp_bytes / frame_bytes
    snapped = round(packets)
    if snapped > 0 and abs(packets - snapped) < 1e-9 * snapped:
        packets = snapped
    return int(min(max(packets, 20), 4000))


# ===================================================================== bulk TCP


@dataclass
class BulkFlowResult:
    """Metrics from a bulk-transfer (iperf) run, in virtual units."""

    goodput_bps: float
    per_flow_goodput_bps: List[float]
    delivered_bytes: int
    retransmits: int
    timeouts: int
    srtt: Optional[float]
    segments_sent: int
    interarrivals: List[float] = field(default_factory=list)
    #: Total engine events executed by the run (determinism fingerprint).
    events_processed: int = 0
    #: Cumulative dupack / fast-retransmit accounting over all senders.
    dupacks: int = 0
    fast_retransmits: int = 0
    fast_recoveries: int = 0
    #: Drop taxonomy of the bottleneck's data-direction egress
    #: (reason -> count; empty on a clean run).
    bottleneck_drops: Dict[str, int] = field(default_factory=dict)
    #: Corrupted segments discarded by the receivers' checksum validation.
    checksum_drops: int = 0
    #: Flight-recorder events (empty unless the run was given a TraceSpec).
    trace_events: List = field(default_factory=list)
    #: Per-shard barrier accounting when the run was sharded (empty for
    #: single-process runs; excluded from figure reports).
    shard_stats: List = field(default_factory=list)
    #: Wall-clock pacing accounting when the run was real-time paced
    #: (:meth:`repro.realtime.driver.RealtimeStats.as_dict`; empty for
    #: batch runs).
    realtime_stats: Dict = field(default_factory=dict)


def _bulk_assignment(flows: int, shards: int) -> Dict[str, int]:
    """Split the dumbbell at the bottleneck: senders left, receivers right.

    The bottleneck link is the topology's only positive-lookahead cut, so
    a dumbbell supports exactly two shards.
    """
    if shards != 2:
        raise ConfigurationError(
            "run_bulk supports exactly 2 shards (the dumbbell's only "
            f"partitionable cut is the bottleneck link); got {shards}"
        )
    assignment = {"rL": 0, "rR": 1}
    for index in range(flows):
        assignment[f"s{index}"] = 0
        assignment[f"d{index}"] = 1
    return assignment


def _merge_bulk(results: List[BulkFlowResult]) -> BulkFlowResult:
    """Combine per-shard bulk results into the single-process equivalent.

    Every field is owned by exactly one shard (a flow's server lives on
    one worker; the rest report the identity element), so all the sums
    below are float- and int-exact — the merged result equals the
    ``shards=1`` result bit for bit.
    """
    flows = len(results[0].per_flow_goodput_bps)
    per_flow = [0.0] * flows
    drops: Dict[str, int] = {}
    interarrivals: List[float] = []
    srtt = None
    for result in results:
        for index, value in enumerate(result.per_flow_goodput_bps):
            per_flow[index] += value
        for reason, count in result.bottleneck_drops.items():
            drops[reason] = drops.get(reason, 0) + count
        interarrivals.extend(result.interarrivals)
        if srtt is None:
            srtt = result.srtt
    return BulkFlowResult(
        goodput_bps=sum(per_flow),
        per_flow_goodput_bps=per_flow,
        delivered_bytes=sum(r.delivered_bytes for r in results),
        retransmits=sum(r.retransmits for r in results),
        timeouts=sum(r.timeouts for r in results),
        srtt=srtt,
        segments_sent=sum(r.segments_sent for r in results),
        interarrivals=interarrivals,
        events_processed=sum(r.events_processed for r in results),
        dupacks=sum(r.dupacks for r in results),
        fast_retransmits=sum(r.fast_retransmits for r in results),
        fast_recoveries=sum(r.fast_recoveries for r in results),
        bottleneck_drops=drops,
        checksum_drops=sum(r.checksum_drops for r in results),
    )


@scenario(
    assign=lambda call: _bulk_assignment(call["flows"], call["shards"]),
    merge=_merge_bulk,
)
def run_bulk(
    perceived: NetworkProfile,
    tdf: TdfLike,
    duration_s: float,
    flows: int = 1,
    flavor: str = "newreno",
    queue_packets: Optional[int] = None,
    warmup_s: float = 0.0,
    collect_interarrivals: bool = False,
    sack: bool = True,
    mss: int = 1460,
    impair: Optional[ImpairmentSpec] = None,
    schedule: Optional[ScheduleSpec] = None,
    trace: Optional[TraceSpec] = None,
    shards: int = 1,
    fidelity: str = "packet",
    realtime=False,
    _shard=None,
) -> BulkFlowResult:
    """Bulk TCP over a dilated dumbbell; goodput in virtual bits/second.

    ``duration_s`` and ``warmup_s`` are virtual seconds; the physical run
    is ``tdf`` times longer, as the paper's dilated experiments were.
    ``impair`` attaches to the bottleneck's data-direction egress; its
    decisions follow the packet sequence and its time knobs are virtual,
    so a dilated lossy run faces the same pattern as its baseline.
    ``collect_interarrivals`` records the first receiver's arrivals after
    warmup, in its virtual time.

    Modes (:mod:`repro.harness.modes`): the schedule drives the
    bottleneck link; two shards cut the dumbbell at the bottleneck,
    senders and left router in one, receivers and right router in the
    other; trace points are ``bottleneck`` (data egress), ``reverse``
    (ACK egress) and ``receiver`` (the first receiver's ingress, which
    ``collect_interarrivals`` also claims), stamped by the first
    receiver's clock, and ``tcp=1`` watches the first sender's socket.
    """
    factor = as_tdf(tdf)
    physical = physical_for(perceived, factor)
    access_physical = physical_for(
        NetworkProfile(perceived.bandwidth_bps * 10, 1e-5), factor
    )
    # Sized from the perceived profile: the BDP in packets is
    # dilation-invariant, and the perceived numbers are TDF-free so the
    # dilated run and its baseline can never round to different depths.
    queue = (
        queue_packets
        if queue_packets is not None
        else default_queue_packets(perceived, frame_bytes=mss + 40)
    )
    bell = build_dumbbell(
        pairs=flows,
        access_bandwidth_bps=access_physical.bandwidth_bps,
        bottleneck_bandwidth_bps=physical.bandwidth_bps,
        bottleneck_delay_s=physical.delay_s,
        access_delay_s=access_physical.delay_s,
        queue_factory=lambda: DropTailQueue(capacity_packets=queue),
    )
    net = bell.network
    run = RunContext(
        net, factor, scheduled_link=bell.bottleneck, schedule=schedule,
        fidelity=fidelity, trace=trace, realtime=realtime, shard=_shard,
    )
    owns = run.owns
    bottleneck_egress = bell.bottleneck.interface_from(bell.router_left)
    if impair is not None and owns(bell.router_left):
        bottleneck_egress.set_impairments(impair.build(net.sim, tdf=factor))
    vmm = Hypervisor(net.sim)
    share = 1.0 / (2 * flows)
    # Size the receive window to never be the bottleneck (the paper's
    # guests relied on window scaling for the same reason).
    receive_buffer = max(1 << 20, int(perceived.bandwidth_delay_product_bits / 2))
    options = TcpOptions(flavor=flavor, sack=sack, mss=mss,
                         receive_buffer=receive_buffer)
    servers: List[IperfServer] = []
    clients: List[IperfClient] = []
    receiver_vm = None
    for index in range(flows):
        vmm.create_vm(f"snd{index}", tdf=factor, cpu_share=share,
                      node=bell.senders[index])
        vm = vmm.create_vm(f"rcv{index}", tdf=factor, cpu_share=share,
                           node=bell.receivers[index])
        if index == 0:
            receiver_vm = vm
        # Stacks and applications only exist on the shard that owns the
        # node (positional None placeholders elsewhere); VMs exist in
        # every worker because their creation schedules nothing.
        servers.append(
            IperfServer(TcpStack(bell.receivers[index]), options=options)
            if owns(bell.receivers[index])
            else None
        )
        # Never let the transfer finish inside the measurement window: queue
        # twice what the perceived path could move in the whole run.
        transfer_bytes = int(perceived.bandwidth_bps * duration_s / 8 * 2) + (1 << 20)
        clients.append(
            IperfClient(
                TcpStack(bell.senders[index]),
                bell.receivers[index].name,
                total_bytes=transfer_bytes,
                options=options,
                flow_id=f"flow{index}",
            )
            if owns(bell.senders[index])
            else None
        )
    assert receiver_vm is not None
    arrivals = None
    if collect_interarrivals and owns(bell.receivers[0]):
        arrivals = FlightRecorder(
            capacity=None, name="interarrivals", packet_kinds=("rx",),
            flow_id="flow0",
        ).attach_interface(bell.receiver_links[0].b_to_a)
    run.record(
        "bulk",
        points={
            "bottleneck": (bottleneck_egress, bell.router_left),
            "reverse": (bell.bottleneck.interface_from(bell.router_right),
                        bell.router_right),
            "receiver": (bell.receiver_links[0].b_to_a, bell.receivers[0]),
        },
        clock=receiver_vm.clock, clock_node=bell.receivers[0], label="rcv0",
    )
    for client in clients:
        if client is not None:
            client.start()
    if clients[0] is not None:
        run.record_socket(clients[0].socket)
    advance = run.pace()
    warmup_bytes = [0] * flows
    if warmup_s > 0:
        advance(receiver_vm.clock.to_physical(warmup_s))
        warmup_bytes = [
            server.total_bytes if server is not None else 0
            for server in servers
        ]
        if arrivals is not None:
            arrivals.clear()
    advance(receiver_vm.clock.to_physical(duration_s))
    span = duration_s - warmup_s
    per_flow = [
        (server.total_bytes - start) * 8 / span if server is not None else 0.0
        for server, start in zip(servers, warmup_bytes)
    ]
    delivered = sum(server.total_bytes - start
                    for server, start in zip(servers, warmup_bytes)
                    if server is not None)
    interarrivals: List[float] = []
    if arrivals is not None:
        stamps = [receiver_vm.clock.to_local(event.physical_time)
                  for event in arrivals]
        interarrivals = [b - a for a, b in zip(stamps, stamps[1:])]
    live = [c for c in clients if c is not None]
    first = clients[0].socket if clients[0] is not None else None
    return run.finish(BulkFlowResult(
        goodput_bps=sum(per_flow),
        per_flow_goodput_bps=per_flow,
        delivered_bytes=delivered,
        retransmits=sum(c.socket.retransmits for c in live if c.socket),
        timeouts=sum(c.socket.timeouts for c in live if c.socket),
        srtt=first.rtt.srtt if first is not None else None,
        segments_sent=sum(c.socket.segments_sent for c in live if c.socket),
        interarrivals=interarrivals,
        events_processed=net.sim.events_processed,
        dupacks=sum(c.socket.dupacks_received for c in live if c.socket),
        fast_retransmits=sum(
            c.socket.fast_retransmits for c in live if c.socket
        ),
        fast_recoveries=sum(
            c.socket.fast_recoveries for c in live if c.socket
        ),
        bottleneck_drops=dict(bottleneck_egress.drops),
        checksum_drops=sum(
            server.stack.checksum_drops
            for server in servers
            if server is not None
        ),
    ))


# ========================================================================= web


@dataclass
class WebResult:
    """Metrics from one web-load run, in virtual units."""

    offered_rps: float
    issued: int
    completed: int
    failed: int
    throughput_rps: float
    mean_latency_s: float
    p95_latency_s: float
    bytes_received: int


def run_web(
    perceived: NetworkProfile,
    tdf: TdfLike,
    rate_rps: float,
    duration_s: float,
    seed: int,
    host_cycles_per_second: float = 1e9,
    scale_cpu: bool = False,
    drain_s: float = 2.0,
) -> WebResult:
    """SPECweb-like open-loop load against the dilated web server.

    ``scale_cpu=False`` (default) compensates the server's CPU share so the
    guest perceives a constant-speed CPU while the network dilates — the
    paper's recipe for scaling resources independently. ``scale_cpu=True``
    lets the CPU dilate along with everything else.
    """
    factor = as_tdf(tdf)
    physical = physical_for(perceived, factor)
    net = Network()
    server_node = net.add_node("www")
    client_node = net.add_node("client")
    net.add_link(
        server_node, client_node, physical.bandwidth_bps, physical.delay_s,
        queue_factory=lambda: DropTailQueue(
            capacity_packets=default_queue_packets(perceived)
        ),
    )
    net.finalize()
    vmm = Hypervisor(net.sim, host_cycles_per_second=host_cycles_per_second)
    server_share = 0.5 if scale_cpu else min(0.5, 0.5 / float(factor.value))
    server_vm = vmm.create_vm("www-vm", tdf=factor, cpu_share=server_share,
                              node=server_node)
    vmm.create_vm("client-vm", tdf=factor, cpu_share=0.25, node=client_node)
    mix = SpecWebMix(rng=random.Random(seed))
    WebServer(TcpStack(server_node), mix, cpu=server_vm.cpu)
    load = OpenLoopHttpLoad(
        TcpStack(client_node),
        "www",
        rate_per_second=rate_rps,
        mix=SpecWebMix(rng=random.Random(seed + 1)),
        rng=random.Random(seed + 2),
        duration_s=duration_s,
    )
    load.start()
    net.run(until=server_vm.clock.to_physical(duration_s + drain_s))
    samples = load.latency.samples
    p95 = 0.0
    if samples:
        from ..stats.cdf import percentile

        p95 = percentile(samples, 95)
    return WebResult(
        offered_rps=rate_rps,
        issued=load.issued,
        completed=load.completed,
        failed=load.failed,
        throughput_rps=load.completed / duration_s,
        mean_latency_s=load.latency.summary.mean,
        p95_latency_s=p95,
        bytes_received=load.bytes_received,
    )


# ================================================================== BitTorrent


@dataclass
class BitTorrentResult:
    """Swarm metrics in virtual units."""

    download_times_s: List[float]
    completed: int
    leechers: int
    seed_uploaded_bytes: int
    total_downloaded_bytes: int
    #: Total engine events executed by the run (determinism fingerprint).
    events_processed: int = 0
    #: Announces the tracker answered (retries included).
    tracker_announces: int = 0
    #: Live peer connections across the swarm when the run ended.
    connections_total: int = 0
    #: Flight-recorder events when a ``trace`` spec was supplied.
    trace_events: List = field(default_factory=list)
    #: Per-shard barrier accounting when the run was sharded (empty for
    #: single-process runs; excluded from figure reports).
    shard_stats: List = field(default_factory=list)
    #: Wall-clock pacing accounting when the run was real-time paced
    #: (empty for batch runs).
    realtime_stats: Dict = field(default_factory=dict)


def _swarm_assignment(leechers: int, shards: int) -> Dict[str, int]:
    """Hub + tracker in shard 0, seed in shard 1, leechers striped.

    The hub forwards every packet in the star (~30% of swarm events) and
    the seed transmits every original piece copy (~15%); parking both in
    shard 0 left it executing ~65% of all events while its siblings
    idled at the barrier. Striping the seed out and giving shard 0 one
    leecher per cycle against two for every other shard lands a 2-way
    split at ~50/50 measured event share (hub + tracker + n/3 leechers
    vs seed + 2n/3 leechers).
    """
    if shards < 2:
        raise ConfigurationError(
            f"a sharded swarm needs at least 2 shards, got {shards}"
        )
    if leechers < shards - 1:
        raise ConfigurationError(
            f"cannot spread {leechers} leechers over {shards} shards: "
            "every shard above 0 needs at least one leecher"
        )
    assignment = {"hub": 0, "h0": 0, "h1": 1}
    pattern = [0] + [shard for shard in range(1, shards) for _ in (0, 1)]
    for index in range(leechers):
        assignment[f"h{index + 2}"] = pattern[index % len(pattern)]
    return assignment


def _merge_bittorrent(results: List[BitTorrentResult]) -> BitTorrentResult:
    """Combine per-shard swarm results into the single-process equivalent.

    Each peer (and the tracker) exists on exactly one shard; the others
    contribute zeros or empty lists, so sums and the sorted download-time
    concatenation reproduce the ``shards=1`` result exactly.
    """
    return BitTorrentResult(
        download_times_s=sorted(
            t for r in results for t in r.download_times_s
        ),
        completed=sum(r.completed for r in results),
        leechers=results[0].leechers,
        seed_uploaded_bytes=sum(r.seed_uploaded_bytes for r in results),
        total_downloaded_bytes=sum(
            r.total_downloaded_bytes for r in results
        ),
        events_processed=sum(r.events_processed for r in results),
        tracker_announces=sum(r.tracker_announces for r in results),
        connections_total=sum(r.connections_total for r in results),
    )


@scenario(
    assign=lambda call: _swarm_assignment(call["leechers"], call["shards"]),
    merge=_merge_bittorrent,
)
def run_bittorrent(
    perceived_leaf: NetworkProfile,
    tdf: TdfLike,
    leechers: int,
    file_bytes: int,
    seed: int,
    piece_bytes: int = 65536,
    horizon_s: float = 600.0,
    choke_interval_s: float = 5.0,
    impair: Optional[ImpairmentSpec] = None,
    impair_tracker: Optional[ImpairmentSpec] = None,
    schedule: Optional[ScheduleSpec] = None,
    trace: Optional[TraceSpec] = None,
    delay_salt: float = 0.0,
    timer_salt: float = 0.0,
    shards: int = 1,
    fidelity: str = "packet",
    realtime=False,
    _shard=None,
) -> BitTorrentResult:
    """A one-seed swarm on a dilated star; download times in virtual seconds.

    ``impair`` attaches to the seed's uplink egress (the link every
    original piece copy crosses); ``impair_tracker`` impairs both
    directions of the tracker's access link instead — the scenario the
    announce retry exists for.

    ``delay_salt`` spreads the leaf propagation delays by a relative
    per-leaf offset (leaf ``i`` gets ``delay * (1 + delay_salt *
    frac(i))`` with a fixed hash fraction); ``timer_salt`` spreads the
    peers' choke intervals the same way. Both default to 0.0, the
    historical perfectly symmetric star. A tiny salt breaks the
    float-time phase locking in which packets from different leaves
    reach the hub at bit-equal timestamps, ties that no bounded
    cross-shard merge key can order (see :mod:`repro.parallel.shard`).

    Modes (:mod:`repro.harness.modes`): the schedule drives the seed's
    access link, the Starlink-backhaul case; shards keep the hub and
    tracker in worker 0, the seed in worker 1 and stripe the leechers
    (see :func:`_swarm_assignment`), and a salted sharded run is
    event-for-event identical to ``shards=1``; trace points are
    ``bottleneck`` (the seed's uplink egress), ``reverse`` (hub to seed)
    and ``receiver`` (the first leecher's ingress), stamped by the first
    leecher's clock (a swarm has no single socket, so ``tcp=1`` is
    ignored).
    """
    factor = as_tdf(tdf)
    physical = physical_for(perceived_leaf, factor)
    net = Network()
    hub = net.add_node("hub")
    leaf_count = leechers + 2  # tracker + seed
    leaves = []
    links = []
    for index in range(leaf_count):
        leaf = net.add_node(f"h{index}")
        link = net.add_link(
            leaf, hub, physical.bandwidth_bps,
            physical.delay_s * (1.0 + delay_salt * salt_fraction(index)),
            queue_factory=lambda: DropTailQueue(
                capacity_packets=default_queue_packets(perceived_leaf)
            ),
        )
        leaves.append(leaf)
        links.append(link)
    net.finalize()
    tracker_link, seed_link, first_leecher_link = links[0], links[1], links[2]
    run = RunContext(
        net, factor, scheduled_link=seed_link, schedule=schedule,
        fidelity=fidelity, trace=trace, realtime=realtime, shard=_shard,
    )
    owns = run.owns
    # Impairment chains attach to an egress, so they belong to the shard
    # that owns the transmitting node.
    if impair is not None and owns(leaves[1]):
        seed_link.interface_from(leaves[1]).set_impairments(
            impair.build(net.sim, tdf=factor)
        )
    if impair_tracker is not None:
        if owns(hub):
            tracker_link.interface_from(hub).set_impairments(
                impair_tracker.build(net.sim, tdf=factor)
            )
        if owns(leaves[0]):
            tracker_link.interface_from(leaves[0]).set_impairments(
                impair_tracker.build(net.sim, tdf=factor)
            )
    vmm = Hypervisor(net.sim)
    share = 1.0 / leaf_count
    vms = [
        vmm.create_vm(f"vm{index}", tdf=factor, cpu_share=share, node=leaf)
        for index, leaf in enumerate(leaves)
    ]
    meta = TorrentMeta(name="bench.torrent", total_bytes=file_bytes,
                       piece_size=piece_bytes)
    swarm = build_swarm(
        tracker_node=leaves[0],
        seed_nodes=[leaves[1]],
        leecher_nodes=leaves[2:],
        meta=meta,
        rng=random.Random(seed),
        config=PeerConfig(choke_interval_s=choke_interval_s,
                          stall_timeout_s=4 * choke_interval_s),
        include=owns,
        timer_salt=timer_salt,
    )
    run.record(
        "swarm",
        points={
            "bottleneck": (seed_link.interface_from(leaves[1]), leaves[1]),
            "reverse": (seed_link.interface_from(hub), hub),
            "receiver": (first_leecher_link.interface_from(hub), hub),
        },
        clock=vms[2].clock, clock_node=leaves[2], label="leecher0",
    )
    swarm.start()
    clock = vms[0].clock
    advance = run.pace()
    step = 5.0
    elapsed = 0.0
    # ``all_agree`` makes the completion predicate global, so every shard
    # takes the same number of 5-virtual-second strides.
    while not run.all_agree(swarm.all_complete()) and elapsed < horizon_s:
        elapsed = min(horizon_s, elapsed + step)
        advance(clock.to_physical(elapsed))
    seed_peer = swarm.seeds[0]
    return run.finish(BitTorrentResult(
        download_times_s=sorted(swarm.download_times()),
        completed=sum(
            1 for p in swarm.leechers if p is not None and p.complete
        ),
        leechers=leechers,
        seed_uploaded_bytes=(
            seed_peer.bytes_uploaded if seed_peer is not None else 0
        ),
        total_downloaded_bytes=sum(
            p.bytes_downloaded for p in swarm.leechers if p is not None
        ),
        events_processed=net.sim.events_processed,
        tracker_announces=(
            swarm.tracker.announces if swarm.tracker is not None else 0
        ),
        connections_total=sum(p.connection_count for p in swarm.peers),
    ))


# ============================================================== starlink/QoE


@dataclass
class StreamingResult:
    """Streaming-over-a-dynamic-path metrics, in virtual units."""

    frames_sent: int
    frames_on_time: int
    frames_late: int
    frames_lost: int
    #: Per-frame one-way delays (virtual seconds, arrival order) — the
    #: distribution the ext6 CDF-quantile/KS gates compare across TDFs.
    frame_delays_s: List[float]
    playable_fraction: float
    #: Mean absolute delay variation between consecutive arrivals.
    jitter_s: float
    #: (late + lost) / sent — the QoE stall proxy.
    stall_fraction: float
    #: Goodput of the competing bulk download (0.0 when ``bulk=False``).
    bulk_goodput_bps: float
    #: Schedule entries actually applied (0 for a static run).
    schedule_changes: int
    #: Egress drops with reason "down" on the scheduled link — packets
    #: that hit a handover outage.
    outage_drops: int
    #: Total engine events executed by the run (determinism fingerprint).
    events_processed: int = 0


def run_starlink(
    perceived: NetworkProfile,
    tdf: TdfLike,
    duration_s: float,
    schedule: Optional[ScheduleSpec] = None,
    frame_interval_s: float = 0.020,
    frame_bytes: int = 480,
    playout_delay_s: float = 0.080,
    bulk: bool = True,
    flavor: str = "newreno",
    queue_packets: Optional[int] = None,
    mss: int = 1460,
) -> StreamingResult:
    """Media streaming (plus a competing bulk flow) over a scheduled path.

    The Starlink-like three-node chain: a user terminal (``ut``) behind a
    space segment whose delay/bandwidth/liveness follow ``schedule``
    (virtual-time indexed — see :class:`~repro.simnet.schedule.ScheduleSpec`),
    a gateway (``gw``), and a server (``srv``) on a fast terrestrial
    link. ``srv`` streams fixed-cadence media frames downlink to a jitter
    buffer on ``ut``; with ``bulk=True`` a TCP download shares the path,
    so handovers are felt through the queue as well as the wire.

    All metrics are virtual-axis: frame delays come from the dilated
    guest clocks, so a TDF-10 run and its baseline are compared on the
    perceived timeline — dilation equivalence under a *time-varying*
    topology is exactly what ext6 gates.
    """
    factor = as_tdf(tdf)
    physical = physical_for(perceived, factor)
    terrestrial = physical_for(
        NetworkProfile(perceived.bandwidth_bps * 10, 2e-3), factor
    )
    queue = (
        queue_packets
        if queue_packets is not None
        else default_queue_packets(perceived, frame_bytes=mss + 40)
    )
    net = Network()
    ut = net.add_node("ut")
    gw = net.add_node("gw")
    srv = net.add_node("srv")
    space = net.add_link(
        ut, gw, physical.bandwidth_bps, physical.delay_s,
        queue_factory=lambda: DropTailQueue(capacity_packets=queue),
    )
    net.add_link(
        gw, srv, terrestrial.bandwidth_bps, terrestrial.delay_s,
        queue_factory=lambda: DropTailQueue(capacity_packets=queue),
    )
    net.finalize()
    run = RunContext(net, factor, scheduled_link=space, schedule=schedule)
    vmm = Hypervisor(net.sim)
    vm_ut = vmm.create_vm("ut", tdf=factor, cpu_share=1 / 3, node=ut)
    vmm.create_vm("gw", tdf=factor, cpu_share=1 / 3, node=gw)
    vmm.create_vm("srv", tdf=factor, cpu_share=1 / 3, node=srv)
    sink = JitterBufferSink(
        UdpStack(ut), port=5004, playout_delay_s=playout_delay_s,
        keep_samples=True,
    )
    # Stop the frame train half a virtual second before the end of the
    # run so tail frames still in flight are not miscounted as QoE loss.
    total_frames = max(1, int((duration_s - 0.5) / frame_interval_s))
    source = MediaSource(
        UdpStack(srv), "ut", 5004,
        frame_interval_s=frame_interval_s,
        frame_bytes=frame_bytes,
        total_frames=total_frames,
        flow_id="media",
    )
    server = None
    if bulk:
        receive_buffer = max(
            1 << 20, int(perceived.bandwidth_delay_product_bits / 2)
        )
        options = TcpOptions(flavor=flavor, mss=mss,
                             receive_buffer=receive_buffer)
        server = IperfServer(TcpStack(ut), options=options)
        transfer_bytes = (
            int(perceived.bandwidth_bps * duration_s / 8 * 2) + (1 << 20)
        )
        client = IperfClient(
            TcpStack(srv), "ut", total_bytes=transfer_bytes,
            options=options, flow_id="bulk",
        )
        client.start()
    source.start()
    net.run(until=vm_ut.clock.to_physical(duration_s))
    sink.finalize(source.frames_sent)
    outage_drops = (
        space.a_to_b.drops.get("down", 0) + space.b_to_a.drops.get("down", 0)
    )
    return StreamingResult(
        frames_sent=source.frames_sent,
        frames_on_time=sink.on_time,
        frames_late=sink.late,
        frames_lost=sink.lost,
        frame_delays_s=list(sink.delays),
        playable_fraction=sink.playable_fraction(),
        jitter_s=sink.jitter_s(),
        stall_fraction=sink.stall_fraction(source.frames_sent),
        bulk_goodput_bps=(
            server.total_bytes * 8 / duration_s if server is not None else 0.0
        ),
        schedule_changes=(
            run.schedule.applied if run.schedule is not None else 0
        ),
        outage_drops=outage_drops,
        events_processed=net.sim.events_processed,
    )


# ========================================================== cross traffic


@dataclass
class CrossTrafficResult:
    """Metrics from a TCP flow competing with UDP cross traffic."""

    tcp_goodput_bps: float
    cross_rate_bps: float
    tcp_retransmits: int


def run_bulk_with_cross_traffic(
    perceived: NetworkProfile,
    tdf: TdfLike,
    duration_s: float,
    cross_fraction: float = 0.3,
    warmup_s: float = 1.0,
) -> CrossTrafficResult:
    """One TCP flow sharing the bottleneck with a CBR stream.

    ``cross_fraction`` is the CBR source's share of the perceived
    bottleneck; TCP should settle near the remainder. The generator runs
    inside a dilated guest like everything else, so the dilated and
    baseline runs offer identical (virtual-time) background load.
    """
    factor = as_tdf(tdf)
    physical = physical_for(perceived, factor)
    access_physical = physical_for(
        NetworkProfile(perceived.bandwidth_bps * 10, 1e-5), factor
    )
    bell = build_dumbbell(
        pairs=2,
        access_bandwidth_bps=access_physical.bandwidth_bps,
        bottleneck_bandwidth_bps=physical.bandwidth_bps,
        bottleneck_delay_s=physical.delay_s,
        access_delay_s=access_physical.delay_s,
        queue_factory=lambda: DropTailQueue(
            capacity_packets=default_queue_packets(perceived)
        ),
    )
    net = bell.network
    vmm = Hypervisor(net.sim)
    vms = []
    for index in range(2):
        vms.append(vmm.create_vm(f"snd{index}", tdf=factor, cpu_share=0.2,
                                 node=bell.senders[index]))
        vms.append(vmm.create_vm(f"rcv{index}", tdf=factor, cpu_share=0.2,
                                 node=bell.receivers[index]))
    options = TcpOptions()
    server = IperfServer(TcpStack(bell.receivers[0]), options=options)
    transfer = int(perceived.bandwidth_bps * duration_s / 8 * 2) + (1 << 20)
    client = IperfClient(
        TcpStack(bell.senders[0]), bell.receivers[0].name,
        total_bytes=transfer, options=options,
    )
    sink = UdpSink(UdpStack(bell.receivers[1]), 9000)
    cross = CbrSource(
        UdpStack(bell.senders[1]), bell.receivers[1].name, 9000,
        rate_bps=perceived.bandwidth_bps * cross_fraction,  # virtual rate
        packet_bytes=1000,
    )
    client.start()
    cross.start()
    receiver_vm = vms[1]
    net.run(until=receiver_vm.clock.to_physical(warmup_s))
    tcp_at_warmup = server.total_bytes
    cross_at_warmup = sink.bytes_received
    net.run(until=receiver_vm.clock.to_physical(duration_s))
    span = duration_s - warmup_s
    return CrossTrafficResult(
        tcp_goodput_bps=(server.total_bytes - tcp_at_warmup) * 8 / span,
        cross_rate_bps=(sink.bytes_received - cross_at_warmup) * 8 / span,
        tcp_retransmits=client.socket.retransmits if client.socket else 0,
    )


# ========================================================== VM consolidation


@dataclass
class ConsolidationResult:
    """Metrics from several dilated guests multiplexed on one machine."""

    per_guest_goodput_bps: List[float]
    aggregate_goodput_bps: float


def run_consolidated(
    perceived_uplink: NetworkProfile,
    tdf: TdfLike,
    guests: int,
    duration_s: float,
    warmup_s: float = 1.0,
) -> ConsolidationResult:
    """Several dilated guests on one physical machine, sharing its uplink.

    The paper multiplexed multiple dilated VMs per physical host; the key
    property is that contention for the machine's shared NIC is perceived
    consistently. Topology: ``guests`` sender VMs bridge through a machine
    node whose single uplink (the perceived profile, rescaled) carries all
    their traffic to distinct receivers.
    """
    factor = as_tdf(tdf)
    physical = physical_for(perceived_uplink, factor)
    fast = physical_for(
        NetworkProfile(perceived_uplink.bandwidth_bps * 10, 1e-5), factor
    )
    net = Network()
    machine = net.add_node("machine")
    switch = net.add_node("switch")
    net.add_link(
        machine, switch, physical.bandwidth_bps, physical.delay_s,
        queue_factory=lambda: DropTailQueue(
            capacity_packets=default_queue_packets(perceived_uplink)
        ),
    )
    vmm = Hypervisor(net.sim)
    share = 1.0 / (guests + 1)
    servers: List[IperfServer] = []
    transfer = int(perceived_uplink.bandwidth_bps * duration_s / 8 * 2) + (1 << 20)
    guest_nodes = []
    receiver_nodes = []
    for index in range(guests):
        guest = net.add_node(f"guest{index}")
        receiver = net.add_node(f"sink{index}")
        # Virtual NIC to the machine's bridge: fast, negligible delay.
        net.add_link(guest, machine, fast.bandwidth_bps, fast.delay_s)
        net.add_link(switch, receiver, fast.bandwidth_bps, fast.delay_s)
        guest_nodes.append(guest)
        receiver_nodes.append(receiver)
    net.finalize()
    reference_vm = None
    clients = []
    for index in range(guests):
        vmm.create_vm(f"vm{index}", tdf=factor, cpu_share=share,
                      node=guest_nodes[index])
        vm = vmm.create_vm(f"vm-sink{index}", tdf=factor,
                           cpu_share=share / max(1, guests),
                           node=receiver_nodes[index])
        if index == 0:
            reference_vm = vm
        servers.append(IperfServer(TcpStack(receiver_nodes[index])))
        clients.append(IperfClient(
            TcpStack(guest_nodes[index]), receiver_nodes[index].name,
            total_bytes=transfer,
        ))
    for client in clients:
        client.start()
    assert reference_vm is not None
    net.run(until=reference_vm.clock.to_physical(warmup_s))
    at_warmup = [server.total_bytes for server in servers]
    net.run(until=reference_vm.clock.to_physical(duration_s))
    span = duration_s - warmup_s
    per_guest = [
        (server.total_bytes - start) * 8 / span
        for server, start in zip(servers, at_warmup)
    ]
    return ConsolidationResult(
        per_guest_goodput_bps=per_guest,
        aggregate_goodput_bps=sum(per_guest),
    )


# ============================================================= guest programs


@dataclass
class BuildJobResult:
    """Phase timings of the mixed-resource guest program, virtual seconds."""

    disk_read_s: float
    compute_s: float
    disk_write_s: float
    network_s: float
    total_s: float


def run_guest_build_job(
    perceived_net: NetworkProfile,
    tdf: TdfLike,
    compensate: bool = True,
    host_cycles_per_second: float = 1e9,
    disk_bandwidth: float = 100e6,
    read_bytes: int = 20 << 20,
    compute_cycles: float = 2e9,
    write_bytes: int = 5 << 20,
    upload_bytes: int = 10 << 20,
) -> BuildJobResult:
    """A "build server" job touching every dilated resource in sequence:
    read sources from disk → compile (CPU) → write the artifact → upload
    it over TCP. Timed phase by phase with the guest's own clock.

    ``compensate=True`` throttles CPU and disk by 1/TDF so only the
    network dilates (the paper's independent-scaling recipe); with
    ``compensate=False`` every resource appears TDF-times faster.
    """
    from ..core.disk import VirtualDisk
    from ..core.guest import (
        CloseSock,
        Compute,
        Connect,
        DiskRead,
        DiskWrite,
        Flush,
        GuestKernel,
        Now,
        SendOn,
    )

    factor = as_tdf(tdf)
    physical = physical_for(perceived_net, factor)
    net = Network()
    builder = net.add_node("builder")
    server = net.add_node("artifacts")
    net.add_link(
        builder, server, physical.bandwidth_bps, physical.delay_s,
        queue_factory=lambda: DropTailQueue(
            capacity_packets=default_queue_packets(perceived_net)
        ),
    )
    net.finalize()
    vmm = Hypervisor(net.sim, host_cycles_per_second=host_cycles_per_second)
    scale = 1.0 / float(factor.value) if compensate else 1.0
    vm = vmm.create_vm("builder-vm", tdf=factor,
                       cpu_share=min(0.5, 0.5 * scale), node=builder)
    # The throttle alone compensates: it stretches both positioning and
    # transfer by TDF physically, so the guest perceives them unchanged.
    vm.attach_disk(VirtualDisk(
        net.sim, bandwidth_bytes_per_s=disk_bandwidth,
        positioning_delay_s=0.004,
        throttle=min(1.0, scale),
    ))
    vmm.create_vm("server-vm", tdf=factor, cpu_share=0.25, node=server)
    kernel = GuestKernel(vm)
    kernel.use_tcp(TcpStack(builder))
    server_stack = TcpStack(server)
    server_stack.listen(80, lambda s: None)
    marks: Dict[str, float] = {}

    def job():
        # The whole pipeline is one guest program: disk, CPU and network
        # syscalls all resolve against the VM's dilated resources.
        marks["start"] = yield Now()
        yield DiskRead(read_bytes)
        marks["read_done"] = yield Now()
        yield Compute(compute_cycles)
        marks["compute_done"] = yield Now()
        yield DiskWrite(write_bytes)
        marks["write_done"] = yield Now()
        sock = yield Connect("artifacts", 80)
        yield SendOn(sock, upload_bytes)
        yield Flush(sock)
        yield CloseSock(sock)
        marks["upload_done"] = yield Now()

    process = kernel.spawn(job())
    horizon_virtual = 600.0
    net.run(until=vm.clock.to_physical(horizon_virtual))
    if process.error is not None:
        raise process.error
    if "upload_done" not in marks:
        raise SimulationErrorForBuildJob(marks, {})
    return BuildJobResult(
        disk_read_s=marks["read_done"] - marks["start"],
        compute_s=marks["compute_done"] - marks["read_done"],
        disk_write_s=marks["write_done"] - marks["compute_done"],
        network_s=marks["upload_done"] - marks["write_done"],
        total_s=marks["upload_done"] - marks["start"],
    )


class SimulationErrorForBuildJob(RuntimeError):
    """The build job did not finish within the experiment horizon."""

    def __init__(self, marks, received):
        super().__init__(
            f"build job incomplete: marks={marks}, received={received}"
        )


# ================================================================= dynamic TDF


@dataclass
class DynamicTdfResult:
    """One flow timed across a runtime TDF change, virtual units."""

    #: Perceived goodput during each TDF phase, bits per virtual second.
    phase_rates_bps: List[float]
    #: The TDF in force during each phase (parallel to ``phase_rates_bps``).
    phase_tdfs: List[int]
    #: The guest clock at the end of the run (continuity check).
    final_virtual_s: float


def run_dynamic_tdf(
    physical_bandwidth_bps: float,
    physical_delay_s: float,
    tdf_schedule: List[int],
    phase_s: float = 3.0,
    queue_packets: int = 100,
) -> DynamicTdfResult:
    """One TCP flow across runtime TDF changes (ablation A2).

    Runs ``len(tdf_schedule)`` phases of ``phase_s`` virtual seconds each;
    between phases the hypervisor re-dilates both guests live. The
    physical wire never changes — only the guests' perception of it does.
    """
    from ..core.vmm import Hypervisor

    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    net.add_link(a, b, physical_bandwidth_bps, physical_delay_s,
                 queue_factory=lambda: DropTailQueue(
                     capacity_packets=queue_packets))
    net.finalize()
    vmm = Hypervisor(net.sim)
    vmm.create_vm("vma", tdf=tdf_schedule[0], cpu_share=0.5, node=a)
    vm_b = vmm.create_vm("vmb", tdf=tdf_schedule[0], cpu_share=0.5, node=b)
    server = IperfServer(TcpStack(b))
    IperfClient(TcpStack(a), "b").start()
    rates: List[float] = []
    delivered = 0
    elapsed = 0.0
    for index, tdf in enumerate(tdf_schedule):
        if index > 0:
            vmm.set_tdf("vma", tdf)
            vmm.set_tdf("vmb", tdf)
        elapsed += phase_s
        net.run(until=vm_b.clock.to_physical(elapsed))
        phase_bytes = server.total_bytes - delivered
        delivered = server.total_bytes
        rates.append(phase_bytes * 8 / phase_s)
    return DynamicTdfResult(
        phase_rates_bps=rates,
        phase_tdfs=list(tdf_schedule),
        final_virtual_s=vm_b.clock.now(),
    )


# ========================================================================= CPU


@dataclass
class CpuResult:
    """A fixed-cycle task's timing under a dilation/share combination."""

    virtual_duration_s: float
    physical_duration_s: float
    perceived_speedup: float


def run_cpu_task(
    tdf: TdfLike,
    cpu_share: float,
    cycles: float = 2e9,
    host_cycles_per_second: float = 1e9,
) -> CpuResult:
    """Time one CPU-bound task as the guest sees it (Table 2)."""
    net = Network()
    vmm = Hypervisor(net.sim, host_cycles_per_second=host_cycles_per_second)
    vm = vmm.create_vm("cpu-vm", tdf=tdf, cpu_share=cpu_share)
    done = {}

    def on_complete():
        done["virtual"] = vm.clock.now()
        done["physical"] = net.sim.now

    vm.cpu.run(cycles, on_complete=on_complete)
    net.run()
    nominal = cycles / host_cycles_per_second
    return CpuResult(
        virtual_duration_s=done["virtual"],
        physical_duration_s=done["physical"],
        perceived_speedup=nominal / done["virtual"],
    )


# ================================================================== registry

#: Spec-driven entry points for the parallel sweep runner: every runner a
#: :class:`~repro.harness.runner.CellSpec` may name. Each is a pure
#: function of its keyword arguments — it builds its own Network/Simulator,
#: runs to completion, and returns a picklable result dataclass — which is
#: exactly what lets a cell execute in any process, in any order, with
#: bit-identical results.
RUNNERS = {
    "run_bulk": run_bulk,
    "run_web": run_web,
    "run_bittorrent": run_bittorrent,
    "run_starlink": run_starlink,
    "run_cpu_task": run_cpu_task,
    "run_bulk_with_cross_traffic": run_bulk_with_cross_traffic,
    "run_consolidated": run_consolidated,
    "run_guest_build_job": run_guest_build_job,
    "run_dynamic_tdf": run_dynamic_tdf,
}

#: Each runner's keyword names, read once from its signature: which
#: runner takes which execution mode (:func:`repro.harness.modes.accepts`).
RUNNER_PARAMETERS = {
    name: frozenset(inspect.signature(fn).parameters)
    for name, fn in RUNNERS.items()
}
